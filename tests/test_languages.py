import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlang.errors import ResourceLimitError, UnsupportedOracleError
from qlang.circuits import Circuit, Gate, evolve_pure, parse_circuit_text
from qlang.languages import (
    LanguageId,
    RegionVerdict,
    circuit_output_entangled,
    classify,
    member_L1,
    member_L2,
    member_L3,
)
from qlang.states import (
    Bipartition,
    PureState,
    basis_state,
    bell_state,
    ghz_state,
    maximally_mixed,
    partial_trace,
    plus_state,
    purity,
    random_pure_state,
    tensor_states,
    werner_state,
)
from qlang.protocols import haar_unitary

seeds = st.integers(min_value=0, max_value=10**9)


def minus_state():
    return PureState(1, np.array([1, -1], dtype=complex) / np.sqrt(2))


def skewed_two_qubit(p):
    """sqrt(p)|00> + sqrt(1-p)|11>."""
    v = np.zeros(4, dtype=complex)
    v[0], v[3] = np.sqrt(p), np.sqrt(1 - p)
    return PureState(2, v)


class TestLanguageId:
    def test_prefix_table_constraint(self):
        with pytest.raises(ValueError):
            LanguageId("L1", {"prefix_table": {2: 3}})
        LanguageId("L1", {"prefix_table": {3: 2}})

    def test_unknown_language(self):
        with pytest.raises(ValueError):
            LanguageId("L7")

    def test_classical_variant_is_not_an_id(self):
        # classify() never served the classical-description variant of L3
        # as a language id
        with pytest.raises(ValueError):
            LanguageId("L3classical")

    def test_region_names(self):
        with pytest.raises(ValueError):
            RegionVerdict("maybe", 0.0)


class TestMemberL1:
    def test_product_prefix(self):
        phi = tensor_states(basis_state(1, 0), plus_state(), basis_state(1, 1))
        res = member_L1(phi, 2)
        assert res.member
        assert res.margin < 1e-12

    def test_bell_prefix(self):
        # oracle: marginal of Bell is I/2, purity 1/2
        phi = tensor_states(bell_state(), basis_state(1, 0))
        res = member_L1(phi, 1)
        assert not res.member
        assert res.margin == pytest.approx(0.5, abs=1e-12)

    def test_whole_state_always_member(self):
        phi = random_pure_state(3, 21)
        assert member_L1(phi, 3).member

    def test_prefix_bounds(self):
        with pytest.raises(ValueError):
            member_L1(bell_state(), 3)

    def test_prefix_state_comes_from_amplitudes(self, monkeypatch):
        phi = random_pure_state(4, 6)
        want = 1 - purity(partial_trace(phi.density(), [0]))

        def refuse(self):
            raise AssertionError("full density matrix built")
        monkeypatch.setattr(PureState, "density", refuse)
        res = member_L1(phi, 1)
        assert not res.member and res.margin == pytest.approx(want, abs=1e-12)
        assert member_L1(random_pure_state(14, 6), 1).margin > 0.4


class TestMemberL2:
    def test_zero_tensor_bell(self):
        res = member_L2(tensor_states(basis_state(1, 0), bell_state()))
        assert res.member
        assert res.witness_cut == "100"

    def test_ghz_not_member(self):
        res = member_L2(ghz_state(3))
        assert not res.member
        assert res.margin == pytest.approx(1 - 2 ** -0.5, abs=1e-12)

    def test_nearly_product_margin(self):
        # oracle: Schmidt coefficients sqrt(0.99), sqrt(0.01)
        res = member_L2(skewed_two_qubit(0.99))
        assert not res.member
        assert res.margin == pytest.approx(1 - np.sqrt(0.99), abs=1e-9)

    def test_size_limit(self):
        with pytest.raises(ResourceLimitError):
            member_L2(random_pure_state(11, 0))

    @settings(max_examples=10, deadline=None)
    @given(seeds)
    def test_member_cut_consistent_with_L1(self, seed):
        # a product cut, permuted to the front, yields a pure prefix
        phi = tensor_states(random_pure_state(2, seed, 70), random_pure_state(1, seed, 71))
        res = member_L2(phi)
        assert res.member
        ones = [i for i, b in enumerate(res.witness_cut) if b == "1"]
        marginal = partial_trace(phi.density(), ones)
        assert purity(marginal) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=10, deadline=None)
    @given(seeds)
    def test_margin_local_unitary_invariant(self, seed):
        phi = random_pure_state(3, seed, 72)
        base = member_L2(phi).margin
        u = np.kron(haar_unitary(2, seed, 73), np.eye(4))
        rotated = PureState(3, u @ phi.amplitudes)
        assert member_L2(rotated).margin == pytest.approx(base, abs=1e-9)


def reference_member_L2(phi):
    """The L2 cut search from its definition: one SVD per cut with qubit 0 on
    side A, sizes ascending, combinations order within a size; a cut replaces
    the best one only on a strictly smaller margin, and a rank-1 cut stops."""
    n = phi.n
    t = phi.amplitudes.reshape((2,) * n)
    best_margin, best_side = 2.0, None
    for extra in itertools.chain.from_iterable(
            itertools.combinations(range(1, n), r) for r in range(n - 1)):
        a = (0, *extra)
        b = tuple(q for q in range(n) if q not in a)
        sv = np.linalg.svd(t.transpose(a + b).reshape(1 << len(a), -1), compute_uv=False)
        sv = np.clip(sv, 0.0, None)
        sv = sv / np.linalg.norm(sv)
        margin = 1.0 - float(sv[0])
        if margin < best_margin:
            best_margin, best_side = margin, a
            if np.count_nonzero(sv > 1e-9) == 1:
                break
    bits = "".join("1" if q in best_side else "0" for q in range(n))
    return best_margin <= 1e-9, max(0.0, best_margin), bits


def factor_at(factor, rest, q):
    """The one-qubit ``factor`` placed at qubit ``q`` of a product with ``rest``."""
    n = rest.n + 1
    amps = np.kron(factor.amplitudes, rest.amplitudes).reshape((2,) * n)
    return PureState(n, np.moveaxis(amps, 0, q).reshape(-1))


class TestCutSearchExact:
    """member_L2's sliced, stacked search against the per-cut reference:
    the same member flag, bit-identical margin and the same witness cut."""

    @staticmethod
    def check(phi):
        res = member_L2(phi)
        assert (res.member, res.margin, res.witness_cut) == reference_member_L2(phi)
        return res

    @pytest.mark.parametrize("n", range(2, 11))
    def test_ghz(self, n):
        res = self.check(ghz_state(n))
        assert not res.member and res.witness_cut == "1" + "0" * (n - 1)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_haar(self, n):
        for seed in range(3):
            assert not self.check(random_pure_state(n, seed, 80)).member

    @pytest.mark.parametrize("n", range(2, 9))
    def test_two_factor_product_at_every_position(self, n):
        for q in range(n):
            phi = factor_at(random_pure_state(1, q, 81), random_pure_state(n - 1, q, 82), q)
            res = self.check(phi)
            assert res.member
            side = res.witness_cut.count("1")
            assert res.witness_cut[q] == ("1" if q == 0 else "0") and side in (1, n - 1)

    def test_three_factor_witness_is_first_product_cut(self):
        phi = tensor_states(random_pure_state(1, 0, 83), random_pure_state(2, 0, 84),
                            random_pure_state(3, 0, 85))
        res = self.check(phi)
        assert res.member and res.witness_cut == "100000"


class TestMemberL3:
    def test_bell(self):
        res = member_L3(bell_state().density(), Bipartition.from_subset(2, [0]))
        assert res.member

    def test_maximally_mixed(self):
        res = member_L3(maximally_mixed(2), Bipartition.from_subset(2, [0]))
        assert not res.member

    def test_werner_threshold(self):
        # oracle: partial-transpose eigenvalue (1 - 3p)/4 crosses 0 at p = 1/3
        cut = Bipartition.from_subset(2, [0])
        assert member_L3(werner_state(0.4), cut).member
        assert not member_L3(werner_state(0.3), cut).member

    def test_unsupported(self):
        from qlang.states import random_density
        with pytest.raises(UnsupportedOracleError):
            member_L3(random_density(3, 1), Bipartition.from_subset(3, [0]))

    @settings(max_examples=10, deadline=None)
    @given(seeds)
    def test_pure_matches_schmidt(self, seed):
        from qlang.states import schmidt_spectrum
        phi = random_pure_state(3, seed, 74)
        cut = Bipartition.from_subset(3, [1])
        res = member_L3(phi.density(), cut)
        assert res.member == (schmidt_spectrum(phi, cut).rank > 1)


def _fully_product_by_marginals(phi):
    """Independent oracle: every single-qubit marginal is pure."""
    return all(purity(partial_trace(phi.density(), [q])) > 1 - 1e-9
               for q in range(phi.n))


def _random_circuit(n, seed):
    rng = np.random.default_rng(seed)
    gates = []
    for _ in range(rng.integers(1, 5)):
        kind = rng.integers(0, 3)
        if kind == 0:
            gates.append(Gate.h(int(rng.integers(0, n))))
        elif kind == 1:
            gates.append(Gate.x(int(rng.integers(0, n))))
        else:
            pair = tuple(int(q) for q in rng.choice(n, size=2, replace=False))
            gates.append(Gate.unitary(haar_unitary(4, int(rng.integers(0, 2**31))), pair))
    return Circuit(n, tuple(gates))


class TestClassicalBridge:
    def test_bell_circuit(self):
        # H then controlled-X injected as a raw unitary produces a Bell state
        cnot = np.eye(4)[:, [0, 1, 3, 2]]
        c = Circuit(2, (Gate.h(0), Gate.unitary(cnot, (0, 1))))
        assert circuit_output_entangled(c)

    def test_hadamard_only(self):
        assert not circuit_output_entangled(parse_circuit_text("qubits 2\nH q0\n"))

    def test_matches_marginal_purity_oracle(self):
        for seed in range(40):
            n = 2 + seed % 2
            c = _random_circuit(n, seed)
            got = circuit_output_entangled(c)
            want = not _fully_product_by_marginals(evolve_pure(c, basis_state(n, 0)))
            assert got == want, f"seed {seed}"

    def test_partial_entanglement_counts(self):
        # Bell on the first two qubits of three: entangled even though
        # a product cut exists
        cnot = np.eye(4)[:, [0, 1, 3, 2]]
        c = Circuit(3, (Gate.h(0), Gate.unitary(cnot, (0, 1))))
        assert circuit_output_entangled(c)


def single_qubit_ranks(phi):
    t = phi.amplitudes.reshape((2,) * phi.n)
    return [np.count_nonzero(np.linalg.svd(np.moveaxis(t, q, 0).reshape(2, -1),
                                           compute_uv=False) > 1e-9)
            for q in range(phi.n)]


class TestBridgeCuts:
    """circuit_output_entangled's one stacked call against per-qubit ranks."""

    @staticmethod
    def check(c):
        ranks = single_qubit_ranks(evolve_pure(c, basis_state(c.n, 0)))
        got = circuit_output_entangled(c)
        assert got == (c.n > 1 and any(r != 1 for r in ranks))
        return got

    def test_toffoli_circuit(self):
        # the circuit of the CI entry-point check
        assert self.check(parse_circuit_text("qubits 2\nH q0\nTOFF q0 | q1\n"))

    def test_ghz_circuit(self):
        assert self.check(parse_circuit_text("qubits 4\nH q1\nTOFF q1 | q0\nTOFF q1 | q3\n"))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_x_only_circuits_are_products(self, n):
        for mask in range(1 << n):
            c = Circuit(n, tuple(Gate.x(q) for q in range(n) if mask >> q & 1))
            assert not self.check(c)


class TestClassify:
    def test_bell_rejected_for_L2(self):
        v = classify(LanguageId("L2"), bell_state(), 0.1)
        assert v.region == "reject"
        assert v.margin == pytest.approx(1 - 2 ** -0.5, abs=1e-12)

    def test_member_accepted_any_epsilon(self):
        phi = tensor_states(basis_state(1, 0), bell_state())
        for eps in (0.01, 0.5, 0.99):
            assert classify(LanguageId("L2"), phi, eps).region == "accept"

    def test_illegal_region(self):
        v = classify(LanguageId("L2"), skewed_two_qubit(0.999), 0.1)
        assert v.region == "illegal"
        assert v.margin < 0.1

    def test_L1_with_prefix(self):
        phi = tensor_states(bell_state(), basis_state(1, 0))
        v = classify(LanguageId("L1", {"prefix": 1}), phi, 0.1)
        assert v.region == "reject"

    def test_L3_entangled_accepts(self):
        assert classify(LanguageId("L3"), werner_state(0.9), 0.1).region == "accept"

    def test_L3_separable_has_zero_negativity(self):
        # negativity vanishes on separable states, so they always land in
        # the undecided band rather than the reject region
        v = classify(LanguageId("L3"), werner_state(0.0), 0.1)
        assert v.region == "illegal"
        assert v.margin == 0.0

    def test_epsilon_bounds(self):
        with pytest.raises(ValueError):
            classify(LanguageId("L2"), bell_state(), 0.0)

    def test_no_metric_for_L4(self):
        with pytest.raises(ValueError):
            classify(LanguageId("L4"), bell_state(), 0.1)

    @settings(max_examples=15, deadline=None)
    @given(seeds, st.floats(min_value=0.01, max_value=0.9))
    def test_region_map_soundness(self, seed, eps):
        phi = random_pure_state(3, seed, 75)
        v = classify(LanguageId("L2"), phi, eps)
        res = member_L2(phi)
        if res.member:
            assert v.region == "accept"
        elif res.margin >= eps:
            assert v.region == "reject"
        else:
            assert v.region == "illegal"
