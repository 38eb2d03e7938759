import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlang import circuits
from qlang.errors import FormatError, ResourceLimitError
from qlang.circuits import (
    Circuit,
    Gate,
    apply_circuit,
    build_estimation_network,
    build_purity_circuit,
    circuit_unitary,
    controlled_reflection,
    estimation_input,
    evolve_exact,
    evolve_pure,
    format_circuit_text,
    outcome_distribution,
    parse_circuit_text,
    probability_of_outcome,
    reflection_matrix,
    sample_from_distribution,
    sample_shots,
    subset_extract,
    swap_test_p0,
)
from qlang.protocols import haar_unitary
from qlang.states import (
    Bipartition,
    basis_state,
    bell_state,
    maximally_mixed,
    overlap,
    partial_trace,
    plus_state,
    purity,
    random_density,
    random_pure_state,
    tensor,
    tensor_states,
)

seeds = st.integers(min_value=0, max_value=10**9)


class TestGates:
    def test_duplicate_targets_rejected(self):
        with pytest.raises(ValueError):
            Gate.cswap(0, (1, 2), (2, 3))

    def test_raw_unitary_must_be_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            Gate.unitary(np.array([[1, 1], [0, 1]], dtype=complex), (0,))

    def test_permutation_validated(self):
        with pytest.raises(ValueError):
            Gate.permutation((0, 0, 1))

    def test_cswap_needs_equal_registers(self):
        with pytest.raises(ValueError):
            Gate.cswap(0, (1,), (2, 3))


class TestEstimationNetwork:
    def test_structure_n1(self):
        c = build_estimation_network(1)
        assert c.n == 3
        assert len(c.gates) == 3
        assert c.measured == (0,)

    def test_size_limits(self):
        with pytest.raises(ResourceLimitError):
            build_estimation_network(7)

    def test_control_statistics_match_purity(self):
        # oracle: purity() computed directly from the matrix
        for seed in range(10):
            rho = random_density(1, seed, 50)
            p0 = swap_test_p0(overlap(rho, rho), 1)
            assert p0 == pytest.approx((purity(rho) + 1) / 2, abs=1e-12)

    def test_equal_pure_inputs_give_one(self):
        rho = random_pure_state(2, 3).density()
        assert swap_test_p0(overlap(rho, rho), 2) == pytest.approx(1.0, abs=1e-10)

    def test_mixed_target_case(self):
        # oracle: (0.5 + 1) / 2
        p0 = swap_test_p0(overlap(maximally_mixed(1), maximally_mixed(1)), 1)
        assert p0 == pytest.approx(0.75, abs=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(seeds, st.integers(min_value=1, max_value=3))
    def test_visibility_law(self, seed, n):
        rho_a = random_density(n, seed, 51)
        rho_b = random_density(n, seed, 52)
        p0 = swap_test_p0(overlap(rho_a, rho_b), n)
        assert abs(2 * p0 - 1 - overlap(rho_a, rho_b)) < 1e-10

    def test_network_is_unitary(self):
        u = circuit_unitary(build_estimation_network(2))
        assert np.max(np.abs(u.conj().T @ u - np.eye(len(u)))) < 1e-9


class TestEvolution:
    def test_empty_circuit(self):
        rho = random_density(2, 1)
        out = evolve_exact(Circuit(2, ()), rho)
        assert np.allclose(out.matrix, rho.matrix)

    def test_hadamard_squared(self):
        rho = random_density(1, 2)
        c = Circuit(1, (Gate.h(0), Gate.h(0)))
        assert np.max(np.abs(evolve_exact(c, rho).matrix - rho.matrix)) < 1e-10

    def test_trace_preserved(self):
        c = build_estimation_network(2)
        out = evolve_exact(c, random_density(5, 7))
        assert abs(np.trace(out.matrix).real - 1.0) < 1e-9

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            evolve_exact(Circuit(2, ()), maximally_mixed(1))

    def test_x_gate(self):
        out = evolve_pure(Circuit(2, (Gate.x(1),)), basis_state(2, 0))
        assert np.allclose(out.amplitudes, basis_state(2, 1).amplitudes)

    def test_permutation_moves_qubits(self):
        # |01L> with perm (2, 0, 1): new q0 = old q2
        phi = tensor_states(basis_state(1, 0), basis_state(1, 1), plus_state())
        out = evolve_pure(Circuit(3, (Gate.permutation((2, 0, 1)),)), phi)
        expected = tensor_states(plus_state(), basis_state(1, 0), basis_state(1, 1))
        assert np.allclose(out.amplitudes, expected.amplitudes)

    def test_toffoli_type_fires_on_all_ones(self):
        c = Circuit(3, (Gate.toffoli_type((0, 1), 2),))
        assert np.allclose(evolve_pure(c, basis_state(3, 0b110)).amplitudes,
                           basis_state(3, 0b111).amplitudes)
        assert np.allclose(evolve_pure(c, basis_state(3, 0b100)).amplitudes,
                           basis_state(3, 0b100).amplitudes)

    def test_cswap_swaps_registers(self):
        c = Circuit(3, (Gate.cswap(0, (1,), (2,)),))
        got = evolve_pure(c, basis_state(3, 0b110))  # control 1: swap
        assert np.allclose(got.amplitudes, basis_state(3, 0b101).amplitudes)
        got = evolve_pure(c, basis_state(3, 0b010))  # control 0: no-op
        assert np.allclose(got.amplitudes, basis_state(3, 0b010).amplitudes)


def _bits(i, n):
    return [(i >> (n - 1 - q)) & 1 for q in range(n)]


def _index(bits):
    return int("".join(map(str, bits)), 2)


def reference_matrix(gate, n):
    """The gate's 2^n x 2^n matrix, built one basis column at a time."""
    d = 1 << n
    m = np.zeros((d, d), dtype=complex)
    for i in range(d):
        b = _bits(i, n)
        out = list(b)
        if gate.matrix is not None:
            k = len(gate.targets)
            col = _index([b[q] for q in gate.targets])
            for row in range(1 << k):
                for q, bit in zip(gate.targets, _bits(row, k)):
                    out[q] = bit
                m[_index(out), i] += gate.matrix[row, col]
            continue
        if gate.kind == "QubitPermutation":
            out = [b[src] for src in gate.perm]
        elif gate.kind == "ControlledSwapBlock" and b[gate.control]:
            for qa, qb in zip(gate.reg_a, gate.reg_b):
                out[qa], out[qb] = b[qb], b[qa]
        elif gate.kind == "ToffoliType" and all(b[q] for q in gate.controls):
            out[gate.flip_target] ^= 1
        m[_index(out), i] = 1
    return m


def every_gate_kind(n):
    """One gate of each kind on n = 3..5 qubits, with out-of-order and
    non-adjacent qubits wherever the kind allows."""
    if n == 5:  # two-qubit registers, neither contiguous, control between
        cswap = Gate.cswap(2, (0, 3), (4, 1))
    else:
        cswap = Gate.cswap(1, (0,), (n - 1,))
    return [
        Gate.h(n - 1),
        Gate.x(1),
        Gate.unitary(haar_unitary(4, n, 85), (n - 1, 0)),
        cswap,
        Gate.toffoli_type((n - 1, 0) + tuple(range(2, n - 1)), 1),
        Gate.permutation((2, 0, 1) + tuple(range(3, n))[::-1]),
    ]


GATE_CASES = [(n, i) for n in (3, 4, 5) for i in range(6)]


class TestReferenceKernels:
    """Every gate kind against a matrix built bit by bit."""

    @pytest.mark.parametrize("n,i", GATE_CASES)
    def test_gate_matches_reference(self, n, i):
        gate = every_gate_kind(n)[i]
        c = Circuit(n, (gate,))
        ref = reference_matrix(gate, n)
        phi = random_pure_state(n, i, 80)
        assert np.max(np.abs(evolve_pure(c, phi).amplitudes - ref @ phi.amplitudes)) < 1e-12
        block = np.random.default_rng(i).standard_normal((1 << n, 3)) + 0j
        assert np.max(np.abs(apply_circuit(c, block) - ref @ block)) < 1e-12
        rho = random_density(n, i, 81)
        want = ref @ rho.matrix @ ref.conj().T
        assert np.max(np.abs(evolve_exact(c, rho).matrix - want)) < 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_circuit_matches_reference(self, n):
        gates = every_gate_kind(n)
        c = Circuit(n, tuple(gates))
        ref = np.eye(1 << n, dtype=complex)
        for g in gates:
            ref = reference_matrix(g, n) @ ref
        u = circuit_unitary(c)
        assert np.max(np.abs(u - ref)) < 1e-12
        rho = random_density(n, n, 82)
        want = u @ rho.matrix @ u.conj().T
        assert np.max(np.abs(evolve_exact(c, rho).matrix - want)) < 1e-12

    def test_out_of_order_marginal(self):
        n = 4
        c = Circuit(n, tuple(every_gate_kind(n)), measured=(2, 0))
        rho = random_density(n, 5, 83)
        u = circuit_unitary(c)
        diag = np.diag(u @ rho.matrix @ u.conj().T).real
        want = np.zeros(4)
        for i in range(1 << n):
            b = _bits(i, n)
            want[2 * b[2] + b[0]] += diag[i]
        assert np.max(np.abs(outcome_distribution(c, rho) - want)) < 1e-12

    def test_non_contiguous_partial_trace(self):
        n, keep = 4, [0, 2]
        rho = random_density(n, 6, 84)
        want = np.zeros((4, 4), dtype=complex)
        for i in range(1 << n):
            for j in range(1 << n):
                bi, bj = _bits(i, n), _bits(j, n)
                if bi[1] == bj[1] and bi[3] == bj[3]:
                    want[2 * bi[0] + bi[2], 2 * bj[0] + bj[2]] += rho.matrix[i, j]
        assert np.max(np.abs(partial_trace(rho, keep).matrix - want)) < 1e-12


class TestOutcomes:
    def test_probabilities_sum_to_one(self):
        c = build_estimation_network(1)
        dist = outcome_distribution(c, estimation_input(maximally_mixed(1),
                                                        random_density(1, 8)))
        assert dist.sum() == pytest.approx(1.0, abs=1e-10)

    def test_same_pure_states(self):
        rho = random_pure_state(1, 4).density()
        c = build_estimation_network(1)
        assert probability_of_outcome(c, estimation_input(rho, rho), "0") == \
            pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_states(self):
        # oracle: swap test on orthogonal states reads 0 with probability 1/2
        c = build_estimation_network(1)
        inp = estimation_input(basis_state(1, 0).density(), basis_state(1, 1).density())
        assert probability_of_outcome(c, inp, "0") == pytest.approx(0.5, abs=1e-12)

    def test_mixed_targets(self):
        # oracle: (0.5 + 1) / 2 via the P0 formula
        c = build_estimation_network(1)
        inp = estimation_input(maximally_mixed(1), maximally_mixed(1))
        assert probability_of_outcome(c, inp, "0") == pytest.approx(0.75, abs=1e-12)

    def test_outcome_length_check(self):
        c = build_estimation_network(1)
        with pytest.raises(ValueError):
            probability_of_outcome(c, estimation_input(maximally_mixed(1),
                                                       maximally_mixed(1)), "00")


class TestSampling:
    def test_deterministic_replay(self):
        c = build_estimation_network(1)
        inp = estimation_input(maximally_mixed(1), maximally_mixed(1))
        a = sample_shots(c, inp, 5000, 99)
        b = sample_shots(c, inp, 5000, 99)
        assert a.outcomes == b.outcomes

    def test_binomial_band(self):
        c = build_estimation_network(1)
        inp = estimation_input(maximally_mixed(1), maximally_mixed(1))
        shots = 100_000
        res = sample_shots(c, inp, shots, 7)
        band = 3 * np.sqrt(0.75 * 0.25 / shots)
        assert abs(res.frequency("0") - 0.75) <= band

    def test_deterministic_distribution(self):
        rho = random_pure_state(1, 5).density()
        c = build_estimation_network(1)
        res = sample_shots(c, estimation_input(rho, rho), 1000, 3)
        assert res.outcomes == {"0": 1000}

    def test_counts_sum_to_shots(self):
        c = build_estimation_network(1)
        inp = estimation_input(maximally_mixed(1), plus_state().density())
        res = sample_shots(c, inp, 12345, 11)
        assert sum(res.outcomes.values()) == 12345

    @settings(max_examples=10, deadline=None)
    @given(seeds)
    def test_five_sigma_concentration(self, seed):
        rho = random_density(1, seed, 60)
        c = build_estimation_network(1)
        inp = estimation_input(rho, rho)
        shots = 100_000
        p = probability_of_outcome(c, inp, "0")
        res = sample_shots(c, inp, shots, seed)
        for bits, count in res.outcomes.items():
            prob = probability_of_outcome(c, inp, bits)
            assert abs(count / shots - prob) <= 5 * np.sqrt(prob * (1 - prob) / shots) + 1e-12


class TestSwapTestKernel:
    """The closed-form kernel against the gate-level estimation network."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_network_distribution(self, n):
        net = build_estimation_network(n)
        for seed in range(3):
            a = random_density(n, seed, 70)
            b = random_density(n, seed, 71)
            ref = outcome_distribution(net, estimation_input(a, b))
            p0 = swap_test_p0(overlap(a, b), n)
            assert np.max(np.abs([p0, 1 - p0] - ref)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_same_shots_as_network(self, n):
        net = build_estimation_network(n)
        a = random_density(n, n, 72)
        b = random_density(n, n, 73)
        p0 = swap_test_p0(overlap(a, b), n)
        got = sample_from_distribution(np.array([p0, 1 - p0]), 1, 1000, 5, n, 2)
        assert got == sample_shots(net, estimation_input(a, b), 1000, 5, n, 2)

    def test_size_guards(self):
        with pytest.raises(ResourceLimitError):
            swap_test_p0([overlap(maximally_mixed(7), maximally_mixed(7))], 7)

    def test_six_qubits_stays_small(self):
        # the network input would be a 2^13 x 2^13 matrix
        rho = random_pure_state(6, 4).density()
        assert swap_test_p0(overlap(rho, rho), 6) == pytest.approx(1.0, abs=1e-12)


def random_circuit(n, seed):
    """Gates of every kind n qubits allow (H, X, a qubit permutation, a
    two-target unitary, a Toffoli-type gate, a controlled-SWAP), then six
    more drawn from those kinds, on random qubits; random measured qubits."""
    rng = np.random.default_rng([seed, n])
    kinds = ["h", "x", "perm"] + ["unitary", "toffoli"] * (n >= 2) + ["cswap"] * (n >= 3)
    gates = []
    for kind in kinds + list(rng.choice(kinds, size=6)):
        q = [int(x) for x in rng.permutation(n)]
        if kind == "h":
            gates.append(Gate.h(q[0]))
        elif kind == "x":
            gates.append(Gate.x(q[0]))
        elif kind == "perm":
            gates.append(Gate.permutation(q))
        elif kind == "unitary":
            gates.append(Gate.unitary(haar_unitary(4, seed, n, len(gates)), q[:2]))
        elif kind == "toffoli":
            gates.append(Gate.toffoli_type(q[1:int(rng.integers(2, n + 1))], q[0]))
        else:
            r = int(rng.integers(1, (n - 1) // 2 + 1))
            gates.append(Gate.cswap(q[0], q[1:1 + r], q[1 + r:1 + 2 * r]))
    measured = rng.permutation(n)[:int(rng.integers(1, n + 1))]
    return Circuit(n, tuple(gates), measured=tuple(int(q) for q in measured))


def dense_distribution(c, rho):
    """The measured qubits' marginal of evolve_exact's clipped diagonal."""
    diag = np.clip(evolve_exact(c, rho).matrix.diagonal().real, 0.0, None)
    want = np.zeros(1 << len(c.measured))
    for i, p in enumerate(diag):
        b = _bits(i, c.n)
        want[_index([b[q] for q in c.measured])] += p
    return want / want.sum()


WIDTHS = [1, 3, circuits.BLOCK_COLUMNS]


class TestBlockedBornDiagonal:
    """outcome_distribution's column blocks against the dense evolution, with
    blocks of one column, of three (a ragged last block) and of the default
    width; the inputs with a |1><1| factor skip half of their columns."""

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_dense_reference(self, n, width, monkeypatch):
        monkeypatch.setattr(circuits, "BLOCK_COLUMNS", width)
        for seed in range(2):
            c = random_circuit(n, seed)
            rho = random_density(n, seed, 86)
            assert np.max(np.abs(outcome_distribution(c, rho)
                                 - dense_distribution(c, rho))) < 1e-12
            factors = (basis_state(1, 1).density(),) + (
                (random_density(n - 1, seed, 87),) if n > 1 else ())
            product = factors[0] if n == 1 else tensor(*factors)
            assert np.max(np.abs(outcome_distribution(c, factors)
                                 - dense_distribution(c, product))) < 1e-12

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_factored_p0_matches_dense_input(self, n, width, monkeypatch):
        monkeypatch.setattr(circuits, "BLOCK_COLUMNS", width)
        net = build_estimation_network(n)
        a, b = random_density(n, n, 88), random_density(n, n, 89)
        want = probability_of_outcome(net, estimation_input(a, b), "0")
        got = probability_of_outcome(net, (basis_state(1, 0).density(), a, b), "0")
        assert abs(got - want) < 1e-12
        assert abs(want - dense_distribution(net, estimation_input(a, b))[0]) < 1e-12
        assert abs(build_purity_circuit(n, 3).p0(a)
                   - probability_of_outcome(net, estimation_input(a, a), "0")) < 1e-12

    def test_control_columns_that_read_one_never_run(self, monkeypatch):
        monkeypatch.setattr(circuits, "BLOCK_COLUMNS", 3)
        stacks = []

        def record(c, mat):
            stacks.append(mat.shape)
            return apply_circuit(c, mat)
        monkeypatch.setattr(circuits, "apply_circuit", record)
        rho = random_density(2, 90)
        build_purity_circuit(2, 1).p0(rho)
        # 16 of the 32 input columns, in blocks of 3, 3, 3, 3, 3 and 1
        assert stacks == [(32, 6)] * 5 + [(32, 2)]

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="size"):
            outcome_distribution(build_estimation_network(1), random_density(2, 91))


class TestPurityPlan:
    def test_pure_input_accepts_surely(self):
        plan = build_purity_circuit(1, 12)
        rho = random_pure_state(1, 6).density()
        assert plan.exact_accept_prob(rho) == pytest.approx(1.0, abs=1e-9)

    def test_maximally_mixed_decay(self):
        plan = build_purity_circuit(1, 20)
        assert plan.exact_accept_prob(maximally_mixed(1)) == \
            pytest.approx(0.75 ** 20, rel=1e-12)

    def test_single_repetition_reduces_to_estimator(self):
        plan = build_purity_circuit(1, 1)
        rho = random_density(1, 13)
        assert plan.exact_accept_prob(rho) == pytest.approx(
            swap_test_p0(overlap(rho, rho), 1), abs=1e-12)

    @pytest.mark.parametrize("reps", [1, 2, 3])
    def test_factorized_equals_monolithic(self, reps):
        plan = build_purity_circuit(1, reps)
        for seed in range(5):
            rho = random_density(1, seed, 61)
            assert abs(plan.exact_accept_prob(rho) -
                       plan.monolithic_accept_prob(rho)) < 1e-10

    def test_monolithic_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            build_purity_circuit(2, 4).monolithic_circuit()


class TestSubsetExtract:
    def test_product_extraction(self):
        phi = tensor_states(basis_state(1, 0), plus_state())
        out = subset_extract(phi, "10")
        assert np.allclose(out.matrix, basis_state(1, 0).density().matrix)

    def test_bell_half(self):
        out = subset_extract(bell_state(), "10")
        assert np.allclose(out.matrix, np.eye(2) / 2)

    def test_rejects_degenerate_strings(self):
        with pytest.raises(ValueError):
            subset_extract(bell_state(), "11")
        with pytest.raises(ValueError):
            subset_extract(bell_state(), "00")

    @settings(max_examples=15, deadline=None)
    @given(seeds, st.sampled_from([3, 4]))
    def test_matches_partial_trace(self, seed, n):
        # references: a direct partial trace, and the permutation-circuit
        # route (move the kept qubits to the front, then trace the rest)
        phi = random_pure_state(n, seed, 62)
        for mask in range(1, (1 << n) - 1):
            bits = format(mask, f"0{n}b")
            ones = [i for i, b in enumerate(bits) if b == "1"]
            zeros = [i for i, b in enumerate(bits) if b == "0"]
            got = subset_extract(phi, bits)
            want = partial_trace(phi.density(), ones)
            assert np.max(np.abs(got.matrix - want.matrix)) < 1e-12
            moved = evolve_pure(Circuit(n, (Gate.permutation(ones + zeros),)), phi)
            want = partial_trace(moved.density(), range(len(ones)))
            assert np.max(np.abs(got.matrix - want.matrix)) < 1e-12


class TestControlledReflection:
    def test_control_zero_is_identity(self):
        phi = random_pure_state(2, 14)
        gate = controlled_reflection(phi)
        chi = random_pure_state(2, 15)
        inp = tensor_states(chi, basis_state(1, 0))
        out = evolve_pure(Circuit(3, (gate,)), inp)
        assert np.allclose(out.amplitudes, inp.amplitudes)

    def test_fixed_point(self):
        phi = random_pure_state(2, 16)
        gate = controlled_reflection(phi)
        inp = tensor_states(phi, basis_state(1, 1))
        out = evolve_pure(Circuit(3, (gate,)), inp)
        assert np.allclose(out.amplitudes, inp.amplitudes, atol=1e-10)

    def test_orthogonal_negated(self):
        # oracle: (2|phi><phi| - I) psi = -psi for psi orthogonal to phi
        phi = basis_state(1, 0)
        psi = basis_state(1, 1)
        gate = controlled_reflection(phi)
        inp = tensor_states(psi, basis_state(1, 1))
        out = evolve_pure(Circuit(2, (gate,)), inp)
        assert np.allclose(out.amplitudes, -inp.amplitudes, atol=1e-12)

    def test_reflection_matrix_unitary(self):
        r = reflection_matrix(random_pure_state(3, 17))
        assert np.max(np.abs(r.conj().T @ r - np.eye(8))) < 1e-12


CIRCUIT_TEXT = """\
qubits 5
H q0
CSWAP q0 | q1 q2 | q3 q4
PERM 1 0 2 3 4
X q1
TOFF q0 q1 | q2
measure q0
"""


class TestTextFormat:
    def test_roundtrip(self):
        c = parse_circuit_text(CIRCUIT_TEXT)
        assert format_circuit_text(c) == CIRCUIT_TEXT
        assert c.n == 5
        assert [g.kind for g in c.gates] == [
            "Hadamard", "ControlledSwapBlock", "QubitPermutation",
            "PauliX", "ToffoliType"]
        assert c.measured == (0,)

    def test_comments_and_blanks(self):
        c = parse_circuit_text("# header\nqubits 2\n\nH q0  # inline\n")
        assert len(c.gates) == 1

    def test_missing_header(self):
        with pytest.raises(FormatError, match="qubits"):
            parse_circuit_text("H q0\n")

    def test_unknown_directive(self):
        with pytest.raises(FormatError, match="unknown"):
            parse_circuit_text("qubits 1\nRY q0\n")

    @pytest.mark.parametrize("text", ["qubits 2\nH q0 q1\n", "qubits 2\nX q1 q0\n",
                                      "qubits 2 7\nH q0\n"])
    def test_trailing_tokens_rejected(self, text):
        with pytest.raises(FormatError, match="exactly one argument"):
            parse_circuit_text(text)

    def test_bad_qubit_token(self):
        with pytest.raises(FormatError):
            parse_circuit_text("qubits 2\nH 0\n")

    def test_duplicate_measured_qubit(self):
        with pytest.raises(FormatError, match="duplicate measured"):
            parse_circuit_text("qubits 2\nH q0\nmeasure q0 q0\n")

    def test_out_of_range_target(self):
        with pytest.raises(FormatError):
            parse_circuit_text("qubits 1\nH q3\n")

    def test_unitary_needs_loader(self):
        with pytest.raises(FormatError, match="loader"):
            parse_circuit_text("qubits 1\nUNITARY u.json\n")

    def test_unitary_via_loader(self):
        def loader(name):
            assert name == "swap.json"
            return np.array([[0, 1], [1, 0]], dtype=complex), (0,)

        c = parse_circuit_text("qubits 1\nUNITARY swap.json\n", loader)
        out = evolve_pure(c, basis_state(1, 0))
        assert np.allclose(out.amplitudes, basis_state(1, 1).amplitudes)
