import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlang import circuits, protocols
from qlang.circuits import (
    Circuit,
    Gate,
    circuit_unitary,
    evolve_pure,
    hadamard_test_distribution,
    parse_circuit_text,
    probability_of_outcome,
    reflection_matrix,
    sample_from_distribution,
)
from qlang.errors import CertificateError, StrategyError
from qlang.protocols import (
    Certificate,
    Estimator,
    MerlinStrategy,
    Verdict,
    build_checker_from_reflection,
    checker_from_certificate,
    haar_unitary,
    merlin_L2_honest,
    merlin_L3_honest,
    merlin_L4_cheat_library,
    merlin_L4_honest,
    probe_overlaps,
    random_orthogonal_state,
    required_repetitions,
    validity_panel,
    verify_L1,
    verify_L2,
    verify_L3,
    verify_L4,
    verify_L5,
)
from qlang.states import (
    Bipartition,
    DensityOperator,
    PureState,
    basis_state,
    bell_state,
    ghz_state,
    maximally_mixed,
    overlap,
    permute_qubits,
    plus_state,
    random_pure_state,
    tensor_states,
    werner_state,
)

seeds = st.integers(min_value=0, max_value=10**9)

BELL_CUT = Bipartition.from_subset(2, [0])


def minus_state():
    return PureState(1, np.array([1, -1], dtype=complex) / np.sqrt(2))


def skewed_two_qubit(p):
    v = np.zeros(4, dtype=complex)
    v[0], v[3] = np.sqrt(p), np.sqrt(1 - p)
    return PureState(2, v)


class TestCertificate:
    def test_subset_validation(self):
        with pytest.raises(CertificateError):
            Certificate.subset_string("102")

    def test_witness_validation(self):
        with pytest.raises(CertificateError):
            Certificate.witness([])
        with pytest.raises(CertificateError):
            Certificate.witness([(math.inf, maximally_mixed(1))])
        with pytest.raises(CertificateError):
            Certificate.witness([(1.0, maximally_mixed(1)),
                                 (1.0, maximally_mixed(2))])

    def test_witness_matrix_reconstruction(self):
        cert = Certificate.witness([(2.0, maximally_mixed(1)),
                                    (-1.0, basis_state(1, 0).density())])
        assert np.allclose(cert.witness_matrix(), np.diag([0.0, 1.0]))


class TestEstimator:
    @pytest.mark.parametrize("p0", [0.0, 0.3, 1.0])
    def test_readings_match_inverse_cdf_sampling(self, p0):
        dist = np.array([p0, 1.0 - p0])
        for bit in "01":
            ref = sample_from_distribution(dist, 1, 1000, 7, 21, 3).frequency(bit)
            assert next(Estimator(1000).probs([p0], int(bit), 7, [(21, 3)])) == ref
            assert next(Estimator(None).probs([p0], int(bit), 7, [(21, 3)])) == dist[int(bit)]

    @pytest.mark.parametrize("shots", [0, -1])
    @pytest.mark.parametrize("protocol", ["L1", "L2", "L3", "L4", "L5"])
    def test_shots_below_one_rejected(self, protocol, shots):
        phi = bell_state()
        run = {
            "L1": lambda: verify_L1(phi, 1, 3, shots=shots),
            "L2": lambda: verify_L2(phi, Certificate.subset_string("10"), 3, shots=shots),
            "L3": lambda: verify_L3(phi.density(), merlin_L3_honest(phi.density(), BELL_CUT),
                                    shots=shots, panel_random=4),
            "L4": lambda: verify_L4(phi, merlin_L4_honest(phi), 3, shots=shots),
            "L5": lambda: verify_L5(phi, merlin_L4_honest(phi), 3, shots=shots),
        }[protocol]
        with pytest.raises(ValueError, match="shots must be >= 1"):
            run()


class TestVerifyL1:
    def test_product_prefix_accepts_with_probability_one(self):
        phi = tensor_states(basis_state(1, 0), plus_state(), basis_state(1, 1))
        for m in (1, 5, 40):
            v = verify_L1(phi, 2, m)
            assert v.accepted
            assert v.exact_accept_prob == pytest.approx(1.0, abs=1e-10)

    def test_bell_prefix_decay(self):
        # frozen value: ((1/2 + 1)/2)^20
        phi = tensor_states(bell_state(), basis_state(1, 0))
        v = verify_L1(phi, 1, 20)
        assert not v.accepted
        assert v.exact_accept_prob == pytest.approx(0.75 ** 20, abs=1e-12)

    def test_single_run_mixed_prefix(self):
        phi = tensor_states(bell_state(), basis_state(1, 0))
        assert verify_L1(phi, 1, 1).exact_accept_prob == pytest.approx(0.75, abs=1e-12)

    def test_zero_repetitions_disallowed(self):
        with pytest.raises(ValueError):
            verify_L1(bell_state(), 1, 0)

    def test_prefix_state_comes_from_amplitudes(self, monkeypatch):
        from qlang.states import partial_trace, purity
        phi = random_pure_state(4, 8)
        p = purity(partial_trace(phi.density(), [0, 1]))

        density = PureState.density

        def refuse(self):  # the swap test's control qubit may still build |0><0|
            assert self.n == 1, "full density matrix built"
            return density(self)
        monkeypatch.setattr(PureState, "density", refuse)
        v = verify_L1(phi, 2, 3)
        assert v.exact_accept_prob == pytest.approx(((p + 1) / 2) ** 3, abs=1e-12)
        # 14 qubits: the full density matrix would take 4 GiB
        v = verify_L1(random_pure_state(14, 8), 1, 4)
        assert not v.accepted and v.transcript[0]["p0_exact"] == pytest.approx(0.75, abs=0.01)

    def test_copies_budget(self):
        v = verify_L1(random_pure_state(2, 0), 1, 7)
        assert v.copies_consumed == 14

    def test_sampled_mode_replays(self):
        phi = tensor_states(bell_state(), basis_state(1, 0))
        a = verify_L1(phi, 1, 10, seed=5, shots=2000)
        b = verify_L1(phi, 1, 10, seed=5, shots=2000)
        assert a.sampled_accept_freq == b.sampled_accept_freq

    def test_sampled_mode_tracks_exact(self):
        phi = tensor_states(bell_state(), basis_state(1, 0))
        shots = 100_000
        v = verify_L1(phi, 1, 5, seed=3, shots=shots)
        p = v.exact_accept_prob
        band = 5 * math.sqrt(p * (1 - p) / shots)
        assert abs(v.sampled_accept_freq - p) < band

    @settings(max_examples=10, deadline=None)
    @given(seeds, st.integers(min_value=1, max_value=8))
    def test_closed_form_decay(self, seed, m):
        from qlang.states import partial_trace, purity
        phi = random_pure_state(3, seed, 50)
        p = purity(partial_trace(phi.density(), [0]))
        v = verify_L1(phi, 1, m)
        assert v.exact_accept_prob == pytest.approx(((p + 1) / 2) ** m, abs=1e-12)


class TestMerlinL2:
    def test_zero_tensor_bell(self):
        assert merlin_L2_honest(tensor_states(basis_state(1, 0), bell_state())).subset == "100"

    def test_two_qubit_product(self):
        assert merlin_L2_honest(tensor_states(plus_state(), minus_state())).subset == "10"

    def test_ghz_raises(self):
        with pytest.raises(StrategyError):
            merlin_L2_honest(ghz_state(3))


class TestVerifyL2:
    def test_bell_false_partition(self):
        v = verify_L2(bell_state(), Certificate.subset_string("10"), 10)
        assert not v.accepted
        assert v.exact_accept_prob == pytest.approx(0.75 ** 10, abs=1e-12)

    def test_honest_product(self):
        phi = tensor_states(plus_state(), bell_state())
        v = verify_L2(phi, merlin_L2_honest(phi), 12)
        assert v.accepted
        assert v.exact_accept_prob == pytest.approx(1.0, abs=1e-10)

    def test_illegal_region_value(self):
        # tr rho_S^2 = 0.99^2 + 0.01^2 = 0.9802
        v = verify_L2(skewed_two_qubit(0.99), Certificate.subset_string("10"), 10)
        assert v.exact_accept_prob == pytest.approx(((0.9802 + 1) / 2) ** 10, abs=1e-12)
        assert v.accepted  # above threshold despite not being a member

    def test_malformed_certificates(self):
        with pytest.raises(CertificateError):
            verify_L2(bell_state(), Certificate.subset_string("1"), 5)
        with pytest.raises(CertificateError):
            verify_L2(bell_state(), Certificate.subset_string("11"), 5)
        with pytest.raises(CertificateError):
            verify_L2(bell_state(), merlin_L4_honest(bell_state()), 5)

    def test_either_side_of_an_honest_cut_works(self):
        phi = tensor_states(basis_state(1, 1), bell_state())
        for bits in ("100", "011"):
            v = verify_L2(phi, Certificate.subset_string(bits), 8)
            assert v.exact_accept_prob == pytest.approx(1.0, abs=1e-10)


class TestMerlinL3:
    def test_bell_witness_shape(self):
        cert = merlin_L3_honest(bell_state().density(), BELL_CUT)
        w = cert.witness_matrix()
        expected = 0.5 * np.eye(4) - bell_state().density().matrix
        assert np.max(np.abs(w - expected)) < 1e-10

    def test_bell_witness_value(self):
        cert = merlin_L3_honest(bell_state().density(), BELL_CUT)
        stat = np.vdot(cert.witness_matrix(), bell_state().density().matrix).real
        assert stat == pytest.approx(-0.5, abs=1e-12)

    def test_witness_nonnegative_on_product_panel(self):
        cert = merlin_L3_honest(bell_state().density(), BELL_CUT)
        w = cert.witness_matrix()
        vals = [np.vdot(w, np.outer(s, s.conj())).real
                for s in validity_panel(BELL_CUT, 17, 100)]
        assert min(vals) >= -1e-9

    def test_mixed_witness_detects_werner(self):
        rho = werner_state(0.9)
        cert = merlin_L3_honest(rho, BELL_CUT)
        stat = np.vdot(cert.witness_matrix(), rho.matrix).real
        assert stat < -1e-6
        vals = [np.vdot(cert.witness_matrix(), np.outer(s, s.conj())).real
                for s in validity_panel(BELL_CUT, 18, 100)]
        assert min(vals) >= -1e-9

    def test_separable_raises(self):
        with pytest.raises(StrategyError):
            merlin_L3_honest(maximally_mixed(2), BELL_CUT)


class TestValidityPanel:
    # non-contiguous cuts of 3 qubits, with the order that takes the
    # kron's (A, B) qubit order back to (q0, q1, q2)
    @pytest.mark.parametrize("side_a, order", [((1,), (1, 0, 2)), ((2,), (1, 2, 0))])
    def test_rows_match_per_state_reference(self, side_a, order):
        cut = Bipartition.from_subset(3, side_a)
        panel = validity_panel(cut, 11, 40)
        assert panel.shape == (8 + 40, 8)
        assert panel[:8].tobytes() == np.eye(8, dtype=complex).tobytes()
        for j in range(40):
            a = random_pure_state(1, 11, 101, j).amplitudes
            b = random_pure_state(2, 11, 102, j).amplitudes
            want = permute_qubits(np.kron(a, b), order)
            assert panel[8 + j].tobytes() == want.tobytes()
            for q in np.ndindex(2, 2, 2):
                qa = q[cut.subset_a[0]]
                qb = 2 * q[cut.subset_b[0]] + q[cut.subset_b[1]]
                assert abs(panel[8 + j][q[0] * 4 + q[1] * 2 + q[2]] - a[qa] * b[qb]) < 1e-15


class TestVerifyL3:
    def test_bell_honest_exact(self):
        cert = merlin_L3_honest(bell_state().density(), BELL_CUT)
        v = verify_L3(bell_state().density(), cert, panel_random=50)
        assert v.accepted
        assert v.exact_accept_prob == 1.0
        decision = v.transcript[-1]
        assert decision["statistic"] == pytest.approx(-0.5, abs=1e-10)

    def test_maximally_mixed_rejected_by_bell_witness(self):
        cert = merlin_L3_honest(bell_state().density(), BELL_CUT)
        v = verify_L3(maximally_mixed(2), cert, panel_random=50)
        assert not v.accepted
        assert v.transcript[-1]["statistic"] == pytest.approx(0.25, abs=1e-10)

    def test_bogus_negative_identity_rejected(self):
        cert = Certificate.witness([(-1.0, maximally_mixed(2))])
        v = verify_L3(bell_state().density(), cert, panel_random=20)
        assert not v.accepted
        assert not v.transcript[0]["passed"]

    def test_dimension_mismatch(self):
        cert = merlin_L3_honest(bell_state().density(), BELL_CUT)
        with pytest.raises(CertificateError):
            verify_L3(maximally_mixed(3), cert)

    def test_sampled_honest(self):
        cert = merlin_L3_honest(bell_state().density(), BELL_CUT)
        v = verify_L3(bell_state().density(), cert, shots=20_000, seed=2,
                      panel_random=10)
        assert v.accepted
        decision = v.transcript[-1]
        assert abs(decision["statistic"] + 0.5) < 5 * decision["sigma"]

    def test_sampled_bogus_rejected(self):
        cert = Certificate.witness([(-1.0, maximally_mixed(2))])
        v = verify_L3(bell_state().density(), cert, shots=5000, seed=2,
                      panel_random=10)
        assert not v.accepted


class TestVerifyL4:
    def test_honest_accepts(self):
        for n in (1, 2, 3):
            phi = random_pure_state(n, 100 + n)
            v = verify_L4(phi, merlin_L4_honest(phi), probes=6, seed=7)
            assert v.accepted
            assert v.exact_accept_prob == 1.0

    def test_identity_cheat_detected(self):
        phi = random_pure_state(2, 33)
        cert = MerlinStrategy("identity").certificate(phi)
        v = verify_L4(phi, cert, probes=8, seed=7)
        assert not v.accepted

    def test_identity_cheat_hand_check(self):
        # N = I, phi = |0>, probe |+>: O1 = O2 = 1/2 but O3 = 1 != 0
        phi = basis_state(1, 0)
        cert = MerlinStrategy("identity").certificate(phi)
        v = verify_L4(phi, cert, probes=20, seed=4)
        assert not v.accepted
        bad = v.transcript[-1]
        assert not bad["passed"]
        assert abs(bad["O3"] - bad["expected_O3"]) > 1e-3

    def test_all_library_cheats_detected(self):
        phi = random_pure_state(2, 55)
        for strat in merlin_L4_cheat_library():
            cert = strat.certificate(phi, seed=9)
            v = verify_L4(phi, cert, probes=16, seed=9)
            assert not v.accepted, strat.mode

    def test_global_phase_accepted(self):
        phi = random_pure_state(2, 66)
        for gamma in (0.3, 1.0, 2.5):
            u = np.exp(1j * gamma) * reflection_matrix(phi)
            cert = Certificate.circuit_description(
                Circuit(2, (Gate.unitary(u, (0, 1)),)))
            v = verify_L4(phi, cert, probes=8, seed=3)
            assert v.accepted

    def test_complement_phase_pi_boundary(self):
        # theta = pi makes the strategy the exact reflection
        phi = random_pure_state(2, 77)
        cert = MerlinStrategy("complement_phase", {"theta": math.pi}).certificate(phi)
        assert verify_L4(phi, cert, probes=10, seed=5).accepted

    def test_transcript_relations_for_honest(self):
        phi = random_pure_state(2, 88)
        v = verify_L4(phi, merlin_L4_honest(phi), probes=5, seed=1)
        for entry in v.transcript:
            assert abs(entry["O2"] - entry["O1"]) < 1e-10
            assert abs(entry["O3"] - (2 * entry["O1"] - 1) ** 2) < 1e-10

    def test_errors(self):
        phi = random_pure_state(2, 1)
        with pytest.raises(CertificateError):
            verify_L4(phi, Certificate.subset_string("10"), 4)
        with pytest.raises(CertificateError):
            verify_L4(phi, merlin_L4_honest(random_pure_state(3, 1)), 4)
        with pytest.raises(ValueError):
            verify_L4(phi, merlin_L4_honest(phi), 0)

    def test_probe_overlaps_match_per_probe_reference(self):
        circuit = parse_circuit_text("qubits 3\nH q0\nX q1\nCSWAP q2 | q0 | q1\nH q1\n")
        phi = random_pure_state(3, 41)
        got = probe_overlaps(phi, circuit, 5, 12)
        assert got.shape == (12, 3)
        phi_rho = phi.density()
        for i in range(12):
            xi = random_pure_state(3, 5, i)
            xo = evolve_pure(circuit, xi)
            want = (overlap(phi_rho, xi.density()), overlap(phi_rho, xo.density()),
                    overlap(xo.density(), xi.density()))
            assert np.max(np.abs(got[i] - want)) < 1e-12
        v = verify_L4(phi, Certificate.circuit_description(circuit), probes=12, seed=5)
        for row in v.transcript:
            assert [row["O1"], row["O2"], row["O3"]] == got[row["probe"]].tolist()

    def test_exact_mode_builds_no_unitary(self, monkeypatch):
        def refuse(c):
            raise AssertionError("circuit_unitary called")
        monkeypatch.setattr(circuits, "circuit_unitary", refuse)
        monkeypatch.setattr(protocols, "circuit_unitary", refuse)
        for n in (3, 8):
            phi = random_pure_state(n, 42)
            assert verify_L4(phi, merlin_L4_honest(phi), probes=4, seed=1).accepted
            assert verify_L5(phi, merlin_L4_honest(phi), probes=4, seed=1).accepted

    def test_sampled_honest_accepts(self):
        phi = random_pure_state(2, 99)
        v = verify_L4(phi, merlin_L4_honest(phi), probes=4, seed=6, shots=40_000)
        assert v.accepted

    def test_sampled_identity_detected(self):
        phi = random_pure_state(2, 99)
        cert = MerlinStrategy("identity").certificate(phi)
        v = verify_L4(phi, cert, probes=8, seed=6, shots=40_000)
        assert not v.accepted


class TestChecker:
    def test_instance_fixed_point(self):
        phi = random_pure_state(2, 200)
        checker = build_checker_from_reflection(phi)
        out = evolve_pure(checker, tensor_states(phi, basis_state(1, 0)))
        want = tensor_states(phi, basis_state(1, 0)).amplitudes
        # compare up to global phase
        inner = np.vdot(want, out.amplitudes)
        assert abs(abs(inner) - 1) < 1e-10

    def test_orthogonal_flags(self):
        phi = random_pure_state(2, 201)
        psi = random_orthogonal_state(phi, 202)
        checker = build_checker_from_reflection(phi)
        out = evolve_pure(checker, tensor_states(psi, basis_state(1, 0)))
        want = tensor_states(psi, basis_state(1, 1)).amplitudes
        assert abs(abs(np.vdot(want, out.amplitudes)) - 1) < 1e-10

    @settings(max_examples=10, deadline=None)
    @given(seeds)
    def test_general_input_decomposition(self, seed):
        # checker(chi (x) |0>) = <phi|chi> phi |0> + (chi - <phi|chi> phi)|1>
        phi = random_pure_state(2, seed, 60)
        chi = random_pure_state(2, seed, 61)
        checker = build_checker_from_reflection(phi)
        out = evolve_pure(checker, tensor_states(chi, basis_state(1, 0)))
        c = np.vdot(phi.amplitudes, chi.amplitudes)
        expected = np.zeros(8, dtype=complex)
        expected.reshape(-1, 2)[:, 0] = c * phi.amplitudes
        expected.reshape(-1, 2)[:, 1] = chi.amplitudes - c * phi.amplitudes
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-10

    def test_flag_probabilities(self):
        phi = plus_state()
        checker = build_checker_from_reflection(phi)
        inp = tensor_states(phi, basis_state(1, 0)).density()
        assert probability_of_outcome(checker, inp, "0") == pytest.approx(1.0, abs=1e-10)
        inp = tensor_states(minus_state(), basis_state(1, 0)).density()
        assert probability_of_outcome(checker, inp, "1") == pytest.approx(1.0, abs=1e-10)

    def test_certificate_checker_matches_direct_build(self):
        phi = random_pure_state(2, 203)
        direct = circuit_unitary(build_checker_from_reflection(phi))
        derived = circuit_unitary(checker_from_certificate(merlin_L4_honest(phi)))
        assert np.max(np.abs(direct - derived)) < 1e-9

    @pytest.mark.parametrize(
        "strategy", [MerlinStrategy("honest")] + merlin_L4_cheat_library(),
        ids=lambda m: m.mode)
    def test_closed_form_flags_match_checker_circuit(self, strategy):
        phi = random_pure_state(2, 204)
        cert = strategy.certificate(phi, seed=3)
        checker = checker_from_certificate(cert)
        u = circuit_unitary(cert.circuit)
        states = [phi] + [random_orthogonal_state(phi, 3, 20, j) for j in range(3)]
        for psi in states + [random_pure_state(2, 205)]:
            inp = tensor_states(psi, basis_state(1, 0)).density()
            dist = hadamard_test_distribution(u, psi)
            for bit in "01":
                ref = probability_of_outcome(checker, inp, bit)
                assert abs(dist[int(bit)] - ref) < 1e-12


class TestVerifyL5:
    def test_honest_accepts(self):
        phi = random_pure_state(2, 300)
        v = verify_L5(phi, merlin_L4_honest(phi), probes=5, seed=2)
        assert v.accepted
        assert v.exact_accept_prob == 1.0
        ortho = [t for t in v.transcript
                 if t.get("phase") == "checker_orthogonal"]
        assert len(ortho) == 5
        assert all(t["flag1_prob"] == pytest.approx(1.0, abs=1e-9) for t in ortho)

    def test_identity_cheat_rejected_in_L4_phase(self):
        phi = random_pure_state(2, 301)
        cert = MerlinStrategy("identity").certificate(phi)
        v = verify_L5(phi, cert, probes=8, seed=2)
        assert not v.accepted
        assert not any(t.get("phase", "").startswith("checker") for t in v.transcript)

    def test_orthogonal_probes_match_per_probe_reference(self):
        for n in (1, 3):
            phi = random_pure_state(n, 303)
            got = protocols._orthogonal_probes(phi, 4, 10)
            for j in range(10):
                want = random_orthogonal_state(phi, 4, 20, j).amplitudes
                assert np.max(np.abs(got[j] - want)) < 1e-12

    def test_sampled_honest(self):
        phi = random_pure_state(1, 302)
        v = verify_L5(phi, merlin_L4_honest(phi), probes=3, seed=8, shots=40_000)
        assert v.accepted


class TestRequiredRepetitions:
    def test_reference_value(self):
        assert required_repetitions(1 / 3, 1e-3) == 125

    def test_boundary_clamp(self):
        assert required_repetitions(0.5, 1.0) == 1

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            required_repetitions(0.0, 0.5)
        with pytest.raises(ValueError):
            required_repetitions(1.5, 0.5)
        with pytest.raises(ValueError):
            required_repetitions(0.5, 0.0)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.05, max_value=1.0),
           st.floats(min_value=1e-6, max_value=0.5))
    def test_halving_increment_bound(self, gap, err):
        step = math.ceil(math.log(2) / (2 * (gap / 2) ** 2))
        a = required_repetitions(gap, err)
        b = required_repetitions(gap, err / 2)
        assert a <= b <= a + step

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.05, max_value=1.0),
           st.floats(min_value=1e-6, max_value=0.999))
    def test_closed_form_bracketing(self, gap, err):
        m = required_repetitions(gap, err)
        assert math.exp(-2 * m * (gap / 2) ** 2) <= err + 1e-12
        if m > 1:
            assert math.exp(-2 * (m - 1) * (gap / 2) ** 2) > err - 1e-12
