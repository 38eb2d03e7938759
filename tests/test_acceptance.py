"""End-to-end acceptance gate.

One test per headline guarantee; each prints a single PASS line when its
assertions hold (run with -s or -v to see them).  The whole module stays
well under the five-minute budget.
"""

import json
import math
import time

import numpy as np
import pytest

from qlang.circuits import (
    Circuit,
    Gate,
    build_estimation_network,
    build_purity_circuit,
    estimation_input,
    evolve_pure,
    probability_of_outcome,
)
from qlang.cli import main
from qlang.experiments import detection_rate
from qlang.files import save_state
from qlang.languages import circuit_output_entangled
from qlang.protocols import (
    Certificate,
    MerlinStrategy,
    build_checker_from_reflection,
    haar_unitary,
    merlin_L2_honest,
    merlin_L3_honest,
    merlin_L4_honest,
    random_orthogonal_state,
    verify_L1,
    verify_L2,
    verify_L3,
)
from qlang.states import (
    Bipartition,
    basis_state,
    bell_state,
    maximally_mixed,
    partial_trace,
    plus_state,
    purity,
    random_density,
    random_pure_state,
    tensor_states,
)

BELL_CUT = Bipartition.from_subset(2, [0])


def _report(index, label):
    print(f"[ACCEPTANCE {index}] {label}: PASS")


def test_1_swap_test_law():
    start = time.perf_counter()
    worst = 0.0
    for i in range(200):
        n = 1 + i % 3
        a = random_density(n, 1000, i, 0)
        b = random_density(n, 1000, i, 1)
        p0 = probability_of_outcome(build_estimation_network(n),
                                    estimation_input(a, b), "0")
        trace = float(np.vdot(a.matrix.conj().T, b.matrix).real)
        worst = max(worst, abs(2 * p0 - 1 - trace))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 10
    _report(1, f"swap-test visibility law, max error {worst:.2e} in {elapsed:.1f}s")


def test_2_purity_formula_and_decay():
    worst = 0.0
    for i in range(100):
        n = 1 + i % 3
        rho = random_density(n, 2000, i)
        p0 = probability_of_outcome(build_estimation_network(n),
                                    estimation_input(rho, rho), "0")
        worst = max(worst, abs(p0 - (purity(rho) + 1) / 2))
    assert worst < 1e-10

    rho = random_density(1, 2001)
    base = (purity(rho) + 1) / 2
    accepts = []
    for m in range(1, 31):
        got = build_purity_circuit(1, m).exact_accept_prob(rho)
        assert abs(got - base ** m) < 1e-12
        accepts.append(got)
    slopes = np.diff(np.log(accepts))
    assert np.max(np.abs(slopes - math.log(base))) < 1e-9
    _report(2, f"purity formula (max error {worst:.2e}) and M<=30 decay slope")


def test_3_L1_L2_completeness_soundness():
    start = time.perf_counter()
    product = tensor_states(basis_state(1, 0), plus_state(), basis_state(1, 1))
    assert verify_L1(product, 2, 25).exact_accept_prob == pytest.approx(1.0, abs=1e-10)
    sep = tensor_states(plus_state(), bell_state())
    assert verify_L2(sep, merlin_L2_honest(sep), 25).exact_accept_prob \
        == pytest.approx(1.0, abs=1e-10)

    bell_prefix = tensor_states(bell_state(), basis_state(1, 0))
    v = verify_L1(bell_prefix, 1, 20)
    assert v.exact_accept_prob == pytest.approx(0.75 ** 20, abs=1e-12)
    assert verify_L2(bell_state(), Certificate.subset_string("10"), 10) \
        .exact_accept_prob == pytest.approx(0.75 ** 10, abs=1e-12)

    shots = 100_000
    reps = 5
    p = 0.75 ** reps
    band = 5 * math.sqrt(p * (1 - p) / shots)
    inside = sum(
        abs(verify_L1(bell_prefix, 1, reps, seed=t, shots=shots)
            .sampled_accept_freq - p) < band
        for t in range(100))
    elapsed = time.perf_counter() - start
    assert inside >= 99
    assert elapsed < 60
    _report(3, f"L1/L2 bounds, sampled agreement {inside}/100 in {elapsed:.1f}s")


def test_4_L3_witness_protocol():
    rho = bell_state().density()
    cert = merlin_L3_honest(rho, BELL_CUT)

    exact = verify_L3(rho, cert, seed=3)
    assert exact.accepted
    assert exact.transcript[-1]["statistic"] == pytest.approx(-0.5, abs=1e-10)

    w = cert.witness_matrix()
    from qlang.protocols import validity_panel
    vals = [float(np.vdot(w, np.outer(s, s.conj())).real)
            for s in validity_panel(BELL_CUT, 3, 200)]
    assert min(vals) >= -1e-9

    sampled = verify_L3(rho, cert, shots=100_000, seed=3, panel_random=10)
    decision = sampled.transcript[-1]
    assert abs(decision["statistic"] + 0.5) < 3 * decision["sigma"]

    bogus = Certificate.witness([(-1.0, maximally_mixed(2))])
    rejected = sum(
        not verify_L3(rho, bogus, seed=t, panel_random=5).accepted
        for t in range(100))
    assert rejected == 100
    _report(4, f"L3 witness statistic -0.5, panel min {min(vals):.1e}, "
               f"bogus witness rejected {rejected}/100")


def test_5_L4_protocol():
    start = time.perf_counter()
    from qlang.protocols import verify_L4

    for i in range(50):
        n = 1 + i % 4
        phi = random_pure_state(n, 5000, i)
        v = verify_L4(phi, merlin_L4_honest(phi), probes=8, seed=i)
        assert v.exact_accept_prob == 1.0

    cheats = {
        "identity": {},
        "reflect_other": {"overlap": 0.9},
        "complement_phase": {},
        "complement_unitary": {},
        "haar": {},
    }
    summary = []
    for mode, params in cheats.items():
        res = detection_rate(MerlinStrategy(mode, params),
                             {"name": "random_pure", "n": 2},
                             probes=16, trials=50, seed=5)
        assert res.rate >= 0.9, mode
        summary.append(f"{mode}={res.rate:.2f} (wilson low {res.wilson_low:.2f})")

    from qlang.circuits import reflection_matrix
    phase_detected = 0
    for t in range(20):
        phi = random_pure_state(2, 5100, t)
        gamma = 0.1 + 0.3 * t
        u = np.exp(1j * gamma) * reflection_matrix(phi)
        cert = Certificate.circuit_description(Circuit(2, (Gate.unitary(u, (0, 1)),)))
        phase_detected += not verify_L4(phi, cert, probes=16, seed=t).accepted
    elapsed = time.perf_counter() - start
    assert phase_detected == 0
    assert elapsed < 120
    _report(5, "L4 completeness 50/50, cheat detection "
               + ", ".join(summary)
               + f", global phase detections 0/20, {elapsed:.1f}s")


def test_6_checker_identities():
    worst = 0.0
    for i in range(50):
        n = 1 + i % 4
        phi = random_pure_state(n, 6000, i)
        checker = build_checker_from_reflection(phi)
        out = evolve_pure(checker, tensor_states(phi, basis_state(1, 0)))
        want = tensor_states(phi, basis_state(1, 0)).amplitudes
        worst = max(worst, float(np.max(np.abs(out.amplitudes - want))))
        for j in range(20):
            psi = random_orthogonal_state(phi, 6000, i, j)
            out = evolve_pure(checker, tensor_states(psi, basis_state(1, 0)))
            want = tensor_states(psi, basis_state(1, 1)).amplitudes
            worst = max(worst, float(np.max(np.abs(out.amplitudes - want))))
    assert worst < 1e-10
    _report(6, f"checker identities on 50 states x 21 inputs, max error {worst:.2e}")


def _random_bridge_circuit(n, seed):
    rng = np.random.default_rng(seed)
    gates = []
    for _ in range(rng.integers(1, 6)):
        kind = rng.integers(0, 4)
        if kind == 0:
            gates.append(Gate.h(int(rng.integers(0, n))))
        elif kind == 1:
            gates.append(Gate.x(int(rng.integers(0, n))))
        elif kind == 2 and n >= 2:
            pair = tuple(int(q) for q in rng.choice(n, size=2, replace=False))
            gates.append(Gate.unitary(haar_unitary(4, int(rng.integers(0, 2**31))), pair))
        else:
            gates.append(Gate.permutation(tuple(int(q) for q in rng.permutation(n))))
    return Circuit(n, tuple(gates))


def test_7_oracle_equivalence():
    plan_rho = random_density(1, 7000)
    for m_reps in (1, 2, 3):
        plan = build_purity_circuit(1, m_reps)
        assert abs(plan.exact_accept_prob(plan_rho)
                   - plan.monolithic_accept_prob(plan_rho)) < 1e-10

    agreements = 0
    for i in range(100):
        n = 1 + i % 3
        c = _random_bridge_circuit(n, 7100 + i)
        got = circuit_output_entangled(c)
        out = evolve_pure(c, basis_state(n, 0))
        # independent oracle: a pure state is fully product iff every
        # single-qubit marginal is pure
        product = all(purity(partial_trace(out.density(), [q])) > 1 - 1e-9
                      for q in range(n))
        assert got == (not product), f"circuit seed {7100 + i}"
        agreements += 1
    _report(7, f"factorized=monolithic (M<=3) and bridge oracle {agreements}/100")


def test_8_reproducibility(tmp_path, capsys):
    state_file = tmp_path / "bp.json"
    save_state(tensor_states(bell_state(), basis_state(1, 0)), state_file)
    argv = ["purity", "--state", str(state_file), "--prefix", "1",
            "--reps", "6", "--shots", "5000", "--seed", "12"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second

    cfg = {"base": {"protocol": "L1",
                    "instance": {"name": "bell_prefix", "n": 3},
                    "prefix": 1, "shots": 1000, "master_seed": 8},
           "grid": {"repetitions": [2, 4, 6]}}
    cfile = tmp_path / "cfg.json"
    cfile.write_text(json.dumps(cfg))
    outs = []
    for name in ("r1", "r2"):
        assert main(["sweep", "--config", str(cfile),
                     "--out", str(tmp_path / name)]) == 0
        outs.append((tmp_path / name / "records.json").read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]
    _report(8, "CLI and sweep replays are byte-identical")
