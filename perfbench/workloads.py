"""The benchmark's workloads: fixed operation lists built from a seed.

An operation is one verifier call or one CLI invocation.  ``build``
returns the list for a workload; each ``Op`` has a ``run`` that calls
into qlang and a ``check`` that compares the output with the independent
reference in ``reference.py`` and returns "ok", or "failed" for an honest
sampled certificate that the known 3-sigma threshold fault rejects.

Inputs come from ``numpy.random.default_rng`` keyed by the seed, never
from qlang's own streams.  Honest sampled L3/L4/L5 operations are the
exception: they run on fixed instances and fixed protocol seeds, so the
share of them that the threshold fault rejects is the same for every
seed (see README.md).
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref
# verifiers and cli.main are looked up on their modules at call time, so
# the traced run's wrappers see the calls
from qlang import cli, protocols
from qlang.protocols import (
    Certificate,
    MerlinStrategy,
    merlin_L3_honest,
    merlin_L4_cheat_library,
)
from qlang.states import Bipartition, DensityOperator, PureState

WORKLOADS = ("purity-ladder", "probe-panel", "cli-sweep")
REPETITIONS = 20
SHOTS = 1000
PROBES = 16
FIXED_SEED = 20040404            # instances of the honest sampled operations
FIXED_PROTOCOL_SEED = 0


@dataclass
class Op:
    name: str
    mode: str                        # exact | sampled | other
    run: Callable[[], object]
    check: Callable[[object], str]   # "ok" or "failed"; raises ref.Mismatch


def build(workload: str, seed: int, workdir: Path, small: bool = False) -> list:
    """Operation list of ``workload``; files go under ``workdir``."""
    if workload == "purity-ladder":
        return _purity_ladder(seed, small)
    if workload == "probe-panel":
        return _probe_panel(seed, small)
    if workload == "cli-sweep":
        return _cli_sweep(seed, workdir, small)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _interleave(*lists) -> list:
    out = []
    for i in range(max(len(x) for x in lists)):
        out += [x[i] for x in lists if i < len(x)]
    return out


# ---------------------------------------------------------------------------
# inputs


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng([abs(k) for k in key])


def haar(n: int, *key: int) -> np.ndarray:
    rng = _rng(*key)
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return v / np.linalg.norm(v)


def bell() -> np.ndarray:
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return v


def ghz(n: int) -> np.ndarray:
    v = np.zeros(1 << n, dtype=complex)
    v[0] = v[-1] = 1 / np.sqrt(2)
    return v


def werner(p: float) -> np.ndarray:
    phi = np.outer(bell(), bell().conj())
    return p * phi + (1 - p) * np.eye(4) / 4


def _pure(amps: np.ndarray) -> PureState:
    return PureState(int(amps.size).bit_length() - 1, amps)


def _density(mat: np.ndarray) -> DensityOperator:
    return DensityOperator(int(mat.shape[0]).bit_length() - 1, mat)


def _protocol_seed(*key: int) -> int:
    return int(_rng(*key).integers(1 << 31))


# ---------------------------------------------------------------------------
# purity-ladder: the swap-test kernel at every register size it survives


def _purity_ladder(seed: int, small: bool) -> list:
    exact, sampled = [], []
    for k in ((1, 2) if small else (1, 2, 3, 4, 5)):
        # L1: Haar (k+1)-qubit state, prefix k
        phi = haar(k + 1, seed, 1, k)
        p_l1 = ref.subset_purity(phi, range(k))
        # L2: one-qubit factor on qubit 0 times a k-qubit factor on 1..k
        prod = np.kron(haar(1, seed, 2, k), haar(k, seed, 3, k))
        ones = list(range(1, k + 1))
        p_l2 = ref.subset_purity(prod, ones)
        cert = Certificate.subset_string("0" + "1" * k)
        for shots, out in ((None, exact), (SHOTS, sampled)):
            ps = _protocol_seed(seed, 4, k, shots or 0)
            out.append(Op(
                f"L1 k={k} shots={shots}", "sampled" if shots else "exact",
                lambda st=_pure(phi), k=k, ps=ps, sh=shots:
                    protocols.verify_L1(st, k, REPETITIONS, ps, sh).as_dict(),
                lambda v, p=p_l1, sh=shots: ref.check_purity_verdict(v, p, REPETITIONS, sh)))
            out.append(Op(
                f"L2 k={k} shots={shots}", "sampled" if shots else "exact",
                lambda st=_pure(prod), c=cert, ps=ps, sh=shots:
                    protocols.verify_L2(st, c, REPETITIONS, ps, sh).as_dict(),
                lambda v, p=p_l2, sh=shots: ref.check_purity_verdict(v, p, REPETITIONS, sh)))
    return _interleave(exact, sampled)


# ---------------------------------------------------------------------------
# probe-panel: per-probe and per-panel-state loops


def _witness_op(name, rho, cut, shots, ps, panel) -> Op:
    state = _density(rho)
    cert = merlin_L3_honest(state, cut)
    mats = [r.matrix for r in cert.states]
    return Op(name, "sampled" if shots else "exact",
              lambda: protocols.verify_L3(state, cert, shots, ps, cut,
                                          panel_random=panel).as_dict(),
              lambda v: ref.check_witness_verdict(v, cert.coeffs, mats, rho, shots,
                                                  honest=True))


def _reflection_op(name, phi, strategy, shots, ps, cert_seed, checker=False) -> Op:
    state = _pure(phi)
    cert = strategy.certificate(state, cert_seed)
    u = ref.certificate_unitary(state.n, [g.matrix for g in cert.circuit.gates])
    verify = "verify_L5" if checker else "verify_L4"
    return Op(name, "sampled" if shots else "exact",
              lambda: getattr(protocols, verify)(state, cert, PROBES, ps, shots).as_dict(),
              lambda v: ref.check_reflection_verdict(
                  v, phi, u, PROBES, ps, shots, honest=strategy.mode == "honest",
                  with_checker=checker))


def _witness_instances():
    return (("werner0.9", werner(0.9)), ("werner0.6", werner(0.6)),
            ("bell", np.outer(bell(), bell().conj())))


def _probe_panel(seed: int, small: bool) -> list:
    cut = Bipartition.from_subset(2, [0])
    panel = 20 if small else 200
    exact, sampled = [], []
    honest = MerlinStrategy("honest")
    for name, rho in _witness_instances():
        exact.append(_witness_op(f"L3 {name} exact", rho, cut, None,
                                 _protocol_seed(seed, 10, len(exact)), panel))
    for n in ((2,) if small else (2, 3, 4)):
        phi = haar(n, seed, 11, n)
        ps = _protocol_seed(seed, 12, n)
        cs = _protocol_seed(seed, 13, n)
        exact.append(_reflection_op(f"L4 n={n} honest", phi, honest, None, ps, cs))
        for strategy in merlin_L4_cheat_library():
            exact.append(_reflection_op(f"L4 n={n} {strategy.mode}", phi, strategy,
                                        None, ps, cs))
        exact.append(_reflection_op(f"L5 n={n} honest", phi, honest, None, ps, cs, True))
    ps = FIXED_PROTOCOL_SEED
    for name, rho in _witness_instances():
        for shots in (200, SHOTS):
            sampled.append(_witness_op(f"L3 {name} shots={shots}", rho, cut, shots, ps,
                                       panel))
    for n in (2, 3):
        phi = haar(n, FIXED_SEED, n)
        sampled.append(_reflection_op(f"L4 n={n} honest shots={SHOTS}", phi, honest,
                                      SHOTS, ps, 0))
        sampled.append(_reflection_op(f"L5 n={n} honest shots={SHOTS}", phi, honest,
                                      SHOTS, ps, 0, True))
    return _interleave(exact, sampled)


# ---------------------------------------------------------------------------
# cli-sweep: every subcommand, in process, on files written at set-up


def _pairs(values: np.ndarray) -> list:
    return [[float(v.real), float(v.imag)] for v in np.asarray(values).ravel()]


def _write_state(path: Path, data: np.ndarray) -> str:
    n = int(data.shape[0]).bit_length() - 1
    kind = "pure" if data.ndim == 1 else "density"
    path.write_text(json.dumps({"format": 1, "kind": kind, "n": n, "data": _pairs(data)}))
    return str(path)


def _invoke(argv: list):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue().strip()
    return code, (json.loads(text) if text else None)


def _cli_op(name, mode, argv, check) -> Op:
    return Op(name, mode, lambda: _invoke(argv), lambda res: check(*res))


def _protocol_check(verdict_check):
    """Exit code per the README table, then the verdict itself."""
    def check(code, out):
        ref.expect(out is not None, "protocol command printed no JSON")
        ref.check_protocol_exit(code, out)
        return verdict_check(out)
    return check


def _cli_sweep(seed: int, work: Path, small: bool) -> list:
    work.mkdir(parents=True, exist_ok=True)
    ops = []
    ps = _protocol_seed(seed, 20)

    # purity: a Bell pair hiding in the first two of three qubits, and a Haar state
    bell3 = np.kron(bell(), np.array([1, 0], dtype=complex))
    haar3 = haar(3, seed, 21)
    files = {"bell3": _write_state(work / "bell3.json", bell3),
             "haar3": _write_state(work / "haar3.json", haar3)}
    for state, amps, prefix in (("bell3", bell3, 1), ("bell3", bell3, 2), ("haar3", haar3, 2)):
        purity = ref.subset_purity(amps, range(prefix))
        for shots in (None, SHOTS):
            argv = ["purity", "--state", files[state], "--prefix", str(prefix),
                    "--reps", str(REPETITIONS), "--seed", str(ps)]
            argv += ["--shots", str(shots)] if shots else []
            ops.append(_cli_op(
                f"purity {state} prefix={prefix} shots={shots}",
                "sampled" if shots else "exact", argv,
                _protocol_check(lambda v, p=purity, sh=shots:
                                ref.check_purity_verdict(v, p, REPETITIONS, sh))))

    # separable: honest cut search, an explicit right cut, and a wrong cut on Bell
    prod = np.kron(haar(2, seed, 22), haar(1, seed, 23))
    files["prod3"] = _write_state(work / "prod3.json", prod)
    files["bell"] = _write_state(work / "bell.json", bell())
    (work / "cut_right.txt").write_text("110\n")
    (work / "cut_bell.txt").write_text("10\n")
    cases = (("prod3 honest", "prod3", ["--honest"], 1.0),
             ("prod3 cert", "prod3", ["--cert", str(work / "cut_right.txt")],
              ref.subset_purity(prod, [0, 1])),
             ("bell cert", "bell", ["--cert", str(work / "cut_bell.txt")],
              ref.subset_purity(bell(), [0])))
    for label, state, extra, purity in cases:
        for shots in (None, SHOTS):
            argv = ["separable", "--state", files[state], *extra,
                    "--reps", str(REPETITIONS), "--seed", str(ps)]
            argv += ["--shots", str(shots)] if shots else []
            ops.append(_cli_op(
                f"separable {label} shots={shots}", "sampled" if shots else "exact", argv,
                _protocol_check(lambda v, p=purity, sh=shots:
                                ref.check_purity_verdict(v, p, REPETITIONS, sh))))

    # witness: honest prover on Werner 0.9, and W = I/2 - |Phi+><Phi+| from a file
    w09 = werner(0.9)
    phi_plus = np.outer(bell(), bell().conj())
    files["werner"] = _write_state(work / "werner.json", w09)
    files["bell_rho"] = _write_state(work / "bell_rho.json", phi_plus)
    w_coeffs, w_mats = (1.5, -0.5), ((np.eye(4) - phi_plus) / 3, phi_plus)
    (work / "witness.json").write_text(json.dumps(
        {"coeffs": list(w_coeffs),
         "states": [{"format": 1, "kind": "density", "n": 2, "data": _pairs(m)}
                    for m in w_mats]}))
    honest_w = merlin_L3_honest(_density(w09), Bipartition.from_subset(2, [0]))
    for label, state, rho, extra, coeffs, mats in (
            ("werner honest", "werner", w09, ["--honest"], honest_w.coeffs,
             [r.matrix for r in honest_w.states]),
            ("bell cert", "bell_rho", phi_plus, ["--cert", str(work / "witness.json")],
             w_coeffs, w_mats)):
        for shots in (None, SHOTS):
            argv = ["witness", "--state", files[state], *extra,
                    "--seed", str(ps if shots is None else FIXED_PROTOCOL_SEED)]
            argv += ["--shots", str(shots)] if shots else []
            ops.append(_cli_op(
                f"witness {label} shots={shots}", "sampled" if shots else "exact", argv,
                _protocol_check(lambda v, c=coeffs, m=mats, r=rho, sh=shots:
                                ref.check_witness_verdict(v, c, m, r, sh, honest=True))))

    # reflect / check: honest, a circuit file holding the reflection, and cheats
    phi = haar(2, seed, 24)
    phi_fixed = haar(2, FIXED_SEED, 2)
    files["phi"] = _write_state(work / "phi.json", phi)
    files["phi_fixed"] = _write_state(work / "phi_fixed.json", phi_fixed)
    refl = 2 * np.outer(phi, phi.conj()) - np.eye(4)
    (work / "refl_u.json").write_text(json.dumps(
        {"targets": [0, 1], "matrix": [_pairs(row) for row in refl]}))
    (work / "refl.txt").write_text("qubits 2\nUNITARY refl_u.json\n")
    # the CLI draws the haar cheat from --seed, as this does
    haar_u = MerlinStrategy("haar").certificate(_pure(phi), ps).circuit.gates[0].matrix
    refl_fixed = 2 * np.outer(phi_fixed, phi_fixed.conj()) - np.eye(4)
    for command, checker in (("reflect", False), ("check", True)):
        cases = [("honest", "phi", phi, refl, ["--honest"], None, True),
                 ("cert", "phi", phi, refl, ["--cert", str(work / "refl.txt")], None, True),
                 ("identity", "phi", phi, np.eye(4), ["--cheat", "identity"], None, False),
                 ("haar", "phi", phi, haar_u, ["--cheat", "haar"], None, False),
                 ("honest", "phi_fixed", phi_fixed, refl_fixed, ["--honest"], SHOTS, True)]
        for label, state, amps, u, extra, shots, honest in cases:
            run_seed = ps if shots is None else FIXED_PROTOCOL_SEED
            argv = [command, "--state", files[state], *extra, "--probes", str(PROBES),
                    "--seed", str(run_seed)]
            argv += ["--shots", str(shots)] if shots else []
            ops.append(_cli_op(
                f"{command} {label} shots={shots}", "sampled" if shots else "exact", argv,
                _protocol_check(lambda v, a=amps, u=u, s=run_seed, sh=shots, h=honest,
                                c=checker: ref.check_reflection_verdict(
                                    v, a, u, PROBES, s, sh, h, with_checker=c))))

    # oracle: L1 purity margin, L2 cut search, L3 negativity and an unsupported cut
    ops.append(_cli_op("oracle L1", "other",
                       ["oracle", "--state", files["haar3"], "--language", "L1",
                        "--prefix", "2", "--epsilon", "0.1"],
                       _oracle_check(*_l1_margin(haar3, 2), 0.1)))
    for n in ((8,) if small else (8, 10)):
        product = np.kron(haar(3, seed, 25, n), haar(n - 3, seed, 26, n))
        files[f"prod{n}"] = _write_state(work / f"prod{n}.json", product)
        files[f"ghz{n}"] = _write_state(work / f"ghz{n}.json", ghz(n))
        for state, member, margin in ((f"prod{n}", True, 0.0),
                                      (f"ghz{n}", False, 1 - 1 / np.sqrt(2))):
            ops.append(_cli_op(f"oracle L2 {state}", "other",
                               ["oracle", "--state", files[state], "--language", "L2"],
                               _oracle_check(member, margin, 0.1)))
    ops.append(_cli_op("oracle L3 werner", "other",
                       ["oracle", "--state", files["werner"], "--language", "L3"],
                       _oracle_check(True, ref.negativity(w09, [1]), 0.1)))
    mixed3 = np.kron(w09, np.eye(2) / 2)
    files["mixed3"] = _write_state(work / "mixed3.json", mixed3)
    ops.append(_cli_op("oracle L3 2x4 cut", "other",
                       ["oracle", "--state", files["mixed3"], "--language", "L3"],
                       _exit_check(ref.EXIT_RESOURCE)))

    # bridge: H then TOFF makes a Bell pair; X-only circuits give products
    xs = sorted(int(q) for q in _rng(seed, 27).choice(5, size=3, replace=False))
    (work / "bell_circ.txt").write_text("qubits 4\nH q0\nTOFF q0 | q1\n")
    (work / "x_circ.txt").write_text("qubits 5\n" + "".join(f"X q{q}\n" for q in xs))
    for label, path, entangled in (("bell", "bell_circ.txt", True),
                                   ("x-only", "x_circ.txt", False)):
        ops.append(_cli_op(f"bridge {label}", "other",
                           ["bridge", "--circuit", str(work / path)],
                           _bridge_check(entangled)))

    # calib
    rng = _rng(seed, 28)
    for _ in range(2):
        gap, err = float(rng.uniform(0.05, 1.0)), float(10 ** -rng.uniform(1, 6))
        ops.append(_cli_op(f"calib gap={gap:.3f}", "other",
                           ["calib", "--gap", repr(gap), "--err", repr(err)],
                           _calib_check(gap, err)))

    # sweep: L1 and L4 grids over shots x repetitions, each into a fresh directory
    sweeps = {
        "L1": {"base": {"protocol": "L1", "instance": {"name": "bell_prefix", "n": 3},
                        "prefix": 1, "trials": 2, "master_seed": seed},
               "grid": {"shots": [None, SHOTS], "repetitions": [5, 10]}},
        "L4": {"base": {"protocol": "L4", "instance": {"name": "random_pure", "n": 2},
                        "certificate": {"type": "honest"}, "trials": 2,
                        "master_seed": seed},
               "grid": {"shots": [None, SHOTS], "repetitions": [4, 8]}},
    }
    for proto, config in sweeps.items():
        path = work / f"sweep_{proto}.json"
        path.write_text(json.dumps(config))
        ops.append(_sweep_op(proto, path, work))
    return ops


def _l1_margin(amps, prefix):
    purity = ref.subset_purity(amps, range(prefix))
    return purity >= 1 - ref.PURITY_MEMBER_ATOL, max(0.0, 1 - purity)


def _oracle_check(member, margin, epsilon):
    def check(code, out):
        ref.expect(code == ref.EXIT_ACCEPTED, f"oracle exit {code}")
        ref.check_region(out, member, margin, epsilon)
        return "ok"
    return check


def _exit_check(want):
    def check(code, out):
        ref.expect(code == want and out is None, f"exit {code}, expected {want}")
        return "ok"
    return check


def _bridge_check(entangled):
    def check(code, out):
        ref.expect(code == ref.EXIT_ACCEPTED, f"bridge exit {code}")
        ref.expect(out["entangled"] is entangled, f"bridge answered {out['entangled']}")
        return "ok"
    return check


def _calib_check(gap, err):
    def check(code, out):
        ref.expect(code == ref.EXIT_ACCEPTED, f"calib exit {code}")
        ref.expect(out["repetitions"] == ref.calib_repetitions(gap, err),
                   f"calib gave {out['repetitions']}")
        return "ok"
    return check


def _sweep_op(proto: str, config: Path, work: Path) -> Op:
    """Each invocation writes a fresh directory; its records.json must
    match the first one written in this process byte for byte."""
    state = {"count": 0, "first": None}

    def run():
        state["count"] += 1
        out = work / f"sweep_{proto}_out{state['count']}"
        code, printed = _invoke(["sweep", "--config", str(config), "--out", str(out),
                                 "--workers", "1"])
        return code, printed, out

    def check(result):
        code, printed, out = result
        ref.expect(code == ref.EXIT_ACCEPTED, f"sweep exit {code}")
        data = (out / "records.json").read_bytes()
        records = ref.check_records(data, (out / "records.csv").read_text())
        shutil.rmtree(out)
        ref.expect(printed["cells"] == len(records) == 4, "sweep cell count")
        if state["first"] is None:
            state["first"] = data
        ref.expect(data == state["first"], "records.json differs between identical sweeps")
        for rec in records:
            cfg = rec["config"]
            for v in rec["verdicts"]:
                if proto == "L1":
                    ref.check_purity_verdict(v, 0.5, cfg["repetitions"], cfg["shots"])
                elif cfg["shots"] is None:
                    ref.expect(v["accepted"], "honest L4 rejected in an exact sweep cell")
        return "ok"

    return Op(f"sweep {proto}", "other", run, check)
