"""Command-line surface.

Machine-readable JSON goes to stdout; one-line human summaries go to
stderr so pipelines stay clean.  Exit codes: 0 = accepted / succeeded,
1 = protocol rejected, 2 = usage or format error, 3 = resource or
unsupported-oracle error, including running out of memory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (
    CertificateError,
    FormatError,
    ResourceLimitError,
    StrategyError,
    UnsupportedOracleError,
)
from . import files
from .experiments import ExperimentConfig, run_experiment, sweep
from .languages import LanguageId, classify, circuit_output_entangled
from .protocols import (
    MerlinStrategy,
    merlin_L2_honest,
    merlin_L3_honest,
    required_repetitions,
    verify_L1,
    verify_L2,
    verify_L3,
    verify_L4,
    verify_L5,
)
from .states import Bipartition, DensityOperator, PureState


def _emit(payload: dict, summary: str) -> None:
    print(json.dumps(payload, sort_keys=True))
    print(summary, file=sys.stderr)


def _load_pure(path) -> PureState:
    state = files.load_state(path)
    if not isinstance(state, PureState):
        raise FormatError(f"{path}: expected a pure state")
    return state


def _as_density(state) -> DensityOperator:
    return state if isinstance(state, DensityOperator) else state.density()


def _parse_cut(text: str | None, n: int) -> Bipartition:
    if text is None:
        return Bipartition.from_subset(n, [0])
    try:
        subset = [int(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise FormatError(f"bad --cut value {text!r}") from exc
    return Bipartition.from_subset(n, subset)


def _verdict_exit(verdict) -> int:
    _emit(verdict.as_dict(),
          "accepted" if verdict.accepted else
          f"rejected (exact accept prob {verdict.exact_accept_prob:.6g})")
    return 0 if verdict.accepted else 1


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_purity(args) -> int:
    phi = _load_pure(args.state)
    return _verdict_exit(verify_L1(phi, args.prefix, args.reps, args.seed, args.shots))


def _cmd_separable(args) -> int:
    phi = _load_pure(args.state)
    if args.honest:
        cert = merlin_L2_honest(phi)
    elif args.cert:
        cert = files.load_certificate(args.cert)
    else:
        raise FormatError("separable needs --cert or --honest")
    return _verdict_exit(verify_L2(phi, cert, args.reps, args.seed, args.shots))


def _cmd_witness(args) -> int:
    rho = _as_density(files.load_state(args.state))
    cut = _parse_cut(args.cut, rho.n)
    if args.honest:
        cert = merlin_L3_honest(rho, cut)
    elif args.cert:
        cert = files.load_certificate(args.cert)
    else:
        raise FormatError("witness needs --cert or --honest")
    return _verdict_exit(verify_L3(rho, cert, args.shots, args.seed, cut,
                                   panel_random=args.panel))


def _reflection_cert(args, phi: PureState):
    if args.cheat:
        return MerlinStrategy(args.cheat).certificate(phi, args.seed)
    if args.honest:
        return MerlinStrategy("honest").certificate(phi, args.seed)
    if args.cert:
        return files.load_certificate(args.cert)
    raise FormatError("needs --cert, --honest, or --cheat VARIANT")


def _cmd_reflect(args) -> int:
    phi = _load_pure(args.state)
    cert = _reflection_cert(args, phi)
    return _verdict_exit(verify_L4(phi, cert, args.probes, args.seed, args.shots))


def _cmd_check(args) -> int:
    phi = _load_pure(args.state)
    cert = _reflection_cert(args, phi)
    return _verdict_exit(verify_L5(phi, cert, args.probes, args.seed, args.shots))


def _cmd_oracle(args) -> int:
    state = files.load_state(args.state)
    params = {}
    if args.language == "L1":
        params["prefix"] = args.prefix if args.prefix is not None else state.n
    lang = LanguageId(args.language, params)
    cut = _parse_cut(args.cut, state.n) if args.language == "L3" else None
    if args.language == "L3":
        state = _as_density(state)
    elif not isinstance(state, PureState):
        raise FormatError(f"{args.language} oracle needs a pure state")
    verdict = classify(lang, state, args.epsilon, cut)
    _emit({"language": args.language, "region": verdict.region,
           "margin": verdict.margin, "epsilon": args.epsilon},
          f"region={verdict.region} margin={verdict.margin:.6g}")
    return 0


def _cmd_bridge(args) -> int:
    circuit = files.load_circuit(args.circuit)
    entangled = circuit_output_entangled(circuit)
    _emit({"entangled": entangled, "qubits": circuit.n},
          "entangled" if entangled else "not entangled")
    return 0


def _cmd_sweep(args) -> int:
    try:
        raw = json.loads(open(args.config).read())
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"{args.config}: {exc}") from exc
    if "base" in raw:
        base = ExperimentConfig.from_dict(raw["base"])
        grid = raw.get("grid", {})
    else:
        base = ExperimentConfig.from_dict(raw)
        grid = {}
    workers = args.workers or int(os.environ.get("QLANG_WORKERS", "1"))
    if grid:
        records = sweep(base, grid, workers=workers)
    else:
        records = [run_experiment(base)]
    files.write_records(records, args.out)
    _emit({"cells": len(records), "out": str(args.out)},
          f"wrote {len(records)} record(s) to {args.out}")
    return 0


def _cmd_calib(args) -> int:
    m = required_repetitions(args.gap, args.err)
    _emit({"gap": args.gap, "error_bound": args.err, "repetitions": m},
          f"need {m} repetitions")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlang",
        description="Swap-test verification protocols for quantum state languages")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, shots=True):
        p.add_argument("--seed", type=int, default=0)
        if shots:
            p.add_argument("--shots", type=int, default=None,
                           help="sampled mode with this shot budget (default: exact)")

    p = sub.add_parser("purity", help="prefix-purity protocol")
    p.add_argument("--state", required=True)
    p.add_argument("--prefix", type=int, required=True)
    p.add_argument("--reps", type=int, required=True)
    common(p)
    p.set_defaults(handler=_cmd_purity)

    p = sub.add_parser("separable", help="product-bipartition protocol")
    p.add_argument("--state", required=True)
    p.add_argument("--cert")
    p.add_argument("--honest", action="store_true")
    p.add_argument("--reps", type=int, required=True)
    common(p)
    p.set_defaults(handler=_cmd_separable)

    p = sub.add_parser("witness", help="entanglement-witness protocol")
    p.add_argument("--state", required=True)
    p.add_argument("--cert")
    p.add_argument("--honest", action="store_true")
    p.add_argument("--cut", help="comma-separated qubit indices of side A")
    p.add_argument("--panel", type=int, default=200,
                   help="random product states in the validity panel")
    common(p)
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("reflect", help="reflection-operator protocol")
    p.add_argument("--state", required=True)
    p.add_argument("--cert")
    p.add_argument("--honest", action="store_true")
    p.add_argument("--cheat", help="cheat-library variant name")
    p.add_argument("--probes", type=int, required=True)
    common(p)
    p.set_defaults(handler=_cmd_reflect)

    p = sub.add_parser("check", help="checkable-state protocol")
    p.add_argument("--state", required=True)
    p.add_argument("--cert")
    p.add_argument("--honest", action="store_true")
    p.add_argument("--cheat")
    p.add_argument("--probes", type=int, default=8)
    common(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("oracle", help="membership classification")
    p.add_argument("--state", required=True)
    p.add_argument("--language", required=True, choices=["L1", "L2", "L3"])
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--prefix", type=int)
    p.add_argument("--cut")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("bridge", help="entanglement of a circuit's |0..0> output")
    p.add_argument("--circuit", required=True)
    p.set_defaults(handler=_cmd_bridge)

    p = sub.add_parser("sweep", help="run an experiment grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=0)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("calib", help="repetition count for a decision gap")
    p.add_argument("--gap", type=float, required=True)
    p.add_argument("--err", type=float, required=True)
    p.set_defaults(handler=_cmd_calib)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (FormatError, CertificateError, StrategyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ResourceLimitError, UnsupportedOracleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # an allocation no size guard caught must not exit 1 ("rejected")
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
