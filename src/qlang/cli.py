"""Command-line surface.

Machine-readable JSON goes to stdout; one-line human summaries go to
stderr so pipelines stay clean.  Exit codes: 0 = accepted / succeeded,
1 = protocol rejected, 2 = usage or format error, 3 = resource or
unsupported-oracle error, including running out of memory.

The five verifier subcommands share one handler: purity, separable,
witness, reflect and check name the protocols L1-L5, and
:func:`qlang.protocols.protocol_instance`, :func:`~qlang.protocols.honest_certificate`
and :func:`~qlang.protocols.run_protocol` decide the instance form, the
honest certificate and the verifier call, as they do for ``sweep``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

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
    honest_certificate,
    protocol_instance,
    required_repetitions,
    run_protocol,
)
from .states import Bipartition


def _emit(payload: dict, summary: str) -> None:
    print(json.dumps(payload, sort_keys=True))
    print(summary, file=sys.stderr)


def _parse_cut(text: str | None) -> list:
    """Side-A qubit indices of a --cut value, qubit 0 alone by default."""
    if text is None:
        return [0]
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise FormatError(f"bad --cut value {text!r}") from exc


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_verify(args) -> int:
    """purity, separable, witness, reflect and check: ``args.protocol`` on the
    --state file, with the certificate from --cheat, --honest or --cert."""
    instance = protocol_instance(args.protocol, files.load_state(args.state))
    cut = _parse_cut(args.cut)
    if args.cheat:
        cert = MerlinStrategy(args.cheat).certificate(instance, args.seed)
    elif args.honest:
        cert = honest_certificate(args.protocol, instance, cut)
    else:
        cert = files.load_certificate(args.cert) if args.cert else None
    verdict = run_protocol(args.protocol, instance, cert, args.reps, args.seed, args.shots,
                           cut, args.prefix, args.panel)
    _emit(verdict.as_dict(),
          "accepted" if verdict.accepted else
          f"rejected (exact accept prob {verdict.exact_accept_prob:.6g})")
    return 0 if verdict.accepted else 1


def _cmd_oracle(args) -> int:
    state = protocol_instance(args.language, files.load_state(args.state))
    params = {}
    if args.language == "L1":
        params["prefix"] = args.prefix if args.prefix is not None else state.n
    lang = LanguageId(args.language, params)
    cut = (Bipartition.from_subset(state.n, _parse_cut(args.cut))
           if args.language == "L3" else None)
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
        raw = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"{args.config}: {exc}") from exc
    if not isinstance(raw, dict):
        raise FormatError(f"{args.config}: a sweep config must be a JSON object")
    if "base" in raw:
        base = ExperimentConfig.from_dict(raw["base"])
        grid = raw.get("grid", {})
    else:
        base = ExperimentConfig.from_dict(raw)
        grid = {}
    if grid:
        records = sweep(base, grid, workers=args.workers)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``qlang`` parser, built once per process.  ``handler`` names the
    subcommand's ``_cmd_*`` function, which :func:`main` looks up per call."""
    parser = argparse.ArgumentParser(
        prog="qlang",
        description="Swap-test verification protocols for quantum state languages")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, shots=True):
        p.add_argument("--seed", type=int, default=0)
        if shots:
            p.add_argument("--shots", type=int, default=None,
                           help="sampled mode with this shot budget (default: exact)")

    def verifier(name, protocol, help, certificates=True):
        p = sub.add_parser(name, help=help)
        p.add_argument("--state", required=True)
        if certificates:
            p.add_argument("--cert")
            p.add_argument("--honest", action="store_true")
        p.set_defaults(handler="_cmd_verify", protocol=protocol, cert=None, honest=False,
                       cheat=None, cut=None, prefix=None, panel=200, reps=1)
        return p

    p = verifier("purity", "L1", "prefix-purity protocol", certificates=False)
    p.add_argument("--prefix", type=int, required=True)
    p.add_argument("--reps", type=int, required=True)
    common(p)

    p = verifier("separable", "L2", "product-bipartition protocol")
    p.add_argument("--reps", type=int, required=True)
    common(p)

    p = verifier("witness", "L3", "entanglement-witness protocol")
    p.add_argument("--cut", help="comma-separated qubit indices of side A")
    p.add_argument("--panel", type=int, default=200,
                   help="random product states in the validity panel")
    common(p)

    p = verifier("reflect", "L4", "reflection-operator protocol")
    p.add_argument("--cheat", help="cheat-library variant name")
    p.add_argument("--probes", dest="reps", metavar="PROBES", type=int, required=True)
    common(p)

    p = verifier("check", "L5", "checkable-state protocol")
    p.add_argument("--cheat")
    p.add_argument("--probes", dest="reps", metavar="PROBES", type=int, default=8)
    common(p)

    p = sub.add_parser("oracle", help="membership classification")
    p.add_argument("--state", required=True)
    p.add_argument("--language", required=True, choices=["L1", "L2", "L3"])
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--prefix", type=int)
    p.add_argument("--cut")
    p.set_defaults(handler="_cmd_oracle")

    p = sub.add_parser("bridge", help="entanglement of a circuit's |0..0> output")
    p.add_argument("--circuit", required=True)
    p.set_defaults(handler="_cmd_bridge")

    p = sub.add_parser("sweep", help="run an experiment grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(handler="_cmd_sweep")

    p = sub.add_parser("calib", help="repetition count for a decision gap")
    p.add_argument("--gap", type=float, required=True)
    p.add_argument("--err", type=float, required=True)
    p.set_defaults(handler="_cmd_calib")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[args.handler](args)
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
