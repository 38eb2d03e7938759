"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload purity-ladder --seed 1 --seconds 20 --trace 0

Imports qlang from ``src/`` of the checkout it sits in.  Set-up builds the
workload's operation list from ``--seed`` (workloads.py) and runs one
untimed warm-up pass.  ``setup_s`` is the median, over this process and
two fresh ones, of the time from process start to the end of that pass.
Then whole rounds of the list are timed until ``--seconds`` of operation
time have passed, collecting garbage between rounds.  Rates are medians
over rounds, divided by the machine speed (see ``SLICES``).  Every
output is checked against reference.py.  With ``--trace 1`` it alternates
untraced and traced rounds and reports the per-layer metrics of spans.py
plus the tracing overhead instead.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``; a summary with per-class latency medians goes to stderr.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# numpy's OpenBLAS otherwise starts one thread per core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = BENCH_DIR / "runs"
# set-ups from process start whose median is setup_s: this process's
# own and SETUP_RUNS - 1 in fresh processes
SETUP_RUNS = 3
MODES = ("exact", "sampled", "other")


def import_program():
    """Put the checkout's ``src/`` first on the path and import from it."""
    src = ROOT / "src"
    if not (src / "qlang" / "__init__.py").is_file():
        raise SystemExit(f"error: no qlang sources under {src}")
    for path in (str(BENCH_DIR), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import qlang
    if Path(qlang.__file__).resolve().parent != (src / "qlang").resolve():
        raise SystemExit(f"error: imported qlang from {qlang.__file__}, not {src}")
    import spans
    import workloads
    return workloads, spans


def interpreter_slice() -> float:
    """Run a fixed mix of interpreter and small-array numpy work, the kind
    qlang's loops do, without calling qlang; return its duration in s.

    On a shared 2-vCPU VM the speed swings by 2x within seconds as other
    tenants load the host.  A slice after every operation samples that
    speed at the same moments as the operations, so dividing by it removes
    the swings from the rates (see README.md).  The garbage collector is
    off during the slice, so that the slice does not pay for collecting
    the program's garbage."""
    gc.disable()
    start = time.perf_counter()
    for i in range(5):
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=i, spawn_key=(1, 2))))
        v = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        m = np.outer(v, v.conj())
        t = np.tensordot(m.reshape(2, 16, 2, 16), m.reshape(2, 16, 2, 16), axes=([1], [1]))
        w = np.kron(v[:8], v[:8]) / np.linalg.norm(v)
        _ = {"i": i, "t": float(t.real.sum()), "w": float(abs(w).max())}
    seconds = time.perf_counter() - start
    gc.enable()
    return seconds


_H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
_ROWS = np.arange(2048).reshape(2, 1024)[::-1].reshape(-1)


def memory_slice() -> float:
    """Like ``interpreter_slice``, for large-array work of the kind
    ``circuits.evolve_exact`` does: a Hadamard by ``tensordot`` and a row
    permutation on a fresh 32 MiB complex matrix.  Arrays that large are
    mapped anew on each allocation, so the slice also pays for faulting
    their pages in, as the swap-test kernel does."""
    gc.disable()
    start = time.perf_counter()
    a = np.ones((2048, 1024), dtype=complex)
    t = np.tensordot(_H, a.reshape(2, 1024, 1024), axes=([1], [0]))
    out = np.empty((2048, 1024), dtype=complex)
    out[_ROWS] = t.reshape(2048, 1024)
    del a, t, out
    seconds = time.perf_counter() - start
    gc.enable()
    return seconds


# The slice each workload's rates are divided by, and its duration that
# counts as machine speed 1.0 (a fixed convention: only ratios between runs
# matter).  purity-ladder spends its time in large-array numpy work that an
# interpreter-heavy slice does not track (README.md).
SLICES = {
    "purity-ladder": (memory_slice, 0.05),
    "probe-panel": (interpreter_slice, 0.001),
    "cli-sweep": (interpreter_slice, 0.001),
}


class Round:
    """Counts, operation time and outcomes of one pass over the list."""

    def __init__(self):
        self.count = dict.fromkeys(MODES, 0)
        self.seconds = dict.fromkeys(MODES, 0.0)
        self.latencies = {m: [] for m in MODES}
        self.failed = 0
        self.failed_ops = set()
        self.correct = True
        self.cal_nominal = 0.0       # speed-1.0 duration of the slices run
        self.cal_seconds = 0.0

    @property
    def attempted(self) -> int:
        return sum(self.count.values())

    @property
    def op_seconds(self) -> float:
        return sum(self.seconds.values())

    @property
    def speed(self) -> float:
        """Machine speed during this round: the slices' nominal over their
        measured duration."""
        return self.cal_nominal / self.cal_seconds

    def wall_rate(self, modes=MODES) -> float:
        return (sum(self.count[m] for m in modes)
                / sum(self.seconds[m] for m in modes))

    def rate(self, modes=MODES) -> float:
        """Operations per second at machine speed 1.0."""
        return self.wall_rate(modes) / self.speed


def run_op(op, into: Round, calibration: tuple) -> None:
    """Run one operation, time it, check its output, and run the
    ``calibration`` entry of ``SLICES`` after it."""
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception:
        out = None
        error = traceback.format_exc()
    else:
        error = None
    dt = time.perf_counter() - start
    status = "error"
    if error is None:
        try:
            status = op.check(out)
        except Exception:
            error = traceback.format_exc()
    if error is not None:
        print(f"INCORRECT {op.name}:\n{error}", file=sys.stderr)
        into.correct = False
    if status == "failed":
        into.failed += 1
        into.failed_ops.add(op.name)
    into.count[op.mode] += 1
    into.seconds[op.mode] += dt
    into.latencies[op.mode].append(dt)
    slice_fn, nominal = calibration
    into.cal_seconds += slice_fn()
    into.cal_nominal += nominal


def run_round(ops, calibration, tracer=None) -> Round:
    """One pass over ``ops`` after a garbage collection."""
    gc.collect()
    this = Round()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(i)
        run_op(op, this, calibration)
    return this


def set_up(workload: str, seed: int, run_root: Path, small: bool):
    """Import qlang, build the operation list and run the warm-up pass.

    Returns the workloads and spans modules, the list, whether every
    warm-up output was correct, and the time from process start to the end
    of the pass: the imports as measured, the pass without its calibration
    slices and at machine speed 1."""
    workloads, spans = import_program()
    import_s = time.perf_counter() - _T0
    calibration = SLICES[workload]
    warm = Round()
    start = time.perf_counter()
    ops = workloads.build(workload, seed, run_root / "inputs", small)
    for op in ops:
        run_op(op, warm, calibration)
    pass_s = (time.perf_counter() - start - warm.cal_seconds) * warm.speed
    return workloads, spans, ops, warm.correct, import_s + pass_s


def fresh_set_up(workload: str, seed: int, small: bool) -> tuple:
    """``set_up`` in a fresh process: (correct, seconds)."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(argv + (["--small"] if small else []),
                          capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["correct"], out["setup_s"]


def measure(workload: str, seed: int, seconds: float, trace_on: bool,
            small: bool = False, setup_only: bool = False) -> dict:
    RUNS_DIR.mkdir(exist_ok=True)
    run_root = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=RUNS_DIR))
    try:
        workloads, spans, ops, correct, first_s = set_up(workload, seed, run_root, small)
        if setup_only:
            return {"correct": correct, "setup_s": first_s}
        setup_times = [first_s]
        calibration = SLICES[workload]
        if trace_on:
            rounds, metrics = _traced(ops, calibration, seconds, spans, workload, seed)
        else:
            for _ in range(SETUP_RUNS - 1):
                ok, setup = fresh_set_up(workload, seed, small)
                correct = correct and ok
                setup_times.append(setup)
            setup_s = statistics.median(setup_times)
            rounds, elapsed = [], 0.0
            while elapsed < seconds or not rounds:
                rounds.append(run_round(ops, calibration))
                elapsed += rounds[-1].op_seconds
            metrics = _end_to_end(rounds, setup_s)
    finally:
        shutil.rmtree(run_root, ignore_errors=True)
    _summary(workload, rounds, setup_times)
    return {"correct": correct and all(r.correct for r in rounds),
            "attempted": sum(r.attempted for r in rounds),
            "failed": sum(r.failed for r in rounds), "metrics": metrics}


def _end_to_end(rounds, setup_s: float) -> dict:
    """Rates at machine speed 1.0, median over rounds."""
    def rate(modes):
        return statistics.median(r.rate(modes) for r in rounds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": rate(MODES), "unit": "1/s"},
        "exact_ops_per_s": {"value": rate(("exact",)), "unit": "1/s"},
        "sampled_ops_per_s": {"value": rate(("sampled",)), "unit": "1/s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }


def _traced(ops, calibration, seconds: float, spans, workload: str, seed: int):
    """Alternate untraced and traced rounds.  Counts are those of one
    traced round (they repeat exactly); self times and the overhead are
    medians over rounds."""
    rounds, traced, overheads, elapsed = [], [], [], 0.0
    while elapsed < seconds or not traced:
        plain = run_round(ops, calibration)
        tracer = spans.Tracer()
        tracer.install()
        try:
            this = run_round(ops, calibration, tracer)
        finally:
            tracer.uninstall()
        rounds += [plain, this]
        elapsed += plain.op_seconds + this.op_seconds
        overheads.append((plain.rate() / this.rate() - 1) * 100)
        traced.append((tracer.calls(), tracer.self_ms(), dict(tracer.counters)))
    tracer.write(RUNS_DIR / f"trace-{workload}-seed{seed}.jsonl")
    if any(t[0] != traced[0][0] for t in traced):
        print("warning: call counts differ between traced rounds", file=sys.stderr)
    calls, _, counters = traced[0]
    metrics = {}
    for name, unit in spans.metric_units().items():
        layer, qty = name.rsplit(".", 1)
        if name == "trace.overhead_pct":
            value = statistics.median(overheads)
        elif qty == "calls":
            value = calls.get(layer, 0)
        elif qty == "self_ms":
            value = statistics.median(t[1].get(layer, 0.0) for t in traced)
        else:
            value = counters.get(name, 0)
        if unit in ("count", "bytes"):
            value = int(value)
        metrics[name] = {"value": value, "unit": unit}
    return rounds, metrics


def _summary(workload: str, rounds, setup_times) -> None:
    p50 = {m: statistics.median(lat) * 1e3 for m in MODES
           if (lat := [x for r in rounds for x in r.latencies[m]])}
    print(json.dumps({"workload": workload,
                      "ops": {m: sum(r.count[m] for r in rounds) for m in MODES},
                      "p50_ms": p50, "setup_runs_s": setup_times,
                      "failed_ops": sorted(set().union(*(r.failed_ops for r in rounds))),
                      "round_ops_per_s": [r.rate() for r in rounds],
                      "round_wall_ops_per_s": [r.wall_rate() for r in rounds],
                      "round_speed": [r.speed for r in rounds]}),
          file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("purity-ladder", "probe-panel", "cli-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # used by fresh_set_up and the benchmark's tests
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--small", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.small, args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
