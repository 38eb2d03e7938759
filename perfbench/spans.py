"""In-memory span tracer for the traced benchmark run.

``Tracer.install`` replaces each public function named in ``LAYERS`` by a
timing wrapper in every ``qlang.*`` module namespace that binds it:
``protocols`` imports names directly, and ``random_pure_state`` imports
``make_rng`` at call time, so patching only the defining module would miss
calls.  ``Tracer.uninstall`` puts every original back.  No file under
``src/`` is changed.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``op`` the benchmark operation that
caused it.  A layer's self time is its span time minus the time of its
direct child spans.
"""

from __future__ import annotations

import functools
import json
import pathlib
import sys
import time
from collections import defaultdict

# (module, function, extra quantities recorded beside calls and self_ms)
LAYERS = (
    ("circuits", "evolve_exact", ("max_qubits", "computed_mb")),
    ("circuits", "build_estimation_network", ()),
    ("circuits", "probability_of_outcome", ()),
    ("circuits", "sample_shots", ()),
    ("circuits", "sample_from_distribution", ("shots",)),
    ("circuits", "evolve_pure", ()),
    ("circuits", "circuit_unitary", ()),
    ("circuits", "subset_extract", ()),
    ("states", "tensor", ()),
    ("states", "overlap", ()),
    ("states", "random_pure_state", ()),
    ("states", "partial_trace", ()),
    ("states", "schmidt_spectrum", ()),
    ("rng", "make_rng", ()),
    ("protocols", "validity_panel", ("states",)),
    ("protocols", "verify_L1", ()),
    ("protocols", "verify_L2", ()),
    ("protocols", "verify_L3", ()),
    ("protocols", "verify_L4", ()),
    ("protocols", "verify_L5", ()),
    ("languages", "member_L2", ()),
    ("languages", "classify", ()),
    ("languages", "circuit_output_entangled", ()),
    ("files", "load_state", ()),
    ("files", "load_certificate", ()),
    ("files", "load_circuit", ()),
    ("files", "write_records", ()),
    ("experiments", "run_experiment", ()),
    ("experiments", "run_trial", ()),
    ("cli", "main", ()),
)
# these layers get only a call count: their work is their callees'
COUNT_ONLY = {"circuits.build_estimation_network"}
FILE_COUNTERS = ("files.bytes_read", "files.bytes_written")
MB = float(1 << 20)


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for module, func, extras in LAYERS:
        name = f"{module}.{func}"
        units[f"{name}.calls"] = "count"
        if name not in COUNT_ONLY:
            units[f"{name}.self_ms"] = "ms"
        for q in extras:
            units[f"{name}.{q}"] = {"max_qubits": "count", "computed_mb": "MB",
                                    "shots": "count", "states": "count"}[q]
    for c in FILE_COUNTERS:
        units[c] = "bytes"
    units["trace.overhead_pct"] = "%"
    return units


class Tracer:
    """Records spans and work counters while installed."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []
        self._op = -1
        self._patched = []

    # -- spans -------------------------------------------------------------

    def begin_op(self, op_index: int) -> None:
        self._op = op_index

    def _record(self, name, fn, extra, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if extra is not None:
            extra(self.counters, args, kwargs, result)
        return result

    def _in_files_layer(self) -> bool:
        return any(self.spans[i][0].startswith("files.") for i in self._stack)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "qlang" or k.startswith("qlang."))]
        for module, func, _ in LAYERS:
            name = f"{module}.{func}"
            original = getattr(sys.modules[f"qlang.{module}"], func)
            extra = _EXTRAS.get(name)
            wrapper = functools.wraps(original)(
                lambda *a, _n=name, _f=original, _e=extra, **k: self._record(_n, _f, _e, a, k))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        read_text = pathlib.Path.read_text

        def counting_read_text(path, *a, **k):
            text = read_text(path, *a, **k)
            if self._in_files_layer():
                self.counters["files.bytes_read"] += len(text.encode())
            return text

        self._patched.append((pathlib.Path, "read_text", read_text))
        pathlib.Path.read_text = counting_read_text

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reduction ------------------------------------------------------------

    def self_ms(self) -> dict:
        """Self time per layer over every recorded span, in ms."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start - child[i]) * 1e3
        return out

    def calls(self) -> dict:
        out = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def write(self, path) -> None:
        """Spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start_ms": (start - t0) * 1e3,
                                     "end_ms": (end - t0) * 1e3, "parent": parent,
                                     "op": op}) + "\n")


def _evolve_exact(counters, args, kwargs, result):
    c = args[0]
    counters["circuits.evolve_exact.max_qubits"] = max(
        counters["circuits.evolve_exact.max_qubits"], c.n)
    counters["circuits.evolve_exact.computed_mb"] += 16 * 4 ** c.n * len(c.gates) / MB


def _sample_from_distribution(counters, args, kwargs, result):
    counters["circuits.sample_from_distribution.shots"] += result.shots


def _validity_panel(counters, args, kwargs, result):
    counters["protocols.validity_panel.states"] += len(result)


def _write_records(counters, args, kwargs, result):
    out = pathlib.Path(kwargs.get("out_dir", args[1] if len(args) > 1 else None))
    counters["files.bytes_written"] += sum(
        (out / f).stat().st_size for f in ("records.json", "records.csv"))


_EXTRAS = {
    "circuits.evolve_exact": _evolve_exact,
    "circuits.sample_from_distribution": _sample_from_distribution,
    "protocols.validity_panel": _validity_panel,
    "files.write_records": _write_records,
}
