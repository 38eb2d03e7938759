"""On-disk formats: states, certificates, circuits, records.

States and witnesses are JSON with complex entries as [re, im] decimal
pairs in row-major order; circuits use the one-gate-per-line text format
from :mod:`qlang.circuits`.  All writers emit sorted-key JSON so repeated
runs with identical seeds produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import CertificateError, FormatError
from .circuits import Circuit, format_circuit_text, parse_circuit_text
from .protocols import Certificate
from .states import DensityOperator, PureState

STATE_FORMAT_VERSION = 1
FILE_ATOL = 1e-8


def _pairs(values: np.ndarray) -> list:
    return [[float(v.real), float(v.imag)] for v in values.ravel()]


def _from_pairs(pairs, count: int, where: str) -> np.ndarray:
    if len(pairs) != count:
        raise FormatError(f"{where}: expected {count} entries, got {len(pairs)}")
    try:
        return np.array([complex(re, im) for re, im in pairs])
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{where}: entries must be [re, im] pairs: {exc}") from exc


def state_to_dict(state) -> dict:
    if isinstance(state, PureState):
        return {"format": STATE_FORMAT_VERSION, "kind": "pure", "n": state.n,
                "data": _pairs(state.amplitudes)}
    return {"format": STATE_FORMAT_VERSION, "kind": "density", "n": state.n,
            "data": _pairs(state.matrix)}


def state_from_dict(d: dict, where: str = "state"):
    if not isinstance(d, dict) or not isinstance(d.get("data"), list):
        raise FormatError(f"{where}: expected a JSON object with a 'data' list")
    if d.get("format") != STATE_FORMAT_VERSION:
        raise FormatError(f"{where}: unsupported format version {d.get('format')!r}")
    kind = d.get("kind")
    n = d.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise FormatError(f"{where}: bad qubit count {n!r}")
    dim = 1 << n
    if kind == "pure":
        v = _from_pairs(d["data"], dim, where)
        norm = float(np.linalg.norm(v))
        if not abs(norm - 1.0) <= FILE_ATOL:  # NaN fails too
            raise FormatError(f"{where}: state norm is {norm}, expected 1")
        return PureState(n, v / norm)
    if kind == "density":
        m = _from_pairs(d["data"], dim * dim, where).reshape(dim, dim)
        herm = float(np.max(np.abs(m - m.conj().T)))
        if not herm <= FILE_ATOL:
            raise FormatError(f"{where}: Hermiticity violation of {herm}")
        m = (m + m.conj().T) / 2
        tr = float(np.trace(m).real)
        if not abs(tr - 1.0) <= FILE_ATOL:
            raise FormatError(f"{where}: trace is {tr}, expected 1")
        try:
            return DensityOperator(n, m / tr)
        except ValueError as exc:
            raise FormatError(f"{where}: {exc}") from exc
    raise FormatError(f"{where}: kind must be 'pure' or 'density', got {kind!r}")


def _dump_json(payload, path: Path):
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def save_state(state, path) -> None:
    _dump_json(state_to_dict(state), Path(path))


def load_state(path):
    path = Path(path)
    try:
        d = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return state_from_dict(d, where=str(path))


# ---------------------------------------------------------------------------
# circuits


def _unitary_loader_for(base_dir: Path):
    def load(name: str):
        p = Path(name)
        if not p.is_absolute():
            p = base_dir / p
        try:
            d = json.loads(p.read_text())
            matrix = np.array([[complex(re, im) for re, im in row] for row in d["matrix"]])
            targets = d["targets"]
        except (OSError, KeyError, TypeError, ValueError,
                json.JSONDecodeError) as exc:
            raise FormatError(f"unitary payload {p}: {exc}") from exc
        if not isinstance(targets, list) or any(
                isinstance(t, bool) or not isinstance(t, int) for t in targets):
            raise FormatError(f"unitary payload {p}: 'targets' must be a list of "
                              f"qubit indices, got {targets!r}")
        return matrix, tuple(targets)
    return load


def load_circuit(path) -> Circuit:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return parse_circuit_text(text, _unitary_loader_for(path.parent))


def save_circuit(c: Circuit, path) -> None:
    """Write a circuit; RawUnitary payloads go to sibling JSON files."""
    path = Path(path)
    counter = [0]

    def namer(gate) -> str:
        name = f"{path.stem}_u{counter[0]}.json"
        counter[0] += 1
        _dump_json({"targets": list(gate.targets),
                    "matrix": [[[float(v.real), float(v.imag)] for v in row]
                               for row in gate.matrix]},
                   path.parent / name)
        return name

    path.write_text(format_circuit_text(c, namer))


# ---------------------------------------------------------------------------
# certificates


def save_certificate(cert: Certificate, path) -> None:
    path = Path(path)
    if cert.kind == "subset":
        path.write_text(cert.subset + "\n")
    elif cert.kind == "witness":
        _dump_json({"coeffs": list(cert.coeffs),
                    "states": [state_to_dict(r) for r in cert.states]}, path)
    elif cert.kind == "circuit":
        save_circuit(cert.circuit, path)
    else:
        raise ValueError(f"cannot serialize certificate kind {cert.kind!r}")


def load_certificate(path) -> Certificate:
    """Detect and parse any of the three certificate encodings."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise CertificateError(f"{path}: {exc}") from exc
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            d = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise CertificateError(f"{path}: {exc}") from exc
        if "coeffs" not in d or not isinstance(d.get("states"), list):
            raise CertificateError(f"{path}: witness JSON needs 'coeffs' and a 'states' list")
        states = []
        for i, entry in enumerate(d["states"]):
            if isinstance(entry, str):
                p = Path(entry)
                state = load_state(p if p.is_absolute() else path.parent / p)
            else:
                state = state_from_dict(entry, where=f"{path}[states][{i}]")
            if isinstance(state, PureState):
                state = state.density()
            states.append(state)
        try:
            return Certificate.witness(list(zip(d["coeffs"], states)))
        except (TypeError, ValueError) as exc:
            raise CertificateError(f"{path}: {exc}") from exc
    first = stripped.splitlines()[0].strip() if stripped else ""
    if first.lower().startswith("qubits"):
        circuit = parse_circuit_text(text, _unitary_loader_for(path.parent))
        return Certificate.circuit_description(circuit)
    if first and not set(first) - {"0", "1"}:
        return Certificate.subset_string(first)
    raise CertificateError(f"{path}: unrecognized certificate payload")


# ---------------------------------------------------------------------------
# experiment records


_CSV_COLUMNS = ("cell_index", "protocol", "repetitions", "shots", "trials",
                "epsilon", "prefix", "acceptance_rate", "detection_rate",
                "mean_abs_exact_sampled")


def write_records(records, out_dir) -> None:
    """records.json (full) and records.csv (one aggregate row per cell)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _dump_json([r.to_dict() for r in records], out / "records.json")
    with open(out / "records.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for i, r in enumerate(records):
            c = r.config
            writer.writerow([i, c.protocol, c.repetitions, c.shots, c.trials,
                             c.epsilon, c.prefix, r.acceptance_rate,
                             r.detection_rate, r.mean_abs_exact_sampled])
