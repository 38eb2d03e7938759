"""Gate-level circuits and exact evolution.

Gates act on the ``(2,) * n`` view of a state's rows.  Small unitaries
(Hadamard, Pauli-X, raw injected unitaries) contract their target axes;
basis permutations reorder qubit axes: a qubit permutation transposes
them, and a controlled-SWAP block or Toffoli-type conjunction gate swaps
its registers' axes or flips its target axis on the block where its
controls read 1.  So the controlled-SWAP of two n-qubit registers never
materializes a 2^(2n+1) matrix.

Outcome distributions need only the diagonal of U rho U^dagger, and
diag(U rho U^dagger)_i = sum_k (U rho)_ik conj(U_ik).  So
:func:`outcome_distribution` runs the circuit on blocks of columns K of the
input, stacked beside the same columns of the identity as
[rho[:, K] | I[:, K]], and adds Re sum_K (U rho)[:, K] conj(U[:, K]) into
the diagonal.  A zero column of rho adds nothing and is never built; an
input given as tensor factors, such as the estimation network's
|0><0| (x) rho_a (x) rho_b, is built column block by column block from its
factors, so neither the 4^n-element input nor U rho U^dagger is ever
allocated.  :func:`evolve_exact` evolves the whole matrix and is the dense
reference the tests compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ResourceLimitError
from .rng import make_rng
from .states import (
    MAX_QUBITS,
    DensityOperator,
    PureState,
    basis_state,
    permute_qubits,
    tensor,
)

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_KET0 = basis_state(1, 0).density()


@dataclass(frozen=True)
class Gate:
    """One circuit element; build through the class-method constructors."""

    kind: str
    targets: tuple
    matrix: np.ndarray | None = field(default=None, compare=False)
    control: int | None = None
    reg_a: tuple = ()
    reg_b: tuple = ()
    controls: tuple = ()
    flip_target: int | None = None
    perm: tuple = ()

    def __post_init__(self):
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"duplicate targets in {self.kind} gate: {self.targets}")

    @classmethod
    def h(cls, q: int) -> "Gate":
        return cls("Hadamard", (q,), matrix=_H)

    @classmethod
    def x(cls, q: int) -> "Gate":
        return cls("PauliX", (q,), matrix=_X)

    @classmethod
    def cswap(cls, control: int, reg_a, reg_b) -> "Gate":
        a, b = tuple(reg_a), tuple(reg_b)
        if len(a) != len(b) or not a:
            raise ValueError("controlled-SWAP needs two equal-size nonempty registers")
        return cls("ControlledSwapBlock", (control,) + a + b,
                   control=control, reg_a=a, reg_b=b)

    @classmethod
    def toffoli_type(cls, controls, flip_target: int) -> "Gate":
        ctl = tuple(controls)
        if not ctl:
            raise ValueError("Toffoli-type gate needs at least one control")
        return cls("ToffoliType", ctl + (flip_target,), controls=ctl, flip_target=flip_target)

    @classmethod
    def permutation(cls, perm) -> "Gate":
        p = tuple(int(q) for q in perm)
        if sorted(p) != list(range(len(p))):
            raise ValueError(f"not a permutation of 0..{len(p) - 1}: {p}")
        return cls("QubitPermutation", tuple(range(len(p))), perm=p)

    @classmethod
    def unitary(cls, matrix: np.ndarray, targets) -> "Gate":
        t = tuple(targets)
        u = np.asarray(matrix, dtype=complex)
        d = 1 << len(t)
        if u.shape != (d, d):
            raise ValueError(f"unitary shape {u.shape} does not match {len(t)} targets")
        if not np.max(np.abs(u.conj().T @ u - np.eye(d))) <= 1e-9:  # NaN fails too
            raise ValueError("matrix is not unitary within 1e-9")
        u = u.copy()
        u.setflags(write=False)
        return cls("RawUnitary", t, matrix=u)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over ``n`` qubits; ``measured`` are output qubits."""

    n: int
    gates: tuple
    measured: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "measured", tuple(int(q) for q in self.measured))
        if self.n < 1 or self.n > MAX_QUBITS:
            raise ResourceLimitError(f"circuit size {self.n} outside 1..{MAX_QUBITS}")
        for g in self.gates:
            if any(q < 0 or q >= self.n for q in g.targets):
                raise ValueError(f"{g.kind} targets {g.targets} out of range for n={self.n}")
            if g.kind == "QubitPermutation" and len(g.perm) != self.n:
                raise ValueError("qubit permutation must cover the whole circuit")
        if any(q < 0 or q >= self.n for q in self.measured):
            raise ValueError("measured qubits out of range")
        if len(set(self.measured)) != len(self.measured):
            raise ValueError(f"duplicate measured qubits: {self.measured}")


@dataclass(frozen=True)
class ShotResult:
    """Measured-bitstring counts from one seeded sampling run."""

    outcomes: dict
    shots: int
    seed: int

    def frequency(self, bits: str) -> float:
        return self.outcomes.get(bits, 0) / self.shots


# ---------------------------------------------------------------------------
# evolution


def _apply_gate_left(mat: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    """G @ mat for mat with 2^n rows (any column count)."""
    t = mat.reshape((2,) * n + mat.shape[1:])
    axes = list(range(t.ndim))
    if gate.kind == "QubitPermutation":
        return t.transpose(list(gate.perm) + axes[n:]).reshape(mat.shape)
    if gate.matrix is not None:
        k = len(gate.targets)
        u = gate.matrix.reshape((2,) * (2 * k))
        t = np.tensordot(u, t, axes=(list(range(k, 2 * k)), list(gate.targets)))
        return np.moveaxis(t, list(range(k)), list(gate.targets)).reshape(mat.shape)
    # on the block where every control reads 1, swap the registers' axes
    # or flip the target axis
    if gate.kind == "ControlledSwapBlock":
        for a, b in zip(gate.reg_a, gate.reg_b):
            axes[a], axes[b] = b, a
        moved, controls = t.transpose(axes), (gate.control,)
    else:
        moved, controls = np.flip(t, gate.flip_target), gate.controls
    block = tuple(1 if q in controls else slice(None) for q in range(n))
    out = t.copy()
    out[block] = moved[block]
    return out.reshape(mat.shape)


def apply_circuit(c: Circuit, mat: np.ndarray) -> np.ndarray:
    """U @ mat for the circuit unitary U, gate by gate; ``mat`` is an
    amplitude vector or a matrix with 2^n rows."""
    for g in c.gates:
        mat = _apply_gate_left(mat, g, c.n)
    return mat


def evolve_pure(c: Circuit, phi: PureState) -> PureState:
    """Apply the circuit unitary to a pure state."""
    if phi.n != c.n:
        raise ValueError("state size does not match circuit size")
    v = apply_circuit(c, phi.amplitudes)
    return PureState(c.n, v / np.linalg.norm(v))


def evolve_exact(c: Circuit, rho: DensityOperator) -> DensityOperator:
    """U rho U^dagger for the circuit unitary U, as (U (U rho)^dagger)^dagger:
    two :func:`apply_circuit` passes."""
    if rho.n != c.n:
        raise ValueError("state size does not match circuit size")
    m = apply_circuit(c, apply_circuit(c, rho.matrix).conj().T).conj().T
    return DensityOperator(c.n, m, validate=False)


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Full 2^n x 2^n unitary induced by the circuit."""
    return apply_circuit(c, np.eye(1 << c.n, dtype=complex))


# Input columns per block of the Born-rule kernel: the circuit acts on a
# 2^n x (2 * BLOCK_COLUMNS) stack at a time.  64 runs swap tests on up to
# 3-qubit registers as one block, and a 5-qubit one as 16 stacks of 4 MiB.
BLOCK_COLUMNS = 64


def _column_blocks(factors):
    """(indices K, columns K) of the tensor product of the factors'
    matrices, at most BLOCK_COLUMNS at a time, over the columns where every
    factor's column is nonzero; the other columns of the product are zero."""
    nonzero = [np.flatnonzero(f.matrix.any(axis=0)) for f in factors]
    sizes = [len(z) for z in nonzero]
    total = math.prod(sizes)
    for start in range(0, total, BLOCK_COLUMNS):
        picks = np.unravel_index(np.arange(start, min(start + BLOCK_COLUMNS, total)), sizes)
        cols = [z[p] for z, p in zip(nonzero, picks)]
        block = factors[0].matrix[:, cols[0]]
        for f, col in zip(factors[1:], cols[1:]):
            block = (block[:, None, :] * f.matrix[:, col]).reshape(-1, len(col))
        yield np.ravel_multi_index(cols, [f.dim for f in factors]), block


def outcome_distribution(c: Circuit, rho) -> np.ndarray:
    """Exact Born-rule distribution over the measured qubits' bitstrings.

    ``rho`` is a :class:`DensityOperator`, or a sequence of them read as
    their tensor product.  The diagonal of U rho U^dagger is summed from
    column blocks K: one :func:`apply_circuit` pass over [rho[:, K] | I[:, K]]
    gives (U rho)[:, K] and U[:, K], and diag(U rho U^dagger)_i =
    sum_k (U rho)_ik conj(U_ik).  Columns of the product where a factor's
    column is zero add nothing and are skipped, so the estimation network's
    factors |0><0|, rho_a, rho_b run half of the input's columns.
    """
    if not c.measured:
        raise ValueError("circuit declares no measured qubits")
    factors = (rho,) if isinstance(rho, DensityOperator) else tuple(rho)
    if sum(f.n for f in factors) != c.n:
        raise ValueError("state size does not match circuit size")
    diag = np.zeros(1 << c.n)
    for cols, block in _column_blocks(factors):
        w = len(cols)
        stack = np.zeros((diag.size, 2 * w), dtype=complex)
        stack[:, :w] = block
        stack[cols, np.arange(w, 2 * w)] = 1.0
        out = apply_circuit(c, stack)
        diag += np.vecdot(out[:, w:], out[:, :w]).real
    diag = np.clip(diag, 0.0, None)
    rest = tuple(q for q in range(c.n) if q not in c.measured)
    dist = permute_qubits(diag, c.measured + rest).reshape(1 << len(c.measured), -1).sum(1)
    return dist / dist.sum()


def probability_of_outcome(c: Circuit, rho, bits: str) -> float:
    """Probability of the measured bitstring ``bits``; ``rho`` as in
    :func:`outcome_distribution`."""
    if len(bits) != len(c.measured):
        raise ValueError(f"outcome length {len(bits)} != {len(c.measured)} measured qubits")
    return float(outcome_distribution(c, rho)[int(bits, 2)])


def sample_shots(c: Circuit, rho: DensityOperator, shots: int, seed: int,
                 *stream: int) -> ShotResult:
    """Inverse-CDF sampling from the exact outcome distribution."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    dist = outcome_distribution(c, rho)
    return sample_from_distribution(dist, len(c.measured), shots, seed, *stream)


def sample_from_distribution(dist: np.ndarray, width: int, shots: int, seed: int,
                             *stream: int) -> ShotResult:
    rng = make_rng(seed, *stream)
    cdf = np.cumsum(dist)
    cdf[-1] = 1.0
    draws = np.searchsorted(cdf, rng.random(shots), side="right")
    counts = np.bincount(draws, minlength=len(dist))
    outcomes = {format(i, f"0{width}b"): int(cnt)
                for i, cnt in enumerate(counts) if cnt}
    return ShotResult(outcomes, shots, seed)


# ---------------------------------------------------------------------------
# named networks


def _check_estimation_size(n: int) -> None:
    if n < 1 or n > 6:
        raise ResourceLimitError(f"estimation network size {n} outside 1..6")


def build_estimation_network(n: int) -> Circuit:
    """Swap-test interferometer on 2n+1 qubits; qubit 0 is the control.

    The control's probability of reading 0 on input |0><0| (x) rho_a (x)
    rho_b is (tr(rho_a rho_b) + 1) / 2.
    """
    _check_estimation_size(n)
    reg_a = tuple(range(1, n + 1))
    reg_b = tuple(range(n + 1, 2 * n + 1))
    gates = (Gate.h(0), Gate.cswap(0, reg_a, reg_b), Gate.h(0))
    return Circuit(2 * n + 1, gates, measured=(0,))


def estimation_input(rho_a: DensityOperator, rho_b: DensityOperator) -> DensityOperator:
    """|0><0| (x) rho_a (x) rho_b as one dense matrix: the estimation
    network's input, which the verifiers pass as its three factors."""
    if rho_a.n != rho_b.n:
        raise ValueError("register sizes differ")
    return tensor(tensor(basis_state(1, 0).density(), rho_a), rho_b)


def swap_test_p0(overlaps, n: int) -> np.ndarray:
    """Control-qubit P0 of the n-register estimation network for each
    overlap tr(rho_a rho_b) in ``overlaps``.

    Closed form P0 = (1 + tr(rho_a rho_b)) / 2 (Buhrman, Cleve, Watrous,
    de Wolf), without building the (2n+1)-qubit input; the size limits are
    those of :func:`build_estimation_network`.
    """
    _check_estimation_size(n)
    return np.clip((1.0 + np.asarray(overlaps, dtype=float)) / 2, 0.0, 1.0)


def hadamard_test_p0(psi: np.ndarray, u_psi: np.ndarray) -> np.ndarray:
    """Flag P0 of H . controlled-U . H on psi (x) |0>, for each amplitude
    row psi of ``psi`` and its image U psi, the matching row of ``u_psi``.

    Closed form P0 = (1 + Re <psi|U|psi>) / 2; this is the checker that
    :func:`controlled_unitary` builds around U.
    """
    return np.clip((1.0 + np.sum(psi.conj() * u_psi, axis=-1).real) / 2, 0.0, 1.0)


@dataclass(frozen=True)
class CompositePlan:
    """Execution plan for the repeated-purity circuit.

    The monolithic network runs M copies of the estimation network side by
    side and feeds the (negated) control outcomes into a conjunction gate.
    Since the copies act on disjoint qubits, execution factorizes into M
    independent runs whose pass events are ANDed classically; the
    acceptance probability is P0^M either way.  ``monolithic_circuit``
    materializes the paper-facing single circuit for tiny regression sizes.
    """

    m: int
    repetitions: int
    estimator: Circuit

    def p0(self, rho: DensityOperator) -> float:
        """Control P0 of the estimation network on |0><0| (x) rho (x) rho,
        from column blocks of the three factors: the input's columns where
        the control reads 1 are zero and are never built."""
        return probability_of_outcome(self.estimator, (_KET0, rho, rho), "0")

    def exact_accept_prob(self, rho: DensityOperator) -> float:
        return self.p0(rho) ** self.repetitions

    def monolithic_circuit(self) -> Circuit:
        block = 2 * self.m + 1
        total = self.repetitions * block + 1
        if total > MAX_QUBITS:
            raise ResourceLimitError(
                f"monolithic purity circuit needs {total} qubits (limit {MAX_QUBITS})")
        gates = []
        controls = []
        for i in range(self.repetitions):
            base = i * block
            controls.append(base)
            reg_a = tuple(range(base + 1, base + 1 + self.m))
            reg_b = tuple(range(base + 1 + self.m, base + block))
            gates += [Gate.h(base), Gate.cswap(base, reg_a, reg_b), Gate.h(base)]
        # the conjunction fires on all-ones, but a passing test reads 0
        gates += [Gate.x(q) for q in controls]
        gates.append(Gate.toffoli_type(tuple(controls), total - 1))
        return Circuit(total, tuple(gates), measured=(total - 1,))

    def monolithic_accept_prob(self, rho: DensityOperator) -> float:
        factors = (_KET0, rho, rho) * self.repetitions + (_KET0,)
        return probability_of_outcome(self.monolithic_circuit(), factors, "1")


def build_purity_circuit(m: int, repetitions: int) -> CompositePlan:
    if m < 1 or repetitions < 1:
        raise ValueError("register size and repetition count must be >= 1")
    return CompositePlan(m, repetitions, build_estimation_network(m))


def subset_extract(phi: PureState, subset_string: str) -> DensityOperator:
    """State of the qubits marked '1', M M^dagger with those qubits as M's rows."""
    if len(subset_string) != phi.n or set(subset_string) - {"0", "1"}:
        raise ValueError(f"subset string must be {phi.n} bits of 0/1")
    ones = [i for i, b in enumerate(subset_string) if b == "1"]
    zeros = [i for i, b in enumerate(subset_string) if b == "0"]
    if not ones or not zeros:
        raise ValueError("subset string must select a proper nonempty subset")
    m = permute_qubits(phi.amplitudes, ones + zeros).reshape(1 << len(ones), -1)
    return DensityOperator(len(ones), m @ m.conj().T, validate=False)


def reflection_matrix(phi: PureState) -> np.ndarray:
    """2 |phi><phi| - I."""
    return 2 * np.outer(phi.amplitudes, phi.amplitudes.conj()) - np.eye(phi.dim)


def controlled_unitary(u: np.ndarray) -> Gate:
    """Apply ``u`` to the first n qubits iff the extra last qubit reads 1:
    I (x) |0><0| + u (x) |1><1|."""
    n = u.shape[0].bit_length() - 1
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    full = np.kron(np.eye(u.shape[0]), p0) + np.kron(u, p1)
    return Gate.unitary(full, tuple(range(n + 1)))


def controlled_reflection(phi: PureState) -> Gate:
    """Reflection about ``phi`` applied iff the extra last qubit reads 1."""
    if phi.n > 6:
        raise ResourceLimitError("controlled reflection supports at most 6 register qubits")
    return controlled_unitary(reflection_matrix(phi))


# ---------------------------------------------------------------------------
# text format
#
# One gate per line:   H q0
#                      X q1
#                      CSWAP q0 | q1 q2 | q3 q4
#                      PERM 2 0 1
#                      TOFF q0 q1 | q2
#                      UNITARY payload.json
# plus a mandatory "qubits N" header and an optional "measure q0 q1" line.
# UNITARY payloads are JSON {"targets": [...], "matrix": [[[re, im], ...]]}
# resolved relative to the description's base directory.


def _parse_qubit(tok: str) -> int:
    if not tok.startswith("q") or not tok[1:].isdigit():
        raise FormatError(f"expected qubit token like 'q0', got {tok!r}")
    return int(tok[1:])


def parse_circuit_text(text: str, unitary_loader=None) -> Circuit:
    """Parse the one-gate-per-line circuit description format."""
    n = None
    gates = []
    measured = ()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        op = toks[0].lower()
        try:
            if op in ("qubits", "h", "x") and len(toks) != 2:
                raise FormatError(f"line {lineno}: {toks[0]} takes exactly one argument")
            if op == "qubits":
                n = int(toks[1])
            elif n is None:
                raise FormatError("first directive must be 'qubits N'")
            elif op == "h":
                gates.append(Gate.h(_parse_qubit(toks[1])))
            elif op == "x":
                gates.append(Gate.x(_parse_qubit(toks[1])))
            elif op == "cswap":
                groups = [g.split() for g in " ".join(toks[1:]).split("|")]
                if len(groups) != 3 or len(groups[0]) != 1:
                    raise FormatError("CSWAP needs 'CSWAP ctrl | regA | regB'")
                gates.append(Gate.cswap(_parse_qubit(groups[0][0]),
                                        [_parse_qubit(t) for t in groups[1]],
                                        [_parse_qubit(t) for t in groups[2]]))
            elif op == "perm":
                gates.append(Gate.permutation([int(t) for t in toks[1:]]))
            elif op == "toff":
                groups = [g.split() for g in " ".join(toks[1:]).split("|")]
                if len(groups) != 2 or len(groups[1]) != 1:
                    raise FormatError("TOFF needs 'TOFF controls | target'")
                gates.append(Gate.toffoli_type([_parse_qubit(t) for t in groups[0]],
                                               _parse_qubit(groups[1][0])))
            elif op == "unitary":
                if unitary_loader is None:
                    raise FormatError("UNITARY directives need a payload loader")
                matrix, targets = unitary_loader(toks[1])
                gates.append(Gate.unitary(matrix, targets))
            elif op == "measure":
                measured = tuple(_parse_qubit(t) for t in toks[1:])
            else:
                raise FormatError(f"unknown directive {toks[0]!r}")
        except FormatError:
            raise
        except (ValueError, IndexError) as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
    if n is None:
        raise FormatError("missing 'qubits N' header")
    try:
        return Circuit(n, tuple(gates), measured)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def format_circuit_text(c: Circuit, unitary_namer=None) -> str:
    """Inverse of :func:`parse_circuit_text` (RawUnitary needs a namer)."""
    lines = [f"qubits {c.n}"]
    for g in c.gates:
        if g.kind == "Hadamard":
            lines.append(f"H q{g.targets[0]}")
        elif g.kind == "PauliX":
            lines.append(f"X q{g.targets[0]}")
        elif g.kind == "ControlledSwapBlock":
            lines.append("CSWAP q%d | %s | %s" % (
                g.control,
                " ".join(f"q{q}" for q in g.reg_a),
                " ".join(f"q{q}" for q in g.reg_b)))
        elif g.kind == "QubitPermutation":
            lines.append("PERM " + " ".join(str(q) for q in g.perm))
        elif g.kind == "ToffoliType":
            lines.append("TOFF %s | q%d" % (
                " ".join(f"q{q}" for q in g.controls), g.flip_target))
        elif g.kind == "RawUnitary":
            if unitary_namer is None:
                raise ValueError("serializing a RawUnitary gate needs a payload namer")
            lines.append(f"UNITARY {unitary_namer(g)}")
        else:
            raise ValueError(f"cannot serialize {g.kind}")
    if c.measured:
        lines.append("measure " + " ".join(f"q{q}" for q in c.measured))
    return "\n".join(lines) + "\n"
