"""Dense complex linear algebra for pure states and density operators.

Conventions used throughout the package:

* Qubit 0 is the most significant bit of the computational-basis index,
  so the bit of qubit ``q`` inside index ``i`` of an ``n``-qubit vector is
  ``(i >> (n - 1 - q)) & 1`` and tensor products compose left-to-right
  with ``numpy.kron``.
* Constructor validation uses 1e-10 tolerances, reconstruction checks
  1e-9; statistical checks live with the sampling code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceLimitError, UnsupportedOracleError
from .rng import make_rng, streams

ATOL_CONSTRUCT = 1e-10
ATOL_RECON = 1e-9
MAX_QUBITS = 14
SCHMIDT_RANK_ATOL = 1e-9  # a Schmidt coefficient above this counts toward the rank


def _as_qubit_count(dim: int) -> int:
    n = int(dim).bit_length() - 1
    if dim != 1 << n or n < 1:
        raise ValueError(f"dimension {dim} is not 2**n for n >= 1")
    return n


@dataclass(frozen=True)
class PureState:
    """Unit-norm complex vector over ``n`` qubits."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if self.n < 1:
            raise ValueError("qubit count must be >= 1")
        if self.n > MAX_QUBITS:
            raise ResourceLimitError(f"{self.n} qubits exceeds the {MAX_QUBITS}-qubit limit")
        if amps.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} amplitudes, got shape {amps.shape}")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= ATOL_CONSTRUCT:  # NaN fails too
            raise ValueError(f"state norm {norm!r} is not 1 within {ATOL_CONSTRUCT}")
        amps.setflags(write=False)

    @property
    def dim(self) -> int:
        return 1 << self.n

    def density(self) -> "DensityOperator":
        """Rank-one projector onto this state."""
        return DensityOperator(self.n, np.outer(self.amplitudes, self.amplitudes.conj()),
                               validate=False)


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite matrix over ``n`` qubits."""

    n: int
    matrix: np.ndarray
    validate: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        if self.n < 1:
            raise ValueError("qubit count must be >= 1")
        if self.n > MAX_QUBITS:
            raise ResourceLimitError(f"{self.n} qubits exceeds the {MAX_QUBITS}-qubit limit")
        d = 1 << self.n
        if mat.shape != (d, d):
            raise ValueError(f"expected {d}x{d} matrix, got shape {mat.shape}")
        if self.validate:
            if not np.max(np.abs(mat - mat.conj().T)) <= ATOL_CONSTRUCT:  # NaN fails too
                raise ValueError("matrix is not Hermitian within tolerance")
            tr = np.trace(mat).real
            if not abs(tr - 1.0) <= ATOL_CONSTRUCT:
                raise ValueError(f"trace {tr!r} is not 1 within {ATOL_CONSTRUCT}")
            if np.linalg.eigvalsh(mat).min() < -ATOL_CONSTRUCT:
                raise ValueError("matrix has a negative eigenvalue beyond tolerance")
        mat.setflags(write=False)

    @property
    def dim(self) -> int:
        return 1 << self.n

    def density(self) -> "DensityOperator":
        return self

    def is_pure(self, atol: float = ATOL_RECON) -> bool:
        return purity(self) >= 1.0 - atol

    def principal_state(self) -> PureState:
        """Dominant eigenvector as a pure state (exact for pure inputs)."""
        vals, vecs = np.linalg.eigh(self.matrix)
        v = vecs[:, -1]
        return PureState(self.n, v / np.linalg.norm(v))


@dataclass(frozen=True)
class Bipartition:
    """Two disjoint nonempty qubit subsets covering ``0..n-1``."""

    subset_a: tuple
    subset_b: tuple

    def __post_init__(self):
        a = tuple(sorted(int(q) for q in self.subset_a))
        b = tuple(sorted(int(q) for q in self.subset_b))
        object.__setattr__(self, "subset_a", a)
        object.__setattr__(self, "subset_b", b)
        if not a or not b:
            raise ValueError("both subsets must be nonempty")
        n = len(a) + len(b)
        if sorted(a + b) != list(range(n)):
            raise ValueError("subsets must disjointly cover 0..n-1")

    @classmethod
    def from_subset(cls, n: int, subset_a) -> "Bipartition":
        a = set(int(q) for q in subset_a)
        return cls(tuple(sorted(a)), tuple(sorted(set(range(n)) - a)))

    @property
    def n(self) -> int:
        return len(self.subset_a) + len(self.subset_b)


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Nonincreasing nonnegative coefficients whose squares sum to 1."""

    coefficients: tuple

    def __post_init__(self):
        cs = tuple(float(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", cs)
        if any(c < 0 for c in cs):
            raise ValueError("coefficients must be nonnegative")
        if list(cs) != sorted(cs, reverse=True):
            raise ValueError("coefficients must be nonincreasing")
        if abs(sum(c * c for c in cs) - 1.0) > 1e-9:
            raise ValueError("squared coefficients must sum to 1")

    @property
    def rank(self) -> int:
        """Number of coefficients above numerical noise."""
        return sum(1 for c in self.coefficients if c > SCHMIDT_RANK_ATOL)

    @property
    def largest(self) -> float:
        return self.coefficients[0]


# ---------------------------------------------------------------------------
# constructors for common states


def basis_state(n: int, index: int) -> PureState:
    v = np.zeros(1 << n, dtype=complex)
    v[index] = 1.0
    return PureState(n, v)


def bell_state() -> PureState:
    """(|00> + |11>) / sqrt(2)."""
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return PureState(2, v)


def ghz_state(n: int) -> PureState:
    v = np.zeros(1 << n, dtype=complex)
    v[0] = v[-1] = 1 / np.sqrt(2)
    return PureState(n, v)


def plus_state() -> PureState:
    return PureState(1, np.array([1, 1], dtype=complex) / np.sqrt(2))


def maximally_mixed(n: int) -> DensityOperator:
    d = 1 << n
    return DensityOperator(n, np.eye(d, dtype=complex) / d, validate=False)


def werner_state(p: float) -> DensityOperator:
    """p |Phi+><Phi+| + (1-p) I/4 on two qubits."""
    phi = bell_state().density().matrix
    return DensityOperator(2, p * phi + (1 - p) * np.eye(4) / 4)


def tensor_states(*parts: PureState) -> PureState:
    amps = parts[0].amplitudes
    for p in parts[1:]:
        amps = np.kron(amps, p.amplitudes)
    return PureState(sum(p.n for p in parts), amps)


def random_pure_state(n: int, seed: int, *stream: int) -> PureState:
    """Haar-random pure state, deterministic per (seed, stream)."""
    rng = make_rng(seed, *stream)
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return PureState(n, v / np.linalg.norm(v))


def random_pure_states(n: int, seed: int, keys) -> np.ndarray:
    """Amplitude rows ``random_pure_state(n, seed, *key).amplitudes``, bit
    for bit, for each stream tuple in ``keys``, drawn by :func:`streams`."""
    d = 1 << n
    parts = np.empty((len(keys), 2, d))  # real then imaginary part, one draw
    for row, rng in zip(parts, streams(seed, keys)):
        rng.standard_normal(out=row)
    v = parts[:, 0] + 1j * parts[:, 1]
    # np.linalg.norm of a complex row is sqrt(re.dot(re) + im.dot(im)) on the
    # row's stride-2 views; vecdot over the same strided views of the block
    # runs the same dot kernel row by row, so every norm is bit-identical.
    # Over the contiguous parts[:, 0] / parts[:, 1] rows it sums in another order.
    norms = np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))
    return v / norms.reshape(-1, 1)


def random_density(n: int, seed: int, *stream: int, rank: int | None = None) -> DensityOperator:
    """Random mixed state: Wishart-normalized G G^dagger of the given rank."""
    rng = make_rng(seed, *stream)
    d = 1 << n
    r = d if rank is None else rank
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    m = g @ g.conj().T
    return DensityOperator(n, m / np.trace(m).real, validate=False)


# ---------------------------------------------------------------------------
# operations


def tensor(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    if a.n + b.n > MAX_QUBITS:
        raise ResourceLimitError(
            f"tensor product of {a.n}+{b.n} qubits exceeds the {MAX_QUBITS}-qubit limit")
    return DensityOperator(a.n + b.n, np.kron(a.matrix, b.matrix), validate=False)


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Reduced state on the (strictly increasing) qubit indices ``keep``."""
    keep = [int(q) for q in keep]
    n = rho.n
    if not keep or keep != sorted(set(keep)) or keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep indices {keep} invalid for {n} qubits")
    if len(keep) == n:
        return rho
    # the flat matrix is a 2n-qubit vector: row qubits 0..n-1, then columns
    order = keep + [q for q in range(n) if q not in keep]
    t = permute_qubits(rho.matrix.reshape(-1), order + [n + q for q in order])
    k = len(keep)
    out = np.trace(t.reshape(1 << k, 1 << (n - k), 1 << k, 1 << (n - k)), axis1=1, axis2=3)
    return DensityOperator(k, out, validate=False)


def purity(rho: DensityOperator) -> float:
    """tr(rho^2); 1 exactly on pure states, 2^-n on the maximally mixed."""
    return float(np.vdot(rho.matrix, rho.matrix).real)


def overlap(a: DensityOperator, b: DensityOperator) -> float:
    """tr(a b); for pure states this is |<a|b>|^2."""
    if a.n != b.n:
        raise ValueError("qubit counts differ")
    return float(np.vdot(a.matrix, b.matrix).real)


def permute_qubits(amplitudes: np.ndarray, order) -> np.ndarray:
    """Amplitudes whose qubit j is qubit ``order[j]`` of the input; reshape
    to (2^k, -1) for qubits ``order[:k]`` on the rows.  A 2-D input is a
    stack of amplitude rows, each permuted alike."""
    n = len(order)
    lead = amplitudes.shape[:-1]
    axes = [*range(len(lead)), *(len(lead) + q for q in order)]
    return amplitudes.reshape(lead + (2,) * n).transpose(axes).reshape(lead + (1 << n,))


def schmidt_coefficients(phi: PureState, sides) -> np.ndarray:
    """Schmidt coefficients of ``phi`` across each cut whose side A is one of
    ``sides`` (sorted qubit tuples, all of one size), one normalized
    nonincreasing row per cut, from a single stacked SVD."""
    n, k = phi.n, len(sides[0])
    if not 0 < k < n or any(len(a) != k for a in sides):
        raise ValueError(f"side A subsets must all have one size in 1..{n - 1}")
    stack = np.stack([permute_qubits(phi.amplitudes, [*a, *(q for q in range(n) if q not in a)])
                      for a in sides])
    sv = np.linalg.svd(stack.reshape(len(sides), 1 << k, -1), compute_uv=False)
    sv = np.clip(sv, 0.0, None)
    # vecdot runs np.linalg.norm's dot kernel row by row: bit-identical norms
    return sv / np.sqrt(np.vecdot(sv, sv))[:, None]


def schmidt_spectrum(phi: PureState, cut: Bipartition) -> SchmidtSpectrum:
    """Singular values of the amplitude matrix reshaped along ``cut``."""
    if cut.n != phi.n:
        raise ValueError("bipartition does not match the state size")
    return SchmidtSpectrum(tuple(schmidt_coefficients(phi, [cut.subset_a])[0]))


def partial_transpose(mat, cut: Bipartition) -> np.ndarray:
    """Transpose on the B-subset qubits, in the original basis ordering.

    Accepts a DensityOperator or a plain Hermitian matrix; the result is
    generally not a state.
    """
    if isinstance(mat, DensityOperator):
        mat = mat.matrix
    mat = np.asarray(mat, dtype=complex)
    n = cut.n
    if mat.shape != (1 << n, 1 << n):
        raise ValueError("bipartition does not match the matrix size")
    # the flat matrix is a 2n-qubit vector: swap each B qubit's row and column qubits
    order = list(range(2 * n))
    for q in cut.subset_b:
        order[q], order[n + q] = n + q, q
    return permute_qubits(mat.reshape(-1), order).reshape(1 << n, 1 << n)


@dataclass(frozen=True)
class SeparabilityVerdict:
    separable: bool
    margin: float


def is_separable_oracle(rho: DensityOperator, cut: Bipartition) -> SeparabilityVerdict:
    """Exact desk-scale separability check across ``cut``.

    Pure inputs use the Schmidt rank; mixed inputs use the partial-transpose
    criterion, which is exact only when the cut dimensions are 2x2 or 2x3,
    and anything larger raises rather than guessing.  The margin is the
    negativity (for pure states, one minus the largest Schmidt coefficient).
    """
    if cut.n != rho.n:
        raise ValueError("bipartition does not match the state size")
    if rho.is_pure():
        spec = schmidt_spectrum(rho.principal_state(), cut)
        return SeparabilityVerdict(spec.rank == 1, 1.0 - spec.largest)
    da = 1 << len(cut.subset_a)
    db = 1 << len(cut.subset_b)
    if da * db > 6:
        raise UnsupportedOracleError(
            f"partial-transpose criterion is exact only for 2x2 or 2x3 cuts, got {da}x{db}")
    lam_min = float(np.linalg.eigvalsh(partial_transpose(rho, cut)).min())
    separable = lam_min >= -ATOL_CONSTRUCT
    return SeparabilityVerdict(separable, max(0.0, -lam_min))


def decompose_hermitian(w: np.ndarray, atol: float = ATOL_CONSTRUCT):
    """Split a Hermitian matrix into at most two weighted density operators.

    Returns ``[(c_i, rho_i)]`` with ``sum c_i rho_i == w``: the normalized
    positive part with weight tr(P) and the normalized negative part with
    weight -tr(N).
    """
    w = np.asarray(w, dtype=complex)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("expected a square matrix")
    if np.max(np.abs(w - w.conj().T)) > atol:
        raise ValueError("matrix is not Hermitian within tolerance")
    n = _as_qubit_count(w.shape[0])
    vals, vecs = np.linalg.eigh(w)
    parts = []
    for sign in (1, -1):
        sel = vals * sign > atol
        if not np.any(sel):
            continue
        comp = (vecs[:, sel] * vals[sel]) @ vecs[:, sel].conj().T * sign
        weight = float(np.trace(comp).real)
        parts.append((sign * weight, DensityOperator(n, comp / weight, validate=False)))
    if not parts:
        raise ValueError("matrix is numerically zero")
    return parts
