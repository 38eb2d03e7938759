"""Verifier procedures and prover strategies for the five languages.

Every verifier is a pure function of (instance, certificate, repetition
count, seed) and runs in two modes, exact (``shots=None``) and sampled.
The modes differ only inside :class:`Estimator`, which each verifier builds
from its ``shots`` argument.  L3-L5 take their swap-test and checker
distributions from closed forms on whole batches: the L3 validity panel is
one amplitude array scored against every witness state with one batched
matrix product, and the L4/L5 probes are one block that the certificate's
gates act on together.  Random states and shot draws come from
:func:`qlang.rng.streams`, which derives a batch of streams at once and
draws exactly what :func:`qlang.rng.make_rng` would.  The gate-level
circuits in :mod:`qlang.circuits` are the reference these kernels are
tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator

import numpy as np

from .errors import CertificateError, StrategyError
from .rng import make_rng, streams
from .circuits import (
    Circuit,
    Gate,
    apply_circuit,
    build_purity_circuit,
    circuit_unitary,
    controlled_reflection,
    controlled_unitary,
    estimation_input,
    hadamard_test_p0,
    probability_of_outcome,
    reflection_matrix,
    subset_extract,
    swap_test_p0,
)
from .languages import member_L2, member_L3
from .states import (
    Bipartition,
    DensityOperator,
    PureState,
    decompose_hermitian,
    overlap,
    partial_transpose,
    permute_qubits,
    random_pure_state,
    random_pure_states,
    schmidt_spectrum,
)

ACCEPT_THRESHOLD = 0.5
EXACT_DECISION_ATOL = 1e-9
L4_EXACT_TOL = 1e-6


@dataclass(frozen=True)
class Certificate:
    """Merlin's message: subset string, witness decomposition, or circuit."""

    kind: str  # subset | witness | circuit
    subset: str | None = None
    coeffs: tuple = ()
    states: tuple = ()
    circuit: Circuit | None = None

    @classmethod
    def subset_string(cls, bits: str) -> "Certificate":
        if set(bits) - {"0", "1"}:
            raise CertificateError(f"subset string must be 0/1, got {bits!r}")
        return cls("subset", subset=bits)

    @classmethod
    def witness(cls, parts) -> "Certificate":
        coeffs = tuple(float(c) for c, _ in parts)
        states = tuple(r for _, r in parts)
        if not coeffs or any(not math.isfinite(c) for c in coeffs):
            raise CertificateError("witness coefficients must be finite and nonempty")
        if len({r.n for r in states}) != 1:
            raise CertificateError("witness states must share one dimension")
        return cls("witness", coeffs=coeffs, states=states)

    @classmethod
    def circuit_description(cls, circuit: Circuit) -> "Certificate":
        return cls("circuit", circuit=circuit)

    def witness_matrix(self) -> np.ndarray:
        return sum(c * r.matrix for c, r in zip(self.coeffs, self.states))


@dataclass(frozen=True)
class Verdict:
    """Outcome of one protocol execution.

    ``repetitions`` is the protocol's repetition count: the number M of
    swap tests ANDed for L1/L2, 1 for L3 (one panel pass and one decision),
    and the number of probes for L4/L5.
    """

    accepted: bool
    exact_accept_prob: float
    sampled_accept_freq: float | None
    repetitions: int
    copies_consumed: int
    transcript: tuple = ()

    def as_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "exact_accept_prob": self.exact_accept_prob,
            "sampled_accept_freq": self.sampled_accept_freq,
            "repetitions": self.repetitions,
            "copies_consumed": self.copies_consumed,
            "transcript": list(self.transcript),
        }


# ---------------------------------------------------------------------------
# the exact/sampled split


@dataclass(frozen=True)
class Estimator:
    """Reads batches of two-outcome tests [P0, P1] exactly (``shots=None``)
    or as shot frequencies.  Test k of a batch reads outcome 0 on the shots
    where ``make_rng(seed, *keys[k]).random(shots) < P0``, the draws
    :func:`qlang.circuits.sample_from_distribution` makes; the streams come
    from :func:`qlang.rng.streams`, and every reading is drawn lazily, in
    order, so a loop that stops early draws no further tests."""

    shots: int | None

    def __post_init__(self):
        if self.shots is not None and self.shots < 1:
            raise ValueError("shots must be >= 1")

    def draws(self, p0s, seed: int, keys) -> Iterator[np.ndarray]:
        """Per-shot 'outcome 0' events of each sampled test, in order."""
        for p0, rng in zip(p0s, streams(seed, keys)):
            yield rng.random(self.shots) < p0

    def probs(self, p0s, outcome: int, seed: int, keys) -> Iterator[float]:
        """The probability, or shot frequency, of ``outcome`` (0 or 1) in
        each test, in order."""
        if self.shots is None:
            for p0 in p0s:
                yield float(1.0 - p0 if outcome else p0)
            return
        for zeros in self.draws(p0s, seed, keys):
            yield int(np.count_nonzero(~zeros if outcome else zeros)) / self.shots

    def overlaps(self, traces, n: int, seed: int, keys) -> Iterator[tuple]:
        """(estimate of tr(a b), its sigma) for each overlap tr(a b) of
        n-qubit states in ``traces``, in order: the trace itself, or the
        statistic of its sampled swap test."""
        if self.shots is None:
            for t in traces:
                yield float(t), 0.0
            return
        for p_hat in self.probs(swap_test_p0(traces, n), 0, seed, keys):
            sigma_p = math.sqrt(max(p_hat * (1 - p_hat), 1.0 / self.shots) / self.shots)
            yield 2 * p_hat - 1, 2 * sigma_p

    def tolerance(self, sigma: float, atol: float) -> float:
        """Allowed deviation of an estimate: ``atol`` exact, 3 sigma sampled."""
        return atol if self.shots is None else 3 * sigma

    def copies(self, per_shot: int) -> int:
        """Instance copies consumed: ``per_shot`` per shot, one shot if exact."""
        return per_shot * (self.shots or 1)

    def recorded(self, freq: float) -> float | None:
        """The Verdict's ``sampled_accept_freq``: None in exact mode."""
        return None if self.shots is None else freq


# ---------------------------------------------------------------------------
# L1 / L2: purity of a prefix, purity of a claimed product factor


def _purity_protocol(rho: DensityOperator, repetitions: int, seed: int,
                     shots: int | None, copies_per_run: int) -> Verdict:
    est = Estimator(shots)
    plan = build_purity_circuit(rho.n, repetitions)
    p0 = probability_of_outcome(plan.estimator, estimation_input(rho, rho), "0")
    exact = p0 ** repetitions
    transcript = [{"p0_exact": p0}]
    decided_on = exact
    if shots is not None:
        passed = np.ones(shots, dtype=bool)
        for zeros in est.draws([p0] * repetitions, seed, [(r,) for r in range(repetitions)]):
            passed &= zeros
        decided_on = float(passed.mean())
        transcript.append({"sampled_accept_freq": decided_on, "shots": shots})
    return Verdict(
        accepted=decided_on >= ACCEPT_THRESHOLD,
        exact_accept_prob=exact,
        sampled_accept_freq=est.recorded(decided_on),
        repetitions=repetitions,
        copies_consumed=est.copies(copies_per_run * repetitions),
        transcript=tuple(transcript),
    )


def verify_L1(phi: PureState, f_n: int, repetitions: int, seed: int = 0,
              shots: int | None = None) -> Verdict:
    """Swap-test the reduced state of the first ``f_n`` qubits M times.

    Each run consumes two fresh copies of the instance; all M control
    outcomes must read 0, so the exact acceptance probability is
    ((tr(rho^2) + 1) / 2)^M.
    """
    if repetitions < 1:
        raise ValueError("repetition count must be >= 1")
    if not 1 <= f_n <= phi.n:
        raise ValueError(f"prefix length {f_n} outside 1..{phi.n}")
    prefix = "1" * f_n + "0" * (phi.n - f_n)
    rho = phi.density() if f_n == phi.n else subset_extract(phi, prefix)
    return _purity_protocol(rho, repetitions, seed, shots, copies_per_run=2)


def merlin_L2_honest(phi: PureState) -> Certificate:
    """Subset string for a product cut of a member instance."""
    res = member_L2(phi)
    if not res.member:
        raise StrategyError("state is not separable across any bipartition")
    return Certificate.subset_string(res.witness_cut)


def verify_L2(phi: PureState, cert: Certificate, repetitions: int, seed: int = 0,
              shots: int | None = None) -> Verdict:
    """Extract the claimed factor and run the purity protocol on it."""
    if cert.kind != "subset" or cert.subset is None:
        raise CertificateError("expected a subset-string certificate")
    bits = cert.subset
    if len(bits) != phi.n:
        raise CertificateError(f"subset string length {len(bits)} != {phi.n} qubits")
    if len(set(bits)) != 2:
        raise CertificateError("subset string must select a proper nonempty subset")
    rho_s = subset_extract(phi, bits)
    return _purity_protocol(rho_s, repetitions, seed, shots, copies_per_run=2)


# ---------------------------------------------------------------------------
# L3: entanglement witness


def validity_panel(cut: Bipartition, seed: int, random_count: int = 200) -> np.ndarray:
    """Amplitude rows of the product states that vet a claimed witness: the
    computational basis, then ``random_count`` seeded Haar product states
    a_j (x) b_j across the cut, a_j on stream (seed, 101, j) and b_j on
    (seed, 102, j)."""
    na, nb = len(cut.subset_a), len(cut.subset_b)
    a = random_pure_states(na, seed, [(101, j) for j in range(random_count)])
    b = random_pure_states(nb, seed, [(102, j) for j in range(random_count)])
    products = (a[:, :, None] * b[:, None, :]).reshape(random_count, -1)
    inverse = np.argsort(cut.subset_a + cut.subset_b)  # (A, B) back to qubit order
    return np.vstack([np.eye(1 << cut.n, dtype=complex), permute_qubits(products, inverse)])


def merlin_L3_honest(rho: DensityOperator, cut: Bipartition) -> Certificate:
    """Entanglement witness for a state the oracle calls entangled.

    Pure instances get the standard witness (largest Schmidt coefficient
    squared) * I - |psi><psi|; mixed instances get the partial transpose of
    the projector onto the negative-eigenvalue eigenvector of rho^T_B.
    """
    res = member_L3(rho, cut)
    if not res.member:
        raise StrategyError("state is separable across the given cut")
    if rho.is_pure():
        psi = rho.principal_state()
        lam = schmidt_spectrum(psi, cut).largest
        w = lam ** 2 * np.eye(rho.dim) - np.outer(psi.amplitudes, psi.amplitudes.conj())
    else:
        vals, vecs = np.linalg.eigh(partial_transpose(rho, cut))
        v = vecs[:, 0]
        w = partial_transpose(np.outer(v, v.conj()), cut)
    return Certificate.witness(decompose_hermitian(w))


def _witness_value(coeffs, readings):
    """(sum_i c_i tr(rho_i sigma), sigma of the combined estimate) from the
    next ``len(coeffs)`` overlap readings (zip stops at the last coefficient
    without taking a further reading)."""
    total = 0.0
    var = 0.0
    for c, (value, sig) in zip(coeffs, readings):
        total += c * value
        var += (c * sig) ** 2
    return total, math.sqrt(var)


def verify_L3(rho: DensityOperator, cert: Certificate, shots: int | None = None,
              seed: int = 0, cut: Bipartition | None = None,
              panel_random: int = 200) -> Verdict:
    """Two-phase witness check: vet the witness on product states, then
    accept iff the witness expectation on the instance is negative beyond
    statistical noise (3 sigma sampled, 1e-9 exact).  Panel state j and
    witness state i are swap-tested on stream (seed, 1, j, i), the instance
    and witness state i on (seed, 2, i)."""
    if cert.kind != "witness":
        raise CertificateError("expected a witness certificate")
    if any(r.n != rho.n for r in cert.states):
        raise CertificateError("witness states do not match the instance dimension")
    if cut is None:
        cut = Bipartition.from_subset(rho.n, [0])
    est = Estimator(shots)
    k = len(cert.coeffs)
    panel = validity_panel(cut, seed, panel_random)
    # tr(rho_i |s><s|) = <s|rho_i|s> for every panel row s and witness state
    # i, (j, i) row-major; a three-operand einsum is 6-16x slower at n = 4..8
    mats = np.array([r.matrix for r in cert.states])
    traces = ((panel.conj() @ mats) * panel).sum(axis=-1).real.T
    readings = est.overlaps(traces.ravel(), rho.n, seed,
                            [(1, j, i) for j in range(len(panel)) for i in range(k)])
    transcript = []
    panel_min = math.inf
    valid = True
    for j in range(len(panel)):
        value, sig = _witness_value(cert.coeffs, readings)
        panel_min = min(panel_min, value)
        if value < -est.tolerance(sig, EXACT_DECISION_ATOL):
            valid = False
            transcript.append({"phase": "validity", "panel_index": j,
                               "value": value, "sigma": sig})
            break
    transcript.insert(0, {"phase": "validity", "min_value": panel_min,
                          "passed": valid})
    exact_stat = float(np.vdot(cert.witness_matrix(), rho.matrix).real)
    stat, sig = _witness_value(cert.coeffs, est.overlaps(
        [overlap(r, rho) for r in cert.states], rho.n, seed, [(2, i) for i in range(k)]))
    transcript.append({"phase": "decision", "statistic": stat, "sigma": sig,
                       "exact_statistic": exact_stat})
    accepted = valid and stat < -est.tolerance(sig, EXACT_DECISION_ATOL)
    exact_accept = 1.0 if (valid and exact_stat < -EXACT_DECISION_ATOL) else 0.0
    return Verdict(
        accepted=accepted,
        exact_accept_prob=exact_accept,
        sampled_accept_freq=est.recorded(1.0 if accepted else 0.0),
        repetitions=1,
        copies_consumed=est.copies(k),
        transcript=tuple(transcript),
    )


# ---------------------------------------------------------------------------
# L4: reflection-operator certificates


def merlin_L4_honest(phi: PureState) -> Certificate:
    """Circuit implementing the exact reflection about the instance."""
    gate = Gate.unitary(reflection_matrix(phi), tuple(range(phi.n)))
    return Certificate.circuit_description(Circuit(phi.n, (gate,)))


@dataclass(frozen=True)
class MerlinStrategy:
    """Honest or cheating certificate generator for the L4/L5 protocols."""

    mode: str
    parameters: dict = field(default_factory=dict)

    def certificate(self, phi: PureState, seed: int = 0) -> Certificate:
        n, d = phi.n, phi.dim
        if self.mode == "honest":
            return merlin_L4_honest(phi)
        if self.mode == "identity":
            return Certificate.circuit_description(Circuit(n, ()))
        if self.mode == "reflect_other":
            target = self.parameters.get("overlap", 0.9)
            chi = random_orthogonal_state(phi, seed, 11)
            psi = PureState(n, math.sqrt(target) * phi.amplitudes
                            + math.sqrt(1 - target) * chi.amplitudes)
            gate = Gate.unitary(reflection_matrix(psi), tuple(range(n)))
            return Certificate.circuit_description(Circuit(n, (gate,)))
        if self.mode == "complement_phase":
            theta = self.parameters.get("theta")
            if theta is None:
                theta = float(make_rng(seed, 12).uniform(0, 2 * math.pi))
            proj = np.outer(phi.amplitudes, phi.amplitudes.conj())
            u = proj + np.exp(1j * theta) * (np.eye(d) - proj)
            gate = Gate.unitary(u, tuple(range(n)))
            return Certificate.circuit_description(Circuit(n, (gate,)))
        if self.mode == "complement_unitary":
            proj = np.outer(phi.amplitudes, phi.amplitudes.conj())
            q = _complement_basis(phi)
            w = haar_unitary(d - 1, seed, 13)
            u = proj - q @ w @ q.conj().T
            gate = Gate.unitary(u, tuple(range(n)))
            return Certificate.circuit_description(Circuit(n, (gate,)))
        if self.mode == "haar":
            gate = Gate.unitary(haar_unitary(d, seed, 14), tuple(range(n)))
            return Certificate.circuit_description(Circuit(n, (gate,)))
        raise StrategyError(f"unknown strategy mode {self.mode!r}")


def merlin_L4_cheat_library() -> list:
    """The adversarial strategies soundness is demonstrated against."""
    return [
        MerlinStrategy("identity"),
        MerlinStrategy("reflect_other", {"overlap": 0.9}),
        MerlinStrategy("complement_phase"),
        MerlinStrategy("complement_unitary"),
        MerlinStrategy("haar"),
    ]


def haar_unitary(dim: int, seed: int, *stream: int) -> np.ndarray:
    rng = make_rng(seed, *stream)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_orthogonal_state(phi: PureState, seed: int, *stream: int) -> PureState:
    """Haar-random state in the orthogonal complement of ``phi``."""
    for attempt in range(16):
        v = random_pure_state(phi.n, seed, *stream, attempt).amplitudes.copy()
        v -= np.vdot(phi.amplitudes, v) * phi.amplitudes
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            return PureState(phi.n, v / norm)
    raise RuntimeError("could not draw an orthogonal state")


def _complement_basis(phi: PureState) -> np.ndarray:
    """Columns: an orthonormal basis of the complement of ``phi``."""
    d = phi.dim
    m = np.eye(d, dtype=complex) - np.outer(phi.amplitudes, phi.amplitudes.conj())
    vals, vecs = np.linalg.eigh(m)
    return vecs[:, 1:]  # the single near-zero eigenvalue is phi itself


def probe_overlaps(phi: PureState, circuit: Circuit, seed: int, probes: int) -> np.ndarray:
    """Rows (O1, O2, O3) = (|<xi|phi>|^2, |<N xi|phi>|^2, |<N xi|xi>|^2) for
    the probes xi on streams (seed, i), i < probes, and the network N,
    which acts on all probes as one block, gate by gate."""
    xi = random_pure_states(phi.n, seed, [(i,) for i in range(probes)])
    xo = apply_circuit(circuit, xi.T).T  # xi itself for a gateless circuit
    xo = xo / np.linalg.norm(xo, axis=1, keepdims=True)
    return np.column_stack([np.abs(xi.conj() @ phi.amplitudes) ** 2,
                            np.abs(xo.conj() @ phi.amplitudes) ** 2,
                            np.abs(np.sum(xo.conj() * xi, axis=1)) ** 2])


def verify_L4(phi: PureState, cert: Certificate, probes: int, seed: int = 0,
              shots: int | None = None) -> Verdict:
    """Probe the claimed reflection network with Haar-random states.

    For each probe xi: O1 = |<xi|phi>|^2, O2 = |<N xi|phi>|^2,
    O3 = |<N xi|xi>|^2.  A true reflection about phi gives O2 = O1 and
    O3 = (2 O1 - 1)^2; a probe violating either relation beyond
    ``L4_EXACT_TOL`` (exact) or 3 sigma (sampled; O3 adds ``L4_EXACT_TOL``)
    is a detected cheat.  The overlaps come from :func:`probe_overlaps`;
    probe i's three swap tests are sampled on streams (seed, i, 0..2).
    """
    if cert.kind != "circuit" or cert.circuit is None:
        raise CertificateError("expected a circuit certificate")
    if cert.circuit.n != phi.n:
        raise CertificateError(
            f"certificate acts on {cert.circuit.n} qubits, instance has {phi.n}")
    if probes < 1:
        raise ValueError("probe count must be >= 1")
    est = Estimator(shots)
    traces = probe_overlaps(phi, cert.circuit, seed, probes)
    readings = est.overlaps(traces.ravel(), phi.n, seed,
                            [(i, t) for i in range(probes) for t in range(3)])
    transcript = []
    accepted = True
    for i in range(probes):
        (o1, s1), (o2, s2), (o3, s3) = islice(readings, 3)
        expected_o3 = (2 * o1 - 1) ** 2
        tol1 = est.tolerance(math.sqrt(s1 ** 2 + s2 ** 2), L4_EXACT_TOL)
        sig3 = math.sqrt(s3 ** 2 + (4 * abs(2 * o1 - 1) * s1) ** 2)
        tol2 = est.tolerance(sig3, 0.0) + L4_EXACT_TOL
        ok = abs(o2 - o1) <= tol1 and abs(o3 - expected_o3) <= tol2
        transcript.append({"probe": i, "O1": o1, "O2": o2, "O3": o3,
                           "expected_O3": expected_o3, "passed": ok})
        if not ok:
            accepted = False
            break
    exact = 1.0 if accepted else 0.0
    return Verdict(
        accepted=accepted,
        exact_accept_prob=exact,
        sampled_accept_freq=est.recorded(exact),
        repetitions=probes,
        copies_consumed=est.copies(2 * probes),
        transcript=tuple(transcript),
    )


# ---------------------------------------------------------------------------
# L5: checkable states via the derived checker


def build_checker_from_reflection(phi: PureState) -> Circuit:
    """(I (x) H) ctrl-R (I (x) H) with the flag as the extra last qubit.

    On phi (x) |0> the flag stays 0; on any state orthogonal to phi it
    flips to 1.
    """
    return Circuit(phi.n + 1,
                   (Gate.h(phi.n), controlled_reflection(phi), Gate.h(phi.n)),
                   measured=(phi.n,))


def checker_from_certificate(cert: Certificate) -> Circuit:
    """Same composition, but around the certificate's network."""
    if cert.kind != "circuit" or cert.circuit is None:
        raise CertificateError("expected a circuit certificate")
    n = cert.circuit.n
    return Circuit(n + 1,
                   (Gate.h(n), controlled_unitary(circuit_unitary(cert.circuit)), Gate.h(n)),
                   measured=(n,))


def _orthogonal_probes(phi: PureState, seed: int, count: int) -> np.ndarray:
    """Rows ``random_orthogonal_state(phi, seed, 20, j)`` for j < count,
    every first attempt drawn in one batch."""
    v = random_pure_states(phi.n, seed, [(20, j, 0) for j in range(count)])
    v -= np.outer(v @ phi.amplitudes.conj(), phi.amplitudes)
    norms = np.linalg.norm(v, axis=1)
    for j in np.flatnonzero(norms <= 1e-6):  # that attempt was (nearly) phi itself
        v[j] = random_orthogonal_state(phi, seed, 20, j).amplitudes
        norms[j] = 1.0
    return v / norms[:, None]


def verify_L5(phi: PureState, cert: Certificate, probes: int, seed: int = 0,
              shots: int | None = None) -> Verdict:
    """L4 verification plus behavioral tests of the derived checker:
    orthogonal probes must raise the flag, the instance must not.

    The checker is :func:`checker_from_certificate`'s circuit; its flag
    distribution comes from the Hadamard-test closed form, with the
    certificate's gates acting on the orthogonal probes and the instance as
    one block.  Orthogonal probe j is drawn on streams (seed, 20, j, ...)
    and its flag on (seed, 21, j); the instance's flag on (seed, 22).
    """
    base = verify_L4(phi, cert, probes, seed, shots)
    est = Estimator(shots)
    transcript = list(base.transcript)
    accepted = base.accepted
    # sampled: a flag frequency over N = est.copies(1) shots may fall 3 / sqrt(N) short of 1
    threshold = 1.0 - est.tolerance(math.sqrt(1.0 / est.copies(1)), EXACT_DECISION_ATOL)
    if accepted:
        tested = np.vstack([_orthogonal_probes(phi, seed, probes), phi.amplitudes])
        p0 = hadamard_test_p0(tested, apply_circuit(cert.circuit, tested.T).T)
        flags = est.probs(p0[:probes], 1, seed, [(21, j) for j in range(probes)])
        for j, p1 in enumerate(flags):
            ok = p1 >= threshold
            transcript.append({"phase": "checker_orthogonal", "probe": j,
                               "flag1_prob": p1, "passed": ok})
            if not ok:
                accepted = False
                break
        if accepted:
            p0_instance = next(est.probs(p0[probes:], 0, seed, [(22,)]))
            accepted = p0_instance >= threshold
            transcript.append({"phase": "checker_instance", "flag0_prob": p0_instance,
                               "passed": accepted})
    exact = 1.0 if accepted else 0.0
    return Verdict(
        accepted=accepted,
        exact_accept_prob=exact,
        sampled_accept_freq=est.recorded(exact),
        repetitions=probes,
        copies_consumed=base.copies_consumed + est.copies(probes + 1),
        transcript=tuple(transcript),
    )


# ---------------------------------------------------------------------------
# repetition calibration


def required_repetitions(gap: float, error_bound: float) -> int:
    """Smallest M with exp(-2 M (gap/2)^2) <= error_bound, at least 1."""
    if not 0 < gap <= 1:
        raise ValueError("gap must lie in (0, 1]")
    if not 0 < error_bound <= 1:
        raise ValueError("error bound must lie in (0, 1]")
    m = math.ceil(math.log(1.0 / error_bound) / (2 * (gap / 2) ** 2))
    return max(1, m)
