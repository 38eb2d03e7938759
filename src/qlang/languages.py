"""Desk-scale membership oracles for the five state languages.

Each oracle returns a boolean membership verdict plus a margin functional
that is zero on members and grows with distance from the language:
purity deficit of the prefix (L1), one minus the largest Schmidt
coefficient over all bipartitions (L2), and negativity (L3).  The
three-region classifier maps (member, margin) against a threshold
``epsilon`` into accept / reject / illegal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import ResourceLimitError
from .circuits import Circuit, evolve_pure, subset_extract
from .states import (
    Bipartition,
    DensityOperator,
    PureState,
    basis_state,
    is_separable_oracle,
    purity,
    schmidt_spectrum,
)

PURITY_MEMBER_ATOL = 1e-9
L2_MAX_QUBITS = 10


@dataclass(frozen=True)
class LanguageId:
    """Identifier plus per-language parameters.

    L1 carries ``params['prefix_table']``, a map from state size n to the
    prefix length to test, constrained to prefix_table[n] <= n.
    """

    id: str
    params: dict = field(default_factory=dict)

    _KNOWN = ("L1", "L2", "L3", "L4", "L5")

    def __post_init__(self):
        if self.id not in self._KNOWN:
            raise ValueError(f"unknown language {self.id!r}")
        table = self.params.get("prefix_table", {})
        for n, f_n in table.items():
            if not 1 <= f_n <= n:
                raise ValueError(f"prefix table entry f({n})={f_n} violates f(n) <= n")


@dataclass(frozen=True)
class RegionVerdict:
    region: str  # accept | reject | illegal
    margin: float

    def __post_init__(self):
        if self.region not in ("accept", "reject", "illegal"):
            raise ValueError(f"bad region {self.region!r}")


@dataclass(frozen=True)
class Membership:
    member: bool
    margin: float
    witness_cut: str | None = None  # subset string of a product cut, if any


def member_L1(phi: PureState, f_n: int) -> Membership:
    """Is the reduced state of the first ``f_n`` qubits pure?"""
    if not 1 <= f_n <= phi.n:
        raise ValueError(f"prefix length {f_n} outside 1..{phi.n}")
    if f_n == phi.n:
        return Membership(True, 0.0)
    p = purity(subset_extract(phi, "1" * f_n + "0" * (phi.n - f_n)))
    return Membership(p >= 1.0 - PURITY_MEMBER_ATOL, max(0.0, 1.0 - p))


def _proper_cuts(n: int):
    """All bipartitions, canonicalized to keep qubit 0 on side A."""
    rest = list(range(1, n))
    for r in range(0, n - 1):
        for extra in itertools.combinations(rest, r):
            yield Bipartition.from_subset(n, (0,) + extra)


def member_L2(phi: PureState) -> Membership:
    """Is the state a product across some bipartition of its qubits?

    Brute force over all 2^(n-1) - 1 cuts; the margin is the smallest
    value of (1 - largest Schmidt coefficient) over cuts, so a member has
    margin 0 and the witness cut is returned as a subset string.
    """
    if phi.n < 2:
        raise ValueError("needs at least 2 qubits")
    if phi.n > L2_MAX_QUBITS:
        raise ResourceLimitError(f"cut search supports at most {L2_MAX_QUBITS} qubits")
    best_margin = 2.0
    best_cut = None
    for cut in _proper_cuts(phi.n):
        spec = schmidt_spectrum(phi, cut)
        margin = 1.0 - spec.largest
        if margin < best_margin:
            best_margin = margin
            best_cut = cut
            if spec.rank == 1:
                break
    member = best_margin <= 1e-9
    bits = "".join("1" if q in best_cut.subset_a else "0" for q in range(phi.n))
    return Membership(member, max(0.0, best_margin), witness_cut=bits)


def member_L3(rho: DensityOperator, cut: Bipartition) -> Membership:
    """Is the state entangled across ``cut``?  Margin is the negativity."""
    verdict = is_separable_oracle(rho, cut)
    return Membership(not verdict.separable, verdict.margin)


def member_L3_classical(circuit_text: str, unitary_loader=None) -> bool:
    """Does the described circuit map |0...0> to an entangled state?

    Entangled means not expressible as a full tensor product of
    single-qubit states, decided by :func:`circuit_output_entangled`.
    """
    from .circuits import parse_circuit_text

    c = parse_circuit_text(circuit_text, unitary_loader)
    return circuit_output_entangled(c)


def circuit_output_entangled(c: Circuit) -> bool:
    """A pure state is a full product iff every single-qubit cut has
    Schmidt rank 1."""
    if c.n > L2_MAX_QUBITS:
        raise ResourceLimitError(f"cut search supports at most {L2_MAX_QUBITS} qubits")
    out = evolve_pure(c, basis_state(c.n, 0))
    return c.n > 1 and any(
        schmidt_spectrum(out, Bipartition.from_subset(c.n, [q])).rank != 1 for q in range(c.n))


def classify(lang: LanguageId, state, epsilon: float,
             cut: Bipartition | None = None) -> RegionVerdict:
    """Three-region partial-decision classification for L1/L2/L3."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if lang.id == "L1":
        table = lang.params.get("prefix_table", {})
        f_n = table.get(state.n, lang.params.get("prefix", state.n))
        res = member_L1(state, f_n)
    elif lang.id == "L2":
        res = member_L2(state)
    elif lang.id == "L3":
        if cut is None:
            cut = Bipartition.from_subset(state.n, [0])
        res = member_L3(state, cut)
    else:
        raise ValueError(f"no metric classification for {lang.id}")
    if res.member:
        return RegionVerdict("accept", res.margin)
    if res.margin >= epsilon:
        return RegionVerdict("reject", res.margin)
    return RegionVerdict("illegal", res.margin)
