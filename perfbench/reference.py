"""Independent reference for the benchmark's output checks.

Uses numpy only and never imports ``qlang``: every quantity the verifiers
report is recomputed here from the instance, the certificate matrices and
the protocol definitions in the project README, or checked against a
property the method must have.  A check that fails raises ``Mismatch``.

Verdicts are taken as the plain dicts ``Verdict.as_dict()`` and the CLI
print, so library and CLI outputs go through the same checks.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

PROB_ATOL = 1e-9          # exact-mode probabilities and statistics
L4_TOL = 1e-6             # the exact-mode L4 relation tolerance
BINOMIAL_Z = 6.0          # a correct sampler leaves this band with p < 2e-9
PURITY_MEMBER_ATOL = 1e-9


class Mismatch(AssertionError):
    """A program output disagrees with the reference."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def expect_close(name: str, got: float, want: float, atol: float = PROB_ATOL) -> None:
    expect(abs(got - want) <= atol, f"{name}: got {got!r}, reference {want!r}")


# ---------------------------------------------------------------------------
# states


def stream_rng(seed: int, *stream: int) -> np.random.Generator:
    """The counter-based stream the protocols document: Philox keyed by
    ``SeedSequence(entropy=seed, spawn_key=stream)``."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(stream))
    return np.random.Generator(np.random.Philox(ss))


def haar_amplitudes(n: int, seed: int, *stream: int) -> np.ndarray:
    """Normalized complex Gaussian vector, drawn real part first."""
    rng = stream_rng(seed, *stream)
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return v / np.linalg.norm(v)


def subset_purity(amps: np.ndarray, ones) -> float:
    """tr(rho_S^2) of the qubits ``ones`` from the SVD of the reshaped
    amplitudes (qubit 0 is the most significant index bit)."""
    n = int(amps.size).bit_length() - 1
    ones = list(ones)
    rest = [q for q in range(n) if q not in ones]
    mat = amps.reshape([2] * n).transpose(ones + rest).reshape(1 << len(ones), -1)
    s = np.linalg.svd(mat, compute_uv=False)
    return float(np.sum(s ** 4))


def negativity(rho: np.ndarray, side_b) -> float:
    """max(0, -lambda_min) of the partial transpose on ``side_b``."""
    n = int(rho.shape[0]).bit_length() - 1
    t = rho.reshape([2] * (2 * n))
    perm = list(range(2 * n))
    for q in side_b:
        perm[q], perm[n + q] = n + q, q
    pt = t.transpose(perm).reshape(rho.shape)
    return max(0.0, -float(np.linalg.eigvalsh(pt).min()))


def binomial_halfwidth(p: float, shots: int) -> float:
    """Band a shot frequency of probability ``p`` stays in."""
    p = min(1.0, max(0.0, p))
    return BINOMIAL_Z * math.sqrt(p * (1 - p) / shots) + 1.0 / shots


def overlap_sigma(estimate: float, shots: int) -> float:
    """The documented sigma of a swap-test overlap estimate 2 p - 1:
    2 sqrt(max(p (1 - p), 1/shots) / shots) at p = (estimate + 1)/2."""
    p = (estimate + 1) / 2
    return 2 * math.sqrt(max(p * (1 - p), 1.0 / shots) / shots)


def overlap_sigma_range(p: float, shots: int) -> tuple:
    """Smallest and largest ``overlap_sigma`` over the estimates whose
    frequency lies in the binomial band of the true probability ``p``."""
    h = binomial_halfwidth(p, shots)
    lo, hi = max(0.0, p - h), min(1.0, p + h)
    var = [q * (1 - q) for q in (lo, hi)]
    top = 0.25 if lo <= 0.5 <= hi else max(var)
    return tuple(2 * math.sqrt(max(v, 1.0 / shots) / shots) for v in (min(var), top))


def expect_rule(passed: bool, margin: float, message: str) -> None:
    """``passed`` must be (margin >= 0), the documented rule; a margin
    within rounding of 0 may go either way."""
    expect(passed == (margin >= 0) or abs(margin) <= 1e-12, message)


# ---------------------------------------------------------------------------
# L1 / L2: repeated swap tests


def purity_accept_prob(purity: float, repetitions: int) -> float:
    return ((1 + purity) / 2) ** repetitions


def check_purity_verdict(v: dict, purity: float, repetitions: int,
                         shots: int | None) -> str:
    """P0 = (1 + purity)/2, exact acceptance P0^M, sampled frequency in
    the binomial band, and the decision at 1/2."""
    p0 = (1 + purity) / 2
    exact = purity_accept_prob(purity, repetitions)
    expect_close("p0_exact", v["transcript"][0]["p0_exact"], p0)
    expect_close("exact_accept_prob", v["exact_accept_prob"], exact)
    expect(v["repetitions"] == repetitions, "repetition count")
    if shots is None:
        expect(v["sampled_accept_freq"] is None, "exact mode reports a frequency")
        expect(v["accepted"] == (exact >= 0.5), "exact decision does not follow P0^M")
    else:
        freq = v["sampled_accept_freq"]
        expect(abs(freq - exact) <= binomial_halfwidth(exact, shots),
               f"sampled frequency {freq} outside the binomial band of {exact}")
        expect(v["accepted"] == (freq >= 0.5), "sampled decision does not follow the frequency")
    return "ok"


# ---------------------------------------------------------------------------
# L3: entanglement witness


def witness_matrix(coeffs, mats) -> np.ndarray:
    return sum(c * m for c, m in zip(coeffs, mats))


def check_witness_verdict(v: dict, coeffs, mats, rho: np.ndarray,
                          shots: int | None, honest: bool) -> str:
    """exact_statistic = tr(W rho); an honest witness is nonnegative on the
    product panel; the decision follows from the transcript values.

    Returns "failed" for an honest sampled certificate that the verifier
    rejects although its statistics lie within their binomial bands: the
    uncorrected 3-sigma thresholds reject it.
    """
    stat_ref = float(np.trace(witness_matrix(coeffs, mats) @ rho).real)
    validity, decision = v["transcript"][0], v["transcript"][-1]
    expect_close("exact_statistic", decision["exact_statistic"], stat_ref)
    panel_failures = [t for t in v["transcript"][1:-1] if t.get("phase") == "validity"]
    expect(len(panel_failures) == (0 if validity["passed"] else 1),
           "validity transcript does not stop at the first failing panel state")
    if shots is None:
        if honest:
            expect(validity["min_value"] >= -PROB_ATOL,
                   f"honest witness negative on a product state: {validity['min_value']}")
        expect_close("statistic", decision["statistic"], stat_ref)
        want = validity["passed"] and stat_ref < -PROB_ATOL
        expect(v["accepted"] == want, "exact L3 decision does not follow tr(W rho)")
        expect(v["exact_accept_prob"] == (1.0 if want else 0.0), "exact_accept_prob")
        return "ok"
    p_ref = [(1 + float(np.trace(m @ rho).real)) / 2 for m in mats]
    band = sum(abs(c) * 2 * binomial_halfwidth(p, shots) for c, p in zip(coeffs, p_ref))
    expect(abs(decision["statistic"] - stat_ref) <= band,
           f"sampled statistic {decision['statistic']} outside the band of {stat_ref}")
    ranges = [overlap_sigma_range(p, shots) for p in p_ref]
    sig_lo, sig_hi = (math.sqrt(sum((c * r[i]) ** 2 for c, r in zip(coeffs, ranges)))
                      for i in (0, 1))
    expect(sig_lo - PROB_ATOL <= decision["sigma"] <= sig_hi + PROB_ATOL,
           f"decision sigma {decision['sigma']} outside [{sig_lo}, {sig_hi}]")
    # a panel state is a product state, on which an honest witness is >= 0;
    # its sigma lies between those of p(1-p) = 1/shots and p(1-p) = 1/4
    panel_band = sum(abs(c) * 2 * binomial_halfwidth(0.5, shots) for c in coeffs)
    sig_min = math.sqrt(sum((c * 2 / shots) ** 2 for c in coeffs))
    sig_max = math.sqrt(sum(c * c / shots for c in coeffs))
    for t in panel_failures:
        expect(t["value"] < -3 * t["sigma"], "panel rejection without a 3-sigma violation")
        expect(sig_min - PROB_ATOL <= t["sigma"] <= sig_max + PROB_ATOL, "panel sigma")
        if honest:
            expect(t["value"] >= -panel_band,
                   f"honest witness at {t['value']} on a product state, outside its band")
    decided = decision["statistic"] < -3 * decision["sigma"]
    expect(v["accepted"] == (validity["passed"] and decided),
           "sampled L3 decision does not follow its transcript")
    if honest and stat_ref < -PROB_ATOL and not v["accepted"]:
        return "failed"
    return "ok"


# ---------------------------------------------------------------------------
# L4 / L5: reflection certificates and the derived checker


def certificate_unitary(n: int, gate_matrices) -> np.ndarray:
    """Product of full-register gate matrices, first gate rightmost."""
    u = np.eye(1 << n, dtype=complex)
    for g in gate_matrices:
        expect(g.shape == u.shape, "reference handles full-register gates only")
        u = g @ u
    return u


def probe_overlaps(phi: np.ndarray, u: np.ndarray, seed: int, probe: int):
    """(O1, O2, O3) for the probe the protocol draws on stream (seed, probe)."""
    n = int(phi.size).bit_length() - 1
    xi = haar_amplitudes(n, seed, probe)
    xo = u @ xi
    xo = xo / np.linalg.norm(xo)
    return (abs(np.vdot(xi, phi)) ** 2, abs(np.vdot(xo, phi)) ** 2,
            abs(np.vdot(xo, xi)) ** 2)


def check_reflection_verdict(v: dict, phi: np.ndarray, u: np.ndarray,
                             probes: int, seed: int, shots: int | None,
                             honest: bool, with_checker: bool = False) -> str:
    """Recompute O1..O3 for every transcript probe.  Each probe's
    ``passed`` must follow the documented rule from its values, and the
    verdict from the probes.  With ``with_checker`` (L5) each flag's
    ``passed`` must follow its threshold, and an honest certificate's flag
    probabilities must be 1 (exact) or within the binomial band of 1.

    Returns "failed" for an honest certificate rejected in sampled mode:
    its values lie in their bands, so the per-check 3-sigma rule, applied
    as documented, is what rejected it."""
    probe_rows = [t for t in v["transcript"] if "phase" not in t]
    expect(1 <= len(probe_rows) <= probes, "probe transcript length")
    all_passed = True
    for i, row in enumerate(probe_rows):
        expect(row["probe"] == i, "probe order")
        o1, o2, o3 = probe_overlaps(phi, u, seed, i)
        if shots is None:
            for key, ref in (("O1", o1), ("O2", o2), ("O3", o3)):
                expect_close(f"probe {i} {key}", row[key], ref)
            ok = abs(o2 - o1) <= L4_TOL and abs(o3 - (2 * o1 - 1) ** 2) <= L4_TOL
            expect(row["passed"] == ok, f"probe {i} verdict does not follow O1..O3")
        else:
            for key, ref in (("O1", o1), ("O2", o2), ("O3", o3)):
                band = 2 * binomial_halfwidth((1 + ref) / 2, shots)
                expect(abs(row[key] - ref) <= band, f"probe {i} {key} outside its band")
            s1, s2, s3 = (overlap_sigma(row[key], shots) for key in ("O1", "O2", "O3"))
            tol1 = 3 * math.sqrt(s1 ** 2 + s2 ** 2)
            tol2 = 3 * math.sqrt(s3 ** 2 + (4 * abs(2 * row["O1"] - 1) * s1) ** 2) + L4_TOL
            expect_rule(row["passed"],
                        min(tol1 - abs(row["O2"] - row["O1"]),
                            tol2 - abs(row["O3"] - (2 * row["O1"] - 1) ** 2)),
                        f"probe {i} verdict does not follow the 3-sigma rule")
        expect_close(f"probe {i} expected_O3", row["expected_O3"], (2 * row["O1"] - 1) ** 2)
        expect(row["passed"] or i == len(probe_rows) - 1,
               "probe loop continued after a failing probe")
        all_passed = all_passed and row["passed"]
    l4_accepted = all_passed and len(probe_rows) == probes
    accepted = l4_accepted
    if with_checker:
        flags = [t for t in v["transcript"] if t.get("phase", "").startswith("checker")]
        expect(l4_accepted or not flags, "checker run after an L4 rejection")
        threshold = 1.0 - (PROB_ATOL if shots is None else 3 * math.sqrt(1.0 / shots))
        for t in flags:
            p = t["flag1_prob"] if t["phase"] == "checker_orthogonal" else t["flag0_prob"]
            if honest:
                expect_close(f"{t['phase']} flag probability", p, 1.0,
                             PROB_ATOL if shots is None else binomial_halfwidth(1.0, shots))
            expect_rule(t["passed"], p - threshold,
                        f"{t['phase']} flag verdict does not follow its threshold")
            accepted = accepted and t["passed"]
        if l4_accepted and accepted:
            expect(len(flags) == probes + 1, "checker flag tests missing")
    expect(v["accepted"] == accepted, "verdict does not follow the probe transcript")
    expect(v["exact_accept_prob"] == (1.0 if accepted else 0.0), "exact_accept_prob")
    if honest and shots is None:
        expect(accepted, "honest reflection rejected in exact mode")
    if honest and not accepted:
        return "failed"
    return "ok"


# ---------------------------------------------------------------------------
# CLI


EXIT_ACCEPTED, EXIT_REJECTED, EXIT_USAGE, EXIT_RESOURCE = 0, 1, 2, 3


def check_protocol_exit(code: int, verdict: dict) -> None:
    """README exit-code table: 0 accepted, 1 rejected."""
    want = EXIT_ACCEPTED if verdict["accepted"] else EXIT_REJECTED
    expect(code == want, f"exit {code} for accepted={verdict['accepted']}")


def calib_repetitions(gap: float, err: float) -> int:
    return max(1, math.ceil(math.log(1.0 / err) / (2 * (gap / 2) ** 2)))


def region(member: bool, margin: float, epsilon: float) -> str:
    if member:
        return "accept"
    return "reject" if margin >= epsilon else "illegal"


def check_region(out: dict, member: bool, margin: float, epsilon: float,
                 atol: float = PROB_ATOL) -> None:
    expect_close("oracle margin", out["margin"], margin, atol)
    expect(out["region"] == region(member, margin, epsilon),
           f"oracle region {out['region']} for margin {margin}")


def check_records(records_json: bytes, records_csv: str) -> list:
    """records.csv rows must repeat each record's aggregates."""
    records = json.loads(records_json)
    rows = list(csv.DictReader(io.StringIO(records_csv)))
    expect(len(rows) == len(records), "records.csv row count")
    for i, (rec, row) in enumerate(zip(records, rows)):
        agg = rec["aggregate"]
        expect(int(row["cell_index"]) == i, "records.csv cell index")
        expect(row["protocol"] == rec["config"]["protocol"], "records.csv protocol")
        for key in ("acceptance_rate", "detection_rate"):
            expect(float(row[key]) == agg[key], f"records.csv {key}")
        mad = agg["mean_abs_exact_sampled"]
        cell = row["mean_abs_exact_sampled"]
        expect(cell == "" if mad is None else float(cell) == mad,
               "records.csv mean_abs_exact_sampled")
        accepted = [vd["accepted"] for vd in rec["verdicts"]]
        expect(agg["acceptance_rate"] == sum(accepted) / len(accepted),
               "acceptance_rate does not match the verdicts")
    return records
