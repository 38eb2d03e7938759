"""Tests of the benchmark itself.

    python3 -m pytest perfbench

Tiny-size runs of every workload must print exactly the metrics that
BENCHMARK.json names, and the reference checks must reject perturbed
outputs, so that a passing check means something.
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

workloads, spans = run.import_program()
import reference as ref  # noqa: E402
from qlang import protocols  # noqa: E402
from qlang.states import Bipartition, PureState, random_pure_state  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _units(section):
    return {m["name"]: m["unit"] for m in BENCH[section]}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert _units("per_layer") == spans.metric_units()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_the_end_to_end_metrics(workload):
    result = run.measure(workload, seed=3, seconds=0, trace_on=False, small=True)
    assert result["correct"]
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_runs_repeat_their_counts(workload):
    first, second = (run.measure(workload, seed=5, seconds=0, trace_on=True, small=True)
                     for _ in range(2))
    assert first["correct"] and second["correct"]
    assert {k: v["unit"] for k, v in first["metrics"].items()} == _units("per_layer")
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if v["unit"] in ("count", "bytes")} for r in (first, second)]
    assert counts[0] == counts[1]


def test_tracer_restores_every_function():
    originals = {(m, f): getattr(sys.modules[f"qlang.{m}"], f) for m, f, _ in spans.LAYERS}
    bound = protocols.verify_L4
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert protocols.verify_L4 is not bound
    finally:
        tracer.uninstall()
    assert protocols.verify_L4 is bound
    assert all(getattr(sys.modules[f"qlang.{m}"], f) is fn for (m, f), fn in originals.items())


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    tracer.spans = [["outer", 0.0, 1.0, -1, 0], ["inner", 0.2, 0.5, 0, 0],
                    ["inner", 0.6, 0.7, 0, 0]]
    self_ms = tracer.self_ms()
    assert self_ms["outer"] == pytest.approx(600.0)
    assert self_ms["inner"] == pytest.approx(400.0)


# ---------------------------------------------------------------------------
# the reference flags perturbed outputs


def test_purity_reference_flags_perturbations():
    phi = workloads.haar(3, 1)
    purity = ref.subset_purity(phi, [0, 1])
    v = protocols.verify_L1(PureState(3, phi), 2, 20, 7).as_dict()
    assert ref.check_purity_verdict(v, purity, 20, None) == "ok"
    bad = json.loads(json.dumps(v))
    bad["transcript"][0]["p0_exact"] += 1e-6
    with pytest.raises(ref.Mismatch):
        ref.check_purity_verdict(bad, purity, 20, None)
    bad = dict(v, accepted=not v["accepted"])
    with pytest.raises(ref.Mismatch):
        ref.check_purity_verdict(bad, purity, 20, None)
    s = protocols.verify_L1(PureState(3, phi), 2, 20, 7, shots=1000).as_dict()
    assert ref.check_purity_verdict(s, purity, 20, 1000) == "ok"
    with pytest.raises(ref.Mismatch):
        ref.check_purity_verdict(dict(s, sampled_accept_freq=s["exact_accept_prob"] + 0.1),
                                 purity, 20, 1000)


def test_witness_reference_flags_perturbations():
    rho = workloads.werner(0.9)
    op = workloads._witness_op("w", rho, Bipartition.from_subset(2, [0]),
                               None, 4, 20)
    v = op.run()
    assert op.check(v) == "ok"
    bad = json.loads(json.dumps(v))
    bad["transcript"][-1]["exact_statistic"] += 1e-6
    with pytest.raises(ref.Mismatch):
        op.check(bad)
    with pytest.raises(ref.Mismatch):
        op.check(dict(v, accepted=False))


def test_reflection_reference_flags_perturbations():
    phi = workloads.haar(2, 2)
    for checker in (False, True):
        op = workloads._reflection_op("r", phi, protocols.MerlinStrategy("honest"),
                                      None, 9, 0, checker)
        v = op.run()
        assert op.check(v) == "ok"
        bad = json.loads(json.dumps(v))
        bad["transcript"][3]["O2"] += 1e-6
        with pytest.raises(ref.Mismatch):
            op.check(bad)
        with pytest.raises(ref.Mismatch):
            op.check(dict(v, accepted=False))
    bad = json.loads(json.dumps(v))
    bad["transcript"][-1]["flag0_prob"] -= 1e-6
    with pytest.raises(ref.Mismatch):
        op.check(bad)
    cheat = workloads._reflection_op("c", phi, protocols.MerlinStrategy("identity"),
                                     None, 9, 0)
    v = cheat.run()
    assert cheat.check(v) == "ok"
    with pytest.raises(ref.Mismatch):
        cheat.check(dict(v, accepted=True))


def test_sampled_rejection_must_follow_the_three_sigma_rule():
    """A sampled rejection counts as the known fault only if the rule,
    applied to the transcript values, explains it."""
    phi = workloads.haar(2, 2)
    for checker in (False, True):
        op = workloads._reflection_op("r", phi, protocols.MerlinStrategy("honest"),
                                      1000, 9, 0, checker)
        v = op.run()
        assert op.check(v) == "ok"
        # rejected at probe 0, although its values pass the rule
        rows = [dict(v["transcript"][0], passed=False)]
        bad = dict(v, transcript=rows, accepted=False, exact_accept_prob=0.0,
                   sampled_accept_freq=0.0)
        with pytest.raises(ref.Mismatch):
            op.check(bad)
    # a flag test that fails although its frequency clears the threshold
    bad = json.loads(json.dumps(v))
    bad["transcript"][-1]["passed"] = False
    bad.update(accepted=False, exact_accept_prob=0.0, sampled_accept_freq=0.0)
    with pytest.raises(ref.Mismatch):
        op.check(bad)
    # a witness statistic whose sigma is inflated so that it fails 3 sigma
    rho = workloads.werner(0.9)
    op = workloads._witness_op("w", rho, Bipartition.from_subset(2, [0]), 1000, 4, 20)
    v = op.run()
    assert op.check(v) == "ok"
    bad = json.loads(json.dumps(v))
    bad["transcript"][-1]["sigma"] = -bad["transcript"][-1]["statistic"]
    bad.update(accepted=False, exact_accept_prob=v["exact_accept_prob"],
               sampled_accept_freq=0.0)
    with pytest.raises(ref.Mismatch):
        op.check(bad)


def test_cli_references_flag_wrong_answers():
    with pytest.raises(ref.Mismatch):
        ref.check_protocol_exit(0, {"accepted": False})
    assert ref.calib_repetitions(1 / 3, 1e-3) == 125
    check = workloads._calib_check(1 / 3, 1e-3)
    with pytest.raises(ref.Mismatch):
        check(0, {"repetitions": 124})
    with pytest.raises(ref.Mismatch):
        workloads._bridge_check(True)(0, {"entangled": False})
    with pytest.raises(ref.Mismatch):
        ref.check_region({"margin": 0.3, "region": "illegal"}, False, 0.3, 0.1)


def test_records_reference_flags_a_csv_mismatch(tmp_path):
    records = [{"config": {"protocol": "L1"}, "verdicts": [{"accepted": True}],
                "aggregate": {"acceptance_rate": 1.0, "detection_rate": 0.0,
                              "mean_abs_exact_sampled": None}}]
    header = "cell_index,protocol,acceptance_rate,detection_rate,mean_abs_exact_sampled\n"
    data = json.dumps(records).encode()
    ref.check_records(data, header + "0,L1,1.0,0.0,\n")
    with pytest.raises(ref.Mismatch):
        ref.check_records(data, header + "0,L1,0.5,0.5,\n")


def test_binomial_band_is_not_vacuous():
    assert ref.binomial_halfwidth(0.5, 1000) < 0.1
    assert ref.binomial_halfwidth(0.0, 1000) == pytest.approx(1e-3)


def test_stripped_checkout_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "cli-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_reference_is_independent_and_draws_the_documented_probes():
    source = (run.BENCH_DIR / "reference.py").read_text()
    assert "import qlang" not in source and "from qlang" not in source
    assert np.allclose(ref.haar_amplitudes(2, 5, 1), random_pure_state(2, 5, 1).amplitudes)
