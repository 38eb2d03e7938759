"""Golden-record replay of a fixed small sweep.

``tests/data/golden_records.json`` holds the records this sweep produced
when every swap-test and checker statistic still came from gate-level
evolution of the estimation network and the L5 checker.  The closed-form
kernels must reproduce it: the same decisions, shot counts, sampled
frequencies, copies consumed and transcript keys, with floats equal to
1e-12.  The file is a fixed reference; a failure here is a behaviour
change to explain, not a file to regenerate.
"""

import json
import math
from pathlib import Path

from qlang.experiments import ExperimentConfig, sweep
from qlang.files import write_records

GOLDEN = Path(__file__).parent / "data" / "golden_records.json"
FLOAT_TOL = 1e-12

# each base config runs once exact and once at 1000 shots
GOLDEN_SWEEP = (
    {"protocol": "L1", "instance": {"name": "random_pure", "n": 3},
     "prefix": 2, "repetitions": 3, "master_seed": 1},
    {"protocol": "L3", "instance": {"name": "werner", "p": 0.9},
     "certificate": {"type": "honest"}, "master_seed": 2},
    {"protocol": "L4", "instance": {"name": "random_pure", "n": 3},
     "certificate": {"type": "honest"}, "repetitions": 8, "master_seed": 3},
    {"protocol": "L4", "instance": {"name": "random_pure", "n": 3},
     "certificate": {"type": "cheat", "variant": "identity"},
     "repetitions": 8, "master_seed": 4},
    {"protocol": "L5", "instance": {"name": "random_pure", "n": 3},
     "certificate": {"type": "honest"}, "repetitions": 8, "master_seed": 5},
)


def run_golden_sweep(out_dir) -> list:
    """Run the sweep, write it with ``write_records`` and return the JSON."""
    records = []
    for base in GOLDEN_SWEEP:
        records += sweep(ExperimentConfig.from_dict(base), {"shots": [None, 1000]})
    write_records(records, out_dir)
    return json.loads((Path(out_dir) / "records.json").read_text())


def _assert_same(got, want, path="records"):
    if isinstance(want, dict):
        assert isinstance(got, dict), path
        assert list(got) == list(want), f"{path}: keys {list(got)} != {list(want)}"
        for key in want:
            _assert_same(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{path}[{i}]")
    elif isinstance(want, float) and not isinstance(got, bool):
        assert isinstance(got, (int, float)), path
        assert math.isclose(got, want, rel_tol=0.0, abs_tol=FLOAT_TOL), \
            f"{path}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, f"{path}: {got!r} != {want!r}"


def test_sweep_replays_golden_records(tmp_path):
    got = run_golden_sweep(tmp_path)
    _assert_same(got, json.loads(GOLDEN.read_text()))


def test_golden_sweep_reaches_every_sampled_phase():
    """The sampled records exercise the L3 panel, the L4 probes and both
    L5 checker phases, so the replay covers every sampled statistic."""
    want = json.loads(GOLDEN.read_text())
    sampled = [r for r in want if r["config"]["shots"] is not None]
    assert len(sampled) == len(GOLDEN_SWEEP)
    l5 = sampled[-1]["verdicts"][0]["transcript"]
    phases = {t.get("phase") for t in l5}
    assert {"checker_orthogonal", "checker_instance"} <= phases
    l3 = sampled[1]["verdicts"][0]["transcript"]
    assert l3[0]["phase"] == "validity" and l3[-1]["phase"] == "decision"
