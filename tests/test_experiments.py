import math
import os

import numpy as np
import pytest

from qlang import experiments
from qlang.errors import FormatError, ResourceLimitError
from qlang.experiments import (
    ExperimentConfig,
    ExperimentRecord,
    detection_rate,
    make_instance,
    run_experiment,
    run_trial,
    sweep,
    wilson_interval,
)
from qlang.protocols import MerlinStrategy, verify_L1


BELL_PREFIX_CFG = ExperimentConfig(
    protocol="L1",
    instance={"name": "bell_prefix", "n": 3},
    repetitions=10,
    prefix=1,
)


class TestConfig:
    def test_roundtrip(self):
        cfg = ExperimentConfig(
            protocol="L2",
            instance={"name": "bell"},
            certificate={"type": "subset", "bits": "10"},
            repetitions=7,
            shots=500,
            trials=3,
            master_seed=42,
            cut=[0],
        )
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_fields_rejected(self):
        with pytest.raises(FormatError):
            ExperimentConfig.from_dict({"protocol": "L1", "instance": {},
                                        "bogus": 1})

    def test_missing_required(self):
        with pytest.raises(FormatError):
            ExperimentConfig.from_dict({"protocol": "L1"})

    def test_protocol_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(protocol="L9", instance={})


class TestInstances:
    def test_generators(self):
        assert make_instance({"name": "bell"}, 0, 0).n == 2
        assert make_instance({"name": "ghz", "n": 4}, 0, 0).n == 4
        assert make_instance({"name": "zero", "n": 3}, 0, 0).n == 3
        assert make_instance({"name": "werner", "p": 0.5}, 0, 0).n == 2

    def test_random_pure_varies_per_trial(self):
        a = make_instance({"name": "random_pure", "n": 2}, 5, 0)
        b = make_instance({"name": "random_pure", "n": 2}, 5, 1)
        assert not np.allclose(a.amplitudes, b.amplitudes)

    def test_unknown_generator(self):
        with pytest.raises(FormatError):
            make_instance({"name": "nope"}, 0, 0)


class TestReplay:
    def test_records_replay_byte_identically(self):
        cfg = ExperimentConfig(
            protocol="L1",
            instance={"name": "bell_prefix", "n": 3},
            repetitions=5,
            shots=800,
            trials=4,
            master_seed=11,
            prefix=2,
        )
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.to_dict() == b.to_dict()
        assert a == b  # wall time excluded from comparison

    def test_exact_mode_independent_of_master_seed(self):
        base = BELL_PREFIX_CFG
        other = ExperimentConfig.from_dict({**base.to_dict(), "master_seed": 99})
        assert (run_experiment(base).acceptance_rate
                == run_experiment(other).acceptance_rate)

    def test_trial_matches_direct_call(self):
        from qlang.rng import derive_seed
        cfg = ExperimentConfig(
            protocol="L1",
            instance={"name": "bell_prefix", "n": 3},
            repetitions=6,
            shots=500,
            master_seed=3,
            prefix=2,
        )
        got = run_trial(cfg, 0, cell_index=0)
        phi = make_instance(cfg.instance, 3, 0)
        want = verify_L1(phi, 2, 6, derive_seed(3, 0, 0), 500)
        assert got == want

    def test_certificate_required(self):
        cfg = ExperimentConfig(protocol="L2", instance={"name": "bell"})
        with pytest.raises(FormatError):
            run_trial(cfg, 0)


class TestWilson:
    def test_contains_point_estimate(self):
        low, high = wilson_interval(80, 100)
        assert low < 0.8 < high

    def test_bounded(self):
        low, high = wilson_interval(100, 100)
        assert 0 <= low < 1.0
        assert high == pytest.approx(1.0, abs=1e-12)
        low, high = wilson_interval(0, 100)
        assert low == 0.0

    def test_narrows_with_trials(self):
        w_small = np.subtract(*wilson_interval(8, 10)[::-1])
        w_big = np.subtract(*wilson_interval(800, 1000)[::-1])
        assert w_big < w_small

    def test_invalid(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)


class TestDetectionRate:
    def test_identity_always_detected(self):
        res = detection_rate(MerlinStrategy("identity"),
                             {"name": "random_pure", "n": 2},
                             probes=8, trials=40, seed=7)
        assert res.rate == 1.0
        assert res.wilson_low > 0.9

    def test_honest_never_detected(self):
        res = detection_rate(MerlinStrategy("honest"),
                             {"name": "random_pure", "n": 2},
                             probes=8, trials=40, seed=7)
        assert res.rate == 0.0


class TestSweep:
    def test_matches_individual_runs(self):
        grid = {"repetitions": [2, 5, 9]}
        records = sweep(BELL_PREFIX_CFG, grid)
        assert len(records) == 3
        for idx, m in enumerate([2, 5, 9]):
            cfg = ExperimentConfig.from_dict(
                {**BELL_PREFIX_CFG.to_dict(), "repetitions": m})
            assert records[idx].to_dict() == run_experiment(cfg, idx).to_dict()

    def test_closed_form_decay(self):
        # Bell prefix: acceptance = 0.75^M
        grid = {"repetitions": list(range(1, 21))}
        records = sweep(BELL_PREFIX_CFG, grid)
        for m, rec in zip(range(1, 21), records):
            got = rec.verdicts[0].exact_accept_prob
            assert abs(got - 0.75 ** m) < 1e-12

    def test_log_linear_slope(self):
        grid = {"repetitions": list(range(1, 11))}
        records = sweep(BELL_PREFIX_CFG, grid)
        logs = [math.log(r.verdicts[0].exact_accept_prob) for r in records]
        slopes = np.diff(logs)
        assert np.allclose(slopes, math.log(0.75), atol=1e-9)

    def test_cartesian_order(self):
        grid = {"repetitions": [1, 2], "trials": [1, 2]}
        records = sweep(BELL_PREFIX_CFG, grid)
        combos = [(r.config.repetitions, r.config.trials) for r in records]
        assert combos == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_unsweepable_key(self):
        with pytest.raises(ValueError):
            sweep(BELL_PREFIX_CFG, {"protocol": ["L1", "L2"]})

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            sweep(BELL_PREFIX_CFG, {})

    def test_cell_limit(self):
        with pytest.raises(ResourceLimitError):
            sweep(BELL_PREFIX_CFG, {"repetitions": list(range(20000))})

    def test_parallel_matches_serial(self):
        grid = {"repetitions": [1, 3], "shots": [200, 400]}
        serial = sweep(BELL_PREFIX_CFG, grid, workers=1)
        parallel = sweep(BELL_PREFIX_CFG, grid, workers=2)
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]

    def test_pool_size_is_bounded(self, monkeypatch):
        # a process pool forks all of its workers at the first submit, so the
        # pool is never larger than the cells or the CPUs
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        three, six = {"repetitions": [1, 2, 3]}, {"repetitions": list(range(1, 7))}
        assert sweep(BELL_PREFIX_CFG, three, workers=100_000) == sweep(BELL_PREFIX_CFG, three)
        assert sweep(BELL_PREFIX_CFG, six, workers=100_000) == sweep(BELL_PREFIX_CFG, six)
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one process, no pool
        sweep(BELL_PREFIX_CFG, six, workers=100_000)
        assert sizes == [3, 4]

    @pytest.mark.parametrize("workers", [0, -1])
    def test_nonpositive_workers(self, workers):
        with pytest.raises(ValueError, match="workers"):
            sweep(BELL_PREFIX_CFG, {"repetitions": [1, 2]}, workers=workers)
