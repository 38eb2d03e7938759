"""Statistics harness: seeded trials, cheat-detection rates, and sweeps.

Per-trial seeds are derived from (master_seed, cell_index, trial_index)
through the counter-based stream construction in :mod:`qlang.rng`, so
parallel scheduling cannot change any result.  Wall time is measured but
kept out of serialized records so replays are byte-identical.
"""

from __future__ import annotations

import itertools
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

from .errors import FormatError, ResourceLimitError
from .rng import derive_seed
from .protocols import (
    Certificate,
    MerlinStrategy,
    Verdict,
    merlin_L2_honest,
    merlin_L3_honest,
    verify_L1,
    verify_L2,
    verify_L3,
    verify_L4,
    verify_L5,
)
from .states import (
    Bipartition,
    DensityOperator,
    PureState,
    basis_state,
    bell_state,
    ghz_state,
    plus_state,
    random_pure_state,
    tensor_states,
    werner_state,
)

MAX_SWEEP_CELLS = 10_000


@dataclass(frozen=True)
class ExperimentConfig:
    """One protocol run configuration; round-trips losslessly via dicts."""

    protocol: str
    instance: dict
    certificate: dict | None = None
    repetitions: int = 10
    shots: int | None = None
    trials: int = 1
    master_seed: int = 0
    epsilon: float = 0.1
    prefix: int | None = None
    cut: tuple | None = None

    _TYPES = {"instance": dict, "certificate": (dict, type(None)), "repetitions": int,
              "shots": (int, type(None)), "trials": int, "master_seed": int,
              "epsilon": (int, float), "prefix": (int, type(None)),
              "cut": (list, tuple, type(None))}

    def __post_init__(self):
        if self.protocol not in ("L1", "L2", "L3", "L4", "L5"):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        for name, types in self._TYPES.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, types):
                raise ValueError(f"config field {name!r} has the wrong type: {value!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.cut is not None:
            object.__setattr__(self, "cut", tuple(int(q) for q in self.cut))

    def to_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "instance": dict(self.instance),
            "certificate": None if self.certificate is None else dict(self.certificate),
            "repetitions": self.repetitions,
            "shots": self.shots,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "epsilon": self.epsilon,
            "prefix": self.prefix,
            "cut": None if self.cut is None else list(self.cut),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise FormatError("config must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        extra = set(d) - known
        if extra:
            raise FormatError(f"unknown config fields: {sorted(extra)}")
        if "protocol" not in d or "instance" not in d:
            raise FormatError("config needs at least 'protocol' and 'instance'")
        return cls(**d)


@dataclass(frozen=True)
class ExperimentRecord:
    config: ExperimentConfig
    verdicts: tuple
    acceptance_rate: float
    detection_rate: float
    mean_abs_exact_sampled: float | None
    wall_time_s: float = field(compare=False)

    def to_dict(self) -> dict:
        # wall time is deliberately excluded: records must replay byte-identically
        return {
            "config": self.config.to_dict(),
            "verdicts": [v.as_dict() for v in self.verdicts],
            "aggregate": {
                "acceptance_rate": self.acceptance_rate,
                "detection_rate": self.detection_rate,
                "mean_abs_exact_sampled": self.mean_abs_exact_sampled,
            },
        }


# ---------------------------------------------------------------------------
# instance and certificate sources


def _required(spec: dict, key: str, what: str):
    if key not in spec:
        raise FormatError(f"{what} spec needs {key!r}")
    return spec[key]


def make_instance(spec: dict, seed: int, trial: int):
    """Instantiate a state from a generator or file spec.

    Generators: bell, ghz, bell_prefix (Bell on the first two of n qubits),
    plus_product, zero, random_pure (fresh Haar draw per trial), werner.
    """
    kind = spec.get("type", "generator")
    if kind == "file":
        from .files import load_state

        return load_state(_required(spec, "path", "instance"))
    name = _required(spec, "name", "instance")
    n = int(spec.get("n", 2))
    if name == "bell":
        return bell_state()
    if name == "ghz":
        return ghz_state(n)
    if name == "bell_prefix":
        parts = [bell_state()] + [basis_state(1, 0)] * (n - 2)
        return tensor_states(*parts) if n > 2 else bell_state()
    if name == "plus_product":
        return tensor_states(*[plus_state()] * n)
    if name == "zero":
        return basis_state(n, 0)
    if name == "random_pure":
        return random_pure_state(n, seed, 31, trial)
    if name == "werner":
        return werner_state(float(_required(spec, "p", "werner instance")))
    raise FormatError(f"unknown instance generator {name!r}")


def make_certificate(spec: dict | None, cfg: ExperimentConfig, instance,
                     seed: int) -> Certificate | None:
    if spec is None:
        return None
    kind = _required(spec, "type", "certificate")
    if kind == "honest":
        if cfg.protocol == "L2":
            return merlin_L2_honest(instance)
        if cfg.protocol == "L3":
            rho = instance if isinstance(instance, DensityOperator) else instance.density()
            return merlin_L3_honest(rho, _cut_of(cfg, rho.n))
        if cfg.protocol in ("L4", "L5"):
            return MerlinStrategy("honest").certificate(instance, seed)
        raise FormatError(f"no honest certificate for {cfg.protocol}")
    if kind == "cheat":
        strategy = MerlinStrategy(_required(spec, "variant", "cheat certificate"),
                                  dict(spec.get("params", {})))
        return strategy.certificate(instance, seed)
    if kind == "subset":
        return Certificate.subset_string(_required(spec, "bits", "subset certificate"))
    if kind == "file":
        from .files import load_certificate

        return load_certificate(_required(spec, "path", "certificate"))
    raise FormatError(f"unknown certificate source {kind!r}")


def _cut_of(cfg: ExperimentConfig, n: int) -> Bipartition:
    subset = cfg.cut if cfg.cut is not None else (0,)
    return Bipartition.from_subset(n, subset)


# ---------------------------------------------------------------------------
# execution


def run_trial(cfg: ExperimentConfig, trial: int, cell_index: int = 0) -> Verdict:
    seed = derive_seed(cfg.master_seed, cell_index, trial)
    instance = make_instance(cfg.instance, cfg.master_seed, trial)
    cert = make_certificate(cfg.certificate, cfg, instance, seed)
    if cfg.protocol == "L1":
        f_n = cfg.prefix if cfg.prefix is not None else instance.n
        return verify_L1(instance, f_n, cfg.repetitions, seed, cfg.shots)
    if cfg.protocol == "L2":
        if cert is None:
            raise FormatError("L2 needs a certificate source")
        return verify_L2(instance, cert, cfg.repetitions, seed, cfg.shots)
    if cfg.protocol == "L3":
        if cert is None:
            raise FormatError("L3 needs a certificate source")
        rho = instance if isinstance(instance, DensityOperator) else instance.density()
        return verify_L3(rho, cert, cfg.shots, seed, _cut_of(cfg, rho.n))
    if cert is None:
        raise FormatError(f"{cfg.protocol} needs a certificate source")
    if cfg.protocol == "L4":
        return verify_L4(instance, cert, cfg.repetitions, seed, cfg.shots)
    return verify_L5(instance, cert, cfg.repetitions, seed, cfg.shots)


def run_experiment(cfg: ExperimentConfig, cell_index: int = 0) -> ExperimentRecord:
    start = time.perf_counter()
    verdicts = [run_trial(cfg, t, cell_index) for t in range(cfg.trials)]
    acc = sum(v.accepted for v in verdicts) / len(verdicts)
    diffs = [abs(v.exact_accept_prob - v.sampled_accept_freq)
             for v in verdicts if v.sampled_accept_freq is not None]
    mean_diff = sum(diffs) / len(diffs) if diffs else None
    return ExperimentRecord(
        config=cfg,
        verdicts=tuple(verdicts),
        acceptance_rate=acc,
        detection_rate=1.0 - acc,
        mean_abs_exact_sampled=mean_diff,
        wall_time_s=time.perf_counter() - start,
    )


@dataclass(frozen=True)
class DetectionResult:
    rate: float
    wilson_low: float
    wilson_high: float
    trials: int


def wilson_interval(successes: int, trials: int, z: float = 1.96):
    """Wilson 95% score interval; stable near rates of 0 and 1."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def detection_rate(strategy: MerlinStrategy, instance_spec: dict, probes: int,
                   trials: int, seed: int, shots: int | None = None,
                   protocol: str = "L4") -> DetectionResult:
    """Fraction of trials in which the verifier rejects the strategy."""
    cfg = ExperimentConfig(
        protocol=protocol,
        instance=instance_spec,
        certificate={"type": "cheat", "variant": strategy.mode,
                     "params": dict(strategy.parameters)},
        repetitions=probes,
        shots=shots,
        trials=trials,
        master_seed=seed,
    )
    record = run_experiment(cfg)
    detected = sum(not v.accepted for v in record.verdicts)
    low, high = wilson_interval(detected, trials)
    return DetectionResult(detected / trials, low, high, trials)


# ---------------------------------------------------------------------------
# sweeps

_SWEEPABLE = ("repetitions", "shots", "epsilon", "trials", "prefix")


def _run_cell(args):
    cfg, cell_index = args
    return run_experiment(cfg, cell_index)


def sweep(base: ExperimentConfig, grid: dict, workers: int = 1) -> list:
    """One record per grid cell, ordered by grid index.

    ``grid`` maps config field names (repetitions, shots, epsilon, trials,
    prefix) to value lists; cells are the cartesian product in key order.
    """
    if not isinstance(grid, dict) or not grid:
        raise ValueError("grid must be a nonempty mapping")
    for key, values in grid.items():
        if key not in _SWEEPABLE:
            raise ValueError(f"cannot sweep over {key!r}; choose from {_SWEEPABLE}")
        if not isinstance(values, list):
            raise ValueError(f"grid values for {key!r} must be a list, got {values!r}")
    keys = list(grid)
    cells = list(itertools.product(*(grid[k] for k in keys)))
    if len(cells) > MAX_SWEEP_CELLS:
        raise ResourceLimitError(
            f"sweep would run {len(cells)} cells (limit {MAX_SWEEP_CELLS})")
    jobs = [(replace(base, **dict(zip(keys, values))), index)
            for index, values in enumerate(cells)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_cell, jobs))
    return [_run_cell(job) for job in jobs]
