"""Synthetic merge benchmark: seed model, complementary candidates, probe scoring.

An instance hides a target weight vector w*.  Each candidate model carries a
noisy, partially-masked slice of (w* - seed), so candidates hold complementary
partial knowledge and a good merge recovers more of the target than any single
candidate.  Models are scored by linear-probe MSE relative to the seed model's
MSE, mapped onto [0, 100].
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .core import Vector, task_vector

# RNG sub-stream ids; recorded in the serialized instance so replays are exact.
STREAMS = {
    "target": 0,
    "seed_model": 1,
    "noise": 2,
    "dev_probes": 3,
    "test_probes": 4,
}

INSTANCE_FORMAT = "mergeforge-instance-v1"

_FLOAT_INT_LIMIT = 2**1024 - 2**970  # the least int on which float() overflows

# Annotation -> a test of a JSON value and the name of its kind; no number is a bool.
_KINDS = {
    "int": (lambda v: type(v) is int, "an integer"),
    "float": (lambda v: type(v) is float or type(v) is int and abs(v) < _FLOAT_INT_LIMIT, "a number"),
    "str": (lambda v: type(v) is str, "a string"),
}


# What reading a JSON text can raise: JSONDecodeError, UnicodeDecodeError and an
# int longer than sys.get_int_max_str_digits() are ValueErrors, and nesting
# deeper than the recursion limit is a RecursionError.
JSON_ERRORS = (ValueError, RecursionError)


class ConfigError(ValueError):
    pass


def from_json(cls, payload, name: str):
    """``cls(**payload)`` for the JSON object ``name``, once each ``int``, ``float`` or ``str``
    field's value is of that kind; raises ConfigError for anything wrong with it."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{name} must be a JSON object, got {payload!r}")
    annotations = {f.name: f.type for f in fields(cls)}  # strings here: postponed evaluation
    for key, value in payload.items():
        if key not in annotations:
            raise ConfigError(f"{name} has no field {key!r}")
        kind, _, optional = annotations[key].partition(" | ")
        if kind in _KINDS and not _KINDS[kind][0](value) and not (optional and value is None):
            raise ConfigError(f"{key} must be {_KINDS[kind][1]}, got {value!r}")
    for f in fields(cls):
        if f.name not in payload and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{name} is missing the field {f.name!r}")
    try:
        return cls(**payload)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class BenchmarkConfig:
    """The sizes of an instance; constructing one is the check that they are buildable."""

    d: int = 64
    k: int = 3
    component_noise: float = 0.05
    n_dev: int = 100
    n_test: int = 1000
    overlap: float = 0.25

    def __post_init__(self) -> None:
        if self.d < 2 or self.k < 2:
            raise ConfigError(f"need d >= 2 and k >= 2, got d={self.d}, k={self.k}")
        if not 0 <= self.component_noise < float("inf"):
            raise ConfigError(f"component_noise must be finite and >= 0, got {self.component_noise}")
        if not 0 <= self.overlap < float("inf"):
            raise ConfigError(f"overlap must be finite and >= 0, got {self.overlap}")
        if self.n_dev < 1 or self.n_test < 1:
            raise ConfigError("probe counts must be >= 1")


@dataclass(frozen=True)
class ProbeSet:
    """Linear probes (x, y) with y = x . w* for the hidden target."""

    xs: np.ndarray  # (n, d)
    ys: np.ndarray  # (n,)


@dataclass(frozen=True)
class BenchmarkInstance:
    seed_model: Vector
    candidates: list[Vector]
    target: Vector  # hidden; never exposed to the search loop
    masks: np.ndarray  # (K, d) bool
    dev_probes: ProbeSet
    test_probes: ProbeSet
    config: BenchmarkConfig
    rng_seed: int
    dev_baseline_mse: float  # the seed model's MSE on each split, which score() divides by
    test_baseline_mse: float

    def task_vectors(self) -> list[Vector]:
        return [task_vector(c, self.seed_model) for c in self.candidates]

    def content_digest(self) -> str:
        h = hashlib.sha256()
        for arr in (self.seed_model, self.target, self.masks.astype(np.uint8),
                    self.dev_probes.xs, self.test_probes.xs, *self.candidates):
            h.update(np.ascontiguousarray(arr))
        return h.hexdigest()


def _block_masks(d: int, k: int, overlap: float) -> np.ndarray:
    """Contiguous coordinate blocks, optionally extended on both sides.

    overlap = 0 gives a disjoint partition of all d coordinates; overlap > 0
    extends each block by round(overlap * d/k) coordinates per side, wrapping
    around, so neighbouring candidates share knowledge.  From overlap = k on,
    every block covers all d coordinates, so larger values are capped at k.
    """
    bounds = np.linspace(0, d, k + 1).astype(int)
    ext = int(round(min(overlap, k) * d / k))
    masks = np.zeros((k, d), dtype=bool)
    for j in range(k):
        lo, hi = bounds[j] - ext, bounds[j + 1] + ext
        idx = np.arange(lo, hi) % d
        masks[j, idx] = True
    return masks


def make_instance(rng_seed: int, d: int, k: int, component_noise: float,
                  probe_counts: tuple[int, int] = (BenchmarkConfig.n_dev, BenchmarkConfig.n_test),
                  overlap: float = BenchmarkConfig.overlap) -> BenchmarkInstance:
    """Deterministically build an instance from the seed and sizes; raises ConfigError for bad ones."""
    n_dev, n_test = probe_counts
    config = BenchmarkConfig(d, k, component_noise, n_dev, n_test, overlap)
    if rng_seed < 0:
        raise ConfigError("rng_seed must be >= 0")

    def rng(stream: str) -> np.random.Generator:
        return np.random.default_rng((rng_seed, STREAMS[stream]))

    target = rng("target").normal(size=d)
    seed_model = rng("seed_model").normal(size=d)
    masks = _block_masks(d, k, overlap)

    delta = target - seed_model
    noise_rng = rng("noise")
    candidates = []
    for j in range(k):
        noise = noise_rng.normal(size=d) * component_noise
        candidates.append(seed_model + masks[j] * delta + noise)

    dev_xs = rng("dev_probes").normal(size=(n_dev, d))
    test_xs = rng("test_probes").normal(size=(n_test, d))
    dev, test = ProbeSet(dev_xs, dev_xs @ target), ProbeSet(test_xs, test_xs @ target)
    return BenchmarkInstance(
        seed_model=seed_model,
        candidates=candidates,
        target=target,
        masks=masks,
        dev_probes=dev,
        test_probes=test,
        config=config,
        rng_seed=rng_seed,
        dev_baseline_mse=mse(seed_model, dev),
        test_baseline_mse=mse(seed_model, test),
    )


def mse(model: Vector, probes: ProbeSet) -> float:
    with np.errstate(over="ignore", invalid="ignore"):  # score() maps inf and nan to 0
        err = probes.xs @ np.asarray(model, dtype=np.float64) - probes.ys
        # np.mean's own sum and division, without its Python-level wrapper
        return float(np.add.reduce(err * err) / len(err))


def score(model: Vector, probes: ProbeSet, baseline_mse: float) -> float:
    """Relative-MSE score in [0, 100]; the seed model scores exactly 0.

    A model whose MSE overflows to inf or is NaN scores 0.
    """
    if baseline_mse <= 0:
        raise ValueError("baseline_mse must be positive")
    return 100.0 * max(0.0, 1.0 - mse(model, probes) / baseline_mse)


@dataclass(frozen=True)
class _InstanceFile(BenchmarkConfig):  # every field an instance file holds but its format and streams
    rng_seed: int = field(kw_only=True)
    digest: str = field(kw_only=True)


def save_instance(instance: BenchmarkInstance, path: str | Path) -> None:
    """Persist construction parameters plus a digest of the derived arrays."""
    spec = _InstanceFile(**asdict(instance.config), rng_seed=instance.rng_seed,
                         digest=instance.content_digest())
    payload = {"format": INSTANCE_FORMAT, "streams": STREAMS, **asdict(spec)}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_instance(path: str | Path) -> BenchmarkInstance:
    """Rebuild a saved instance; raises ValueError, naming the file, for one that is unusable."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except JSON_ERRORS as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: an instance file must hold a JSON object")
    if payload.get("format") != INSTANCE_FORMAT:
        raise ValueError(f"{path}: not a {INSTANCE_FORMAT} file")
    present = {f.name: payload[f.name] for f in fields(_InstanceFile) if f.name in payload}
    try:  # not a ConfigError: the file, not the command line, is at fault
        spec = from_json(_InstanceFile, present, "instance")
        instance = make_instance(spec.rng_seed, spec.d, spec.k, spec.component_noise,
                                 (spec.n_dev, spec.n_test), spec.overlap)
    except (ValueError, MemoryError) as exc:  # numpy refuses some sizes BenchmarkConfig accepts
        raise ValueError(f"{path}: {exc}") from None
    if instance.content_digest() != spec.digest:
        raise ValueError(f"{path}: instance digest mismatch; file is stale or corrupt")
    return instance
