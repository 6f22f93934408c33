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
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class ProbeSet:
    """Linear probes (x, y) with y = x . w* for the hidden target."""

    xs: np.ndarray  # (n, d)
    ys: np.ndarray  # (n,)

    def __post_init__(self) -> None:
        if self.xs.ndim != 2 or self.xs.shape[0] < 1:
            raise ValueError("probe set needs at least one probe")
        if self.ys.shape != (self.xs.shape[0],):
            raise ValueError("probe inputs and outputs disagree on count")
        if not np.isfinite(self.xs).all():
            raise ValueError("probe inputs must be finite")

    def __len__(self) -> int:
        return self.xs.shape[0]


@dataclass(frozen=True)
class BenchmarkInstance:
    seed_model: Vector
    candidates: list[Vector]
    target: Vector  # hidden; never exposed to the search loop
    masks: np.ndarray  # (K, d) bool
    dev_probes: ProbeSet
    test_probes: ProbeSet
    d: int
    k: int
    component_noise: float
    overlap: float
    rng_seed: int
    dev_baseline_mse: float = field(init=False)
    test_baseline_mse: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dev_baseline_mse", mse(self.seed_model, self.dev_probes))
        object.__setattr__(self, "test_baseline_mse", mse(self.seed_model, self.test_probes))

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


def check_sizes(d: int, k: int, component_noise: float, n_dev: int, n_test: int,
                overlap: float) -> None:
    """Raise ValueError unless the sizes describe a buildable instance."""
    if d < 2 or k < 2:
        raise ValueError(f"need d >= 2 and k >= 2, got d={d}, k={k}")
    if not component_noise >= 0:
        raise ValueError("component_noise must be >= 0")
    if not 0 <= overlap < float("inf"):
        raise ValueError(f"overlap must be finite and >= 0, got {overlap}")
    if n_dev < 1 or n_test < 1:
        raise ValueError("probe counts must be >= 1")


def make_instance(
    rng_seed: int,
    d: int,
    k: int,
    component_noise: float,
    probe_counts: tuple[int, int] = (100, 1000),
    overlap: float = 0.25,
) -> BenchmarkInstance:
    """Deterministically build an instance from the seed and sizes."""
    n_dev, n_test = probe_counts
    check_sizes(d, k, component_noise, n_dev, n_test, overlap)

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
    return BenchmarkInstance(
        seed_model=seed_model,
        candidates=candidates,
        target=target,
        masks=masks,
        dev_probes=ProbeSet(dev_xs, dev_xs @ target),
        test_probes=ProbeSet(test_xs, test_xs @ target),
        d=d,
        k=k,
        component_noise=component_noise,
        overlap=overlap,
        rng_seed=rng_seed,
    )


def mse(model: Vector, probes: ProbeSet) -> float:
    with np.errstate(over="ignore", invalid="ignore"):  # score() maps inf and nan to 0
        pred = probes.xs @ np.asarray(model, dtype=np.float64)
        return float(np.mean((pred - probes.ys) ** 2))


def score(model: Vector, probes: ProbeSet, baseline_mse: float) -> float:
    """Relative-MSE score in [0, 100]; the seed model scores exactly 0.

    A model whose MSE overflows to inf or is NaN scores 0.
    """
    if baseline_mse <= 0:
        raise ValueError("baseline_mse must be positive")
    return 100.0 * max(0.0, 1.0 - mse(model, probes) / baseline_mse)


def save_instance(instance: BenchmarkInstance, path: str | Path) -> None:
    """Persist construction parameters plus a digest of the derived arrays."""
    payload = {
        "format": INSTANCE_FORMAT,
        "rng_seed": instance.rng_seed,
        "d": instance.d,
        "k": instance.k,
        "component_noise": instance.component_noise,
        "overlap": instance.overlap,
        "n_dev": len(instance.dev_probes),
        "n_test": len(instance.test_probes),
        "streams": STREAMS,
        "digest": instance.content_digest(),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# Instance-file field -> the JSON value types it takes and their name; no number is a bool.
_INSTANCE_FIELDS = {
    **dict.fromkeys(("rng_seed", "d", "k", "n_dev", "n_test"), ((int,), "an integer")),
    **dict.fromkeys(("component_noise", "overlap"), ((int, float), "a number")),
    "digest": ((str,), "a string"),
}


def load_instance(path: str | Path) -> BenchmarkInstance:
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: an instance file must hold a JSON object")
    if payload.get("format") != INSTANCE_FORMAT:
        raise ValueError(f"{path}: not a {INSTANCE_FORMAT} file")
    for name, (kinds, kind_name) in _INSTANCE_FIELDS.items():
        if name not in payload:
            raise ValueError(f"{path}: missing field {name!r}")
        if type(payload[name]) not in kinds:
            raise ValueError(f"{path}: {name} must be {kind_name}, got {payload[name]!r}")
    instance = make_instance(
        rng_seed=payload["rng_seed"],
        d=payload["d"],
        k=payload["k"],
        component_noise=payload["component_noise"],
        probe_counts=(payload["n_dev"], payload["n_test"]),
        overlap=payload["overlap"],
    )
    if instance.content_digest() != payload["digest"]:
        raise ValueError(f"{path}: instance digest mismatch; file is stale or corrupt")
    return instance
