"""Run configuration: desk-scale defaults with a full-scale preset."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .benchmark import check_sizes
from .generator import GeneratorPolicy, default_grammar, temperature
from .generator.remote import EndpointConfig
from .pipeline import RefineConfig


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class BenchmarkConfig:
    d: int = 64
    k: int = 3
    component_noise: float = 0.05
    n_dev: int = 100
    n_test: int = 1000
    overlap: float = 0.25

    def __post_init__(self) -> None:
        try:
            check_sizes(self.d, self.k, self.component_noise, self.n_dev, self.n_test, self.overlap)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    iterations: int = 3
    candidates_per_iteration: int = 200
    t1: float = 1.2
    beta: float = 0.2
    generator_mode: str = "grammar"  # "grammar" | "remote"
    max_depth: int = 8
    budget_steps: int | None = None  # None: 10_000 * k * d
    top_n_for_test: int = 15
    refine: RefineConfig = field(default_factory=RefineConfig)
    benchmark: BenchmarkConfig = field(default_factory=BenchmarkConfig)
    remote: EndpointConfig | None = None
    output_dir: str = "runs/out"

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if self.candidates_per_iteration < 1:
            raise ConfigError("candidates_per_iteration must be >= 1")
        if self.generator_mode not in ("grammar", "remote"):
            raise ConfigError(f"unknown generator mode {self.generator_mode!r}")
        if self.generator_mode == "remote" and self.remote is None:
            raise ConfigError("remote mode requires a remote endpoint config")
        if self.top_n_for_test < 1:
            raise ConfigError("top_n_for_test must be >= 1")
        if self.budget_steps is not None and self.budget_steps < 1:
            raise ConfigError("budget_steps must be >= 1")
        try:
            temperature(1, self.t1, self.beta)
            GeneratorPolicy.initial(default_grammar(self.benchmark.k), self.max_depth)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def full_scale_preset(**overrides) -> RunConfig:
    """Candidate volume matching the original large-scale setup."""
    return replace(RunConfig(candidates_per_iteration=3000), **overrides)


# Annotation -> the JSON value types it takes and their name; no number is a bool.
_KINDS = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "str": ((str,), "a string"),
}


def _typed(obj):
    """``obj``, once each field annotated ``int``, ``float`` or ``str`` holds a value of that kind."""
    for f in fields(obj):  # annotations are strings here: postponed evaluation
        value = getattr(obj, f.name)
        kind, _, optional = f.type.partition(" | ")
        if kind in _KINDS and type(value) not in _KINDS[kind][0] and not (optional and value is None):
            raise ConfigError(f"{f.name} must be {_KINDS[kind][1]}, got {value!r}")
    return obj


def _build(payload: dict) -> RunConfig:
    known = dict(payload)
    try:
        refine = _typed(RefineConfig(**known.pop("refine", {})))
        benchmark = _typed(BenchmarkConfig(**known.pop("benchmark", {})))
        remote_raw = known.pop("remote", None)
        remote = _typed(EndpointConfig(**remote_raw)) if remote_raw else None
        return _typed(RunConfig(refine=refine, benchmark=benchmark, remote=remote, **known))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path) -> RunConfig:
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return _build(payload)


def config_echo(config: RunConfig) -> dict:
    """JSON-friendly dump for the run directory; excludes the output path so
    two runs of the same search are byte-identical wherever they land."""
    payload = asdict(config)
    payload.pop("output_dir")
    return payload
