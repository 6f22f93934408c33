"""Run configuration: desk-scale defaults with a full-scale preset."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .benchmark import JSON_ERRORS, BenchmarkConfig, ConfigError, from_json
from .generator import GeneratorPolicy, default_grammar, temperature
from .generator.remote import EndpointConfig
from .pipeline import RefineConfig


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
        for name in ("iterations", "candidates_per_iteration", "top_n_for_test"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.generator_mode not in ("grammar", "remote"):
            raise ConfigError(f"unknown generator mode {self.generator_mode!r}")
        if self.generator_mode == "remote" and self.remote is None:
            raise ConfigError("remote mode requires a remote endpoint config")
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


def load_config(path: str | Path) -> RunConfig:
    """The run a JSON config file describes; raises ConfigError for any bad value."""
    try:
        payload = json.loads(Path(path).read_text())
    except JSON_ERRORS as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    remote = payload.get("remote")  # only a missing or null endpoint means none
    return from_json(RunConfig, {
        **payload,
        "refine": from_json(RefineConfig, payload.get("refine", {}), "refine"),
        "benchmark": from_json(BenchmarkConfig, payload.get("benchmark", {}), "benchmark"),
        "remote": None if remote is None else from_json(EndpointConfig, remote, "remote"),
    }, "config")


def config_echo(config: RunConfig) -> dict:
    """JSON-friendly dump for the run directory; excludes the output path so
    two runs of the same search are byte-identical wherever they land."""
    payload = asdict(config)
    payload.pop("output_dir")
    return payload
