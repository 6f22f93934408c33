"""mergeforge: iterative search for model-merging programs in a typed DSL."""

from .benchmark import BenchmarkInstance, ProbeSet, load_instance, make_instance, save_instance, score
from .config import BenchmarkConfig, ConfigError, RunConfig, full_scale_preset, load_config
from .core import (
    apply_merged,
    grid_search_task_arithmetic,
    task_arithmetic,
    task_vector,
)
from .driver import RunReport, run
from .dsl import EvalBudget, MergeProgram, compile_program, default_budget, evaluate
from .generator import GeneratorPolicy, default_grammar, sample_program, temperature
from .pipeline import (
    CATEGORIES,
    CandidateOutcome,
    PreferencePair,
    RefineConfig,
    ScoredAlgorithm,
    build_preferences,
    filter_candidates,
    refine_policy,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkInstance",
    "ProbeSet",
    "load_instance",
    "make_instance",
    "save_instance",
    "score",
    "BenchmarkConfig",
    "ConfigError",
    "RunConfig",
    "full_scale_preset",
    "load_config",
    "apply_merged",
    "grid_search_task_arithmetic",
    "task_arithmetic",
    "task_vector",
    "RunReport",
    "run",
    "EvalBudget",
    "MergeProgram",
    "compile_program",
    "default_budget",
    "evaluate",
    "GeneratorPolicy",
    "default_grammar",
    "sample_program",
    "temperature",
    "CATEGORIES",
    "CandidateOutcome",
    "PreferencePair",
    "RefineConfig",
    "ScoredAlgorithm",
    "build_preferences",
    "filter_candidates",
    "refine_policy",
    "__version__",
]
