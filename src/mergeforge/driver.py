"""Iteration engine: generate, filter, score, build preferences, refine, track.

One run executes I iterations.  Each iteration samples N candidate programs
at the scheduled temperature, filters them into the five outcome categories,
scores the survivors on dev probes, and refines the generator policy from
preference pairs (chosen = top scorers plus the best k programs carried over
from every earlier iteration).  Test probes are touched exactly once, at the
end, on the top-n dev performers across all iterations; no test information
ever feeds back into generation.

All randomness is derived from the run seed through tagged sub-streams keyed
by (iteration, candidate index), so grammar-mode runs are bit-reproducible.
The start states of an iteration's candidate streams are computed in
vectorised batches (``seeding.pcg64_states``) and equal those of
``default_rng((seed, 101, t, i))``.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .benchmark import BenchmarkInstance, make_instance, save_instance, score as probe_score
from .config import RunConfig, config_echo
from .core import apply_merged, grid_search_task_arithmetic, task_arithmetic
from .dsl import EvalBudget, default_budget
from .generator import (
    GeneratorPolicy,
    default_grammar,
    default_prompt_template,
    remote_generate,
    sample_program,
    temperature,
)
from .pipeline import (
    SUCCESS,
    CandidateOutcome,
    PreferencePair,
    ScoredAlgorithm,
    build_preferences,
    category_counts,
    exact_text_duplicates,
    filter_candidates,
    ranked,
    refine_policy,
    score_program,
    select_preference_sets,
    top_k_carryover,
)
from .report import write_reports
from .seeding import pcg64_states

log = logging.getLogger(__name__)

# Domain tags for rng sub-streams; candidate sampling is keyed per index so
# results do not depend on scheduling.
_GEN_STREAM = 101
_PREF_STREAM = 202

TASK_ARITHMETIC_GRID = (0.2, 0.4, 0.6)


@dataclass
class IterationStats:
    iteration: int
    temperature: float
    counts: dict[str, int]
    success_scores: list[float]
    chosen: list[ScoredAlgorithm]
    pairs_built: int
    policy_version: int
    duplicate_exact_text: int


@dataclass(frozen=True)
class RunReport:
    s_best: float | None
    best: ScoredAlgorithm | None
    iterations: list[IterationStats]
    top_test: list[tuple[ScoredAlgorithm, float]]
    baselines: dict


def _append_jsonl(path: Path, records) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _candidate_record(iteration: int, index: int, outcome: CandidateOutcome) -> dict:
    return {
        "iteration": iteration,
        "index": index,
        "category": outcome.category,
        "hash": outcome.program.canonical_hash if outcome.program else None,
        "score": outcome.dev_score,
        "reason": outcome.reason,
        "source": outcome.source,
    }


def _pair_record(pair: PreferencePair) -> dict:
    """A pair in the shape a preference-optimization trainer ingests."""
    return {
        "prompt_id": pair.prompt_id,
        "chosen_source": pair.chosen.program.source,
        "rejected_source": pair.rejected.program.source,
        "chosen_score": pair.chosen.dev_score,
        "rejected_score": pair.rejected.dev_score,
        "iteration": pair.chosen.iteration,
    }


def _iteration_record(stats: IterationStats, s_best: float | None) -> dict:
    scores = stats.success_scores
    return {
        "iteration": stats.iteration,
        "temperature": stats.temperature,
        "counts": stats.counts,
        "success_best": max(scores) if scores else None,
        "success_mean": (sum(scores) / len(scores)) if scores else None,
        "s_best_so_far": s_best,
        "chosen_hashes": [a.program.canonical_hash for a in stats.chosen],
        "pairs_built": stats.pairs_built,
        "policy_version": stats.policy_version,
        "duplicate_exact_text": stats.duplicate_exact_text,
    }


def task_arithmetic_baseline(instance: BenchmarkInstance, grid=TASK_ARITHMETIC_GRID) -> dict:
    """Grid-searched task arithmetic: best dev mixing ratios, their dev and test scores."""
    taus = instance.task_vectors()

    def scorer(tau) -> float:
        return probe_score(
            apply_merged(instance.seed_model, tau), instance.dev_probes, instance.dev_baseline_mse,
        )

    lambdas, dev = grid_search_task_arithmetic(taus, grid, scorer)
    merged = apply_merged(instance.seed_model, task_arithmetic(taus, lambdas))
    return {
        "grid": list(grid),
        "lambdas": list(lambdas),
        "dev": dev,
        "test": probe_score(merged, instance.test_probes, instance.test_baseline_mse),
        "evaluations": len(grid) ** len(taus),
    }


def _baselines(instance: BenchmarkInstance) -> dict:
    def scores(model) -> dict:
        return {
            "dev": probe_score(model, instance.dev_probes, instance.dev_baseline_mse),
            "test": probe_score(model, instance.test_probes, instance.test_baseline_mse),
        }

    return {
        "seed_model": scores(instance.seed_model),
        "candidates": [scores(c) for c in instance.candidates],
        "task_arithmetic": task_arithmetic_baseline(instance),
    }


def _generate(config: RunConfig, policy: GeneratorPolicy, temp: float, iteration: int) -> list[str]:
    if config.generator_mode == "grammar":
        # One generator, restarted at each candidate's own stream: the same
        # draws as default_rng((seed, _GEN_STREAM, iteration, i)).
        rng = np.random.Generator(np.random.PCG64(0))
        texts = []
        states = pcg64_states((config.seed, _GEN_STREAM, iteration), config.candidates_per_iteration)
        for state in states:
            rng.bit_generator.state = state
            texts.append(sample_program(policy, temp, rng))
        return texts
    prompt = default_prompt_template()
    return remote_generate(config.remote, prompt, temp, config.candidates_per_iteration)


def _iteration(
    t: int,
    config: RunConfig,
    policy: GeneratorPolicy,
    history: list[IterationStats],
    top: list[ScoredAlgorithm],
    instance: BenchmarkInstance,
    taus: list[np.ndarray],
    budget: EvalBudget,
    out: Path,
) -> tuple[GeneratorPolicy, list[ScoredAlgorithm]]:
    """Run iteration ``t`` and log it; returns the refined policy and the new top-n.

    Only the chosen set (kept in ``history``) and the top-n outlive the call, so
    the rest of the iteration's programs are freed before the next one samples.
    """
    temp = temperature(t, config.t1, config.beta)
    candidates = _generate(config, policy, temp, t)
    outcomes = filter_candidates(
        candidates,
        set(),  # duplicate detection is per-iteration
        budget,
        taus,
        instance.seed_model,
        instance.dev_probes,
        instance.dev_baseline_mse,
        extract_from_raw=(config.generator_mode == "remote"),
        iteration=t,
        generator_kind=config.generator_mode,
    )
    _append_jsonl(out / "candidates.jsonl", (_candidate_record(t, i, o) for i, o in enumerate(outcomes)))

    scored = [
        ScoredAlgorithm(o.program, o.dev_score, t)
        for o in outcomes if o.category == SUCCESS
    ]
    pool = [alg for stats in history for alg in stats.chosen]
    pairs = []
    if len(scored) >= 2:
        chosen, rejected = select_preference_sets(scored, pool, config.refine)
        pairs = build_preferences(
            chosen, rejected, config.refine,
            np.random.default_rng((config.seed, _PREF_STREAM, t)),
            prompt_id=default_prompt_template().prompt_id,
        )
    else:
        chosen = ranked(scored)
        log.warning("iteration %d: %d success(es); skipping preference building", t, len(scored))
    _append_jsonl(out / "preferences.jsonl", map(_pair_record, pairs))

    if pairs and config.generator_mode == "grammar":
        policy = refine_policy(policy, pairs, config.refine.eta)

    stats = IterationStats(
        iteration=t,
        temperature=temp,
        counts=category_counts(outcomes),
        success_scores=[a.dev_score for a in scored],
        chosen=chosen,
        pairs_built=len(pairs),
        policy_version=policy.version,
        duplicate_exact_text=exact_text_duplicates(candidates),
    )
    history.append(stats)
    # No entry outside an earlier top-n, nor a worse copy of a hash in it, can
    # enter a later one, so this is the top-n of every success so far.
    top = top_k_carryover([*top, *scored], config.top_n_for_test)
    s_best = top[0].dev_score if top else None
    _append_jsonl(out / "iterations.jsonl", [_iteration_record(stats, s_best)])
    return policy, top


def run(config: RunConfig, initial_policy: GeneratorPolicy | None = None) -> RunReport:
    """Execute a full search run, writing logs and reports to the output dir."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    bench = config.benchmark
    instance = make_instance(config.seed, bench.d, bench.k, bench.component_noise,
                             (bench.n_dev, bench.n_test), bench.overlap)
    save_instance(instance, out / "instance.json")
    (out / "config.json").write_text(json.dumps(config_echo(config), indent=2, sort_keys=True) + "\n")

    budget = (
        EvalBudget(config.budget_steps) if config.budget_steps is not None
        else default_budget(bench.k, bench.d)
    )
    taus = instance.task_vectors()
    policy = initial_policy or GeneratorPolicy.initial(default_grammar(bench.k), config.max_depth)
    history: list[IterationStats] = []
    top: list[ScoredAlgorithm] = []  # top-n of every success so far

    for name in ("candidates.jsonl", "iterations.jsonl", "preferences.jsonl"):
        (out / name).write_text("")

    for t in range(1, config.iterations + 1):
        policy, top = _iteration(t, config, policy, history, top, instance, taus, budget, out)

    if not top:
        log.warning("no successful programs in this run")
    top_test = [
        (
            alg,
            score_program(
                alg.program, taus, instance.seed_model,
                instance.test_probes, instance.test_baseline_mse, budget,
            ),
        )
        for alg in top
    ]

    best = top[0] if top else None  # the best success, as top_n_for_test >= 1
    report = RunReport(
        s_best=None if best is None else best.dev_score,
        best=best,
        iterations=history,
        top_test=top_test,
        baselines=_baselines(instance),
    )
    _write_result(out, config, report)
    write_reports(out)
    return report


def _write_result(out: Path, config: RunConfig, report: RunReport) -> None:
    payload = {
        "iterations": config.iterations,
        "candidates_per_iteration": config.candidates_per_iteration,
        "generator_mode": config.generator_mode,
        "s_best": report.s_best,
        "best_program": None if report.best is None else {
            "source": report.best.program.source,
            "hash": report.best.program.canonical_hash,
            "iteration": report.best.iteration,
            "dev_score": report.best.dev_score,
        },
        "top_test": [
            {
                "rank": rank + 1,
                "source": alg.program.source,
                "hash": alg.program.canonical_hash,
                "iteration": alg.iteration,
                "dev_score": alg.dev_score,
                "test_score": test,
            }
            for rank, (alg, test) in enumerate(report.top_test)
        ],
        "baselines": report.baselines,
    }
    (out / "result.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
