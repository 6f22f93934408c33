"""Acceptance suite: one test per release criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import load_corpus_program, mean_fold_merge, production_probability
from mergeforge.benchmark import make_instance, score
from mergeforge.config import BenchmarkConfig, RunConfig
from mergeforge.core import apply_merged, grid_search_task_arithmetic
from mergeforge.driver import run
from mergeforge.dsl import EvalBudget, compile_program, evaluate
from mergeforge.generator import (
    GeneratorPolicy,
    default_grammar,
    sample_program,
    temperature,
)
from mergeforge.pipeline import (
    CATEGORIES,
    PreferencePair,
    RefineConfig,
    ScoredAlgorithm,
    build_preferences,
    category_counts,
    filter_candidates,
    nearest_rank_thresholds,
    refine_policy,
    select_preference_sets,
)

ACCEPTANCE_SEEDS = range(20)


def _announce(n, label):
    print(f"ACCEPTANCE {n} ({label}): PASS")


def test_acceptance_1_temperature_schedule():
    got = [temperature(t, 1.2, 0.2) for t in (1, 2, 3)]
    want = [1.2, 1.2 / 1.2, 1.2 / 1.4]
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12
    assert abs(got[2] - 0.85) < 0.01  # matches the reported rounded value
    _announce(1, "temperature schedule")


def test_acceptance_2_mean_fold_oracle_equivalence():
    fixture = load_corpus_program("mean_shift_fold")
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        k, d = int(rng.integers(1, 7)), int(rng.integers(2, 33))
        taus = [rng.normal(size=d) for _ in range(k)]
        dsl_out = evaluate(fixture.ast, taus, EvalBudget(100_000))
        ref_out = mean_fold_merge(taus)
        worst = max(worst, float(np.max(np.abs(dsl_out - ref_out))))
    assert worst <= 1e-12
    _announce(2, "closed-form fold vs DSL fixture")


def test_acceptance_3_task_arithmetic_grid():
    grid = (0.2, 0.4, 0.6)
    for seed in ACCEPTANCE_SEEDS:
        instance = make_instance(seed, d=32, k=3, component_noise=0.05, probe_counts=(50, 50))
        taus = instance.task_vectors()
        calls = []

        def scorer(tau):
            calls.append(1)
            return score(apply_merged(instance.seed_model, tau),
                         instance.dev_probes, instance.dev_baseline_mse)

        got = grid_search_task_arithmetic(taus, grid, scorer)
        assert len(calls) == 27

        # independent collect-then-argmax enumeration
        results = []
        for a in grid:
            for b in grid:
                for c in grid:
                    merged = a * taus[0] + b * taus[1] + c * taus[2]
                    results.append(((a, b, c), scorer(merged)))
        best = max(s for _, s in results)
        oracle = (min(combo for combo, s in results if s == best), best)
        assert got == oracle
    _announce(3, "mixing-ratio grid search")


def _oracle_preference_sets(values, p_w, p_l):
    n_w = max(1, math.ceil(p_w / 100 * len(values)))
    n_l = max(1, math.ceil(p_l / 100 * len(values)))
    desc = sorted(values, reverse=True)
    asc = sorted(values)
    return desc[n_w - 1], asc[n_l - 1]


@pytest.mark.parametrize("n", [100, 3000])
def test_acceptance_4_preference_construction(n):
    rng = np.random.default_rng(n)
    cases = [
        [float(v) for v in rng.integers(0, 40, size=n)],   # heavy ties
        [float(v) for v in rng.permutation(n)],            # all distinct
        [1.0] * (n // 2) + [2.0] * (n - n // 2),           # two-value ties
    ]
    cfg = RefineConfig(p_w=3.0, p_l=10.0, k=0)
    for values in cases:
        scored = [
            ScoredAlgorithm(
                compile_program(f"merge(models) = scale({float(i)!r}, models[0])"),
                v, 1,
            )
            for i, v in enumerate(values)
        ]
        chosen, rejected = select_preference_sets(scored, [], cfg)
        s_pw, s_pl = nearest_rank_thresholds(values, 3.0, 10.0)
        oracle_pw, oracle_pl = _oracle_preference_sets(values, 3.0, 10.0)
        assert s_pw == oracle_pw and s_pl == oracle_pl
        assert {id(a) for a in chosen} == {id(a) for a in scored if a.dev_score >= oracle_pw}
        assert {id(a) for a in rejected} == {id(a) for a in scored if a.dev_score <= oracle_pl}
        pairs = build_preferences(chosen, rejected, cfg, np.random.default_rng(7))
        for pair in pairs:
            assert pair.chosen.dev_score >= pair.rejected.dev_score
    _announce(4, f"preference thresholds, n={n}")


def test_acceptance_5_filter_taxonomy():
    instance = make_instance(3, d=16, k=3, component_noise=0.05, probe_counts=(20, 20))
    taus = instance.task_vectors()

    deep = "models[0]"
    for _ in range(50):
        deep = f"add({deep}, models[1])"
    crafted = [
        "thoughts, but no code block",
        "```\nmerge(models) = add(models[0], models[1])\n```",
        "```\nmerge(models) = add(models[1], models[0])\n```",
        "```\nmerge(models) = add(models[0]\n```",
        f"```\nmerge(models) = {deep}\n```",
    ]
    outcomes = filter_candidates(
        crafted, set(), EvalBudget(60), taus,
        instance.seed_model, instance.dev_probes, instance.dev_baseline_mse,
        extract_from_raw=True,
    )
    assert sorted(o.category for o in outcomes) == sorted(CATEGORIES)

    policy = GeneratorPolicy.initial(default_grammar(3))
    fuzz = []
    rng = np.random.default_rng(55)
    for i in range(1000):
        source = sample_program(policy, 1.2, np.random.default_rng((31, i)))
        roll = rng.random()
        if roll < 0.6:
            fuzz.append(f"```\n{source}\n```")
        elif roll < 0.75:
            fuzz.append(source)  # bare text: no fence to extract
        elif roll < 0.9:
            fuzz.append(f"```\n{source[:int(rng.integers(3, len(source)))]}\n```")
        else:
            fuzz.append(f"```\nmerge(models) = {deep}\n```")
    outcomes = filter_candidates(
        fuzz, set(), EvalBudget(70), taus,
        instance.seed_model, instance.dev_probes, instance.dev_baseline_mse,
        extract_from_raw=True,
    )
    counts = category_counts(outcomes)
    assert sum(counts.values()) == 1000
    _announce(5, "filter category taxonomy")


def test_acceptance_6_end_to_end_improvement(tmp_path):
    non_decreasing = 0
    beats_best_single = 0
    iteration_gain = 0
    for seed in ACCEPTANCE_SEEDS:
        config = RunConfig(
            seed=seed,
            iterations=3,
            candidates_per_iteration=200,
            benchmark=BenchmarkConfig(d=64, k=3, component_noise=0.05),
            output_dir=str(tmp_path / f"seed{seed}"),
        )
        report = run(config)

        best_so_far = -np.inf
        series = []
        means = []
        for stats in report.iterations:
            if stats.success_scores:
                best_so_far = max(best_so_far, max(stats.success_scores))
            series.append(best_so_far)
            means.append(np.mean(stats.success_scores) if stats.success_scores else np.nan)
        if all(a <= b for a, b in zip(series, series[1:])):
            non_decreasing += 1
        best_single = max(c["dev"] for c in report.baselines["candidates"])
        if report.s_best is not None and report.s_best > best_single:
            beats_best_single += 1
        if means[2] > means[0]:
            iteration_gain += 1

    assert non_decreasing == 20, f"s_best decreased in {20 - non_decreasing} runs"
    assert beats_best_single >= 18, f"only {beats_best_single}/20 beat the best single model"
    assert iteration_gain >= 15, f"only {iteration_gain}/20 improved mean score by iteration 3"
    _announce(6, f"end-to-end improvement ({beats_best_single}/20 beat single, "
                 f"{iteration_gain}/20 gained)")


def test_acceptance_7_policy_refinement_direction():
    policy = GeneratorPolicy.initial(default_grammar(3))
    chosen = ScoredAlgorithm(compile_program("merge(models) = mean_stack(models)"), 90.0, 1)
    rejected = ScoredAlgorithm(compile_program("merge(models) = models[0]"), 5.0, 1)
    pairs = [PreferencePair("prompt-fixed", chosen, rejected)] * 30
    refined = refine_policy(policy, pairs, eta=1.0)

    # exact sign of the update rule
    assert refined.logits["V->mean_stack"] > policy.logits["V->mean_stack"]
    assert refined.logits["V->models[0]"] < policy.logits["V->models[0]"]
    before_p = production_probability(policy, "V", "V->mean_stack", 1.0)
    after_p = production_probability(refined, "V", "V->mean_stack", 1.0)
    assert after_p > before_p

    # empirical frequency over 10,000 samples at fixed temperature
    def frequency(p):
        hits = 0
        for i in range(10_000):
            if "mean_stack" in sample_program(p, 1.0, np.random.default_rng((77, i))):
                hits += 1
        return hits / 10_000

    freq_before = frequency(policy)
    freq_after = frequency(refined)
    assert freq_after > freq_before
    _announce(7, f"refinement direction ({freq_before:.3f} -> {freq_after:.3f})")


def test_acceptance_8_deterministic_runs(tmp_path):
    def do_run(name):
        config = RunConfig(
            seed=4,
            iterations=3,
            candidates_per_iteration=200,
            benchmark=BenchmarkConfig(d=64, k=3, component_noise=0.05),
            output_dir=str(tmp_path / name),
        )
        run(config)
        return Path(config.output_dir)

    dir_a, dir_b = do_run("a"), do_run("b")
    files = [
        "config.json", "instance.json", "candidates.jsonl", "iterations.jsonl",
        "preferences.jsonl", "result.json",
        "report/score_histogram.csv", "report/filter_categories.csv",
        "report/strategy_tokens.csv",
    ]
    for name in files:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), f"{name} differs"
    _announce(8, "byte-identical reruns")
