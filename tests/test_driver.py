import hashlib
import json
from pathlib import Path

import pytest

from conftest import identity_grammar
from mergeforge.benchmark import make_instance, score
from mergeforge.config import BenchmarkConfig, RunConfig
from mergeforge.driver import run
from mergeforge.dsl import compile_program
from mergeforge.generator import GeneratorPolicy, Production, temperature
from mergeforge.generator.policy import NT_VECTOR
from mergeforge.pipeline import ScoredAlgorithm, top_k_carryover


def _small_config(tmp_path, **overrides):
    defaults = dict(
        seed=13,
        iterations=3,
        candidates_per_iteration=40,
        benchmark=BenchmarkConfig(d=32, k=3, n_dev=40, n_test=80),
        output_dir=str(tmp_path / "run"),
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def _read_jsonl(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


def test_identity_grammar_single_candidate(tmp_path):
    config = _small_config(tmp_path, iterations=1, candidates_per_iteration=1)
    policy = GeneratorPolicy.initial(identity_grammar(), max_depth=3)
    report = run(config, initial_policy=policy)
    assert report.best is not None
    want = compile_program("merge(models) = models[0]")
    assert report.best.program.canonical_hash == want.canonical_hash

    bench = config.benchmark
    instance = make_instance(config.seed, bench.d, bench.k, bench.component_noise,
                             (bench.n_dev, bench.n_test), bench.overlap)
    first_candidate = score(instance.candidates[0], instance.dev_probes, instance.dev_baseline_mse)
    assert report.s_best == pytest.approx(first_candidate, abs=1e-12)


def test_s_best_non_decreasing_in_logs(tmp_path):
    config = _small_config(tmp_path)
    run(config)
    records = _read_jsonl(Path(config.output_dir) / "iterations.jsonl")
    series = [r["s_best_so_far"] for r in records]
    assert all(a <= b for a, b in zip(series, series[1:]))


def test_s_best_is_the_running_max_of_success_scores(tmp_path):
    config = _small_config(tmp_path)
    report = run(config)
    candidates = _read_jsonl(Path(config.output_dir) / "candidates.jsonl")
    scores = []
    for rec in _read_jsonl(Path(config.output_dir) / "iterations.jsonl"):
        scores += [c["score"] for c in candidates
                   if c["iteration"] == rec["iteration"] and c["category"] == "success"]
        assert rec["s_best_so_far"] == max(scores, default=None)
    assert scores
    assert report.best is report.top_test[0][0]
    assert report.s_best == report.best.dev_score == max(scores)


def test_rerun_is_byte_identical(tmp_path):
    config_a = _small_config(tmp_path, output_dir=str(tmp_path / "a"))
    config_b = _small_config(tmp_path, output_dir=str(tmp_path / "b"))
    run(config_a)
    run(config_b)
    names = [
        "config.json", "instance.json", "candidates.jsonl", "iterations.jsonl",
        "preferences.jsonl", "result.json",
        "report/score_histogram.csv", "report/filter_categories.csv",
        "report/strategy_tokens.csv",
    ]
    for name in names:
        a = (Path(config_a.output_dir) / name).read_bytes()
        b = (Path(config_b.output_dir) / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


def test_temperature_log_matches_schedule(tmp_path):
    config = _small_config(tmp_path)
    run(config)
    for rec in _read_jsonl(Path(config.output_dir) / "iterations.jsonl"):
        want = temperature(rec["iteration"], config.t1, config.beta)
        assert abs(rec["temperature"] - want) <= 1e-12


def test_carryover_pool_is_union_of_prior_chosen(tmp_path):
    config = _small_config(tmp_path)
    report = run(config)
    records = _read_jsonl(Path(config.output_dir) / "iterations.jsonl")
    seen_union = set()
    for rec, stats in zip(records, report.iterations):
        pool_hashes = {a.program.canonical_hash for a in stats.chosen}
        assert set(rec["chosen_hashes"]) == pool_hashes
        seen_union |= pool_hashes
    # reconstruct the pool the final iteration saw
    pool = {a.program.canonical_hash for stats in report.iterations[:-1] for a in stats.chosen}
    assert pool == set().union(*(set(r["chosen_hashes"]) for r in records[:-1]))


def test_candidate_log_partitions_batch(tmp_path):
    config = _small_config(tmp_path)
    run(config)
    records = _read_jsonl(Path(config.output_dir) / "candidates.jsonl")
    assert len(records) == config.iterations * config.candidates_per_iteration
    for rec in records:
        assert rec["source"]  # failures keep their source text for inspection
    iter_records = _read_jsonl(Path(config.output_dir) / "iterations.jsonl")
    for it in iter_records:
        assert sum(it["counts"].values()) == config.candidates_per_iteration


def test_success_scores_match_report_totals(tmp_path):
    config = _small_config(tmp_path)
    run(config)
    candidates = _read_jsonl(Path(config.output_dir) / "candidates.jsonl")
    iterations = _read_jsonl(Path(config.output_dir) / "iterations.jsonl")
    for it in iterations:
        successes = [r for r in candidates
                     if r["iteration"] == it["iteration"] and r["category"] == "success"]
        assert it["counts"]["success"] == len(successes)


def test_preferences_jsonl_shape(tmp_path):
    config = _small_config(tmp_path)
    run(config)
    records = _read_jsonl(Path(config.output_dir) / "preferences.jsonl")
    assert records, "expected some preference pairs in a 3-iteration run"
    for rec in records:
        assert set(rec) == {
            "prompt_id", "chosen_source", "rejected_source",
            "chosen_score", "rejected_score", "iteration",
        }
        assert rec["chosen_score"] > rec["rejected_score"]


def test_top_test_respects_limit_and_dedup(tmp_path):
    config = _small_config(tmp_path, top_n_for_test=5)
    report = run(config)
    assert len(report.top_test) <= 5
    hashes = [alg.program.canonical_hash for alg, _ in report.top_test]
    assert len(hashes) == len(set(hashes))
    dev_scores = [alg.dev_score for alg, _ in report.top_test]
    assert dev_scores == sorted(dev_scores, reverse=True)


def test_result_json_baselines(tmp_path):
    config = _small_config(tmp_path)
    run(config)
    payload = json.loads((Path(config.output_dir) / "result.json").read_text())
    baselines = payload["baselines"]
    assert baselines["seed_model"] == {"dev": 0.0, "test": 0.0}
    assert len(baselines["candidates"]) == config.benchmark.k
    assert baselines["task_arithmetic"]["evaluations"] == 27
    assert len(baselines["task_arithmetic"]["lambdas"]) == config.benchmark.k


def test_select_best_tie_rule():
    programs = {
        "a": "merge(models) = models[0]",
        "b": "merge(models) = models[1]",
        "c": "merge(models) = models[2]",
        "d": "merge(models) = mean_stack(models)",
    }
    all_scored = [
        ScoredAlgorithm(compile_program(programs["a"]), 90.0, 1),
        ScoredAlgorithm(compile_program(programs["b"]), 95.0, 2),
        ScoredAlgorithm(compile_program(programs["c"]), 95.0, 1),
        ScoredAlgorithm(compile_program(programs["d"]), 80.0, 1),
    ]
    top2 = top_k_carryover(all_scored, 2)
    assert [a.dev_score for a in top2] == [95.0, 95.0]
    assert top2[0].iteration == 1  # earlier iteration wins the tie


def test_select_best_dedup_keeps_earlier_iteration():
    program = compile_program("merge(models) = models[0]")
    all_scored = [
        ScoredAlgorithm(program, 88.0, 3),
        ScoredAlgorithm(program, 88.0, 1),
    ]
    top = top_k_carryover(all_scored, 10)
    assert len(top) == 1
    assert top[0].iteration == 1


def test_select_best_n_larger_than_distinct():
    program = compile_program("merge(models) = models[0]")
    assert len(top_k_carryover([ScoredAlgorithm(program, 88.0, 1)], 15)) == 1


def test_select_best_empty_warns(tmp_path, caplog):
    # every candidate indexes a model the instance lacks, so none succeeds
    grammar = identity_grammar()
    grammar[NT_VECTOR] = [Production(pid="V->models[5]", kind="model", payload=5)]
    config = _small_config(tmp_path, iterations=1, candidates_per_iteration=5)
    with caplog.at_level("WARNING"):
        report = run(config, initial_policy=GeneratorPolicy.initial(grammar))
    assert report.top_test == []
    assert "no successful programs" in caplog.text


def test_remote_mode_run(tmp_path, monkeypatch):
    # remote generation is exercised through the driver with a stub transport
    from mergeforge import driver as driver_mod
    from mergeforge.generator.remote import EndpointConfig

    completions = [
        "```\nmerge(models) = mean_stack(models)\n```",
        "prose without code",
        "```\nmerge(models) = mean_stack(models)\n```",
    ]

    def fake_remote(cfg, prompt, temp, n):
        assert n == 3
        return completions

    monkeypatch.setattr(driver_mod, "remote_generate", fake_remote)
    config = _small_config(
        tmp_path,
        iterations=1,
        candidates_per_iteration=3,
        generator_mode="remote",
        remote=EndpointConfig(url="http://unused.invalid", model="m"),
    )
    report = run(config)
    counts = report.iterations[0].counts
    assert counts == {
        "duplicate": 1, "no_function_extracted": 1, "non_executable": 0,
        "timeout": 0, "success": 1,
    }
    # a single success cannot form pairs; policy version must stay 0
    assert report.iterations[0].policy_version == 0


def test_remote_failure_aborts_with_partial_logs(tmp_path, monkeypatch):
    from mergeforge import driver as driver_mod
    from mergeforge.generator.remote import EndpointConfig, GenerationSourceError

    calls = {"n": 0}

    def flaky_remote(cfg, prompt, temp, n):
        calls["n"] += 1
        if calls["n"] == 2:
            raise GenerationSourceError("retries exhausted", [500])
        return ["```\nmerge(models) = models[0]\n```", "```\nmerge(models) = models[1]\n```"]

    monkeypatch.setattr(driver_mod, "remote_generate", flaky_remote)
    config = _small_config(
        tmp_path,
        iterations=3,
        candidates_per_iteration=2,
        generator_mode="remote",
        remote=EndpointConfig(url="http://unused.invalid", model="m"),
    )
    with pytest.raises(GenerationSourceError):
        run(config)
    # iteration 1 logs were flushed before the abort
    records = _read_jsonl(Path(config.output_dir) / "candidates.jsonl")
    assert len(records) == 2
    assert all(r["iteration"] == 1 for r in records)


def _run_content_digest(run_dir: Path) -> str:
    """sha256 over the float-free content of a run: independent of BLAS rounding."""
    candidates = [
        (r["category"], r["hash"], r["source"]) for r in _read_jsonl(run_dir / "candidates.jsonl")
    ]
    iterations = [
        (r["counts"], r["chosen_hashes"], r["pairs_built"], r["policy_version"])
        for r in _read_jsonl(run_dir / "iterations.jsonl")
    ]
    preferences = [
        (r["chosen_source"], r["rejected_source"])
        for r in _read_jsonl(run_dir / "preferences.jsonl")
    ]
    h = hashlib.sha256()
    h.update(json.dumps([candidates, iterations, preferences], sort_keys=True).encode())
    for name in ("strategy_tokens.csv", "filter_categories.csv"):
        h.update((run_dir / "report" / name).read_bytes())
    return h.hexdigest()


def test_pinned_run_digest(tmp_path):
    config = _small_config(tmp_path)
    run(config)
    assert _run_content_digest(Path(config.output_dir)) == (
        "a74c66e377d5ad14844e067e87ee3cb0d507675588d1cba99c05f578317cd633"
    )
