import gc
import hashlib
import importlib.util
import json
import socket
import weakref
from collections import Counter
from pathlib import Path

import pytest

from conftest import identity_grammar
from mergeforge.benchmark import BenchmarkConfig, make_instance, score
from mergeforge.config import RunConfig, full_scale_preset
from mergeforge import driver
from mergeforge.driver import run
from mergeforge.dsl.program import compile_program
from mergeforge.generator.policy import NT_VECTOR, GeneratorPolicy, Production, default_grammar
from mergeforge.generator.schedule import temperature
from mergeforge.pipeline import ScoredAlgorithm, top_k_carryover

# The benchmark's span wrappers, loaded from the file: bench/ is not a package.
_SPANS_FILE = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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

    # the run keeps a running top-n; it must equal ranking every success at the end
    everything = [
        ScoredAlgorithm(compile_program(c["source"]), c["score"], c["iteration"], ())
        for c in candidates if c["category"] == "success"
    ]
    hashes = [a.program.canonical_hash for a in everything]
    assert len(set(hashes)) < len(hashes)  # some programs succeed in several iterations
    want = top_k_carryover(everything, config.top_n_for_test)
    assert len(want) == config.top_n_for_test < len(everything)

    def key(alg):
        return (alg.program.canonical_hash, alg.program.source, alg.dev_score, alg.iteration)

    assert [key(alg) for alg, _ in report.top_test] == [key(a) for a in want]


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


def test_grammar_run_calls_every_traced_layer(tmp_path):
    # A traced benchmark run fails when a wrapped name is never called; this
    # catches a grammar path that bypasses parse, typecheck or the hash here.
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS_FILE)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    recorder = spans.Recorder()
    with spans.wrapped(recorder) as absent:
        assert absent == {}
        run(_small_config(tmp_path))
    assert spans.uncalled(Counter(recorder.names), spans.RUN_SPANS) == []


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


def test_budget_steps_reaches_the_interpreter(tmp_path):
    def categories(**overrides):
        config = _small_config(tmp_path, seed=1, iterations=1, candidates_per_iteration=60,
                               benchmark=BenchmarkConfig(d=16, k=3, n_dev=10, n_test=10), **overrides)
        run(config)
        return _read_jsonl(Path(config.output_dir) / "candidates.jsonl")

    assert not any(r["category"] == "timeout" for r in categories())
    records = categories(budget_steps=1)
    assert any(r["category"] == "timeout" for r in records)
    # one step evaluates one node: only a lone models[i] can finish
    successes = {r["source"] for r in records if r["category"] == "success"}
    assert successes and successes <= {f"merge(models) = models[{i}]" for i in range(3)}


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


def test_unkept_programs_are_freed_before_the_next_filter_returns(tmp_path, monkeypatch):
    config = _small_config(tmp_path, iterations=2, top_n_for_test=3)
    out = Path(config.output_dir)
    refs: dict[str, weakref.ref] = {}  # hash -> an iteration-1 success program
    alive: dict[str, bool] = {}
    real_filter = driver.filter_candidates

    def spy(*args, iteration, **kwargs):
        outcomes = real_filter(*args, iteration=iteration, **kwargs)
        if iteration == 1:
            refs.update(
                (o.program.canonical_hash, weakref.ref(o.program))
                for o in outcomes if o.category == "success"
            )
        else:
            gc.collect()
            alive.update((h, ref() is not None) for h, ref in refs.items())
        return outcomes

    monkeypatch.setattr(driver, "filter_candidates", spy)
    run(config)

    first = _read_jsonl(out / "iterations.jsonl")[0]
    successes = [c for c in _read_jsonl(out / "candidates.jsonl")
                 if c["iteration"] == 1 and c["category"] == "success"]
    top = {c["hash"] for c in sorted(successes, key=lambda c: (-c["score"], c["source"]))[:3]}
    kept = set(first["chosen_hashes"]) | top
    assert set(alive) == {c["hash"] for c in successes} > kept
    assert alive == {h: h in kept for h in alive}


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
        ScoredAlgorithm(compile_program(programs["a"]), 90.0, 1, ()),
        ScoredAlgorithm(compile_program(programs["b"]), 95.0, 2, ()),
        ScoredAlgorithm(compile_program(programs["c"]), 95.0, 1, ()),
        ScoredAlgorithm(compile_program(programs["d"]), 80.0, 1, ()),
    ]
    top2 = top_k_carryover(all_scored, 2)
    assert [a.dev_score for a in top2] == [95.0, 95.0]
    assert top2[0].iteration == 1  # earlier iteration wins the tie


def test_select_best_dedup_keeps_earlier_iteration():
    program = compile_program("merge(models) = models[0]")
    all_scored = [
        ScoredAlgorithm(program, 88.0, 3, ()),
        ScoredAlgorithm(program, 88.0, 1, ()),
    ]
    top = top_k_carryover(all_scored, 10)
    assert len(top) == 1
    assert top[0].iteration == 1


def test_select_best_n_larger_than_distinct():
    program = compile_program("merge(models) = models[0]")
    assert len(top_k_carryover([ScoredAlgorithm(program, 88.0, 1, ())], 15)) == 1


def test_select_best_empty_warns(tmp_path, caplog):
    # every candidate indexes a model the instance lacks, so none succeeds
    grammar = identity_grammar()
    grammar[NT_VECTOR] = [Production(pid="V->models[5]", kind="model", text="models[5]")]
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

    def fake_remote(cfg, temp, n):
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
    [record] = _read_jsonl(Path(config.output_dir) / "iterations.jsonl")
    assert record["policy_version"] == 0


def test_remote_failure_aborts_with_partial_logs(tmp_path, monkeypatch):
    from mergeforge import driver as driver_mod
    from mergeforge.generator.remote import EndpointConfig, GenerationSourceError

    calls = {"n": 0}

    def flaky_remote(cfg, temp, n):
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


def test_failed_run_leaves_no_earlier_result_in_its_directory(tmp_path):
    from mergeforge.generator.remote import EndpointConfig, GenerationSourceError

    run(_small_config(tmp_path, iterations=1))
    out = tmp_path / "run"
    assert (out / "result.json").exists() and list(out.glob("report/*.csv"))
    with socket.socket() as sock:  # bound and released: nothing listens on the port
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    config = _small_config(
        tmp_path,
        generator_mode="remote",
        remote=EndpointConfig(url=f"http://127.0.0.1:{port}/", model="m", max_retries=0),
    )
    with pytest.raises(GenerationSourceError):
        run(config)
    assert not (out / "result.json").exists()
    assert list(out.glob("report/*.csv")) == []
    assert (out / "candidates.jsonl").read_text() == ""


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


def test_pinned_full_scale_first_iteration_texts():
    # The 3,000 texts full_scale seed 7 samples in iteration 1, recorded while
    # each candidate still built its own default_rng((seed, 101, t, i)).
    config = full_scale_preset(seed=7)
    policy = GeneratorPolicy.initial(default_grammar(config.benchmark.k), config.max_depth)
    texts, _ = driver._generate(config, policy, temperature(1, config.t1, config.beta), 1)
    assert len(texts) == 3000
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == (
        "eb6b44cbd48f83e5ed676551b5581f4644cdb625a1ae52facfbb319ab76ba957"
    )


def test_pinned_run_digest(tmp_path):
    config = _small_config(tmp_path)
    run(config)
    assert _run_content_digest(Path(config.output_dir)) == (
        "a74c66e377d5ad14844e067e87ee3cb0d507675588d1cba99c05f578317cd633"
    )
