"""One repetition of one workload, in a fresh process.

    python3 bench/rep.py <workload> <instance_seed> <work_dir> [--traced] [--check-batch]

Prints one JSON object as its last line of output.  ``setup_s`` runs from the
start of this process through importing mergeforge and building the
instance; ``peak_rss_mb`` is this process's high-water mark after the
measured call, so work moved into set-up or extra memory both show.

Set-up and the measured call run under a ``speed.SpeedProbe``, and their
times are reported both in wall seconds (``*_raw_s``) and in the probe's
reference seconds (``setup_s``, ``wall_s``).
"""

from __future__ import annotations

from time import perf_counter

_T0 = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))
import speed  # noqa: E402

if __name__ == "__main__":  # started before mergeforge is imported, so set-up is scaled too
    PROBE = speed.SpeedProbe()
    PROBE.start()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import replace  # noqa: E402

# The 9 deterministic run files, in the order the golden digests hash them.
DIGEST_FILES = (
    "config.json", "instance.json", "candidates.jsonl", "iterations.jsonl",
    "preferences.jsonl", "result.json",
    "report/score_histogram.csv", "report/filter_categories.csv",
    "report/strategy_tokens.csv",
)
WIDE_D_CANDIDATES = 300  # per iteration; a wide_d run lasts about as long as full_scale
CHECK_TEXTS = 300  # a run's first candidates, filtered again one call each
TEXT_BATCH = 3000  # one iteration-sized batch of untrusted text


def _import_mergeforge():
    sys.path.insert(0, str(SRC))
    import mergeforge

    if Path(mergeforge.__file__).resolve().parent != SRC / "mergeforge":
        raise ImportError(f"mergeforge imported from {mergeforge.__file__}, not from {SRC}")
    from mergeforge import benchmark, config, core, driver, dsl, pipeline

    return benchmark, config, core, driver, dsl, pipeline


benchmark, config_mod, core, driver, dsl, pipeline = _import_mergeforge()
import spans  # noqa: E402
import textgen  # noqa: E402


def run_config(workload: str, seed: int, output_dir: str):
    config = config_mod.full_scale_preset(seed=seed, output_dir=output_dir)
    if workload == "wide_d":
        config = replace(
            config,
            candidates_per_iteration=WIDE_D_CANDIDATES,
            benchmark=replace(config.benchmark, d=65536, n_test=200),
        )
    return config


def build_instance(config):
    bench = config.benchmark
    return benchmark.make_instance(
        rng_seed=config.seed, d=bench.d, k=bench.k, component_noise=bench.component_noise,
        probe_counts=(bench.n_dev, bench.n_test), overlap=bench.overlap,
    )


def digest(run_dir: Path) -> str:
    h = hashlib.sha256()
    for name in DIGEST_FILES:
        h.update((run_dir / name).read_bytes())
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_report(report, config) -> list[str]:
    """Invariants every run must keep, whatever its seed."""
    errors = []
    all_scores = []
    for stats in report.iterations:
        if sum(stats.counts.values()) != config.candidates_per_iteration:
            errors.append(f"iteration {stats.iteration}: counts {stats.counts} do not sum to N")
        all_scores += stats.success_scores
    ta = report.baselines["task_arithmetic"]
    scored = all_scores + [test for _, test in report.top_test] + [ta["dev"], ta["test"]]
    if any(not 0.0 <= s <= 100.0 for s in scored):
        errors.append("a score lies outside [0, 100]")
    if all_scores and report.s_best != max(all_scores):
        errors.append(f"s_best {report.s_best} is not the largest success score {max(all_scores)}")
    return errors


def outcome_key(outcome) -> tuple:
    return (outcome.category, outcome.program.canonical_hash if outcome.program else None, outcome.dev_score)


def shares(batches, failed: int) -> dict[str, float]:
    """Outcome shares over (texts, categories) batches; repeats count within a batch."""
    n = sum(len(texts) for texts, _ in batches)
    counts = Counter(c for _, categories in batches for c in categories)
    repeats = sum(c - 1 for texts, _ in batches for c in Counter(texts).values())
    return {
        "pipeline.exact_text_repeat_share": repeats / n,
        "pipeline.duplicate_share": counts[pipeline.DUPLICATE] / n,
        "pipeline.success_share": counts[pipeline.SUCCESS] / n,
        "pipeline.failed_share": failed / n,
    }


def ta_scores(instance) -> tuple[float, float]:
    """Dev and test score of grid-searched task arithmetic, the paper's baseline."""
    taus = instance.task_vectors()

    def dev_score(tau):
        return benchmark.score(core.apply_merged(instance.seed_model, tau),
                               instance.dev_probes, instance.dev_baseline_mse)

    lambdas, dev = core.grid_search_task_arithmetic(taus, driver.TASK_ARITHMETIC_GRID, dev_score)
    merged = core.apply_merged(instance.seed_model, core.task_arithmetic(taus, lambdas))
    return dev, benchmark.score(merged, instance.test_probes, instance.test_baseline_mse)


def check_per_candidate(config, texts: list[str]) -> list[str]:
    """One call per text with one shared set must give exactly one batch call's outcomes."""
    instance = build_instance(config)
    args = (dsl.default_budget(config.benchmark.k, config.benchmark.d), instance.task_vectors(),
            instance.seed_model, instance.dev_probes, instance.dev_baseline_mse)
    seen: set = set()
    single = [pipeline.filter_candidates([text], seen, *args)[0] for text in texts]
    whole = pipeline.filter_candidates(texts, set(), *args)
    if [outcome_key(o) for o in single] != [outcome_key(o) for o in whole]:
        return [f"per-candidate outcomes differ from one batch call (seed {config.seed})"]
    return []


def setup_times() -> dict[str, float]:
    """Time from the start of this process to now, in reference and wall seconds."""
    end = perf_counter()
    return {"setup_s": PROBE.reference_seconds(_T0, end), "setup_raw_s": end - _T0}


def timed(fn, traced: bool, work_dir: Path, expected: tuple[str, ...]):
    """Run and time ``fn``; traced, under the span wrappers inside a root span.

    Stops the speed probe when ``fn`` returns.  Returns the result, the
    times (``wall_s`` in reference seconds, ``wall_raw_s`` in wall seconds)
    and, traced, the trace fields of the output, which name the ``expected``
    spans that recorded no call.
    """
    if not traced:
        start = perf_counter()
        try:
            result = fn()
        finally:
            end = perf_counter()
            PROBE.stop()
        return result, {"wall_s": PROBE.reference_seconds(start, end), "wall_raw_s": end - start}, {}
    recorder = spans.Recorder()
    try:
        with spans.wrapped(recorder) as absent:
            with recorder.span(spans.ROOT):
                result = fn()
    finally:
        PROBE.stop()
    (work_dir / "spans.json").write_text(json.dumps(recorder.to_json()))
    start, end = recorder.starts[0], recorder.ends[0]
    return result, {"wall_s": PROBE.reference_seconds(start, end), "wall_raw_s": end - start}, {
        "layers": spans.layer_metrics(recorder),
        "absent": absent,
        "uncalled": spans.uncalled(Counter(recorder.names), expected),
    }


def uncalled_errors(trace_fields: dict) -> list[str]:
    return [f"traced run recorded no call of {name}" for name in trace_fields.get("uncalled", ())]


def measure_run(workload: str, seed: int, traced: bool, work_dir: Path, check_batch: bool) -> dict:
    config = run_config(workload, seed, str(work_dir / "run"))
    instance = build_instance(config)
    setup = setup_times()
    del instance  # driver.run builds its own; two would inflate peak RSS

    report, times, trace_fields = timed(lambda: driver.run(config), traced, work_dir, spans.RUN_SPANS)
    rss = peak_rss_mb()

    run_dir = Path(config.output_dir)
    errors = check_report(report, config) + uncalled_errors(trace_fields)
    records = [json.loads(line) for line in (run_dir / "candidates.jsonl").read_text().splitlines()]
    ta = report.baselines["task_arithmetic"]
    rank1_test = report.top_test[0][1]
    out = {
        **setup,
        **times,
        "candidates": len(records),
        "peak_rss_mb": rss,
        "best_dev_score": report.s_best,
        "dev_ratio_vs_ta": report.s_best / ta["dev"],
        "test_ratio_vs_ta": rank1_test / ta["test"],
        "test_margin_vs_ta": rank1_test - ta["test"],
        "digest": digest(run_dir),
        "attempted": 1,
        "failed": 0,
        "errors": errors,
        **trace_fields,
    }
    by_iteration: dict[int, list[dict]] = {}
    for rec in records:
        by_iteration.setdefault(rec["iteration"], []).append(rec)
    out["shares"] = shares(
        [([r["source"] for r in recs], [r["category"] for r in recs]) for recs in by_iteration.values()], 0
    )
    if check_batch:  # after the measured call and the RSS reading, so neither sees it
        texts = [r["source"] for r in records[:CHECK_TEXTS]]
        errors += check_per_candidate(config, texts)
        out["attempted"] += len(texts)
    return out


def measure_text(seed: int, traced: bool, work_dir: Path, check_batch: bool) -> dict:
    config = config_mod.full_scale_preset(seed=seed)
    instance = build_instance(config)
    setup = setup_times()
    taus = instance.task_vectors()
    budget = dsl.default_budget(config.benchmark.k, config.benchmark.d)
    texts = textgen.generate(seed, TEXT_BATCH)

    def call(text: str, seen: set):
        # Looked up on the module at call time, so the traced run's wrapper applies.
        return pipeline.filter_candidates(
            [text], seen, budget, taus, instance.seed_model, instance.dev_probes,
            instance.dev_baseline_mse, extract_from_raw=True, iteration=1, generator_kind="remote",
        )[0]

    outcomes: list = []
    latencies: list[float] = []

    def batch() -> None:
        seen: set = set()  # one set for the whole batch, as the driver's one call would
        for t in texts:
            start = perf_counter()
            try:
                outcomes.append(call(t.text, seen))
            except Exception as exc:  # an input that raises fails only itself
                outcomes.append(exc)
            latencies.append(perf_counter() - start)

    _, times, trace_fields = timed(batch, traced, work_dir, spans.TEXT_SPANS)
    rss = peak_rss_mb()

    errors = uncalled_errors(trace_fields)
    failures = Counter()
    categories = []
    for i, (t, o) in enumerate(zip(texts, outcomes)):
        if isinstance(o, Exception):
            failures[f"{t.kind}:{type(o).__name__}"] += 1
            categories.append(None)
            continue
        categories.append(o.category)
        if not textgen.matches(t, o.category, o.program is not None):
            errors.append(f"text {i} ({t.kind}): expected {t.expected}, got {o.category} ({o.reason})")
    failed = sum(failures.values())

    if check_batch:
        # Per-candidate calls sharing one set must give exactly the outcomes
        # of a single batch call, on the texts that are not hostile.
        kept = [i for i, t in enumerate(texts) if not t.hostile]
        whole = pipeline.filter_candidates(
            [texts[i].text for i in kept], set(), budget, taus, instance.seed_model,
            instance.dev_probes, instance.dev_baseline_mse, extract_from_raw=True,
            iteration=1, generator_kind="remote",
        )
        for i, o in zip(kept, whole):
            single = outcomes[i]
            if isinstance(single, Exception) or outcome_key(single) != outcome_key(o):
                errors.append(f"text {i}: per-candidate outcome differs from the batch call")

    successes = [o for o in outcomes if not isinstance(o, Exception) and o.category == pipeline.SUCCESS]
    best = min(successes, key=lambda o: (-o.dev_score, o.source))
    best_test = pipeline.score_program(
        best.program, taus, instance.seed_model, instance.test_probes,
        instance.test_baseline_mse, budget,
    )
    ta_dev, ta_test = ta_scores(instance)
    return {
        **setup,
        **times,
        "candidates": len(texts),
        "peak_rss_mb": rss,
        "best_dev_score": best.dev_score,
        "dev_ratio_vs_ta": best.dev_score / ta_dev,
        "test_ratio_vs_ta": best_test / ta_test,
        "test_margin_vs_ta": best_test - ta_test,
        "digest": None,
        "attempted": len(texts),
        "failed": failed,
        "failures": dict(failures),
        "errors": errors,
        "shares": shares([([t.text for t in texts], categories)], failed),
        "latencies_us": [t * 1e6 for t in latencies],
        **trace_fields,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("work_dir", type=Path)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--check-batch", action="store_true")
    args = parser.parse_args(argv)
    args.work_dir.mkdir(parents=True, exist_ok=True)
    if args.workload == "untrusted_text":
        result = measure_text(args.seed, args.traced, args.work_dir, args.check_batch)
    else:
        result = measure_run(args.workload, args.seed, args.traced, args.work_dir, args.check_batch)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
