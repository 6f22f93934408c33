"""The mergeforge benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py --workload full_scale --seed 7 --seconds 35 --trace 0

Every repetition runs in a fresh single-threaded process (``rep.py``), so
set-up time and peak memory are measured per repetition.  Times are in the
reference seconds of ``speed.py``, which scale out the host's changes of
speed; wall seconds are kept per layer.  With ``--trace 0``
the last line of output is a JSON object holding every end-to-end metric;
with ``--trace 1`` it holds every per-layer metric, taken from spans that the
benchmark records by wrapping module-level names (``spans.py``), alternated
with untraced repetitions of the same input that give the tracing overhead.

full_scale and wide_d average over a panel of instance seeds drawn from
``--seed``, because the work a search does varies with its seed; every pool
seed has a golden digest of the run's deterministic files in golden.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_out"
GOLDEN = BENCH / "golden.json"

sys.path.insert(0, str(BENCH))
from spans import CALL_US, SELF_TIME, percentile  # noqa: E402

WORKLOADS = ("full_scale", "wide_d", "untrusted_text")
POOL = 8  # instance seeds 0..7 have golden digests
PANEL = 4  # instance seeds per full_scale or wide_d run
MIN_REPS = 3  # repetitions of a run, at the least
TRACE_PAIRS = 2  # untraced and traced repetitions of one input in a traced run, at the least
DEADLINE_S = 165  # a run never starts a repetition it cannot finish by then
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "candidates_per_s": "1/s",
    "peak_rss_mb": "MB",
    "dev_ratio_vs_ta": "ratio",
    "test_ratio_vs_ta": "ratio",
}
SHARES = (
    "pipeline.exact_text_repeat_share",
    "pipeline.duplicate_share",
    "pipeline.success_share",
    "pipeline.failed_share",
)
PER_LAYER = {
    **{name: "s" for name in SELF_TIME},
    "dsl.compile_s": "s",
    **{name: "us" for name in CALL_US},
    "pipeline.candidate_us.p50": "us",
    "pipeline.candidate_us.p99": "us",
    "generator.sample_calls": "count",
    **{name: "share" for name in SHARES},
    "trace.wall_s": "s",
    "trace.overhead_share": "share",
    "result.best_dev_score": "points",
    "result.test_margin_vs_ta": "points",
    "host.raw_over_ref": "ratio",
}


class RepError(RuntimeError):
    pass


def panel(workload: str, seed: int) -> list[int]:
    """Instance seeds one run measures: ``seed`` and the next ones, round the pool.

    The pool is small, so panels of neighbouring seeds share most of their
    seeds and the work per run varies little with ``seed``.
    """
    if workload == "untrusted_text":
        return [seed % 2**32]
    return [(seed + r) % POOL for r in range(PANEL)]


def run_rep(workload: str, seed: int, traced: bool, tag: str, *, options=(),
            timeout: float = DEADLINE_S) -> dict:
    """One repetition in a fresh process; returns its JSON result."""
    work = WORK / tag
    cmd = [sys.executable, str(BENCH / "rep.py"), workload, str(seed), str(work), *options]
    if traced:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **CHILD_ENV},
                              capture_output=True, text=True, timeout=timeout)
        if traced and (work / "spans.json").exists():
            (work / "spans.json").replace(WORK / f"spans-{workload}-{seed}.json")
    except subprocess.TimeoutExpired as exc:
        raise RepError(f"{workload} seed {seed}: no result within {timeout:.0f} s") from exc
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RepError(f"{workload} seed {seed}: exit code {proc.returncode}\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _repeat(step, seeds: list[int], min_steps: int, seconds: float, started: float):
    """Run ``step(seed, i)`` over the seeds in turn until ``seconds`` would pass.

    Makes at least ``min_steps`` steps unless the next one would end past
    DEADLINE_S; returns the results and an error for each step left out.
    """
    results, took = [], []
    i = 0
    while True:
        t = time.perf_counter()
        remaining = DEADLINE_S - (t - started)
        results.append(step(seeds[i % len(seeds)], i, remaining))
        took.append(time.perf_counter() - t)
        i += 1
        next_end = time.perf_counter() - started + statistics.median(took)
        if next_end > DEADLINE_S and i < min_steps:
            return results, [f"only {i} of {min_steps} repetitions fit in {DEADLINE_S} s"]
        if i >= min_steps and next_end > min(seconds, DEADLINE_S):
            return results, []


def _per_seed(reps: list[tuple[int, dict]], value, pick=statistics.median) -> float:
    """``pick`` over each seed's repetitions, then the mean over seeds."""
    by_seed: dict[int, list] = {}
    for seed, rep in reps:
        by_seed.setdefault(seed, []).append(value(rep))
    return statistics.fmean(pick(v) for v in by_seed.values())


def _fastest_calls(reps: list[dict]) -> list[float]:
    """Each text's fastest call over repetitions of one batch."""
    return [min(calls) for calls in zip(*(rep["latencies_us"] for rep in reps))]


def _check(workload: str, seed: int, rep: dict, golden: dict) -> list[str]:
    errors = list(rep["errors"])
    if workload != "untrusted_text":
        want = golden.get(workload, {}).get(str(seed))
        if want is None:
            errors.append(f"no golden digest recorded for {workload} seed {seed}")
        elif rep["digest"] != want:
            errors.append(f"{workload} seed {seed}: digest {rep['digest'][:16]} != golden {want[:16]}")
    return errors


def _result(correct: bool, reps: list[dict], metrics: dict[str, float], units: dict[str, str]) -> dict:
    return {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def measure(workload: str, seed: int, seconds: float, golden: dict, started: float):
    seeds = panel(workload, seed)

    def step(s, i, remaining):
        options = ["--check-batch"] if i == 0 else []
        return s, run_rep(workload, s, False, f"rep{i}", options=options, timeout=remaining)

    # Every panel seed at least once, then further rounds while ``seconds`` allows;
    # a seed's repetitions are summed up by their median, so each seed weighs the same.
    reps, errors = _repeat(step, seeds, max(MIN_REPS, len(seeds)), seconds, started)
    errors += [e for s, rep in reps for e in _check(workload, s, rep, golden)]
    wall_s = _per_seed(reps, lambda r: r["wall_s"])
    metrics = {
        "setup_s": statistics.median(rep["setup_s"] for _, rep in reps),
        "wall_s": wall_s,
        "candidates_per_s": _per_seed(reps, lambda r: r["candidates"], max) / wall_s,
        "peak_rss_mb": _per_seed(reps, lambda r: r["peak_rss_mb"]),
        "dev_ratio_vs_ta": _per_seed(reps, lambda r: r["dev_ratio_vs_ta"]),
        "test_ratio_vs_ta": _per_seed(reps, lambda r: r["test_ratio_vs_ta"]),
    }
    return errors, _result(not errors, [r for _, r in reps], metrics, END_TO_END)


def trace(workload: str, seed: int, seconds: float, golden: dict, started: float):
    """Pairs of untraced and traced repetitions of the panel's first seed, while ``seconds`` allows.

    One fixed input, so the per-layer figures cover the same seed in every run.
    """
    seeds = panel(workload, seed)[:1]

    def step(s, i, remaining):
        plain = run_rep(workload, s, False, f"plain{i}", timeout=remaining)
        traced = run_rep(workload, s, True, f"traced{i}", timeout=remaining)
        return s, plain, traced

    pairs, errors = _repeat(step, seeds, TRACE_PAIRS, seconds, started)
    for s, plain, traced in pairs:
        errors += _check(workload, s, plain, golden) + _check(workload, s, traced, golden)
        layers = traced["layers"]
        # An identity of the recorder (self times are durations minus children),
        # kept as a check on the span tree; the uncalled-span check is the one
        # that catches a renamed or bypassed layer.
        parts = sum(layers[name] for name in SELF_TIME)
        if abs(parts - layers["trace.wall_s"]) > 1e-6 * layers["trace.wall_s"]:
            errors.append(f"seed {s}: layer self times sum to {parts}, traced wall is {layers['trace.wall_s']}")
    plains = [p for _, p, _ in pairs]
    traced_reps = [t for _, _, t in pairs]
    metrics = {name: statistics.fmean(t["layers"][name] for t in traced_reps)
               for name in traced_reps[0]["layers"]}
    for name in SHARES:
        metrics[name] = traced_reps[0]["shares"][name]
    latencies = _fastest_calls(plains) if workload == "untrusted_text" else []
    metrics["pipeline.candidate_us.p50"] = percentile(latencies, 50)
    metrics["pipeline.candidate_us.p99"] = percentile(latencies, 99)
    metrics["trace.overhead_share"] = (
        statistics.fmean(t["wall_s"] for t in traced_reps) / statistics.fmean(p["wall_s"] for p in plains) - 1.0
    )
    metrics["host.raw_over_ref"] = statistics.median(p["wall_raw_s"] / p["wall_s"] for p in plains)
    for name in ("best_dev_score", "test_margin_vs_ta"):
        metrics[f"result.{name}"] = traced_reps[0][name]
    for name, why in absent_layers(traced_reps[0]["absent"], metrics).items():
        print(f"absent: {name}: {why}", file=sys.stderr)
    return errors, _result(not errors, plains + traced_reps, metrics, PER_LAYER)


def absent_layers(missing_targets: dict[str, str], metrics: dict[str, float]) -> dict[str, str]:
    """Per-layer metrics this workload does not measure, with the reason."""
    spans_of = {**SELF_TIME, **{m: (span,) for m, (span, _) in CALL_US.items()},
                "dsl.compile_s": ("pipeline.compile_program",),
                "generator.sample_calls": ("driver.sample_program",)}
    out = {}
    for name, span_names in spans_of.items():
        gone = [missing_targets[s] for s in span_names if s in missing_targets]
        if gone:
            out[name] = "; ".join(gone)
        elif metrics[name] == 0.0:
            out[name] = "no call on this workload"
    for name in ("pipeline.candidate_us.p50", "pipeline.candidate_us.p99"):
        if metrics[name] == 0.0:
            out[name] = "per-candidate latency is measured on untrusted_text only"
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "mergeforge" / "__init__.py").is_file():
        print(f"error: no mergeforge sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())
    WORK.mkdir(exist_ok=True)
    how = trace if args.trace else measure
    try:
        errors, result = how(args.workload, args.seed, args.seconds, golden, started)
    except RepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
