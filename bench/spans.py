"""Spans recorded from outside the program, by wrapping module-level names.

The traced run replaces names such as ``mergeforge.driver.sample_program``
with wrappers that record a span (name, start, end, parent) and restores the
originals afterwards, so per-layer numbers need no edit to ``src/``.  Spans
are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import importlib
import statistics
from contextlib import contextmanager
from time import perf_counter

ROOT = "root"  # the benchmark's own span around driver.run or the text batch

# Wrapped names, relative to the ``mergeforge`` package.  A name is wrapped
# where its caller looks it up, so ``driver.sample_program`` times the
# driver's calls and ``pipeline.evaluate`` the pipeline's.
TARGETS = (
    "driver.sample_program",
    "driver.filter_candidates",
    "driver.make_instance",
    "driver.build_preferences",
    "driver.select_preference_sets",
    "driver.refine_policy",
    "driver.grid_search_task_arithmetic",
    "driver.score_program",
    "driver.write_reports",
    "pipeline.filter_candidates",
    "pipeline.extract_program",
    "pipeline.compile_program",
    "pipeline.evaluate",
    "pipeline.probe_score",
    "dsl.program.parse",
    "dsl.program.typecheck",
    "dsl.program.canonical_hash",
)

# Spans each kind of traced run must record.  A wrapped name that is never
# called has been renamed or bypassed, and its time would move silently into
# its caller's self time, so the traced run fails its check instead.
RUN_SPANS = tuple(t for t in TARGETS if not t.startswith("pipeline.")) + (
    "pipeline.compile_program", "pipeline.evaluate", "pipeline.probe_score",
)
TEXT_SPANS = tuple(t for t in TARGETS if not t.startswith("driver."))

# Layer metric -> spans whose self time (duration minus child spans) it sums.
# Together these cover every span, so they add up to the root's duration.
SELF_TIME = {
    "benchmark.make_instance_s": ("driver.make_instance",),
    "generator.sample_s": ("driver.sample_program",),
    "generator.extract_s": ("pipeline.extract_program",),
    "pipeline.filter_s": ("driver.filter_candidates", "pipeline.filter_candidates"),
    "dsl.program_s": ("pipeline.compile_program",),
    "dsl.parse_s": ("dsl.program.parse",),
    "dsl.typecheck_s": ("dsl.program.typecheck",),
    "dsl.canon_s": ("dsl.program.canonical_hash",),
    "dsl.interp_s": ("pipeline.evaluate",),
    "benchmark.score_s": ("pipeline.probe_score",),
    "pipeline.preferences_s": ("driver.build_preferences", "driver.select_preference_sets"),
    "pipeline.refine_s": ("driver.refine_policy",),
    "core.grid_search_s": ("driver.grid_search_task_arithmetic",),
    "driver.test_score_s": ("driver.score_program",),
    "report.write_s": ("driver.write_reports",),
    "driver.self_s": (ROOT,),
}

# Per-call latency percentiles: metric -> (span, percentile).
CALL_US = {
    "dsl.compile_us.p50": ("pipeline.compile_program", 50),
    "dsl.compile_us.p99": ("pipeline.compile_program", 99),
    "dsl.interp_us.p50": ("pipeline.evaluate", 50),
    "dsl.interp_us.p99": ("pipeline.evaluate", 99),
    "benchmark.score_us.p50": ("pipeline.probe_score", 50),
}


class Recorder:
    """Spans of one thread, as parallel lists indexed by span id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._open: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(idx)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        if self._open.pop() != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def durations(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        durations = self.durations()
        own = list(durations)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[idx]
        return own

    def to_json(self) -> dict:
        return {"names": self.names, "starts": self.starts, "ends": self.ends, "parents": self.parents}


def _wrap(recorder: Recorder, name: str, fn):
    def traced(*args, **kwargs):
        idx = recorder.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(idx)

    return traced


@contextmanager
def wrapped(recorder: Recorder, targets=TARGETS):
    """Wrap each target for the duration of the block; yields {target: why absent}.

    A target whose module or name no longer exists is reported, not fatal.
    Every wrapped name is restored on exit, also when the block raises.
    """
    restore: list[tuple[object, str, object]] = []
    absent: dict[str, str] = {}
    try:
        for target in targets:
            module_name, _, attr = target.rpartition(".")
            try:
                module = importlib.import_module(f"mergeforge.{module_name}")
                original = getattr(module, attr)
            except (ImportError, AttributeError) as exc:
                absent[target] = f"not found: {exc}"
                continue
            setattr(module, attr, _wrap(recorder, target, original))
            restore.append((module, attr, original))
        yield absent
    finally:
        for module, attr, original in reversed(restore):
            setattr(module, attr, original)


def uncalled(calls: dict[str, int], expected: tuple[str, ...]) -> list[str]:
    """Expected spans with no recorded call, given call counts per span name."""
    return [name for name in expected if not calls.get(name)]


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Self time per layer, compile time, per-call percentiles and counts."""
    own: dict[str, float] = {}
    total: dict[str, float] = {}
    calls: dict[str, list[float]] = {}
    for name, dur, self_time in zip(recorder.names, recorder.durations(), recorder.self_times()):
        own[name] = own.get(name, 0.0) + self_time
        total[name] = total.get(name, 0.0) + dur
        calls.setdefault(name, []).append(dur)
    out = {metric: sum(own.get(s, 0.0) for s in spans) for metric, spans in SELF_TIME.items()}
    out["dsl.compile_s"] = total.get("pipeline.compile_program", 0.0)
    for metric, (span, q) in CALL_US.items():
        out[metric] = percentile(calls.get(span, []), q) * 1e6
    out["generator.sample_calls"] = float(len(calls.get("driver.sample_program", [])))
    out["trace.wall_s"] = total.get(ROOT, 0.0)
    return out
