"""Tests of the benchmark's own logic: wrappers, the text oracle, equivalence, speed."""

import signal
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import rep  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import textgen  # noqa: E402
from mergeforge import driver, pipeline  # noqa: E402
from mergeforge.dsl import default_budget, program  # noqa: E402


@pytest.fixture(scope="module")
def instance():
    return rep.build_instance(rep.run_config("full_scale", 3, "unused"))


def _filter(texts, seen, instance):
    return pipeline.filter_candidates(
        texts, seen, default_budget(3, 64), instance.task_vectors(), instance.seed_model,
        instance.dev_probes, instance.dev_baseline_mse, extract_from_raw=True,
    )


def test_wrappers_installed_then_restored_even_on_error():
    originals = {t: getattr(sys.modules[f"mergeforge.{t.rpartition('.')[0]}"], t.rpartition(".")[2])
                 for t in spans.TARGETS}
    recorder = spans.Recorder()
    with pytest.raises(ValueError):
        with spans.wrapped(recorder) as absent:
            assert absent == {}
            assert driver.sample_program is not originals["driver.sample_program"]
            assert program.parse is not originals["dsl.program.parse"]
            raise ValueError("boom")
    for target, original in originals.items():
        module, _, attr = target.rpartition(".")
        assert getattr(sys.modules[f"mergeforge.{module}"], attr) is original


def test_missing_target_is_reported_not_fatal():
    with spans.wrapped(spans.Recorder(), ("driver.no_such_name", "no_such_module.fn", "dsl.program.parse")) as absent:
        assert set(absent) == {"driver.no_such_name", "no_such_module.fn"}
        assert program.parse.__name__ == "traced"
    assert program.parse.__name__ == "parse"


def test_self_times_add_up_to_the_root(instance):
    recorder = spans.Recorder()
    texts = [t.text for t in textgen.generate(1, 60) if not t.hostile]
    with spans.wrapped(recorder):
        with recorder.span(spans.ROOT):
            _filter(texts, set(), instance)
    layers = spans.layer_metrics(recorder)
    assert sum(layers[m] for m in spans.SELF_TIME) == pytest.approx(layers["trace.wall_s"], rel=1e-9)
    assert spans.uncalled(Counter(recorder.names), spans.TEXT_SPANS) == []
    assert layers["dsl.compile_s"] >= layers["dsl.parse_s"] > 0
    parents = {recorder.names[p] for name, p in zip(recorder.names, recorder.parents)
               if name == "dsl.program.parse"}
    assert parents == {"pipeline.compile_program"}


def test_a_bypassed_layer_is_named():
    calls = Counter({"pipeline.compile_program": 3, "dsl.program.parse": 0})
    assert spans.uncalled(calls, ("pipeline.compile_program", "dsl.program.parse", "pipeline.evaluate")) == [
        "dsl.program.parse", "pipeline.evaluate"]
    assert rep.uncalled_errors({"uncalled": ["pipeline.evaluate"]}) == [
        "traced run recorded no call of pipeline.evaluate"]
    assert rep.uncalled_errors({}) == []
    assert set(spans.RUN_SPANS) | set(spans.TEXT_SPANS) == set(spans.TARGETS)


def test_repetitions_left_out_by_the_deadline_are_errors():
    def step(seed, i, remaining):
        time.sleep(0.05)
        return seed

    near_deadline = time.perf_counter() - (run.DEADLINE_S - 0.02)
    results, errors = run._repeat(step, [1, 2, 3, 4], 4, 0.0, near_deadline)
    assert results == [1] and len(errors) == 1
    results, errors = run._repeat(step, [1, 2, 3, 4], 4, 0.0, time.perf_counter())
    assert results == [1, 2, 3, 4] and errors == []


def test_mix_shares_sum_to_one():
    assert sum(share for _, share in textgen.MIX) == pytest.approx(1.0)
    shares = dict(textgen.MIX)
    measured = dict(textgen.MEASURED)
    assert shares["repeat"] / shares["valid"] == pytest.approx(measured["repeat"] / measured["valid"])


def test_textgen_is_deterministic_and_follows_the_mix():
    a, b = textgen.generate(11, 500), textgen.generate(11, 500)
    assert a == b
    assert [t.text for t in textgen.generate(12, 500)] != [t.text for t in a]
    kinds = Counter(t.kind for t in a)
    for kind, share in textgen.MIX:
        if kind not in ("valid", "variant", "repeat"):  # the first variant may become valid
            assert kinds[kind] == round(share * 500)
    assert all(t.hostile == (t.kind == "deep") for t in a)


def test_oracle_agrees_with_the_filter(instance):
    texts = textgen.generate(5, 400)
    seen = set()
    for t in texts:
        try:
            outcome = _filter([t.text], seen, instance)[0]
        except RecursionError:
            assert t.hostile, t.kind
            continue
        assert textgen.matches(t, outcome.category, outcome.program is not None), (t.kind, outcome)


def test_oracle_rejects_a_wrong_category():
    t = textgen.Text("x", "repeat", (textgen.DUPLICATE,))
    assert not textgen.matches(t, "success", True)
    assert textgen.outcome_label("non_executable", compiled=True) == textgen.COMPILED
    assert textgen.outcome_label("non_executable", compiled=False) == textgen.NON_EXECUTABLE


def test_per_candidate_calls_match_one_batch_call(instance):
    texts = [t.text for t in textgen.generate(9, 400) if not t.hostile]
    seen = set()
    single = [_filter([text], seen, instance)[0] for text in texts]
    whole = _filter(texts, set(), instance)
    assert [rep.outcome_key(o) for o in single] == [rep.outcome_key(o) for o in whole]
    assert Counter(o.category for o in whole)[pipeline.DUPLICATE] > 0


def test_panel_stays_in_the_golden_pool():
    for seed in (0, 7, 63, 64, 1000, -3):
        seeds = run.panel("full_scale", seed)
        assert len(set(seeds)) == run.PANEL
        assert seed % run.POOL in seeds
        assert all(0 <= s < run.POOL for s in seeds)
    assert run.panel("untrusted_text", 1000) == [1000]


def test_reference_seconds_scale_by_the_probe_and_drop_its_runs():
    ref = speed.REFERENCE_PROBE_S
    # A probe run of length ref every second, each on time: reference speed.
    samples = [(float(t), ref, 0.0) for t in range(10)]
    assert speed.reference_seconds(samples, 0.0, 10.0, 1.0) == pytest.approx(10.0 - 10 * ref)
    # Twice as slow a probe halves every stretch.
    slow = [(float(t), 2 * ref, 0.0) for t in range(10)]
    assert speed.reference_seconds(slow, 0.0, 10.0, 1.0) == pytest.approx((10.0 - 20 * ref) / 2)
    # Before the first probe run, the first stretch's speed applies.
    assert speed.reference_seconds(slow, -0.5, 0.5, 1.0) == pytest.approx(0.5 - ref)
    # One disturbed probe run does not rescale its stretch.
    disturbed = list(samples)
    disturbed[4] = (4.0, 50 * ref, 0.0)
    assert speed.reference_seconds(disturbed, 0.0, 10.0, 1.0) == pytest.approx(10.0 - 59 * ref)
    with pytest.raises(ValueError):
        speed.reference_seconds([], 0.0, 1.0, 1.0)


def test_time_in_native_calls_is_not_scaled():
    ref = speed.REFERENCE_PROBE_S
    # Half the ticks are handled late (they landed in a native call) and two
    # more never came (merged into a later one): 4 of 10 due ticks on time.
    late = speed.LATE_S * 2
    samples = [(0.0, 2 * ref, 0.0), (1.0, 2 * ref, 0.0), (2.0, 2 * ref, late), (4.0, 2 * ref, late),
               (6.0, 2 * ref, 0.0), (7.0, 2 * ref, late), (8.0, 2 * ref, 0.0), (9.5, 2 * ref, late)]
    assert speed.interpreted_share(samples, 0.0, 10.0, 1.0) == pytest.approx(0.4)
    wall = 10.0 - 16 * ref
    assert speed.reference_seconds(samples, 0.0, 10.0, 1.0) == pytest.approx(wall * (0.4 / 2 + 0.6))
    assert speed.interpreted_share(samples, 1.0, 1.0, 1.0) == 1.0


def test_speed_probe_samples_then_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe(interval=0.005)
    probe.start()
    try:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.1:
            sum(range(1000))
        end = time.perf_counter()
    finally:
        probe.stop()
    assert len(probe.samples) >= 5
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0.0 < probe.reference_seconds(start, end)
