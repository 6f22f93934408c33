import gc
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import derivation, derivation_counts
from mergeforge.benchmark import make_instance, score
from mergeforge.dsl.interp import default_budget
from mergeforge.dsl.parser import MAX_SOURCE_CHARS
from mergeforge.dsl.program import compile_program
from mergeforge.generator.policy import GeneratorPolicy, Production, default_grammar, sample_program
from mergeforge.pipeline import (
    CATEGORIES,
    DUPLICATE,
    NO_FUNCTION_EXTRACTED,
    NON_EXECUTABLE,
    SUCCESS,
    TIMEOUT,
    PreferencePair,
    RefineConfig,
    ScoredAlgorithm,
    build_preferences,
    category_counts,
    exact_text_duplicates,
    filter_candidates,
    nearest_rank_thresholds,
    refine_policy,
    score_program,
    select_preference_sets,
    top_k_carryover,
)


@pytest.fixture(scope="module")
def instance():
    return make_instance(17, d=16, k=3, component_noise=0.05, probe_counts=(30, 30))


def _filter(instance, candidates, budget=None, **kwargs):
    budget = budget or default_budget(instance.config.k, instance.config.d)
    return filter_candidates(
        candidates,
        kwargs.pop("seen", set()),
        budget,
        instance.task_vectors(),
        instance.seed_model,
        instance.dev_probes,
        instance.dev_baseline_mse,
        **kwargs,
    )


def _deep_program(n_adds=40):
    expr = "models[0]"
    for _ in range(n_adds):
        expr = f"add({expr}, models[1])"
    return f"merge(models) = {expr}"


def test_five_category_batch(instance):
    batch = [
        "merge(models) = add(models[0], models[1])",  # valid
        "merge(models) = add(models[1], models[0])",  # same semantics as first
        "merge(models) = add(models[0]",              # unparseable
        _deep_program(),                              # budget buster
        "merge(models) = mean_stack(models)",         # valid
    ]
    outcomes = _filter(instance, batch, budget=60)
    assert [o.category for o in outcomes] == [
        SUCCESS, DUPLICATE, NON_EXECUTABLE, TIMEOUT, SUCCESS,
    ]
    assert outcomes[0].dev_score is not None
    assert outcomes[2].reason is not None


@pytest.mark.parametrize("n,memo_lines", [(1, 0), (2, 1)])
def test_only_a_batch_of_several_candidates_uses_the_memo(instance, caplog, n, memo_lines):
    # a single candidate's own repeats save less than the memo's lookups cost
    batch = [
        "merge(models) = add(norm2(models[1]) * models[0], norm2(models[1]) * models[2])",
        "merge(models) = mean_stack(models)",
    ][:n]
    with caplog.at_level("INFO", logger="mergeforge.pipeline"):
        assert [o.category for o in _filter(instance, batch)] == [SUCCESS] * n
    assert sum("interpreter memo:" in r.getMessage() for r in caplog.records) == memo_lines


@pytest.mark.parametrize("n", [1, 5])
def test_filter_candidates_leaves_no_reference_cycles(instance, n):
    # five categories in a batch, which shares a memo; one candidate runs without
    batch = [
        "merge(models) = add(models[0], models[1])",
        "merge(models) = add(models[1], models[0])",
        "merge(models) = add(models[0]",
        _deep_program(),
        "merge(models) = add(models[0], models[7])",
    ][-n:]
    gc.collect()
    gc.disable()
    try:
        _filter(instance, batch, budget=60)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_no_function_extracted_category(instance):
    outcomes = _filter(
        instance,
        ["no code fence here", "```\nmerge(models) = models[0]\n```"],
        extract_from_raw=True,
    )
    assert [o.category for o in outcomes] == [NO_FUNCTION_EXTRACTED, SUCCESS]


def test_runtime_failure_is_non_executable(instance):
    outcomes = _filter(instance, ["merge(models) = models[9]"])
    assert outcomes[0].category == NON_EXECUTABLE
    assert "out of range" in outcomes[0].reason


def test_index_too_long_for_int_is_non_executable(instance):
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    [outcome] = _filter(instance, [f"merge(models) = models[{digits}]"])
    assert outcome.category == NON_EXECUTABLE
    assert outcome.reason == "1:24: model index is too long"


def test_text_over_max_source_chars_is_non_executable(instance):
    at_cap = "merge(models) = models[0]".ljust(MAX_SOURCE_CHARS)
    over = at_cap + "\n"
    outcomes = _filter(instance, [at_cap, over])
    assert [o.category for o in outcomes] == [SUCCESS, NON_EXECUTABLE]
    assert outcomes[1].reason == (
        f"1:1: program text is {MAX_SOURCE_CHARS + 1} characters, over the limit of {MAX_SOURCE_CHARS}"
    )


def test_overflowing_literal_compiles_and_is_non_executable(instance):
    source = "merge(models) = scale(1e308 * 10.0, models[0])"
    compile_program(source)  # the canonical form folds the literal to inf
    [outcome] = _filter(instance, [source])
    assert outcome.category == NON_EXECUTABLE
    assert outcome.program is not None and "non-finite" in outcome.reason


@pytest.mark.parametrize("literal", ["1e308 * 10.0", "1e999"])
def test_a_non_finite_literal_is_not_folded_away(instance, literal):
    # min(max(inf, 0.1), 0.9) is 0.9, but the interpreter fails on the inf
    failing = f"merge(models) = scale(clamp({literal}, 0.1, 0.9), models[0])"
    valid = "merge(models) = scale(0.9, models[0])"
    assert compile_program(failing).canonical_hash != compile_program(valid).canonical_hash
    outcomes = _filter(instance, [failing, valid])
    assert [o.category for o in outcomes] == [NON_EXECUTABLE, SUCCESS]


_FRAGMENTS = (
    "add(", "scale(", "ones(", "clamp(", "cos(", "fold(", "tail(", "mean_stack(",
    "models", "models[0]", "models[2]", "[", "]", "(", ")", ", ", " + ", " - ", " * ",
    "-", "0.5", "1e308", "(acc, x) -> ", "acc", "x", "# note\n", "\n", "=",
)


def _fenced(body):
    return f"Try this:\n```\nmerge(models) = {body}\n```\n"


_untrusted_text = st.one_of(
    st.text(max_size=200),
    st.lists(st.sampled_from(_FRAGMENTS), max_size=200).map("".join).map(_fenced),
    # Hypothesis raises the recursion limit while a test runs, so nesting
    # goes far past the depth that exhausts Python's default stack.
    st.builds(
        lambda opened, closed: _fenced("add(" * opened + "models[0]" + ", models[1])" * closed),
        st.integers(0, 5000), st.integers(0, 5000),
    ),
)


@settings(max_examples=40, deadline=None)
@given(texts=st.lists(_untrusted_text, max_size=4))
def test_arbitrary_text_lands_in_exactly_one_category(instance, texts):
    outcomes = _filter(instance, texts, budget=2000, extract_from_raw=True)
    assert len(outcomes) == len(texts)
    assert all(o.category in CATEGORIES for o in outcomes)


def test_empty_batch(instance):
    assert _filter(instance, []) == []


def test_category_counts_partition_fuzzed_batch(instance):
    policy = GeneratorPolicy.initial(default_grammar(instance.config.k))
    rng = np.random.default_rng(5)
    batch = []
    for i in range(1000):
        roll = rng.random()
        source, _ = sample_program(policy, 1.2, np.random.default_rng((9, i)))
        if roll < 0.55:
            batch.append(f"prose...\n```\n{source}\n```\nmore prose")
        elif roll < 0.70:
            batch.append("no code at all")
        elif roll < 0.80:
            batch.append(f"```\n{source[: int(rng.integers(5, len(source)))]}\n```")
        elif roll < 0.90:
            batch.append(f"```\n{_deep_program(60)}\n```")
        else:
            batch.append(batch[-1] if batch else "x")
    outcomes = _filter(instance, batch, budget=80, extract_from_raw=True)
    counts = category_counts(outcomes)
    assert sum(counts.values()) == 1000
    assert set(counts) == set(CATEGORIES)
    assert all(v >= 0 for v in counts.values())


def test_duplicates_detected_across_batches(instance):
    seen = set()
    first = _filter(instance, ["merge(models) = models[0]"], seen=seen)
    second = _filter(instance, ["merge(models) = models[0]"], seen=seen)
    assert first[0].category == SUCCESS
    assert second[0].category == DUPLICATE


def test_typecheck_failures_do_not_poison_duplicates(instance):
    outcomes = _filter(
        instance,
        ["merge(models) = mean_elem(models[0])", "merge(models) = mean_elem(models[0])"],
    )
    # unparseable/ill-typed candidates carry no hash: both are non-executable
    assert [o.category for o in outcomes] == [NON_EXECUTABLE, NON_EXECUTABLE]


_SEEN_BEFORE = "merge(models) = mean_stack(models)"
_MEMO_PROGRAMS = [
    "merge(models) = add(models[0], models[1])",  # success
    _deep_program(),                              # timeout under a budget of 60
    "merge(models) = add(models[0]",              # parse error
    "merge(models) = mean_elem(models[0])",       # type error
    "merge(models) = models[9]",                  # runtime error
    _SEEN_BEFORE,                                 # hash in the incoming set
]


def _outcome_key(o):
    return (o.category, o.program.canonical_hash if o.program else None,
            o.dev_score, o.reason, o.source)


@pytest.mark.parametrize("extract_from_raw", [False, True])
def test_repeats_in_one_call_match_one_call_per_text(instance, monkeypatch, extract_from_raw):
    import mergeforge.pipeline as pipeline

    texts = list(_MEMO_PROGRAMS)
    if extract_from_raw:
        texts = [f"```\n{src}\n```" for src in texts] + [
            "prose only, no fence",              # no_function_extracted
            f"Another idea:\n```merge\n{_MEMO_PROGRAMS[0]}\n```",  # same source, other raw
        ]
    batch = texts + texts[::-1] + texts
    seen_before = {compile_program(_SEEN_BEFORE).canonical_hash}
    budget = 60

    seen_single = set(seen_before)
    single = [
        _filter(instance, [text], budget=budget, seen=seen_single, extract_from_raw=extract_from_raw)[0]
        for text in batch
    ]
    sources = []
    compile_program_ = pipeline.compile_program
    monkeypatch.setattr(pipeline, "compile_program",
                        lambda source, **kw: sources.append(source) or compile_program_(source, **kw))
    seen_batch = set(seen_before)
    whole = _filter(instance, batch, budget=budget, seen=seen_batch, extract_from_raw=extract_from_raw)

    assert [_outcome_key(o) for o in whole] == [_outcome_key(o) for o in single]
    assert seen_batch == seen_single
    assert sorted(sources) == sorted(set(_MEMO_PROGRAMS))  # each distinct source compiled once
    first = [o.category for o in whole[:len(_MEMO_PROGRAMS)]]
    assert first == [SUCCESS, TIMEOUT, NON_EXECUTABLE, NON_EXECUTABLE, NON_EXECUTABLE, DUPLICATE]
    last = [o.category for o in whole[-len(texts):][:len(_MEMO_PROGRAMS)]]
    assert last == [DUPLICATE, DUPLICATE, NON_EXECUTABLE, NON_EXECUTABLE, DUPLICATE, DUPLICATE]
    assert set(o.category for o in whole) == set(CATEGORIES) - (
        set() if extract_from_raw else {NO_FUNCTION_EXTRACTED}
    )


def _dev_score(instance, program):
    return score_program(
        program, instance.task_vectors(), instance.seed_model,
        instance.dev_probes, instance.dev_baseline_mse, default_budget(3, 16),
    )


def test_evaluate_candidates_identity_matches_direct_scoring(instance):
    program = compile_program("merge(models) = models[0]")
    direct = score(instance.candidates[0], instance.dev_probes, instance.dev_baseline_mse)
    assert _dev_score(instance, program) == pytest.approx(direct, abs=1e-9)


def test_evaluate_candidates_fixture_matches_core(instance):
    from conftest import load_corpus_program, mean_fold_merge
    from mergeforge.core import apply_merged

    program = load_corpus_program("mean_shift_fold")
    merged = apply_merged(instance.seed_model, mean_fold_merge(instance.task_vectors()))
    want = score(merged, instance.dev_probes, instance.dev_baseline_mse)
    assert _dev_score(instance, program) == pytest.approx(want, abs=1e-12)


# -- preference construction --------------------------------------------------

_POLICY = GeneratorPolicy.initial(default_grammar(3))


def _alg(src, dev_score, iteration=1):
    """A scored program with the draws the sampler makes for ``src`` under ``default_grammar(3)``."""
    program = compile_program(src)
    return ScoredAlgorithm(program, float(dev_score), iteration, derivation(_POLICY, program.ast))


def _scored_from_values(values, iteration=1):
    # distinct programs via distinct scale factors, most outside the literal palette
    return [
        ScoredAlgorithm(compile_program(f"merge(models) = scale({float(v)!r}, models[0])"), v, iteration, ())
        for v in values
    ]


def _oracle_sets(values, p_w, p_l):
    """Top/bottom counts by nearest rank, ties at the threshold included."""
    desc = sorted(values, reverse=True)
    n_w = max(1, math.ceil(Fraction(p_w) / 100 * len(values)))
    n_l = max(1, math.ceil(Fraction(p_l) / 100 * len(values)))
    chosen_floor = desc[n_w - 1]
    rejected_ceiling = sorted(values)[n_l - 1]
    return (
        {v for v in values if v >= chosen_floor},
        {v for v in values if v <= rejected_ceiling},
    )


def test_hundred_scores_nearest_rank():
    values = list(range(1, 101))
    s_pw, s_pl = nearest_rank_thresholds(values, 3.0, 10.0)
    assert s_pw == 98 and s_pl == 10
    scored = _scored_from_values(values)
    chosen, rejected = select_preference_sets(scored, [], RefineConfig(k=0))
    assert {a.dev_score for a in chosen} == {98, 99, 100}
    assert {a.dev_score for a in rejected} == set(range(1, 11))


# At p = 7, 7 / 100 * n lies above the exact count for n = 100, 200 and 3000,
# and at n = 200 the values at the two ranks differ, so a float count shows.
@pytest.mark.parametrize("n", [37, 100, 200, 250, 3000])
@pytest.mark.parametrize("p_w,p_l", [(3.0, 10.0), (5.0, 20.0), (1.0, 1.0), (7.0, 7.0)])
def test_thresholds_match_oracle(n, p_w, p_l):
    rng = np.random.default_rng(n)
    values = [float(v) for v in rng.integers(0, 50, size=n)]  # plenty of ties
    s_pw, s_pl = nearest_rank_thresholds(values, p_w, p_l)
    chosen_oracle, rejected_oracle = _oracle_sets(values, p_w, p_l)
    assert {v for v in values if v >= s_pw} == chosen_oracle
    assert {v for v in values if v <= s_pl} == rejected_oracle


def test_tie_values_at_threshold_all_included():
    values = [10.0, 10.0, 10.0, 50.0, 90.0, 90.0]
    s_pw, s_pl = nearest_rank_thresholds(values, 20.0, 20.0)
    assert s_pw == 90.0 and s_pl == 10.0
    assert sum(1 for v in values if v >= s_pw) == 2
    assert sum(1 for v in values if v <= s_pl) == 3


def test_all_equal_scores_yield_no_pairs(caplog):
    scored = _scored_from_values([5.0] * 10)
    cfg = RefineConfig(k=0)
    chosen, rejected = select_preference_sets(scored, [], cfg)
    with caplog.at_level("WARNING"):
        pairs = build_preferences(chosen, rejected, cfg, np.random.default_rng(0))
    assert pairs == []
    assert "no usable preference pairs" in caplog.text


def test_carryover_top_k():
    pool = _scored_from_values([95.0, 99.0, 80.0, 97.0], iteration=1)
    top = top_k_carryover(pool, 3)
    assert [a.dev_score for a in top] == [99.0, 97.0, 95.0]


def test_carryover_k_zero_takes_nothing():
    pool = _scored_from_values([95.0, 99.0, 80.0], iteration=1)
    assert top_k_carryover(pool, 0) == []
    scored = _scored_from_values(list(range(1, 101)), iteration=2)
    chosen, _ = select_preference_sets(scored, pool, RefineConfig(k=0))
    assert {a.dev_score for a in chosen} == {98.0, 99.0, 100.0}


def test_carryover_added_to_chosen():
    scored = _scored_from_values(list(range(1, 101)), iteration=2)
    pool = [
        _alg("merge(models) = mean_stack(models)", 99.5, 1),
        _alg("merge(models) = sum_stack(models)", 42.0, 1),
        _alg("merge(models) = models[1]", 77.0, 1),
        _alg("merge(models) = models[2]", 60.0, 1),
    ]
    chosen, _ = select_preference_sets(scored, pool, RefineConfig(k=3))
    assert {a.dev_score for a in chosen} == {98.0, 99.0, 100.0, 99.5, 77.0, 60.0}


def test_carryover_deduplicates_against_chosen_by_hash():
    scored = _scored_from_values([1.0, 2.0, 3.0, 100.0])
    dup = ScoredAlgorithm(scored[-1].program, 100.0, 1, ())
    chosen, _ = select_preference_sets(scored, [dup], RefineConfig(k=3))
    assert len([a for a in chosen if a.program.canonical_hash == dup.program.canonical_hash]) == 1


def test_pair_validity_and_determinism():
    rng_values = np.random.default_rng(3)
    values = [float(v) for v in rng_values.integers(0, 100, size=60)]
    scored = _scored_from_values(values)
    cfg = RefineConfig()
    chosen, rejected = select_preference_sets(scored, [], cfg)
    pairs_a = build_preferences(chosen, rejected, cfg, np.random.default_rng(12))
    pairs_b = build_preferences(chosen, rejected, cfg, np.random.default_rng(12))
    assert pairs_a == pairs_b
    assert pairs_a
    member_hashes = {a.program.canonical_hash for a in scored}
    for pair in pairs_a:
        assert pair.chosen.dev_score > pair.rejected.dev_score
        assert pair.chosen.program.canonical_hash != pair.rejected.program.canonical_hash
        assert pair.chosen.program.canonical_hash in member_hashes
        assert pair.rejected.program.canonical_hash in member_hashes


def test_sample_count_per_chosen():
    values = list(range(1, 101))
    scored = _scored_from_values(values)
    cfg = RefineConfig(s=3, k=0)
    chosen, rejected = select_preference_sets(scored, [], cfg)
    pairs = build_preferences(chosen, rejected, cfg, np.random.default_rng(5))
    per_chosen = {}
    for pair in pairs:
        per_chosen.setdefault(pair.chosen.dev_score, []).append(pair.rejected.dev_score)
    assert set(per_chosen) == {98.0, 99.0, 100.0}
    for rejected in per_chosen.values():
        assert len(rejected) == 3
        assert len(set(rejected)) == 3  # without replacement


def test_build_preferences_requires_two_scored():
    with pytest.raises(ValueError):
        select_preference_sets(_scored_from_values([1.0]), [], RefineConfig())


def test_refine_config_validation():
    with pytest.raises(ValueError):
        RefineConfig(p_w=0.0)
    with pytest.raises(ValueError):
        RefineConfig(p_l=100.0)
    with pytest.raises(ValueError):
        RefineConfig(s=0)
    with pytest.raises(ValueError):
        RefineConfig(k=-1)
    with pytest.raises(ValueError):
        RefineConfig(eta=0.0)


# -- policy refinement ---------------------------------------------------------

def _pair(chosen_src, rejected_src):
    return PreferencePair(
        chosen=_alg(chosen_src, 90.0),
        rejected=_alg(rejected_src, 5.0),
    )


def test_refinement_raises_used_production():
    policy = GeneratorPolicy.initial(default_grammar(3))
    pair = _pair("merge(models) = mean_stack(models)", "merge(models) = models[0]")
    refined = refine_policy(policy, [pair], eta=0.1)
    assert refined.logits["V->mean_stack"] > policy.logits["V->mean_stack"]
    assert refined.logits["V->models[0]"] < policy.logits["V->models[0]"]
    assert refined.version == policy.version + 1


def test_identical_usage_vectors_cancel():
    policy = GeneratorPolicy.initial(default_grammar(3))
    pair = _pair("merge(models) = add(models[0], models[1])",
                 "merge(models) = add(models[1], models[0])")
    refined = refine_policy(policy, [pair], eta=0.5)
    assert refined.logits == policy.logits
    assert refined.version == policy.version + 1


def test_eta_zero_only_bumps_version():
    policy = GeneratorPolicy.initial(default_grammar(3))
    pair = _pair("merge(models) = mean_stack(models)", "merge(models) = models[0]")
    refined = refine_policy(policy, [pair], eta=0.0)
    assert refined.logits == policy.logits
    assert refined.version == policy.version + 1


def test_refinement_sums_each_pairs_usage():
    policy = GeneratorPolicy.initial(default_grammar(3))
    best = _alg("merge(models) = fold(tail(models), models[0], (acc, x) -> "
                "scale(clamp(0.3, 0.1, 0.9), add(acc, x)))", 90.0)
    worst = _alg("merge(models) = models[2]", 1.0)
    rejected = [_alg(src, 5.0) for src in (
        "merge(models) = models[0]",
        "merge(models) = scale(norm2(models[1]), sub(models[0], models[1]))",
        "merge(models) = mean_stack(tail(models))",
    )]
    pairs = [PreferencePair(best, r) for r in rejected] + [PreferencePair(rejected[2], worst)]
    eta = 0.3
    expected = dict(policy.logits)
    for pair in pairs:
        usage = []
        for alg in (pair.chosen, pair.rejected):
            counts = derivation_counts(policy, alg.program.ast)
            usage.append({pid: c / sum(counts.values()) for pid, c in counts.items()})
        for pid in set(usage[0]) | set(usage[1]):
            expected[pid] += eta * (usage[0].get(pid, 0.0) - usage[1].get(pid, 0.0))
    expected = {pid: float(np.clip(v, -10.0, 10.0)) for pid, v in expected.items()}
    assert refine_policy(policy, pairs, eta).logits == expected


def test_refinement_credits_the_production_drawn():
    # two productions spell models[0]; the first, by grammar order, is V->models[0]
    grammar = default_grammar(3)
    grammar["V"] = grammar["V"] + [Production("V->m0", "model", "models[0]")]
    policy = GeneratorPolicy.initial(grammar)
    policy = policy.with_logits({**policy.logits, "V->m0": 8.0})
    text, drawn = sample_program(policy, 1.0, np.random.default_rng(0))
    assert (text, drawn) == ("merge(models) = models[0]", ("V->m0",))
    assert derivation(policy, compile_program(text).ast) == ("V->models[0]",)  # what re-deriving credits
    chosen = ScoredAlgorithm(compile_program(text), 90.0, 1, drawn)
    rejected = ScoredAlgorithm(compile_program("merge(models) = models[1]"), 5.0, 1, ("V->models[1]",))
    refined = refine_policy(policy, [PreferencePair(chosen, rejected)], eta=0.5)
    assert refined.logits["V->m0"] == policy.logits["V->m0"] + 0.5
    assert refined.logits["V->models[0]"] == policy.logits["V->models[0]"]
    assert refined.logits["V->models[1]"] == policy.logits["V->models[1]"] - 0.5


def test_pair_without_draws_raises():
    # remote text has no draws; the driver never refines on it
    policy = GeneratorPolicy.initial(default_grammar(3))
    remote = ScoredAlgorithm(compile_program("merge(models) = models[1]"), 90.0, 1, ())
    pair = PreferencePair(remote, _alg("merge(models) = models[0]", 5.0))
    with pytest.raises(ValueError, match="no drawn productions"):
        refine_policy(policy, [pair], eta=0.5)


def test_logits_clipped():
    policy = GeneratorPolicy.initial(default_grammar(3))
    pair = _pair("merge(models) = mean_stack(models)", "merge(models) = models[0]")
    refined = refine_policy(policy, [pair] * 100, eta=10.0)
    assert max(refined.logits.values()) <= 10.0
    assert min(refined.logits.values()) >= -10.0


def test_refine_requires_pairs():
    policy = GeneratorPolicy.initial(default_grammar(3))
    with pytest.raises(ValueError):
        refine_policy(policy, [], eta=0.1)


def test_exact_text_duplicates():
    assert exact_text_duplicates(["a", "b", "a", "a", "c"]) == 2
    assert exact_text_duplicates([]) == 0
