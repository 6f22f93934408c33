import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_corpus_program, mean_fold_merge
from mergeforge.core import task_arithmetic
from mergeforge.dsl import (
    OP_TABLE,
    BudgetExceeded,
    DslRuntimeError,
    EvalBudget,
    Memo,
    compile_program,
    default_budget,
    evaluate,
)
from mergeforge.dsl.interp import MEMO_MAX_BYTES
from mergeforge.generator import GeneratorPolicy, default_grammar, sample_program

BIG = EvalBudget(100_000)


def run(src, models, budget=BIG):
    return evaluate(compile_program(src).ast, models, budget)


def test_mean_fold_fixture_two_models():
    program = load_corpus_program("mean_shift_fold")
    out = evaluate(program.ast, [np.array([1.0, 2.0]), np.array([3.0, 5.0])], BIG)
    assert np.array_equal(out, [2.5, 3.0])


def test_mean_fold_fixture_matches_reference_on_random_instances():
    program = load_corpus_program("mean_shift_fold")
    rng = np.random.default_rng(99)
    for _ in range(100):
        k, d = int(rng.integers(1, 7)), int(rng.integers(2, 33))
        taus = [rng.normal(size=d) for _ in range(k)]
        got = evaluate(program.ast, taus, BIG)
        assert np.max(np.abs(got - mean_fold_merge(taus))) <= 1e-12


def test_weighted_sum_fixture_matches_reference():
    program = load_corpus_program("weighted_sum_three")
    rng = np.random.default_rng(41)
    for _ in range(100):
        d = int(rng.integers(2, 17))
        taus = [rng.normal(size=d) for _ in range(3)]
        got = evaluate(program.ast, taus, BIG)
        want = task_arithmetic(taus, [0.2, 0.4, 0.6])
        assert np.max(np.abs(got - want)) <= 1e-12


def test_index_out_of_range():
    with pytest.raises(DslRuntimeError, match="out of range"):
        run("merge(models) = models[5]", [np.ones(2)] * 3)


def test_budget_one_with_two_nodes_times_out():
    with pytest.raises(BudgetExceeded):
        run("merge(models) = add(models[0], models[1])", [np.ones(2)] * 2, EvalBudget(1))


def test_budget_one_single_node_succeeds():
    out = run("merge(models) = models[0]", [np.ones(2)] * 2, EvalBudget(1))
    assert np.array_equal(out, [1.0, 1.0])


def test_budget_monotonicity():
    src = (
        "merge(models) = fold(models, models[0], "
        "(acc, x) -> add(scale(0.5, acc), scale(0.5, x)))"
    )
    models = [np.arange(4.0), np.ones(4), np.full(4, 2.0)]
    program = compile_program(src)
    floor = None
    for steps in range(1, 200):
        try:
            baseline = evaluate(program.ast, models, EvalBudget(steps))
            floor = steps
            break
        except BudgetExceeded:
            continue
    assert floor is not None
    for extra in (1, 7, 1000):
        again = evaluate(program.ast, models, EvalBudget(floor + extra))
        assert np.array_equal(again, baseline)


def test_determinism_bit_for_bit():
    program = load_corpus_program("cosine_blend_fold")
    models = [np.linspace(-1, 1, 8), np.linspace(0, 2, 8), np.ones(8)]
    a = evaluate(program.ast, models, BIG)
    b = evaluate(program.ast, models, BIG)
    assert a.tobytes() == b.tobytes()


def test_non_finite_intermediate_is_runtime_error():
    with pytest.raises(DslRuntimeError, match="non-finite"):
        run("merge(models) = scale(1e308, scale(1e308, models[0]))", [np.ones(2)])


def test_non_finite_scalar_is_runtime_error():
    # norm1 of two finite 1e308 entries overflows to a float inf
    with pytest.raises(DslRuntimeError, match="^non-finite intermediate value$"):
        run("merge(models) = ones(norm1(scale(1e308, models[0])))", [np.ones(2)])


def test_cos_of_zero_vector_is_runtime_error():
    with pytest.raises(DslRuntimeError, match="zero vector"):
        run(
            "merge(models) = scale(cos(sub(models[0], models[0]), models[1]), models[0])",
            [np.ones(2), np.ones(2)],
        )


def test_op_semantics_spot_checks():
    a, b = np.array([1.0, -2.0]), np.array([3.0, 1.0])
    assert np.array_equal(run("merge(models) = emax(models[0], models[1])", [a, b]), [3.0, 1.0])
    assert np.array_equal(run("merge(models) = emin(models[0], models[1])", [a, b]), [1.0, -2.0])
    assert np.array_equal(run("merge(models) = hadamard(models[0], models[1])", [a, b]), [3.0, -2.0])
    assert np.array_equal(run("merge(models) = ones(mean_elem(models[0]))", [a, b]), [-0.5, -0.5])
    assert np.array_equal(
        run("merge(models) = scale(norm1(models[0]), models[1])", [a, b]), [9.0, 3.0]
    )
    assert np.allclose(
        run("merge(models) = scale(norm2(models[1]), models[1])", [a, b]),
        np.sqrt(10.0) * b,
    )
    assert np.array_equal(
        run("merge(models) = scale(clamp(5.0, 0.0, 2.0), models[0])", [a, b]), 2.0 * a
    )
    assert np.array_equal(
        run("merge(models) = scale(length(models), models[0])", [a, b]), 2.0 * a
    )
    assert np.array_equal(run("merge(models) = mean_stack(tail(models))", [a, b]), b)
    assert np.array_equal(run("merge(models) = sum_stack(models)", [a, b]), a + b)


def test_sum_stack_of_empty_list_is_zero_vector():
    out = run("merge(models) = sum_stack(tail(tail(models)))", [np.ones(3), np.ones(3)])
    assert np.array_equal(out, np.zeros(3))


def test_mean_stack_of_empty_list_is_runtime_error():
    with pytest.raises(DslRuntimeError, match="empty"):
        run("merge(models) = mean_stack(tail(tail(models)))", [np.ones(3), np.ones(3)])


def test_infix_matches_named_ops():
    models = [np.array([1.0, 2.0]), np.array([3.0, -1.0])]
    infix = run("merge(models) = models[0] + 0.5 * models[1] - models[0] * models[1]", models)
    named = run(
        "merge(models) = sub(add(models[0], scale(0.5, models[1])), hadamard(models[0], models[1]))",
        models,
    )
    assert np.array_equal(infix, named)


def test_vector_times_scalar_matches_scale():
    models = [np.array([1.0, 2.0])]
    assert np.array_equal(
        run("merge(models) = models[0] * 0.25", models),
        run("merge(models) = scale(0.25, models[0])", models),
    )


def test_vector_times_scalar_evaluates_the_scalar_first():
    # v * s is scale(s, v), so the failing scalar operand is reported
    with pytest.raises(DslRuntimeError, match=r"models\[7\] out of range"):
        run("merge(models) = models[5] * norm2(models[7])", [np.ones(2)] * 3)


def test_default_budget_scales_with_problem_size():
    assert default_budget(3, 64).max_steps == 10_000 * 3 * 64


def test_budget_validation():
    with pytest.raises(ValueError):
        EvalBudget(0)


def test_mismatched_model_shapes_rejected():
    program = compile_program("merge(models) = models[0]")
    with pytest.raises(ValueError):
        evaluate(program.ast, [np.ones(2), np.ones(3)], BIG)


# Reference forms of the reductions, as the op table computed them before.
OLD_REDUCTIONS = {
    "sum_stack": lambda vs: np.sum(np.stack(vs), axis=0),
    "mean_stack": lambda vs: np.mean(np.stack(vs), axis=0),
    "mean_elem": lambda v: float(np.mean(v)),
    "norm1": lambda v: float(np.sum(np.abs(v))),
}


@pytest.mark.parametrize("d", [1, 2, 64, 65536])
def test_reductions_are_bit_identical_to_their_reference_forms(d):
    rng = np.random.default_rng(d)
    # magnitudes from 1e-300 to 1e307, and one float max, so long sums overflow to inf
    pool = [rng.uniform(-1, 1, size=d) * 10.0 ** rng.uniform(-300, 307, size=d) for _ in range(40)]
    pool[0][0] = np.finfo(np.float64).max
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, len(pool) + 1):
            vs = pool[:n]
            for name in ("sum_stack", "mean_stack"):
                got = OP_TABLE[name].fn(d, vs)
                assert got.tobytes() == OLD_REDUCTIONS[name](vs).tobytes(), (name, n)
            for name in ("mean_elem", "norm1"):
                got = np.float64(OP_TABLE[name].fn(d, vs[-1]))
                want = np.float64(OLD_REDUCTIONS[name](vs[-1]))
                assert got.tobytes() == want.tobytes(), (name, n)


def _outcome(root, models, steps, memo):
    try:
        return evaluate(root, models, EvalBudget(steps), memo).tobytes()
    except BudgetExceeded:
        return "timeout"
    except DslRuntimeError as exc:
        return f"error: {exc}"


def _steps_charged(root, models, memo, cap=200):
    """The smallest budget that does not time out, or None when it exceeds ``cap``.

    A run that ends with a value or an error has ``budget - this`` steps left.
    """
    if _outcome(root, models, cap, memo) == "timeout":
        return None
    lo, hi = 1, cap
    while lo < hi:
        mid = (lo + hi) // 2
        if _outcome(root, models, mid, memo) == "timeout":
            lo = mid + 1
        else:
            hi = mid
    return lo


_SAMPLER = GeneratorPolicy.initial(default_grammar(3), max_depth=5)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    budgets=st.lists(st.integers(1, 200), min_size=1, max_size=25),
    exponent=st.sampled_from([0, 150, 300]),
    zero_model=st.booleans(),
)
def test_memo_outcomes_equal_memo_free_evaluate(seed, budgets, exponent, zero_model):
    rng = np.random.default_rng(seed)
    models = [rng.normal(size=4) * 10.0**exponent for _ in range(3)]
    if zero_model:
        models[2] = np.zeros(4)  # cos of a zero vector fails
    memo = Memo()
    for steps in budgets:
        root = compile_program(sample_program(_SAMPLER, 1.5, rng)).ast
        assert _outcome(root, models, steps, memo) == _outcome(root, models, steps, None)
        assert _steps_charged(root, models, memo) == _steps_charged(root, models, None)


def test_memo_replays_a_stored_error_with_its_text():
    models = [np.ones(2), np.zeros(2)]
    memo = Memo()
    first = compile_program("merge(models) = scale(cos(models[0], models[1]), models[0])").ast
    second = compile_program("merge(models) = add(ones(cos(models[0], models[1])), models[0])").ast
    assert _outcome(first, models, 100, memo) == "error: cosine of a zero vector"
    hits = memo.hits
    assert _outcome(second, models, 100, memo) == "error: cosine of a zero vector"
    assert memo.hits == hits + 1


def test_memo_hit_with_too_few_steps_left_times_out():
    models = [np.ones(2), np.full(2, 2.0)]
    shared = "fold(models, models[0], (acc, x) -> add(acc, x))"
    memo = Memo()
    first = compile_program(f"merge(models) = scale(2.0, {shared})").ast
    second = compile_program(f"merge(models) = sub({shared}, models[1])").ast
    _outcome(first, models, 100, memo)
    charged = _steps_charged(second, models, None)
    hits = memo.hits
    # one step fewer than the program needs runs out inside the replayed fold
    assert _outcome(second, models, charged - 1, memo) == "timeout"
    assert memo.hits == hits + 1
    assert _outcome(second, models, charged, memo) == _outcome(second, models, charged, None)


@pytest.mark.parametrize("folds", [  # fold texts, then how many memo entries they share
    # alpha-renamed copies of one fold: one entry
    (["(acc, x) -> emax(acc, scale(0.5, x))", "(a, b) -> emax(a, scale(0.5, b))",
      "(x, acc) -> emax(x, scale(0.5, acc))"], 1),
    # one body text under swapped binders: two different folds
    (["(acc, x) -> emax(acc, scale(0.5, x))", "(x, acc) -> emax(acc, scale(0.5, x))"], 2),
    # an inner fold that reads the outer binder is not closed: only the outer folds are keyed
    (["(acc, x) -> fold(models, models[2], (a, b) -> add(a, scale(0.5, x)))",
      "(acc, x) -> fold(tail(models), acc, (a, b) -> emin(a, b))"], 2),
])
def test_memo_closed_folds_under_renamed_and_shadowing_binders(folds):
    texts, entries = folds
    models = [np.array([1.0, -2.0]), np.array([0.5, 3.0]), np.array([2.0, 2.0])]
    memo = Memo()
    for fold in texts:
        root = compile_program(f"merge(models) = sub(fold(models, models[0], {fold}), models[1])").ast
        assert _outcome(root, models, 1000, memo) == _outcome(root, models, 1000, None)
        assert _steps_charged(root, models, memo, 1000) == _steps_charged(root, models, None, 1000)
    assert sum(key.startswith("fold(") for key in memo.table) == entries


def test_memo_closed_subtree_in_a_fold_body_hits_on_every_element():
    models = [np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, 6.0])]
    root = compile_program(
        "merge(models) = fold(models, models[0], (acc, x) -> add(acc, scale(norm2(models[1]), x)))"
    ).ast
    memo = Memo()
    assert _outcome(root, models, 1000, memo) == _outcome(root, models, 1000, None)
    # scale(...) depends on x; norm2(models[1]) is closed: one miss, then a hit per element
    assert (memo.misses, memo.hits) == (1, len(models) - 1)
    assert _steps_charged(root, models, memo, 1000) == _steps_charged(root, models, None, 1000)


@pytest.mark.parametrize("src,keys", [
    # a closed subtree inside a fold body
    ("fold(models, models[0], (acc, x) -> add(acc, scale(norm2(models[1]), x)))",
     ["norm2(models[1])"]),
    # an inner fold whose body reads the outer binder x is not closed
    ("fold(models, models[0], (acc, x) -> fold(tail(models), acc, (a, b) -> add(a, scale(0.5, x))))",
     ["tail(models)"]),
    # an inner fold that shadows x reads only its own binders: closed
    ("fold(models, models[0], (acc, x) -> add(x, fold(models, models[1], (a, x) -> emax(a, x))))",
     ["fold(models,models[1],emax($0.0,$0.1))"]),
    # the root is closed but never stored: a repeated program is a duplicate
    ("scale(2.0, add(models[0], models[1]))", ["add(models[0],models[1])"]),
    ("add(models[0], models[1])", []),
])
def test_memo_keys_are_the_exact_texts_of_closed_subtrees(src, keys):
    models = [np.array([1.0, -2.0]), np.array([0.5, 3.0]), np.array([2.0, 2.0])]
    memo = Memo()
    evaluate(compile_program(f"merge(models) = {src}").ast, models, BIG, memo)
    assert sorted(memo.table) == sorted(keys)


def test_memo_stops_storing_vectors_at_its_byte_cap():
    d = MEMO_MAX_BYTES // 8 // 2 + 1  # two such vectors exceed the cap
    models = [np.ones(d), np.full(d, 2.0)]
    memo = Memo()
    root = compile_program(
        "merge(models) = add(add(models[0], models[1]), sub(models[0], models[1]))"
    ).ast
    evaluate(root, models, BIG, memo)
    assert memo.nbytes == len("add(models[0],models[1])") + 8 * d <= MEMO_MAX_BYTES
    assert len(memo.table) == 1


def test_memo_counts_deep_chain_keys_against_its_byte_cap():
    # each closed subtree's key holds the text of all below it, so a chain's
    # keys total the square of its depth: ~68k characters per program here
    models = [np.ones(4)]
    memo = Memo()
    for i in range(150):
        src = "merge(models) = " + "ones(mean_elem(" * 62 + f"models[0] * {i}.0" + "))" * 62
        root = compile_program(src).ast
        assert np.array_equal(evaluate(root, models, BIG, memo), evaluate(root, models, BIG))
    stored = sum(
        len(key) + (value.nbytes if isinstance(value, np.ndarray) else 0)
        for key, (value, _, _) in memo.table.items()
    )
    assert memo.nbytes == stored <= MEMO_MAX_BYTES
    assert memo.nbytes > MEMO_MAX_BYTES - 1000  # the cap bound, not the programs
