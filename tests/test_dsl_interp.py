import gc
import math
import operator
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_corpus_program, mean_fold_merge
from mergeforge.core import task_arithmetic
from mergeforge.dsl.ast import OP_TABLE, Call, DslRuntimeError, ModelIndex, ScalarLit
from mergeforge.dsl.interp import (
    MEMO_ENTRY_BYTES, MEMO_MAX_BYTES, BudgetExceeded, Memo, _op_rows, default_budget, evaluate,
)
from mergeforge.dsl.parser import MAX_SOURCE_CHARS
from mergeforge.dsl.program import compile_program
from mergeforge.generator.policy import GeneratorPolicy, default_grammar, sample_program

BIG = 100_000


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
        run("merge(models) = add(models[0], models[1])", [np.ones(2)] * 2, 1)


def test_budget_one_single_node_succeeds():
    out = run("merge(models) = models[0]", [np.ones(2)] * 2, 1)
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
            baseline = evaluate(program.ast, models, steps)
            floor = steps
            break
        except BudgetExceeded:
            continue
    assert floor is not None
    for extra in (1, 7, 1000):
        again = evaluate(program.ast, models, floor + extra)
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
    assert default_budget(3, 64) == 10_000 * 3 * 64


def test_default_budget_stops_growing_past_d_64():
    # step counts do not grow with d, so a budget that did would only let a
    # runaway text run for hours at a wide d before it timed out
    assert default_budget(3, 65536) == default_budget(3, 64)
    assert default_budget(3, 16) == 10_000 * 3 * 16


@pytest.mark.parametrize("with_memo", [False, True])
def test_a_step_costs_in_proportion_to_vector_width(with_memo):
    # 7 node entries; with a memo the second inner add is a hit that charges
    # its 3 entries; past d=64 each entry costs ceil(d / 64) steps
    program = compile_program(
        "merge(models) = add(add(models[0], models[1]), add(models[0], models[1]))"
    ).ast
    for d, unit in [(64, 1), (65, 2), (65536, 1024)]:
        models = [np.ones(d), np.full(d, 2.0)]
        with pytest.raises(BudgetExceeded):
            evaluate(program, models, 7 * unit - 1, Memo() if with_memo else None)
        memo = Memo() if with_memo else None
        assert evaluate(program, models, 7 * unit, memo)[0] == 6.0
        assert memo is None or memo.hits == 1


def test_zero_budget_times_out_at_the_first_node():
    with pytest.raises(BudgetExceeded, match="budget of 0 steps"):
        run("merge(models) = models[0]", [np.ones(2)] * 2, 0)


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
                op = OP_TABLE[name]
                got = op.fn(d, vs) if op.takes_d else op.fn(vs)
                assert got.tobytes() == OLD_REDUCTIONS[name](vs).tobytes(), (name, n)
            for name in ("mean_elem", "norm1"):
                got = np.float64(OP_TABLE[name].fn(vs[-1]))
                want = np.float64(OLD_REDUCTIONS[name](vs[-1]))
                assert got.tobytes() == want.tobytes(), (name, n)


def _outcome(root, models, steps, memo):
    try:
        value = evaluate(root, models, steps, memo)
    except BudgetExceeded:
        return "timeout"
    except DslRuntimeError as exc:
        return f"error: {exc}"
    assert value.dtype == np.float64 and value.shape == models[0].shape
    return value.tobytes()


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
        root = compile_program(sample_program(_SAMPLER, 1.5, rng)[0]).ast
        assert _outcome(root, models, steps, memo) == _outcome(root, models, steps, None)
        assert _steps_charged(root, models, memo) == _steps_charged(root, models, None)


def test_memo_stores_no_failing_call():
    models = [np.ones(2), np.zeros(2)]
    memo = Memo()
    first = compile_program("merge(models) = scale(cos(models[0], models[1]), models[0])").ast
    second = compile_program("merge(models) = add(ones(cos(models[0], models[1])), models[0])").ast
    assert _outcome(first, models, 100, memo) == "error: cosine of a zero vector"
    assert ("cos", 0, 1) not in memo.table
    # the repeat runs the call again: the memo-free error text and step charge
    assert _outcome(second, models, 100, memo) == _outcome(second, models, 100, None)
    assert _steps_charged(second, models, memo) == _steps_charged(second, models, None)
    assert (memo.hits, memo.table) == (0, {})


@pytest.mark.parametrize("shared,key", [
    pytest.param("mean_stack(models)", ("mean_stack", None), id="one_leaf"),
    pytest.param("add(models[0], models[1])", ("add", 0, 1), id="two_leaves"),
    pytest.param("ones(clamp(0.1, 0.2, 0.3))", ("clamp", "0.1", "0.2", "0.3"), id="three_leaves"),
])
def test_memo_hit_with_too_few_steps_left_times_out(shared, key):
    models = [np.ones(2), np.full(2, 2.0)]
    memo = Memo()
    first = compile_program(f"merge(models) = scale(2.0, {shared})").ast
    second = compile_program(f"merge(models) = sub(models[1], {shared})").ast
    _outcome(first, models, 100, memo)
    assert key in memo.table
    charged = _steps_charged(second, models, None)
    hits = memo.hits
    # a hit charges the call and its leaves: one step fewer than the program
    # needs runs out inside the stored call
    assert _outcome(second, models, charged - 1, memo) == "timeout"
    assert memo.hits == hits + 1
    assert _outcome(second, models, charged, memo) == _outcome(second, models, charged, None)
    assert memo.hits == hits + 2


@pytest.mark.parametrize("folds", [
    # alpha-renamed copies of one fold
    ["(acc, x) -> emax(acc, scale(0.5, x))", "(a, b) -> emax(a, scale(0.5, b))",
     "(x, acc) -> emax(x, scale(0.5, acc))"],
    # one body text under swapped binders: two different folds
    ["(acc, x) -> emax(acc, scale(0.5, x))", "(x, acc) -> emax(acc, scale(0.5, x))"],
    # an inner fold that reads the outer binder, and one that reads only its own
    ["(acc, x) -> fold(models, models[2], (a, b) -> add(a, scale(0.5, x)))",
     "(acc, x) -> fold(tail(models), acc, (a, b) -> emin(a, b))"],
])
def test_memo_closed_folds_under_renamed_and_shadowing_binders(folds):
    models = [np.array([1.0, -2.0]), np.array([0.5, 3.0]), np.array([2.0, 2.0])]
    memo = Memo()
    for fold in folds:
        root = compile_program(f"merge(models) = sub(fold(models, models[0], {fold}), models[1])").ast
        assert _outcome(root, models, 1000, memo) == _outcome(root, models, 1000, None)
        assert _steps_charged(root, models, memo, 1000) == _steps_charged(root, models, None, 1000)


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
    # a call on leaves inside a fold body; the calls around it read x or take a call
    pytest.param("fold(models, models[0], (acc, x) -> add(acc, scale(norm2(models[1]), x)))",
                 [("norm2", 1)], id="in_a_fold_body"),
    # a fold is never keyed, nor is a call with a fold argument
    pytest.param("fold(models, models[0], (acc, x) -> add(x, fold(models, models[1], (a, x) -> emax(a, x))))",
                 [], id="folds"),
    # an index is its int, a literal its repr, models None
    pytest.param("fold(tail(models), scale(clamp(0.5, -0.0, 1.0), models[2]), (acc, x) -> add(acc, x))",
                 [("tail", None), ("clamp", "0.5", "-0.0", "1.0")], id="leaf_keys"),
    # the root is never looked up: a repeated program is a duplicate
    pytest.param("scale(2.0, add(models[0], models[1]))", [("add", 0, 1)], id="call_argument"),
    pytest.param("add(models[0], models[1])", [], id="root"),
])
def test_memo_keys_only_calls_on_leaves(src, keys):
    models = [np.array([1.0, -2.0]), np.array([0.5, 3.0]), np.array([2.0, 2.0])]
    memo = Memo()
    evaluate(compile_program(f"merge(models) = {src}").ast, models, BIG, memo)
    assert list(memo.table) == keys


def test_memo_keeps_the_sign_of_a_zero_literal():
    models = [np.ones(3), np.full(3, 2.0)]
    memo = Memo()
    for lit in ("0.0", "-0.0", "-0.0"):
        root = compile_program(f"merge(models) = emin(scale({lit}, models[0]), models[1])").ast
        assert _outcome(root, models, BIG, memo) == _outcome(root, models, BIG, None)
    assert (memo.misses, memo.hits) == (2, 1)
    plus, minus = (memo.table["scale", lit, 0] for lit in ("0.0", "-0.0"))
    assert plus.tobytes() == np.zeros(3).tobytes()
    assert minus.tobytes() == np.full(3, -0.0).tobytes() != plus.tobytes()


def test_memo_stores_no_call_on_an_out_of_range_index():
    models = [np.ones(2), np.zeros(2), np.full(2, 3.0)]
    memo = Memo()
    first = compile_program("merge(models) = scale(2.0, add(models[0], models[7]))").ast
    second = compile_program("merge(models) = sub(models[2], add(models[0], models[7]))").ast
    assert _outcome(first, models, 100, memo) == "error: models[7] out of range for 3 models"
    assert ("add", 0, 7) not in memo.table
    assert _outcome(second, models, 100, memo) == _outcome(second, models, 100, None)
    assert _steps_charged(second, models, memo) == _steps_charged(second, models, None)
    assert (memo.hits, memo.table) == (0, {})


def test_memo_holds_nothing_of_failing_calls_on_long_indices():
    # the key and error text of each failing call hold a 4,000-digit index,
    # many times the MEMO_ENTRY_BYTES an entry is charged, so none may be kept
    models = [np.ones(2), np.zeros(2), np.full(2, 3.0)]
    memo = Memo()
    tracemalloc.start()
    try:
        for i in range(2000):
            src = f"merge(models) = scale(0.5, add(models[0], models[{10**3999 + i}]))"
            with pytest.raises(DslRuntimeError, match="out of range for 3 models"):
                evaluate(compile_program(src).ast, models, BIG, memo)
        del src
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (memo.table, memo.nbytes) == ({}, 0)
    assert retained < 2**20


def test_memo_stops_storing_vectors_at_its_byte_cap():
    d = MEMO_MAX_BYTES // 8 // 2 + 1  # two such vectors exceed the cap
    models = [np.ones(d), np.full(d, 2.0)]
    memo = Memo()
    root = compile_program(
        "merge(models) = add(add(models[0], models[1]), sub(models[0], models[1]))"
    ).ast
    evaluate(root, models, BIG, memo)
    assert memo.nbytes == MEMO_ENTRY_BYTES + 8 * d <= MEMO_MAX_BYTES
    assert len(memo.table) == 1


def test_memo_stops_storing_scalar_entries_at_its_byte_cap():
    # distinct calls on three 18-digit literals, the largest keys a call on leaves
    # has; each tree is the one compile_program builds for scale(clamp(...), models[0])
    models = [np.ones(2)]
    memo = Memo()
    cap = MEMO_MAX_BYTES // MEMO_ENTRY_BYTES
    tracemalloc.start()
    try:
        for i in range(cap + 50):
            lits = (ScalarLit(i / 7), ScalarLit(-0.1234567890123456), ScalarLit(1234567.891011121))
            clamp = Call("clamp", lits)
            assert evaluate(Call("scale", (clamp, ModelIndex(0))), models, BIG, memo)[0] == i / 7
        del clamp, lits
        stored, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (memo.misses, memo.hits) == (cap + 50, 0)
    assert len(memo.table) == cap
    assert memo.nbytes == cap * MEMO_ENTRY_BYTES <= MEMO_MAX_BYTES
    assert stored <= memo.nbytes  # the charge covers what the entries hold


def test_a_programs_memo_keys_stop_at_the_byte_cap():
    # A 113-deep chain over a 13-level tree of scalar literals, 58,380 of the
    # 65,536 characters a text may have: keys spelling each subtree's text
    # would total ~27M characters.  Only its 4,096 subtractions of two
    # literals are calls on leaves, all with one key of constant size.
    tree = "1e15"
    for _ in range(13):
        tree = f"({tree}-{tree})"
    src = "merge(models) = " + "scale(1," * 113 + f"ones({tree})" + ")" * 113
    assert len(src) <= MAX_SOURCE_CHARS
    root = compile_program(src).ast
    models = [np.ones(4)]
    memo = Memo()
    tracemalloc.start()
    try:
        out = evaluate(root, models, BIG, memo)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.tobytes() == evaluate(root, models, BIG).tobytes()
    assert (memo.misses, memo.hits) == (1, 4095)
    assert peak < 2**20


def test_evaluate_without_a_memo_leaves_no_reference_cycles():
    models = [np.ones(4), np.full(4, 2.0)]
    roots = [compile_program(f"merge(models) = {src}").ast for src in (
        "fold(tail(models), models[0], (acc, x) -> scale(0.5, add(acc, ones(mean_elem(x)))))",
        "add(models[0], models[7])",  # a runtime error
    )]
    gc.collect()
    gc.disable()
    try:
        for root in roots:
            for steps in (BIG, 3):  # the second times out
                try:
                    evaluate(root, models, steps)
                except (DslRuntimeError, BudgetExceeded):
                    pass
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- exactness of the op rows and of the finiteness check ---------------------

# The elementwise rows as the op table spelled them when each was a lambda
# that also took d; the rows are now the numpy and operator functions.
OLD_ELEMENTWISE = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "scale": lambda s, v: s * v,
    "hadamard": lambda a, b: a * b,
    "emax": lambda a, b: np.maximum(a, b),
    "emin": lambda a, b: np.minimum(a, b),
}
OLD_SCALAR = {"s_add": lambda a, b: a + b, "s_sub": lambda a, b: a - b, "s_mul": lambda a, b: a * b}
_EDGE_SCALARS = [0.0, -0.0, 5e-324, 1e-300, 3.5, -2.25, 1e200, -1e308, math.inf, -math.inf, math.nan]


def _extreme_vector(rng, d):
    """Signed magnitudes from 1e-300 to 1e308, with inf, -inf and NaN entries when d allows."""
    v = rng.uniform(-1, 1, size=d) * 10.0 ** rng.uniform(-300, 308, size=d)
    if d >= 4:
        v[rng.choice(d, 3, replace=False)] = [np.inf, -np.inf, np.nan]
    return v


@pytest.mark.parametrize("d", [1, 64, 65536])
def test_op_rows_are_bit_identical_to_their_old_forms(d):
    rng = np.random.default_rng(d)
    rows = _op_rows(d)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(4):
            a, b = _extreme_vector(rng, d), _extreme_vector(rng, d)
            big = np.full(d, 1e200)  # products and sums of these overflow to inf
            for x, y in ((a, b), (big, big), (big * 1e108, big * 1e108)):
                for name in ("add", "sub", "hadamard", "emax", "emin"):
                    got = rows[name][0](x, y)
                    assert got.tobytes() == OLD_ELEMENTWISE[name](x, y).tobytes(), name
                for s in _EDGE_SCALARS:
                    assert rows["scale"][0](s, x).tobytes() == OLD_ELEMENTWISE["scale"](s, x).tobytes()
        for s in _EDGE_SCALARS:
            assert rows["ones"][0](s).tobytes() == np.full(d, s).tobytes()
        assert rows["sum_stack"][0]([]).tobytes() == np.zeros(d).tobytes()
    for name, old in OLD_SCALAR.items():
        for s in _EDGE_SCALARS:
            for t in (*_EDGE_SCALARS, 1e308):
                assert repr(rows[name][0](s, t)) == repr(old(s, t)), (name, s, t)


@pytest.mark.parametrize("src", [
    "scale(1e200, models[0])",
    "ones(1e160)",
    "hadamard(scale(1e100, models[0]), scale(1e100, models[0]))",
    "sum_stack(tail(models)) * 1e300",
])
def test_finite_entries_whose_squared_norm_overflows_evaluate(src):
    models = [np.full(64, -1.5), np.ones(64), np.linspace(-1, 1, 64)]
    out = run(f"merge(models) = {src}", models)
    assert np.isfinite(out).all()
    with np.errstate(over="ignore"):
        assert not math.isfinite(out.dot(out))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("at", [0, 31, 63])
@pytest.mark.parametrize("src", ["add(models[0], models[1])", "sub(models[1], models[0])"])
def test_one_non_finite_entry_raises(bad, at, src):
    a = np.ones(64)
    a[at] = bad
    with pytest.raises(DslRuntimeError, match="^non-finite intermediate value$"):
        run(f"merge(models) = {src}", [a, np.ones(64)])


@pytest.mark.parametrize("src", ["scale(10.0, models[0])", "add(models[0], models[0])"])
def test_one_entry_overflowing_to_inf_raises(src):
    a = np.ones(64)
    a[17] = 1e308
    with pytest.raises(DslRuntimeError, match="^non-finite intermediate value$"):
        run(f"merge(models) = {src}", [a, np.ones(64)])


@pytest.mark.parametrize("d", [1, 64, 65536])
def test_vector_finiteness_is_the_scan_of_every_entry(d):
    # Each result is non-finite exactly when np.isfinite(v).all(), the rule
    # before the squared norm was checked first, says so.
    rng = np.random.default_rng(100 + d)
    roots = {name: compile_program(f"merge(models) = {name}(models[0], models[1])").ast
             for name in ("add", "hadamard")}
    for top in (-300, -150, 0, 150, 154, 155, 160, 200, 300, 307, 308):
        for trial in range(6):
            a, b = (rng.uniform(-1, 1, size=d) * 10.0 ** rng.uniform(-300, top, size=d) for _ in "ab")
            if trial % 3 == 1:
                a[rng.integers(d)] = rng.choice([np.inf, -np.inf, np.nan])
            for name, root in roots.items():
                with np.errstate(over="ignore", invalid="ignore"):
                    want = OLD_ELEMENTWISE[name](a, b)
                got = _outcome(root, [a, b], BIG, None)
                if np.isfinite(want).all():
                    assert got == want.tobytes(), (name, top, trial)
                else:
                    assert got == "error: non-finite intermediate value", (name, top, trial)


# -- norm2 and cos where the squared entries leave the float range ---------------

_ONES_TWOS = [np.ones(64), np.full(64, 2.0)]


def _scaled_cos(a, b) -> float:
    """The cosine from each vector divided by its largest magnitude, summed exactly."""
    a, b = a / np.abs(a).max(), b / np.abs(b).max()
    return math.fsum(a * b) / (math.hypot(*a) * math.hypot(*b))


@pytest.mark.parametrize("factor", [1e160, 1e300, 1e-170, 1e-300])
def test_norm2_of_entries_whose_squares_over_or_underflow(factor):
    out = run(f"merge(models) = ones(norm2(scale({factor!r}, models[0])))", _ONES_TWOS)
    assert out[0] == pytest.approx(math.hypot(*(factor * _ONES_TWOS[0])), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("factor", [1e160, 1e-170])
def test_cos_of_parallel_vectors_whose_squares_over_or_underflow(factor):
    # the plain form gave 0.0 for 1e160 and raised "cosine of a zero vector" for 1e-170
    out = run(f"merge(models) = ones(cos(scale({factor!r}, models[0]), models[1]))", _ONES_TWOS)
    assert out[0] == pytest.approx(_scaled_cos(factor * _ONES_TWOS[0], _ONES_TWOS[1]), rel=1e-15)
    assert out[0] == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("fa,fb", [
    (1e160, 1.0), (1e-170, 1.0), (1e200, 1e200), (1e-160, 1e-160), (1e-160, 1e-161), (1e300, 1e-300),
])
@pytest.mark.parametrize("random", [False, True])
def test_cos_at_the_edges_matches_the_scaled_dot_oracle(fa, fb, random):
    # the plain form gave 1.00023 for parallel vectors scaled by 1e-160 and 1e-161
    rng = np.random.default_rng(3)
    a, b = (rng.normal(size=64), rng.normal(size=64)) if random else _ONES_TWOS
    out = run(f"merge(models) = ones(cos(scale({fa!r}, models[0]), scale({fb!r}, models[1])))", [a, b])
    assert out[0] == pytest.approx(_scaled_cos(fa * a, fb * b), rel=1e-13)


def test_norm2_whose_value_exceeds_the_float_range_raises():
    with pytest.raises(DslRuntimeError, match="^non-finite intermediate value$"):
        run("merge(models) = ones(norm2(scale(1e308, models[0])))", _ONES_TWOS)


@pytest.mark.parametrize("d", [1, 64, 4096])
def test_norm2_and_cos_keep_the_plain_bits_wherever_the_plain_form_holds(d):
    # Squares of entries below sqrt(tiny) are subnormals; a plain norm of at
    # least sqrt(d) * sqrt(tiny) loses under half an ulp to them.  Such a norm
    # is norm2's, bit for bit, and the plain cosine of two such norms with a
    # finite product is cos's; elsewhere both equal the scaled oracles.
    norm2, cos = OP_TABLE["norm2"].fn, OP_TABLE["cos"].fn
    floor = math.sqrt(sys.float_info.min) * math.sqrt(d)
    rng = np.random.default_rng(200 + d)
    kept = rescaled = 0
    for top in (-320, -300, -170, -150, 0, 150, 154, 160, 200, 300, 308):
        for _ in range(4):
            a, b = (rng.uniform(-1, 1, size=d) * 10.0 ** rng.uniform(top - 20, top, size=d) for _ in "ab")
            with np.errstate(over="ignore", under="ignore"):
                na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
                if floor <= na < math.inf:
                    kept += 1
                    assert repr(norm2(a)) == repr(na)
                    assert na == pytest.approx(math.hypot(*a), rel=1e-13, abs=0.0)
                elif a.any():
                    rescaled += 1
                    assert norm2(a) == pytest.approx(math.hypot(*a), rel=1e-15, abs=0.0)
                if floor <= na and floor <= nb and na * nb < math.inf:
                    assert repr(cos(a, b)) == repr(float(np.dot(a, b)) / (na * nb))
                elif a.any() and b.any():
                    assert cos(a, b) == pytest.approx(_scaled_cos(a, b), rel=1e-12, abs=1e-15)
    assert kept and rescaled  # the sweep reaches both branches
