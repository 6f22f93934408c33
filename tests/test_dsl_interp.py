import numpy as np
import pytest

from mergeforge.core import mean_fold_merge, task_arithmetic
from mergeforge.dsl import (
    BudgetExceeded,
    DslRuntimeError,
    EvalBudget,
    compile_program,
    default_budget,
    evaluate,
)
from mergeforge.fixtures import load_corpus_program

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
