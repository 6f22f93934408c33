import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mean_fold_merge
from mergeforge.core import (
    DimensionError,
    apply_merged,
    grid_search_task_arithmetic,
    task_arithmetic,
    task_vector,
)
from mergeforge.dsl import EvalBudget, compile_program, evaluate

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_task_vector_identical_models():
    assert np.array_equal(task_vector([1.0, 2.0], [1.0, 2.0]), [0.0, 0.0])


def test_task_vector_componentwise():
    assert np.array_equal(task_vector([3.0, 5.0], [1.0, 2.0]), [2.0, 3.0])


def test_task_vector_length_mismatch():
    with pytest.raises(DimensionError):
        task_vector([1.0, 2.0], [1.0, 2.0, 3.0])


def test_apply_merged_zero_tau_is_identity():
    assert np.array_equal(apply_merged([1.0, 2.0], [0.0, 0.0]), [1.0, 2.0])


def test_apply_merged_adds():
    assert np.array_equal(apply_merged([1.0, 2.0], [2.0, 3.0]), [3.0, 5.0])


@given(st.lists(finite_floats, min_size=1, max_size=16), st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_round_trip_exact(seed_values, rng_seed):
    seed = np.array(seed_values)
    tau = np.random.default_rng(rng_seed).normal(size=seed.shape)
    candidate = apply_merged(seed, tau)
    assert np.array_equal(apply_merged(seed, task_vector(candidate, seed)), candidate)


def test_task_arithmetic_half_half():
    out = task_arithmetic([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
    assert np.array_equal(out, [0.5, 0.5])


def test_task_arithmetic_selects_first():
    out = task_arithmetic([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
    assert np.array_equal(out, [1.0, 0.0])


def test_task_arithmetic_hand_sum():
    # 0.2*[2,4] + 0.4*[6,2] + 0.6*[1,1] = [3.4, 2.2]
    out = task_arithmetic([[2.0, 4.0], [6.0, 2.0], [1.0, 1.0]], [0.2, 0.4, 0.6])
    assert np.allclose(out, [3.4, 2.2], atol=1e-12)


def test_task_arithmetic_empty():
    with pytest.raises(ValueError):
        task_arithmetic([], [])


def test_task_arithmetic_length_mismatch():
    with pytest.raises(DimensionError):
        task_arithmetic([[1.0, 2.0]], [0.5, 0.5])


def test_task_arithmetic_linearity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        k, d = rng.integers(1, 5), rng.integers(2, 16)
        taus = [rng.normal(size=d) for _ in range(k)]
        l1, l2 = rng.normal(size=k), rng.normal(size=k)
        a, b = rng.normal(), rng.normal()
        lhs = task_arithmetic(taus, a * l1 + b * l2)
        rhs = a * task_arithmetic(taus, l1) + b * task_arithmetic(taus, l2)
        assert np.allclose(lhs, rhs, atol=1e-12)


def _oracle_grid_search(taus, grid, scorer):
    """Collect-then-argmax enumeration, ties to the smallest lambda tuple."""
    results = []
    for combo in itertools.product([float(g) for g in grid], repeat=len(taus)):
        merged = np.zeros_like(taus[0])
        for lam, tau in zip(combo, taus):
            merged = merged + lam * tau
        results.append((combo, scorer(merged)))
    best_score = max(s for _, s in results)
    return min(combo for combo, s in results if s == best_score), best_score


def test_grid_search_evaluation_count():
    calls = []

    def scorer(tau):
        calls.append(1)
        return 0.0

    grid_search_task_arithmetic([np.ones(4)] * 3, [0.2, 0.4, 0.6], scorer)
    assert len(calls) == 27


def test_grid_search_single_tau_unit_grid():
    lambdas, _ = grid_search_task_arithmetic([np.ones(3)], [1.0], lambda t: 1.0)
    assert lambdas == (1.0,)


def test_grid_search_matches_enumeration_oracle():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        k, d = int(rng.integers(1, 4)), 8
        taus = [rng.normal(size=d) for _ in range(k)]
        target = rng.normal(size=d)

        def scorer(tau):
            return -float(np.sum((tau - target) ** 2))

        got = grid_search_task_arithmetic(taus, [0.2, 0.4, 0.6], scorer)
        assert got == _oracle_grid_search(taus, [0.2, 0.4, 0.6], scorer)


def test_grid_search_tie_break_lexicographic():
    lambdas, _ = grid_search_task_arithmetic([np.ones(2)] * 2, [0.4, 0.2], lambda t: 0.0)
    assert lambdas == (0.2, 0.2)


def test_grid_search_empty_grid():
    with pytest.raises(ValueError):
        grid_search_task_arithmetic([np.ones(2)], [], lambda t: 0.0)


def test_mean_fold_single_input_unchanged():
    assert np.array_equal(mean_fold_merge([[1.0, 2.0]]), [1.0, 2.0])


def test_mean_fold_two_inputs():
    # mu_2 = 4, result = ([1,2] + [4,4]) / 2
    assert np.array_equal(mean_fold_merge([[1.0, 2.0], [3.0, 5.0]]), [2.5, 3.0])


def test_mean_fold_three_inputs():
    # mu_3 = 1, result = ([2.5,3] + [1,1]) / 2
    assert np.array_equal(
        mean_fold_merge([[1.0, 2.0], [3.0, 5.0], [0.0, 2.0]]), [1.75, 2.0]
    )


def test_mean_fold_empty():
    with pytest.raises(ValueError):
        mean_fold_merge([])


def _mean_fold_closed_form(taus):
    """Expanded recursion: tau_1 / 2^(K-1) + sum_i mean(tau_i) / 2^(K-i+1)."""
    k = len(taus)
    out = taus[0] / 2 ** (k - 1)
    for i in range(2, k + 1):
        out = out + (taus[i - 1].mean() / 2 ** (k - i + 1)) * np.ones_like(taus[0])
    return out


def test_mean_fold_matches_closed_form():
    rng = np.random.default_rng(123)
    for _ in range(100):
        k, d = int(rng.integers(1, 7)), int(rng.integers(2, 33))
        taus = [rng.normal(size=d) for _ in range(k)]
        got = mean_fold_merge(taus)
        assert np.max(np.abs(got - _mean_fold_closed_form(taus))) <= 1e-12


_IDENTITY = compile_program("merge(models) = models[0]").ast

# Each entry calls a function on a list of vectors; the two-argument ones take
# the first two items, repeating one or giving [] for each when there are none.
_ON_VECTORS = {
    "task_vector": lambda vs: task_vector(*(vs * 2 or [[], []])[:2]),
    "apply_merged": lambda vs: apply_merged(*(vs * 2 or [[], []])[:2]),
    "task_arithmetic": lambda vs: task_arithmetic(vs, [0.5] * len(vs)),
    "grid_search_task_arithmetic": lambda vs: grid_search_task_arithmetic(vs, [0.5], lambda t: 0.0),
    "mean_fold_merge": mean_fold_merge,
    "evaluate": lambda vs: evaluate(_IDENTITY, vs, EvalBudget(100)),
}


@pytest.mark.parametrize("vectors", [
    [], [np.ones((2, 2))], [np.ones(0)], [np.ones(2), np.ones(3)],
], ids=["none", "2-d", "zero-length", "two-lengths"])
@pytest.mark.parametrize("name", _ON_VECTORS)
def test_malformed_vectors_are_refused(name, vectors):
    with pytest.raises(ValueError):
        _ON_VECTORS[name](vectors)
