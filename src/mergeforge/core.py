"""Task-vector arithmetic and built-in reference merge strategies.

All functions operate on flat float64 vectors: a model is a length-d weight
vector, a task vector is the delta between a candidate model and the seed.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np

Vector = np.ndarray


class DimensionError(ValueError):
    """Raised when vector operands disagree on length."""


def _as_vector(values) -> Vector:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionError(f"expected a non-empty 1-d vector, got shape {arr.shape}")
    return arr


def _check_same_length(*vectors: Vector) -> int:
    lengths = {v.shape[0] for v in vectors}
    if len(lengths) != 1:
        raise DimensionError(f"mismatched vector lengths: {sorted(lengths)}")
    return lengths.pop()


def task_vector(candidate, seed) -> Vector:
    """Weight delta of a candidate model relative to the seed model."""
    c = _as_vector(candidate)
    s = _as_vector(seed)
    _check_same_length(c, s)
    return c - s


def apply_merged(seed, tau) -> Vector:
    """Add a merged task vector back onto the seed model."""
    s = _as_vector(seed)
    t = _as_vector(tau)
    _check_same_length(s, t)
    return s + t


def task_arithmetic(taus: Sequence, lambdas: Sequence[float]) -> Vector:
    """Fixed weighted sum of task vectors: sum_j lambdas[j] * taus[j]."""
    if len(taus) == 0:
        raise ValueError("task_arithmetic needs at least one task vector")
    if len(taus) != len(lambdas):
        raise DimensionError(
            f"{len(taus)} task vectors but {len(lambdas)} mixing coefficients"
        )
    vecs = [_as_vector(t) for t in taus]
    _check_same_length(*vecs)
    out = np.zeros_like(vecs[0])
    for lam, vec in zip(lambdas, vecs):
        out += float(lam) * vec
    return out


def grid_search_task_arithmetic(
    taus: Sequence,
    grid: Sequence[float],
    scorer: Callable[[Vector], float],
) -> tuple[tuple[float, ...], float]:
    """Exhaustively score every mixing-ratio combination from the grid.

    ``scorer`` maps a merged task vector to a higher-is-better score.  Every
    one of ``len(grid) ** len(taus)`` combinations is evaluated; ties on the
    best score are broken by the lexicographically smallest lambda tuple so
    the result is deterministic regardless of evaluation order.
    """
    if len(grid) == 0:
        raise ValueError("grid must be non-empty")
    vecs = [_as_vector(t) for t in taus]
    if not vecs:
        raise ValueError("need at least one task vector")
    _check_same_length(*vecs)

    best_lambdas: tuple[float, ...] | None = None
    best_score = -np.inf
    for combo in itertools.product([float(g) for g in grid], repeat=len(vecs)):
        s = float(scorer(task_arithmetic(vecs, combo)))
        if s > best_score or (s == best_score and (best_lambdas is None or combo < best_lambdas)):
            best_score = s
            best_lambdas = combo
    assert best_lambdas is not None
    return best_lambdas, best_score


def mean_fold_merge(taus: Sequence) -> Vector:
    """Sequentially blend each vector's element mean into a running merge.

    Starting from the first task vector, each later vector tau_i contributes
    only the scalar mean of its elements, broadcast as a constant vector:
    merged <- (merged + mean(tau_i) * ones) / 2.  A single input is returned
    unchanged.
    """
    if len(taus) == 0:
        raise ValueError("mean_fold_merge needs at least one task vector")
    vecs = [_as_vector(t) for t in taus]
    _check_same_length(*vecs)
    merged = vecs[0].copy()
    for vec in vecs[1:]:
        merged = 0.5 * (merged + float(vec.mean()))
    return merged

