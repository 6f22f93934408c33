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
    """Raised when vector operands are not 1-d, are empty or disagree on length."""


def as_vectors(values: Sequence) -> list[Vector]:
    """``values`` as a list of non-empty 1-d float64 vectors of one length.

    Raises ValueError when there are none and DimensionError on a bad shape.
    """
    vecs = [np.asarray(v, dtype=np.float64) for v in values]
    if not vecs:
        raise ValueError("expected at least one vector")
    shape = vecs[0].shape
    if len(shape) != 1 or shape[0] == 0 or any(v.shape != shape for v in vecs):
        raise DimensionError(
            f"expected non-empty 1-d vectors of one length, got shapes {[v.shape for v in vecs]}"
        )
    return vecs


def task_vector(candidate, seed) -> Vector:
    """Weight delta of a candidate model relative to the seed model."""
    c, s = as_vectors((candidate, seed))
    return c - s


def apply_merged(seed, tau) -> Vector:
    """Add a merged task vector back onto the seed model."""
    s, t = as_vectors((seed, tau))
    return s + t


def task_arithmetic(taus: Sequence, lambdas: Sequence[float]) -> Vector:
    """Fixed weighted sum of task vectors: sum_j lambdas[j] * taus[j]."""
    vecs = as_vectors(taus)
    if len(vecs) != len(lambdas):
        raise DimensionError(
            f"{len(vecs)} task vectors but {len(lambdas)} mixing coefficients"
        )
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
    vecs = as_vectors(taus)

    best_lambdas: tuple[float, ...] | None = None
    best_score = -np.inf
    for combo in itertools.product([float(g) for g in grid], repeat=len(vecs)):
        s = float(scorer(task_arithmetic(vecs, combo)))
        if s > best_score or (s == best_score and (best_lambdas is None or combo < best_lambdas)):
            best_score = s
            best_lambdas = combo
    assert best_lambdas is not None
    return best_lambdas, best_score
