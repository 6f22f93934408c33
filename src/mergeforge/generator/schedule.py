"""Inverse-time temperature decay across search iterations."""

from __future__ import annotations


def temperature(t: int, t1: float, beta: float) -> float:
    """Temperature for iteration ``t`` (1-based): t1 / (1 + beta * (t - 1)).

    Strictly decreasing in ``t`` for beta > 0, constant for beta = 0.
    """
    if t < 1:
        raise ValueError("iteration index starts at 1")
    if not t1 > 0:
        raise ValueError("initial temperature must be positive")
    if not 0 <= beta < float("inf"):
        raise ValueError(f"decay rate must be finite and >= 0, got {beta}")
    return t1 / (1.0 + beta * (t - 1))
