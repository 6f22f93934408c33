"""Inverse-time temperature decay across search iterations."""

from __future__ import annotations


def temperature(t: int, t1: float, beta: float) -> float:
    """Temperature for iteration ``t`` (1-based): t1 / (1 + beta * (t - 1)).

    Strictly decreasing in ``t`` for beta > 0, constant for beta = 0.
    """
    if t < 1:
        raise ValueError("iteration index starts at 1")
    if not 0 < t1 < float("inf"):
        raise ValueError(f"initial temperature must be finite and > 0, got {t1}")
    if not 0 <= beta < float("inf"):
        raise ValueError(f"decay rate must be finite and >= 0, got {beta}")
    temp = t1 / (1.0 + beta * (t - 1))
    if not temp > 0:
        raise ValueError(f"temperature of iteration {t} underflows to 0 (t1={t1}, beta={beta})")
    return temp
