"""Deterministic interpreter with a node-evaluation step budget.

The budget replaces a wall clock: every node entry costs one step, fold bodies
cost per element, and exhausting the budget raises BudgetExceeded.  Non-finite
intermediates and bad model indexes are runtime errors, so scores downstream
are never polluted by NaN or Inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core import as_vectors
from .ast import (
    OPS,
    Call,
    DslRuntimeError,
    DslType,
    Fold,
    ModelIndex,
    ModelsRef,
    Node,
    ScalarLit,
    Var,
)


@dataclass(frozen=True)
class EvalBudget:
    max_steps: int

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


def default_budget(k: int, d: int) -> EvalBudget:
    # Generous for any sane program; tiny hand-built loops can still trip it.
    return EvalBudget(max_steps=10_000 * k * d)


class BudgetExceeded(Exception):
    """Evaluation ran out of node-evaluation steps."""


class _Machine:
    def __init__(self, models: list[np.ndarray], budget: EvalBudget):
        self.models = models
        self.d = models[0].shape[0]
        self.remaining = budget.max_steps

    def finite(self, value):
        if isinstance(value, float):
            ok = math.isfinite(value)
        else:
            ok = bool(np.isfinite(value).all())
        if not ok:
            raise DslRuntimeError("non-finite intermediate value")
        return value

    def eval(self, node: Node, env: dict[str, object]):
        if self.remaining < 1:
            raise BudgetExceeded()
        self.remaining -= 1
        if isinstance(node, ScalarLit):
            return self.finite(float(node.value))
        if isinstance(node, ModelsRef):
            return self.models
        if isinstance(node, ModelIndex):
            if not 0 <= node.index < len(self.models):
                raise DslRuntimeError(
                    f"models[{node.index}] out of range for {len(self.models)} models"
                )
            return self.models[node.index]
        if isinstance(node, Var):
            return env[node.name]
        if isinstance(node, Call):
            args = [self.eval(a, env) for a in node.args]
            spec = OPS[node.op]
            value = spec.fn(self.d, *args)
            return value if spec.result is DslType.VECTOR_LIST else self.finite(value)
        if isinstance(node, Fold):
            items = self.eval(node.list_expr, env)
            acc = self.eval(node.init_expr, env)
            a, b = node.binders
            for item in items:
                inner = dict(env)
                inner[a] = acc
                inner[b] = item
                acc = self.eval(node.body, inner)
            return acc
        raise DslRuntimeError(f"unknown node {type(node).__name__}")


def evaluate(root: Node, models: Sequence, budget: EvalBudget) -> np.ndarray:
    """Run a typechecked program on K task vectors of equal dimension."""
    vecs = as_vectors(models)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # overflow shows up as a non-finite check failure, not a warning
        result = _Machine(vecs, budget).eval(root, {})
    if not isinstance(result, np.ndarray):
        raise DslRuntimeError("program produced a non-vector result")
    return np.asarray(result, dtype=np.float64)
