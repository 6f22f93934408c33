"""Deterministic interpreter with a node-evaluation step budget.

The budget replaces a wall clock: every node entry costs one step, fold bodies
cost per element, and exhausting the budget raises BudgetExceeded.  Non-finite
intermediates and bad model indexes are runtime errors, so scores downstream
are never polluted by NaN or Inf.

A ``Memo`` lets many programs run on one set of task vectors share the work of
their common closed subtrees (those with no free fold variable).  A repeat
replays the stored outcome and its step charge, so every result, error text
and timeout is the one the program would give without the memo.
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


# Key characters plus vector bytes a Memo stores at most; past it, outcomes are
# recomputed.  Keys are counted because a chain's key texts grow with the square
# of its depth; any other entry costs a fixed size (lists only hold task vectors).
MEMO_MAX_BYTES = 8 * 2**20


class Memo:
    """Outcomes of closed subtrees, keyed by their exact text, for one set of task vectors.

    An entry is ``(value, None, steps)`` or ``(None, error text, steps)``,
    where ``steps`` is what evaluating the subtree charged.  Stored values are
    shared between programs and must not be modified.
    """

    def __init__(self) -> None:
        self.table: dict[str, tuple] = {}
        self.nbytes = 0  # key characters plus vector bytes stored
        self.hits = 0
        self.misses = 0

    def store(self, key: str, value, error: str | None, steps: int) -> None:
        size = len(key) + (value.nbytes if isinstance(value, np.ndarray) else 0)
        if self.nbytes + size > MEMO_MAX_BYTES:
            return
        self.nbytes += size
        self.table[key] = (value, error, steps)


_CLOSED: frozenset[str] = frozenset()
_UNKNOWN = frozenset(("?",))  # never closed: the machine reports the unknown node


def _closed_keys(node: Node, keys: dict[int, str]) -> tuple[str, frozenset[str]]:
    """Exact text and free variables of ``node``; keys every closed Call or Fold by id."""
    if isinstance(node, ScalarLit):
        return repr(node.value), _CLOSED
    if isinstance(node, ModelsRef):
        return "models", _CLOSED
    if isinstance(node, ModelIndex):
        return f"models[{node.index}]", _CLOSED
    if isinstance(node, Var):
        return "$" + node.name, frozenset((node.name,))
    free = _CLOSED
    if isinstance(node, Call):
        texts = []
        for arg in node.args:
            text, arg_free = _closed_keys(arg, keys)
            texts.append(text)
            if arg_free:
                free = free | arg_free
        key = f"{node.op}({','.join(texts)})"
    elif isinstance(node, Fold):
        a, b = node.binders
        list_key, list_free = _closed_keys(node.list_expr, keys)
        init_key, init_free = _closed_keys(node.init_expr, keys)
        body_key, body_free = _closed_keys(node.body, keys)
        key = f"fold({list_key},{init_key},({a},{b})->{body_key})"
        free = list_free | init_free | (body_free - {a, b})
    else:
        return "?", _UNKNOWN
    if not free:
        keys[id(node)] = key
    return key, free


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


class _MemoMachine(_Machine):
    def __init__(self, models: list[np.ndarray], budget: EvalBudget, memo: Memo, keys: dict[int, str]):
        super().__init__(models, budget)
        self.memo = memo
        self.keys = keys

    def eval(self, node: Node, env: dict[str, object]):
        key = self.keys.get(id(node))
        if key is None:
            return _Machine.eval(self, node, env)
        memo = self.memo
        entry = memo.table.get(key)
        if entry is None:
            memo.misses += 1
            start = self.remaining
            try:
                value = _Machine.eval(self, node, env)
            except DslRuntimeError as exc:
                memo.store(key, None, str(exc), start - self.remaining)
                raise
            memo.store(key, value, None, start - self.remaining)
            return value
        memo.hits += 1
        value, error, steps = entry
        # the run without the memo would time out inside this subtree exactly when
        # fewer steps remain than it charged
        if self.remaining < steps:
            raise BudgetExceeded()
        self.remaining -= steps
        if error is not None:
            raise DslRuntimeError(error)
        return value


def evaluate(root: Node, models: Sequence, budget: EvalBudget, memo: Memo | None = None) -> np.ndarray:
    """Run a typechecked program on K task vectors of equal dimension.

    With ``memo``, closed subtrees seen by earlier calls replay their stored
    outcome; every call that shares one memo must pass the same task vectors.
    """
    vecs = as_vectors(models)
    if memo is None:
        machine = _Machine(vecs, budget)
    else:
        keys: dict[int, str] = {}
        _closed_keys(root, keys)
        keys.pop(id(root), None)  # a repeated whole program is a duplicate, never run twice
        machine = _MemoMachine(vecs, budget, memo, keys)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # overflow shows up as a non-finite check failure, not a warning
        result = machine.eval(root, {})
    if not isinstance(result, np.ndarray):
        raise DslRuntimeError("program produced a non-vector result")
    return np.asarray(result, dtype=np.float64)
