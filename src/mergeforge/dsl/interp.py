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

    def __init__(self, max_steps: int):
        super().__init__(f"evaluation exceeded its budget of {max_steps} steps")


# Key characters plus vector bytes a Memo stores at most; past it, outcomes are
# recomputed.  Keys are counted because a chain's key texts grow with the square
# of its depth; any other entry costs a fixed size (lists only hold task vectors).
MEMO_MAX_BYTES = 8 * 2**20


class Memo:
    """Outcomes of closed subtrees, keyed by their text, for one set of task vectors.

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


def _closed_keys(node: Node, keys: dict[int, str]) -> tuple[str, int]:
    """Text of ``node``, a variable spelled ``$depth.slot``, and how many enclosing
    binder pairs it reads; keys closed ones by id."""
    if isinstance(node, ScalarLit):
        return repr(node.value), 0
    if isinstance(node, ModelsRef):
        return "models", 0
    if isinstance(node, ModelIndex):
        return f"models[{node.index}]", 0
    if isinstance(node, Var):
        return f"${node.depth}.{node.slot}", node.depth + 1
    if isinstance(node, Call):
        texts, reads = [], 0
        for arg in node.args:
            text, arg_reads = _closed_keys(arg, keys)
            texts.append(text)
            if arg_reads > reads:  # not max(), which made this walk ~20 % slower
                reads = arg_reads
        key = f"{node.op}({','.join(texts)})"
    else:  # a Fold
        list_key, list_reads = _closed_keys(node.list_expr, keys)
        init_key, init_reads = _closed_keys(node.init_expr, keys)
        body_key, body_reads = _closed_keys(node.body, keys)
        key = f"fold({list_key},{init_key},{body_key})"
        reads = max(list_reads, init_reads, body_reads - 1)
    if not reads:
        keys[id(node)] = key
    return key, reads


class _Machine:
    def __init__(self, models: list[np.ndarray], budget: EvalBudget, memo: Memo | None, keys: dict[int, str]):
        self.models = models
        self.d = models[0].shape[0]
        self.budget = budget
        self.remaining = budget.max_steps
        self.memo = memo
        self.keys = keys
        if not keys:  # nothing to look up: save a call per node
            self.eval = self.run

    def finite(self, value):
        if isinstance(value, float):
            ok = math.isfinite(value)
        else:
            ok = bool(np.isfinite(value).all())
        if not ok:
            raise DslRuntimeError("non-finite intermediate value")
        return value

    def eval(self, node: Node, env: Sequence[tuple]):
        key = self.keys.get(id(node))
        if key is None:
            return self.run(node, env)
        memo = self.memo
        entry = memo.table.get(key)
        if entry is None:
            memo.misses += 1
            start = self.remaining
            try:
                value = self.run(node, env)
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
            raise BudgetExceeded(self.budget.max_steps)
        self.remaining -= steps
        if error is not None:
            raise DslRuntimeError(error)
        return value

    def run(self, node: Node, env: Sequence[tuple]):
        """Evaluate ``node``; ``env`` holds the (acc, item) pair of each enclosing fold, innermost first."""
        if self.remaining < 1:
            raise BudgetExceeded(self.budget.max_steps)
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
            return env[node.depth][node.slot]
        if isinstance(node, Call):
            args = [self.eval(a, env) for a in node.args]
            spec = OPS[node.op]
            value = spec.fn(self.d, *args)
            return value if spec.result is DslType.VECTOR_LIST else self.finite(value)
        items = self.eval(node.list_expr, env)  # a Fold
        acc = self.eval(node.init_expr, env)
        inner = [None, *env]  # one list per fold: each body run ends before the next pair
        for item in items:
            inner[0] = (acc, item)
            acc = self.eval(node.body, inner)
        return acc


def evaluate(root: Node, models: Sequence, budget: EvalBudget, memo: Memo | None = None) -> np.ndarray:
    """Run a typechecked program on K task vectors of equal dimension.

    With ``memo``, closed subtrees seen by earlier calls replay their stored
    outcome; every call that shares one memo must pass the same task vectors.
    Keys are built here, by one walk of the tree, and only when a memo is
    given: built at compile time for every text instead, they made the
    single-call untrusted_text benchmark 6.8 % slower and 4 MB larger in peak RSS.
    """
    keys: dict[int, str] = {}
    if memo is not None:
        _closed_keys(root, keys)
    machine = _Machine(as_vectors(models), budget, memo, keys)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # overflow shows up as a non-finite check failure, not a warning
        result = machine.run(root, ())  # never looked up: a repeated whole program is a duplicate
    if not isinstance(result, np.ndarray):
        raise DslRuntimeError("program produced a non-vector result")
    return np.asarray(result, dtype=np.float64)
