"""Deterministic interpreter with a node-evaluation step budget.

The budget replaces a wall clock: every node entry costs ``ceil(d / 64)``
steps on task vectors of length d (one up to d=64, 1,024 at d=65536), so past
d=64 a budget counts units of 64 entries and bounds time at every width; fold
bodies cost per element, and exhausting the budget raises BudgetExceeded.  Non-finite
intermediates and bad model indexes are runtime errors, so scores downstream
are never polluted by NaN or Inf.  A vector result is finite when its squared
norm, one dot product, is; only when that overflows or is NaN does a scan of
its entries decide, since finite entries can still overflow the square.

A ``Memo`` lets many programs run on one set of task vectors share the work of
their common calls on leaves: calls whose arguments are all ``models``,
``models[i]`` or literals.  Such a call reads no fold variable, so its op and
arguments fix its value; it charges an entry for itself and one per leaf.  A
repeat of a call that succeeded charges those and returns the stored value, and
a failing call is not stored, so every result, error text and timeout is the
one the program would give without the memo.
"""

from __future__ import annotations

import functools
from math import isfinite
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

_VECTOR, _SCALAR = DslType.VECTOR, DslType.SCALAR


def default_budget(k: int, d: int) -> int:
    # Generous for any sane program; tiny hand-built loops can still trip it.
    # Up to d=64 a node entry costs one step; past it the budget counts units
    # of 64 entries, so it stays at its d=64 value and a program's charge
    # grows with d as its time does.
    return 10_000 * k * min(d, 64)


class BudgetExceeded(Exception):
    """Evaluation ran out of node-evaluation steps."""

    def __init__(self, max_steps: int):
        super().__init__(f"evaluation exceeded its budget of {max_steps} steps")


# Charged bytes a Memo stores at most; past it, values are recomputed.
MEMO_MAX_BYTES = 8 * 2**20
# What one entry is charged besides its vector's bytes: its key tuple, literal
# reprs, float value and table slot.  tracemalloc measured 310-340 bytes per
# entry over 1,000-16,000 distinct clamp calls on three 18-digit literals, the
# largest keys a call on leaves has.
MEMO_ENTRY_BYTES = 512


class Memo:
    """Values of calls whose arguments are all leaves, for one set of task vectors.

    A key is ``(op, *leaf keys)``: a model index's ``int``, a literal's
    ``repr`` (so ``0.0`` and ``-0.0`` stay apart) and ``None`` for
    ``models``.  An entry is the value the call returned; a call that failed
    has none.  Stored values are shared between programs and must not be
    modified.
    """

    def __init__(self) -> None:
        self.table: dict[tuple, object] = {}
        self.nbytes = 0  # MEMO_ENTRY_BYTES per entry plus vector bytes stored
        self.hits = 0
        self.misses = 0

    def store(self, key: tuple, value) -> None:
        size = MEMO_ENTRY_BYTES + (value.nbytes if isinstance(value, np.ndarray) else 0)
        if self.nbytes + size > MEMO_MAX_BYTES:
            return
        self.nbytes += size
        self.table[key] = value


_NON_FINITE = "non-finite intermediate value"


@functools.lru_cache(maxsize=8)
def _op_rows(d: int) -> dict[str, tuple]:
    """``OPS`` as ``name -> (fn, result type)`` rows for task vectors of length
    ``d``, bound into the rows that take it."""
    return {
        name: (functools.partial(op.fn, d) if op.takes_d else op.fn, op.result)
        for name, op in OPS.items()
    }


class _Machine:
    """Evaluates a program, running each child directly."""

    def __init__(self, models: list[np.ndarray], max_steps: int, memo: Memo | None = None):
        self.models = models
        self.ops = _op_rows(models[0].shape[0])
        self.max_steps = max_steps
        self.remaining = max_steps
        self.unit = -(-models[0].shape[0] // 64)  # steps per node entry
        self.memo = memo

    def run(self, node: Node, env: Sequence[tuple]):
        """Evaluate ``node``; ``env`` holds the (acc, item) pair of each enclosing fold, innermost first."""
        if self.remaining < self.unit:
            raise BudgetExceeded(self.max_steps)
        self.remaining -= self.unit
        if type(node) is Call:  # the most common node, tested first
            fn, result = self.ops[node.op]
            value = fn(*[self.eval(a, env) for a in node.args])
            if result is _VECTOR:
                # A finite squared norm proves every entry finite; one that
                # overflows from finite entries is decided by the scan.
                if not isfinite(value.dot(value)) and not np.isfinite(value).all():
                    raise DslRuntimeError(_NON_FINITE)
            elif result is _SCALAR and not isfinite(value):
                raise DslRuntimeError(_NON_FINITE)
            return value
        if isinstance(node, ScalarLit):
            value = float(node.value)
            if not isfinite(value):
                raise DslRuntimeError(_NON_FINITE)
            return value
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
        items = self.eval(node.list_expr, env)  # a Fold
        acc = self.eval(node.init_expr, env)
        inner = [None, *env]  # one list per fold: each body run ends before the next pair
        for item in items:
            inner[0] = (acc, item)
            acc = self.eval(node.body, inner)
        return acc

    # No memo: each child runs directly.  A class attribute, not one set on the
    # instance, so that no machine refers to itself and needs the cycle collector.
    eval = run


class _MemoMachine(_Machine):
    """Evaluates a program whose calls on leaves reuse the values in ``memo``."""

    def eval(self, node: Node, env: Sequence[tuple]):
        if type(node) is not Call:
            return self.run(node, env)
        key = [node.op]
        for arg in node.args:
            kind = type(arg)
            if kind is ModelIndex:
                key.append(arg.index)
            elif kind is ScalarLit:
                key.append(repr(arg.value))
            elif kind is ModelsRef:
                key.append(None)
            else:  # a Var, call or fold argument: run directly
                return self.run(node, env)
        key = tuple(key)
        memo = self.memo
        value = memo.table.get(key)
        if value is None:  # a failing call raises here and is not stored
            memo.misses += 1
            value = self.run(node, env)
            memo.store(key, value)
            return value
        memo.hits += 1
        # running the call charges an entry for it and one for each leaf, so
        # the run without the memo times out inside it exactly when fewer remain
        charge = len(key) * self.unit
        if self.remaining < charge:
            raise BudgetExceeded(self.max_steps)
        self.remaining -= charge
        return value


def evaluate(root: Node, models: Sequence, max_steps: int, memo: Memo | None = None) -> np.ndarray:
    """Run a typechecked program on K task vectors of equal dimension; its value
    is a float64 vector of that dimension, which may be a task vector or a
    memo entry and must not be modified.

    With ``memo``, a call on leaves that succeeded in an earlier call returns
    its stored value; every call that shares one memo must pass the same task
    vectors.  The key is built when the call is reached, from its op and leaves
    alone, so every stored key has constant size and no other node is keyed.
    """
    models = as_vectors(models)
    machine = _Machine(models, max_steps) if memo is None else _MemoMachine(models, max_steps, memo)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # overflow shows up as a non-finite check failure, not a warning
        return machine.run(root, ())  # never looked up: a repeated whole program is a duplicate
