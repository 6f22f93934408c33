"""Deterministic interpreter with a node-evaluation step budget.

The budget replaces a wall clock: every node entry costs one step, fold bodies
cost per element, and exhausting the budget raises BudgetExceeded.  Non-finite
intermediates and bad model indexes are runtime errors, so scores downstream
are never polluted by NaN or Inf.  A vector result is finite when its squared
norm, one dot product, is; only when that overflows or is NaN does a scan of
its entries decide, since finite entries can still overflow the square.

A ``Memo`` lets many programs run on one set of task vectors share the work of
their common closed subtrees (those with no free fold variable).  A repeat
replays the stored outcome and its step charge, so every result, error text
and timeout is the one the program would give without the memo.
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
    return 10_000 * k * d


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


class _Keys(dict):
    """Memo keys of one program's closed subtrees, by node id."""

    # characters of key text the walk has built: a slot, since the walk
    # updates it per node and an instance-dict attribute measured slower
    __slots__ = ("chars",)

    def __init__(self) -> None:
        self.chars = 0


class _KeysTooLong(Exception):
    """A program's key text passed MEMO_MAX_BYTES characters."""


def _closed_keys(node: Node, keys: _Keys) -> tuple[str, int]:
    """Text of ``node``, a variable spelled ``$depth.slot``, and how many enclosing
    binder pairs it reads; keys closed ones by id.  Raises _KeysTooLong once
    the key text built passes MEMO_MAX_BYTES characters."""
    if type(node) is Call:  # the most common node, tested first
        texts, reads = [], 0
        for arg in node.args:
            text, arg_reads = _closed_keys(arg, keys)
            texts.append(text)
            if arg_reads > reads:  # not max(), which made this walk ~20 % slower
                reads = arg_reads
        key = f"{node.op}({','.join(texts)})"
    elif isinstance(node, ScalarLit):
        return repr(node.value), 0
    elif isinstance(node, ModelsRef):
        return "models", 0
    elif isinstance(node, ModelIndex):
        return f"models[{node.index}]", 0
    elif isinstance(node, Var):
        return f"${node.depth}.{node.slot}", node.depth + 1
    else:  # a Fold
        list_key, list_reads = _closed_keys(node.list_expr, keys)
        init_key, init_reads = _closed_keys(node.init_expr, keys)
        body_key, body_reads = _closed_keys(node.body, keys)
        key = f"fold({list_key},{init_key},{body_key})"
        reads = max(list_reads, init_reads, body_reads - 1)
    keys.chars += len(key)
    if keys.chars > MEMO_MAX_BYTES:
        raise _KeysTooLong
    if not reads:
        keys[id(node)] = key
    return key, reads


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

    def __init__(
        self, models: list[np.ndarray], max_steps: int, memo: Memo | None = None, keys: _Keys | None = None
    ):
        self.models = models
        self.ops = _op_rows(models[0].shape[0])
        self.max_steps = max_steps
        self.remaining = max_steps
        self.memo = memo
        self.keys = keys

    def run(self, node: Node, env: Sequence[tuple]):
        """Evaluate ``node``; ``env`` holds the (acc, item) pair of each enclosing fold, innermost first."""
        if self.remaining < 1:
            raise BudgetExceeded(self.max_steps)
        self.remaining -= 1
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
    """Evaluates a program whose closed subtrees, found in ``keys``, replay from ``memo``."""

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
            raise BudgetExceeded(self.max_steps)
        self.remaining -= steps
        if error is not None:
            raise DslRuntimeError(error)
        return value


def evaluate(root: Node, models: Sequence, max_steps: int, memo: Memo | None = None) -> np.ndarray:
    """Run a typechecked program on K task vectors of equal dimension; its value
    is a float64 vector of that dimension, which may be a task vector or a
    memo entry and must not be modified.

    With ``memo``, closed subtrees seen by earlier calls replay their stored
    outcome; every call that shares one memo must pass the same task vectors.
    Keys are built here, by one walk of the tree, and only when a memo is
    given: built at compile time for every text instead, they made the
    single-call untrusted_text benchmark 6.8 % slower and 4 MB larger in peak RSS.
    A program whose key text passes ``MEMO_MAX_BYTES`` characters while they
    are built runs without the memo, so no text makes them larger than that.
    """
    models = as_vectors(models)
    if memo is not None:
        keys = _Keys()
        try:
            _closed_keys(root, keys)
        except _KeysTooLong:  # the memo only replays, so the outcome is the same without it
            memo = None
    machine = _Machine(models, max_steps) if memo is None else _MemoMachine(models, max_steps, memo, keys)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # overflow shows up as a non-finite check failure, not a warning
        return machine.run(root, ())  # never looked up: a repeated whole program is a duplicate
