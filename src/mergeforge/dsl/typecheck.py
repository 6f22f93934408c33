"""The one pass after the parser: types, infix resolution and the canonical text.

One bottom-up walk checks types (a program must produce a vector), resolves
infix symbols to named ops in place (``v * s`` becomes ``scale(s, v)``) and
spells the canonical text that duplicate detection hashes.  In that text a
fold variable is its binder's (depth, slot), a scalar call whose arguments
are all finite literals is folded to a single literal (a non-finite one stays
in the text, where the interpreter fails on it), and the args of commutative
ops are sorted as text.  Two programs that differ only in whitespace,
comments, binder names, argument order of commutative ops, infix versus named
syntax, or pre-computable scalar arithmetic therefore hash identically.

Spellings: ``lit:<repr>``, ``(models)``, ``(model i)``, ``(var depth slot)``,
``(op arg ...)`` and ``(fold list init body)``.
"""

from __future__ import annotations

import hashlib
import math

from .ast import (
    INFIX,
    OPS,
    Call,
    DslType,
    ModelIndex,
    ModelsRef,
    Node,
    ScalarLit,
    Var,
)
from .parser import line_col


class DslTypeError(ValueError):
    def __init__(self, message: str, pos: tuple[int, int]):
        super().__init__(f"{pos[0]}:{pos[1]}: {message}")
        self.pos = pos


class _Mistyped(Exception):
    """A type fault's (message, offset), which ``typecheck`` places in its source."""


def _lit(value: float) -> str:
    return f"lit:{float(value)!r}"


def _check(node: Node) -> tuple[DslType, str]:
    """The type and canonical text of ``node``; a fold variable is a vector."""
    if type(node) is Call:  # the most common node, tested first
        spec = OPS.get(node.op)
        if spec is None:  # an infix symbol: its operand types pick the op
            (lt, left), (rt, right) = map(_check, node.args)
            op = INFIX.get((node.op, lt, rt))
            if op is None:
                raise _Mistyped(f"operator {node.op!r} not defined on ({lt.value}, {rt.value})", node.pos)
            node.op, spec = op, OPS[op]
            if spec.args != (lt, rt):  # v * s: scale takes the scalar first
                node.args = node.args[::-1]
                left, right = right, left
            args = [left, right]
        else:  # each arg is checked and compared in turn, so the first bad one is named
            args = []
            for expected, arg in zip(spec.args, node.args):
                got, text = _check(arg)
                if got != expected:
                    raise _Mistyped(f"{node.op} expects {expected.value}, got {got.value}", arg.pos)
                args.append(text)
        if spec.result is DslType.SCALAR and all(a.startswith("lit:") for a in args):
            values = [float(a[4:]) for a in args]
            # The raw op, not the interpreter: a literal that overflows to
            # inf compiles and fails when the program runs.
            # So a non-finite argument is not folded: clamp(inf, 0.1, 0.9)
            # would become 0.9, a value the interpreter never computes.
            if all(map(math.isfinite, values)):
                return DslType.SCALAR, _lit(spec.fn(*values))
        if spec.commutative:
            args.sort()
        return spec.result, f"({node.op} {' '.join(args)})"
    if isinstance(node, ScalarLit):
        return DslType.SCALAR, _lit(node.value)
    if isinstance(node, ModelsRef):
        return DslType.VECTOR_LIST, "(models)"
    if isinstance(node, ModelIndex):
        return DslType.VECTOR, f"(model {node.index})"
    if isinstance(node, Var):
        return DslType.VECTOR, f"(var {node.depth} {node.slot})"
    lt, list_c = _check(node.list_expr)  # a Fold
    if lt != DslType.VECTOR_LIST:
        raise _Mistyped(f"fold expects a vector list, got {lt.value}", node.list_expr.pos)
    it, init_c = _check(node.init_expr)
    if it != DslType.VECTOR:
        raise _Mistyped(f"fold seed must be a vector, got {it.value}", node.init_expr.pos)
    bt, body_c = _check(node.body)
    if bt != DslType.VECTOR:
        raise _Mistyped(f"fold body must produce a vector, got {bt.value}", node.body.pos)
    return DslType.VECTOR, f"(fold {list_c} {init_c} {body_c})"


def typecheck(root: Node, source: str) -> str:
    """Check types and resolve infix symbols to op names in place; returns the canonical text.

    Checking a checked tree again returns the same text.  ``source`` is the
    text ``root`` was parsed from, where a DslTypeError is placed.
    """
    try:
        result, text = _check(root)
        if result != DslType.VECTOR:
            raise _Mistyped(f"a merge program must produce a vector, got {result.value}", root.pos)
    except _Mistyped as fault:
        message, offset = fault.args
        raise DslTypeError(message, line_col(source, offset)) from None
    return text


def canonical_hash(text: str) -> str:
    """128-bit hex digest of a canonical text."""
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()
