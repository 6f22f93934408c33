"""Type pass: resolves infix operators to named ops; programs must be Vector."""

from __future__ import annotations

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


def _check(node: Node) -> DslType:
    """The type of ``node``; a fold variable is a vector."""
    if type(node) is Call:  # the most common node, tested first
        spec = OPS.get(node.op)
        if spec is None:  # an infix symbol: its operand types pick the op
            types = tuple(_check(arg) for arg in node.args)
            op = INFIX.get((node.op, *types))
            if op is None:
                shown = ", ".join(t.value for t in types)
                raise _Mistyped(f"operator {node.op!r} not defined on ({shown})", node.pos)
            node.op, spec = op, OPS[op]
            if spec.args != types:  # v * s: scale takes the scalar first
                node.args = node.args[::-1]
            return spec.result
        for expected, arg in zip(spec.args, node.args):
            got = _check(arg)
            if got != expected:
                raise _Mistyped(f"{node.op} expects {expected.value}, got {got.value}", arg.pos)
        return spec.result
    if isinstance(node, ScalarLit):
        return DslType.SCALAR
    if isinstance(node, ModelsRef):
        return DslType.VECTOR_LIST
    if isinstance(node, (ModelIndex, Var)):
        return DslType.VECTOR
    lt = _check(node.list_expr)  # a Fold
    if lt != DslType.VECTOR_LIST:
        raise _Mistyped(f"fold expects a vector list, got {lt.value}", node.list_expr.pos)
    it = _check(node.init_expr)
    if it != DslType.VECTOR:
        raise _Mistyped(f"fold seed must be a vector, got {it.value}", node.init_expr.pos)
    bt = _check(node.body)
    if bt != DslType.VECTOR:
        raise _Mistyped(f"fold body must produce a vector, got {bt.value}", node.body.pos)
    return DslType.VECTOR


def typecheck(root: Node, source: str) -> Node:
    """Check types and resolve infix symbols to op names in place; returns ``root``.

    Later passes see named ops only (``v * s`` becomes ``scale(s, v)``), and
    checking a checked tree again is harmless.  Programs must produce a vector.
    ``source`` is the text ``root`` was parsed from, where a DslTypeError is placed.
    """
    try:
        result = _check(root)
        if result != DslType.VECTOR:
            raise _Mistyped(f"a merge program must produce a vector, got {result.value}", root.pos)
    except _Mistyped as fault:
        message, offset = fault.args
        raise DslTypeError(message, line_col(source, offset)) from None
    return root
