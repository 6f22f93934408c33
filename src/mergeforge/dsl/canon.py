"""Canonical text and hashing for duplicate detection.

The canonical text of a typechecked program is built once, bottom up: a fold
variable is its binder's (depth, slot), scalar subexpressions built purely from
literals are folded to a single literal, and the args of commutative ops are
sorted as text.  Two programs that differ only in whitespace, comments, binder
names, argument order of commutative ops, infix versus named syntax, or
pre-computable scalar arithmetic therefore hash identically.

Spellings: ``lit:<repr>``, ``(models)``, ``(model i)``, ``(var depth slot)``,
``(op arg ...)`` and ``(fold list init body)``.
"""

from __future__ import annotations

import hashlib

from .ast import (
    OPS,
    Call,
    DslType,
    ModelIndex,
    ModelsRef,
    Node,
    ScalarLit,
    Var,
)


def _lit(value: float) -> str:
    return f"lit:{float(value)!r}"


def _normalize(node: Node) -> str:
    if isinstance(node, ScalarLit):
        return _lit(node.value)
    if isinstance(node, ModelsRef):
        return "(models)"
    if isinstance(node, ModelIndex):
        return f"(model {node.index})"
    if isinstance(node, Var):
        return f"(var {node.depth} {node.slot})"
    if isinstance(node, Call):
        spec = OPS[node.op]
        args = [_normalize(a) for a in node.args]
        if spec.result == DslType.SCALAR and all(a.startswith("lit:") for a in args):
            # The raw op (scalar ops ignore d), not the interpreter: a literal
            # that overflows to inf compiles and fails when the program runs.
            return _lit(spec.fn(None, *(float(a[4:]) for a in args)))
        if spec.commutative:
            args.sort()
        return f"({node.op} {' '.join(args)})"
    list_c = _normalize(node.list_expr)  # a Fold
    init_c = _normalize(node.init_expr)
    body_c = _normalize(node.body)
    return f"(fold {list_c} {init_c} {body_c})"


def canonical_hash(root: Node) -> str:
    """128-bit hex digest of the canonical text of a typechecked program."""
    data = _normalize(root).encode("utf-8")
    return hashlib.blake2b(data, digest_size=16).hexdigest()
