"""Canonical text and hashing for duplicate detection.

The canonical text of a typechecked program is built once, bottom up: a fold
variable is its binder's (depth, slot), a scalar call whose arguments are all
finite literals is folded to a single literal (a non-finite one stays in the
text, where the interpreter fails on it), and the args of commutative ops are
sorted as text.  Two programs that differ only in whitespace, comments, binder
names, argument order of commutative ops, infix versus named syntax, or
pre-computable scalar arithmetic therefore hash identically.

Spellings: ``lit:<repr>``, ``(models)``, ``(model i)``, ``(var depth slot)``,
``(op arg ...)`` and ``(fold list init body)``.
"""

from __future__ import annotations

import hashlib
import math

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
    if type(node) is Call:  # the most common node, tested first
        spec = OPS[node.op]
        args = [_normalize(a) for a in node.args]
        if spec.result is DslType.SCALAR and all(a.startswith("lit:") for a in args):
            values = [float(a[4:]) for a in args]
            # The raw op, not the interpreter: a literal that overflows to
            # inf compiles and fails when the program runs.
            # So a non-finite argument is not folded: clamp(inf, 0.1, 0.9)
            # would become 0.9, a value the interpreter never computes.
            if all(map(math.isfinite, values)):
                return _lit(spec.fn(*values))
        if spec.commutative:
            args.sort()
        return f"({node.op} {' '.join(args)})"
    if isinstance(node, ScalarLit):
        return _lit(node.value)
    if isinstance(node, ModelsRef):
        return "(models)"
    if isinstance(node, ModelIndex):
        return f"(model {node.index})"
    if isinstance(node, Var):
        return f"(var {node.depth} {node.slot})"
    list_c = _normalize(node.list_expr)  # a Fold
    init_c = _normalize(node.init_expr)
    body_c = _normalize(node.body)
    return f"(fold {list_c} {init_c} {body_c})"


def canonical_hash(root: Node) -> str:
    """128-bit hex digest of the canonical text of a typechecked program."""
    data = _normalize(root).encode("utf-8")
    return hashlib.blake2b(data, digest_size=16).hexdigest()
