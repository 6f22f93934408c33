"""Canonical form and hashing for duplicate detection.

Normalization: infix operators are replaced by their resolved named ops, fold
binders become de Bruijn slots, scalar subexpressions built purely from
literals are folded to a single literal, and arguments of commutative ops are
sorted by their serialized form.  Two programs that differ only in whitespace,
comments, binder names, argument order of commutative ops, or pre-computable
scalar arithmetic therefore hash identically.
"""

from __future__ import annotations

import hashlib

from .ast import (
    OPS,
    BinOp,
    Call,
    DslType,
    Fold,
    ModelIndex,
    ModelsRef,
    Node,
    ScalarLit,
    Var,
)

# Canonical trees are nested tuples: ("lit", v) | ("models",) | ("model", i)
# | ("var", depth, slot) | (op, arg, ...) | ("fold", list, init, body).
Canon = tuple


def _serialize(tree: Canon) -> str:
    if tree[0] == "lit":
        return f"lit:{float(tree[1])!r}"
    return "(" + " ".join(
        part if isinstance(part, str) else _serialize(part) for part in tree
    ) + ")"


def _normalize(node: Node, binders: list[tuple[str, str]]) -> Canon:
    if isinstance(node, ScalarLit):
        return ("lit", float(node.value))
    if isinstance(node, ModelsRef):
        return ("models",)
    if isinstance(node, ModelIndex):
        return ("model", str(node.index))
    if isinstance(node, Var):
        for depth, pair in enumerate(reversed(binders)):
            if node.name in pair:
                return ("var", str(depth), str(pair.index(node.name)))
        raise ValueError(f"unbound variable {node.name!r} during canonicalization")
    if isinstance(node, Call):
        return _canon_op(node.op, [_normalize(a, binders) for a in node.args])
    if isinstance(node, BinOp):
        if node.resolved is None:
            raise ValueError("canonicalization requires a typechecked AST")
        args = [_normalize(node.left, binders), _normalize(node.right, binders)]
        if node.resolved == "scale" and node.left.ty == DslType.VECTOR:
            args.reverse()  # canonical scale() is (scalar, vector)
        return _canon_op(node.resolved, args)
    if isinstance(node, Fold):
        list_c = _normalize(node.list_expr, binders)
        init_c = _normalize(node.init_expr, binders)
        body_c = _normalize(node.body, binders + [node.binders])
        return ("fold", list_c, init_c, body_c)
    raise ValueError(f"unknown node {type(node).__name__}")


def _canon_op(op: str, args: list[Canon]) -> Canon:
    spec = OPS[op]
    if spec.result == DslType.SCALAR and all(a[0] == "lit" for a in args):
        # The raw op (scalar ops ignore d), not the interpreter: a literal
        # that overflows to inf compiles and fails when the program runs.
        return ("lit", spec.fn(None, *(a[1] for a in args)))
    if spec.commutative:
        args = sorted(args, key=_serialize)
    return (op, *args)


def canonicalize(root: Node) -> Canon:
    return _normalize(root, [])


def canonical_hash(root: Node) -> str:
    """128-bit hex digest of the normalized tree of a typechecked program."""
    data = _serialize(canonicalize(root)).encode("utf-8")
    return hashlib.blake2b(data, digest_size=16).hexdigest()
