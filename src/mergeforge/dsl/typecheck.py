"""Type annotation pass: every node gets one DslType, programs must be Vector."""

from __future__ import annotations

from .ast import (
    INFIX,
    OP_TABLE,
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


class DslTypeError(ValueError):
    def __init__(self, message: str, pos: tuple[int, int] = (0, 0)):
        super().__init__(f"{pos[0]}:{pos[1]}: {message}")
        self.pos = pos


def _check(node: Node, env: dict[str, DslType]) -> DslType:
    if isinstance(node, ScalarLit):
        node.ty = DslType.SCALAR
    elif isinstance(node, ModelsRef):
        node.ty = DslType.VECTOR_LIST
    elif isinstance(node, ModelIndex):
        node.ty = DslType.VECTOR
    elif isinstance(node, Var):
        ty = env.get(node.name)
        if ty is None:
            raise DslTypeError(f"unbound variable {node.name!r}", node.pos)
        node.ty = ty
    elif isinstance(node, Call):
        spec = OP_TABLE[node.op]
        for expected, arg in zip(spec.args, node.args):
            got = _check(arg, env)
            if got != expected:
                raise DslTypeError(
                    f"{node.op} expects {expected.value}, got {got.value}", arg.pos
                )
        node.ty = spec.result
    elif isinstance(node, BinOp):
        lt = _check(node.left, env)
        rt = _check(node.right, env)
        node.resolved = INFIX.get((node.symbol, lt, rt))
        if node.resolved is None:
            raise DslTypeError(
                f"operator {node.symbol!r} not defined on ({lt.value}, {rt.value})",
                node.pos,
            )
        node.ty = OPS[node.resolved].result
    elif isinstance(node, Fold):
        lt = _check(node.list_expr, env)
        if lt != DslType.VECTOR_LIST:
            raise DslTypeError(f"fold expects a vector list, got {lt.value}", node.list_expr.pos)
        it = _check(node.init_expr, env)
        if it != DslType.VECTOR:
            raise DslTypeError(f"fold seed must be a vector, got {it.value}", node.init_expr.pos)
        acc, elem = node.binders
        inner = dict(env)
        inner[acc] = DslType.VECTOR
        inner[elem] = DslType.VECTOR
        bt = _check(node.body, inner)
        if bt != DslType.VECTOR:
            raise DslTypeError(f"fold body must produce a vector, got {bt.value}", node.body.pos)
        node.ty = DslType.VECTOR
    else:
        raise DslTypeError(f"unknown node {type(node).__name__}", getattr(node, "pos", (0, 0)))
    return node.ty


def typecheck(root: Node) -> Node:
    """Annotate all nodes in place; the program result type must be Vector."""
    result = _check(root, {})
    if result != DslType.VECTOR:
        raise DslTypeError(
            f"a merge program must produce a vector, got {result.value}", root.pos
        )
    return root
