"""AST node types and the op table of the merge-program expression language."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class DslType(enum.Enum):
    SCALAR = "scalar"
    VECTOR = "vector"
    VECTOR_LIST = "vector_list"


class DslRuntimeError(Exception):
    """Index out of range or a non-finite intermediate value."""


@dataclass(frozen=True)
class Op:
    """One operation: its signature, its implementation, its symmetry and its infix symbol.

    ``fn(d, *args)`` computes the raw result; ``d`` is the task-vector length.
    The interpreter checks that scalar and vector results are finite.
    """

    args: tuple[DslType, ...]
    result: DslType
    fn: Callable
    commutative: bool = False
    infix: str | None = None  # the symbol that resolves to this op on its argument types


def _cos(d, a, b) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise DslRuntimeError("cosine of a zero vector")
    return float(np.dot(a, b)) / (na * nb)


def _mean_stack(d, vs):
    if len(vs) == 0:
        raise DslRuntimeError("mean_stack of an empty list")
    return np.add.reduce(vs) / len(vs)


S, V, L = DslType.SCALAR, DslType.VECTOR, DslType.VECTOR_LIST

# The op table: the whole callable surface of the language, in the order the
# grammar lists its productions.  fold is a dedicated node, not a table op.
OP_TABLE: dict[str, Op] = {
    "add": Op((V, V), V, lambda d, a, b: a + b, commutative=True, infix="+"),
    "sub": Op((V, V), V, lambda d, a, b: a - b, infix="-"),
    "scale": Op((S, V), V, lambda d, s, v: s * v, infix="*"),
    "hadamard": Op((V, V), V, lambda d, a, b: a * b, commutative=True, infix="*"),
    "emax": Op((V, V), V, lambda d, a, b: np.maximum(a, b), commutative=True),
    "emin": Op((V, V), V, lambda d, a, b: np.minimum(a, b), commutative=True),
    "mean_elem": Op((V,), S, lambda d, v: float(np.add.reduce(v)) / len(v)),
    "norm1": Op((V,), S, lambda d, v: float(np.add.reduce(np.abs(v)))),
    "norm2": Op((V,), S, lambda d, v: float(np.linalg.norm(v))),
    "cos": Op((V, V), S, _cos),
    "mean_stack": Op((L,), V, _mean_stack),
    "sum_stack": Op((L,), V, lambda d, vs: np.add.reduce(vs) if vs else np.zeros(d)),
    "ones": Op((S,), V, lambda d, s: np.full(d, s)),
    "clamp": Op((S, S, S), S, lambda d, x, lo, hi: min(max(x, lo), hi)),
    "length": Op((L,), S, lambda d, vs: float(len(vs))),
    "tail": Op((L,), L, lambda d, vs: list(vs[1:])),
}

# Scalar arithmetic has infix syntax only: these ops cannot be called by name.
INFIX_OPS: dict[str, Op] = {
    "s_add": Op((S, S), S, lambda d, a, b: a + b, commutative=True, infix="+"),
    "s_sub": Op((S, S), S, lambda d, a, b: a - b, infix="-"),
    "s_mul": Op((S, S), S, lambda d, a, b: a * b, commutative=True, infix="*"),
}

# Every op by name, for the passes that see typechecked ASTs.
OPS: dict[str, Op] = {**OP_TABLE, **INFIX_OPS}

# Infix operators resolve to ops once the operand types are known; the
# typechecker puts the operands of ``v * s`` in ``scale``'s (scalar, vector) order.
INFIX: dict[tuple[str, DslType, DslType], str] = {
    (op.infix, *op.args): name for name, op in OPS.items() if op.infix
}
INFIX["*", V, S] = "scale"  # the one symbol whose operands are swapped


@dataclass
class Node:
    pos: tuple[int, int] = field(default=(0, 0), compare=False, kw_only=True)


@dataclass
class ScalarLit(Node):
    value: float


@dataclass
class ModelsRef(Node):
    """The input list of task vectors, `models`."""


@dataclass
class ModelIndex(Node):
    index: int


@dataclass
class Var(Node):
    depth: int  # its binder's fold, counted outward from 0, the innermost
    slot: int  # 0 for that fold's accumulator, 1 for its element


@dataclass
class Call(Node):
    op: str  # an infix symbol ("+", "-", "*") until typechecked
    args: tuple[Node, ...]


@dataclass
class Fold(Node):
    list_expr: Node
    init_expr: Node
    body: Node
