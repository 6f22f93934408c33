"""AST node types and the op table of the merge-program expression language."""

from __future__ import annotations

import enum
import operator
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

    ``fn(*args)`` computes the raw result from the op's arguments alone, so an
    elementwise row is the numpy ufunc or ``operator`` function itself.  The
    two rows that build a vector from no vector, ``ones`` and ``sum_stack``
    (of an empty list), have ``takes_d`` and are called ``fn(d, *args)``,
    where ``d`` is the task-vector length.  The interpreter checks that
    scalar and vector results are finite.
    """

    args: tuple[DslType, ...]
    result: DslType
    fn: Callable
    commutative: bool = False
    infix: str | None = None  # the symbol that resolves to this op on its argument types
    takes_d: bool = False


def _cos(a, b) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise DslRuntimeError("cosine of a zero vector")
    return float(np.dot(a, b)) / (na * nb)


def _mean_stack(vs):
    if len(vs) == 0:
        raise DslRuntimeError("mean_stack of an empty list")
    return np.add.reduce(vs) / len(vs)


S, V, L = DslType.SCALAR, DslType.VECTOR, DslType.VECTOR_LIST

# The op table: the whole callable surface of the language, in the order the
# grammar lists its productions.  fold is a dedicated node, not a table op.
OP_TABLE: dict[str, Op] = {
    "add": Op((V, V), V, np.add, commutative=True, infix="+"),
    "sub": Op((V, V), V, np.subtract, infix="-"),
    "scale": Op((S, V), V, np.multiply, infix="*"),
    "hadamard": Op((V, V), V, np.multiply, commutative=True, infix="*"),
    "emax": Op((V, V), V, np.maximum, commutative=True),
    "emin": Op((V, V), V, np.minimum, commutative=True),
    "mean_elem": Op((V,), S, lambda v: float(np.add.reduce(v)) / len(v)),
    "norm1": Op((V,), S, lambda v: float(np.add.reduce(np.abs(v)))),
    "norm2": Op((V,), S, lambda v: float(np.linalg.norm(v))),
    "cos": Op((V, V), S, _cos),
    "mean_stack": Op((L,), V, _mean_stack),
    "sum_stack": Op((L,), V, lambda d, vs: np.add.reduce(vs) if vs else np.zeros(d), takes_d=True),
    "ones": Op((S,), V, np.full, takes_d=True),
    "clamp": Op((S, S, S), S, lambda x, lo, hi: min(max(x, lo), hi)),
    "length": Op((L,), S, lambda vs: float(len(vs))),
    "tail": Op((L,), L, lambda vs: list(vs[1:])),
}

# Scalar arithmetic has infix syntax only: these ops cannot be called by name.
INFIX_OPS: dict[str, Op] = {
    "s_add": Op((S, S), S, operator.add, commutative=True, infix="+"),
    "s_sub": Op((S, S), S, operator.sub, infix="-"),
    "s_mul": Op((S, S), S, operator.mul, commutative=True, infix="*"),
}

# Every op by name, for the passes that see typechecked ASTs.
OPS: dict[str, Op] = {**OP_TABLE, **INFIX_OPS}

# Infix operators resolve to ops once the operand types are known; the
# typechecker puts the operands of ``v * s`` in ``scale``'s (scalar, vector) order.
INFIX: dict[tuple[str, DslType, DslType], str] = {
    (op.infix, *op.args): name for name, op in OPS.items() if op.infix
}
INFIX["*", V, S] = "scale"  # the one symbol whose operands are swapped


# A node's (line, col) is its last field, so the parser builds each node from
# positional arguments alone, the cheapest call; it defaults to (0, 0) and is
# left out of equality.  Slots keep the ~100,000 nodes of a full_scale run small.
class Node:
    __slots__ = ()


@dataclass(slots=True)
class ScalarLit(Node):
    value: float
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(slots=True)
class ModelsRef(Node):
    """The input list of task vectors, `models`."""

    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(slots=True)
class ModelIndex(Node):
    index: int
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(slots=True)
class Var(Node):
    depth: int  # its binder's fold, counted outward from 0, the innermost
    slot: int  # 0 for that fold's accumulator, 1 for its element
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(slots=True)
class Call(Node):
    op: str  # an infix symbol ("+", "-", "*") until typechecked
    args: tuple[Node, ...]
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(slots=True)
class Fold(Node):
    list_expr: Node
    init_expr: Node
    body: Node
    pos: tuple[int, int] = field(default=(0, 0), compare=False)
