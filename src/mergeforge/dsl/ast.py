"""AST node types and the op table of the merge-program expression language."""

from __future__ import annotations

import enum
import math
import operator
import sys
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


# np.linalg.norm squares the entries unscaled: past ~1.3e154 the result
# overflows to inf, and the squares of entries below ~1.5e-154 are subnormals
# that lose bits.  A norm of d entries below sqrt(d) times that is therefore
# recomputed from the vector divided by its largest magnitude; every norm at
# or above it keeps the plain computation's bits, and so does every cosine of
# two such norms whose product is finite.
_SQRT_TINY = math.sqrt(sys.float_info.min)


def _norm2(v) -> float:
    n = float(np.linalg.norm(v))
    if not _SQRT_TINY * math.sqrt(len(v)) <= n < math.inf:
        m = float(np.abs(v).max())
        if 0.0 < m < math.inf:  # not a zero vector, nor one with an inf entry
            n = m * float(np.linalg.norm(v / m))
    return n


def _cos(a, b) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    floor = _SQRT_TINY * math.sqrt(len(a))
    if floor <= na and floor <= nb and na * nb < math.inf:
        return float(np.dot(a, b)) / (na * nb)
    ma, mb = float(np.abs(a).max()), float(np.abs(b).max())
    if ma == 0.0 or mb == 0.0:
        raise DslRuntimeError("cosine of a zero vector")
    a, b = a / ma, b / mb
    return float(np.dot(a, b)) / (float(np.linalg.norm(a)) * float(np.linalg.norm(b)))


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
    "norm2": Op((V,), S, _norm2),
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


# A node's pos is the source offset of its token, and its last field, so the
# parser builds each node from positional arguments alone, the cheapest call; it
# defaults to 0 and is left out of equality.  Only a reported error turns it into
# a (line, col), with ``parser.line_col``.  Slots keep the ~100,000 nodes of a
# full_scale run small.
class Node:
    __slots__ = ()


@dataclass(slots=True)
class ScalarLit(Node):
    value: float
    pos: int = field(default=0, compare=False)


@dataclass(slots=True)
class ModelsRef(Node):
    """The input list of task vectors, `models`."""

    pos: int = field(default=0, compare=False)


@dataclass(slots=True)
class ModelIndex(Node):
    index: int
    pos: int = field(default=0, compare=False)


@dataclass(slots=True)
class Var(Node):
    depth: int  # its binder's fold, counted outward from 0, the innermost
    slot: int  # 0 for that fold's accumulator, 1 for its element
    pos: int = field(default=0, compare=False)


@dataclass(slots=True)
class Call(Node):
    op: str  # an infix symbol ("+", "-", "*") until typechecked
    args: tuple[Node, ...]
    pos: int = field(default=0, compare=False)


@dataclass(slots=True)
class Fold(Node):
    list_expr: Node
    init_expr: Node
    body: Node
    pos: int = field(default=0, compare=False)
