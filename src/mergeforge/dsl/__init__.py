from .ast import OP_TABLE, DslType, Node
from .canon import canonical_hash
from .interp import BudgetExceeded, DslRuntimeError, Memo, default_budget, evaluate
from .parser import ParseError, parse
from .program import MergeProgram, compile_program
from .typecheck import DslTypeError, typecheck

__all__ = [
    "OP_TABLE",
    "DslType",
    "Node",
    "canonical_hash",
    "BudgetExceeded",
    "DslRuntimeError",
    "Memo",
    "default_budget",
    "evaluate",
    "ParseError",
    "parse",
    "MergeProgram",
    "compile_program",
    "DslTypeError",
    "typecheck",
]
