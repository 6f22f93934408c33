"""Compiled merge programs: source + typed AST + canonical hash + provenance."""

from __future__ import annotations

from dataclasses import dataclass, field

from .ast import Node
from .canon import canonical_hash
from .parser import parse
from .typecheck import typecheck


@dataclass(frozen=True)
class MergeProgram:
    source: str
    ast: Node = field(compare=False)
    canonical_hash: str
    provenance: tuple[int, str] = (0, "manual")  # (iteration, generator kind)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MergeProgram({self.source!r}, hash={self.canonical_hash[:10]})"


def compile_program(source: str, provenance: tuple[int, str] = (0, "manual")) -> MergeProgram:
    """Parse, typecheck, and hash; raises ParseError / DslTypeError on bad input."""
    ast = typecheck(parse(source), source)
    return MergeProgram(
        source=source,
        ast=ast,
        canonical_hash=canonical_hash(ast),
        provenance=provenance,
    )

