"""Compiled merge programs: source + typed AST + canonical hash + provenance.

``compile_program`` parses a text, then makes one walk over the tree
(``typecheck``), which types it and spells its canonical text, and hashes that text.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ast import Node
from .parser import parse
from .typecheck import canonical_hash, typecheck


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
    ast = parse(source)
    return MergeProgram(
        source=source,
        ast=ast,
        canonical_hash=canonical_hash(typecheck(ast, source)),
        provenance=provenance,
    )
