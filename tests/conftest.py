"""Test helpers that the package itself does not need.

Test modules import these by name (``from conftest import tokenize``).
"""

from typing import NamedTuple

from mergeforge.dsl.parser import _locator, lex
from mergeforge.generator import Production
from mergeforge.generator.policy import NT_LIST, NT_SCALAR, NT_VECTOR


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def tokenize(source: str) -> list[Token]:
    """The tokens of ``source`` as the parser reads them, ending in eof."""
    kinds, texts, offsets = lex(source)
    locate = _locator(source)
    return [Token(kind, text, *locate(off)) for kind, text, off in zip(kinds, texts, offsets)]


def identity_grammar() -> dict[str, list[Production]]:
    """Single-production grammar that can only emit ``models[0]``."""
    return {
        NT_VECTOR: [Production(pid="V->models[0]", kind="model", payload=0)],
        NT_SCALAR: [Production(pid="S->lit(1.0)", kind="lit", payload=1.0)],
        NT_LIST: [Production(pid="L->models", kind="models")],
    }
