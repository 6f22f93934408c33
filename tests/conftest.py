"""Test helpers that the package itself does not need.

Test modules import these by name (``from conftest import tokenize``).
"""

from typing import NamedTuple

import numpy as np

from mergeforge.dsl.parser import _locator, lex
from mergeforge.generator import GeneratorPolicy, Production
from mergeforge.generator.policy import NT_LIST, NT_SCALAR, NT_VECTOR, _eligible, _softmax


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


def production_probability(policy: GeneratorPolicy, nt: str, pid: str, temp: float,
                           depth: int = 0, in_body: bool = False) -> float:
    """Analytic softmax probability of one production at a choice point, uncached."""
    eligible = _eligible(policy.grammar[nt], depth >= policy.max_depth, in_body)
    probs = _softmax(np.array([policy.logits[p.pid] for p in eligible]), float(temp))
    for p, w in zip(eligible, probs):
        if p.pid == pid:
            return float(w)
    return 0.0
