"""Production-weighted typed grammar: the refinable candidate-program source.

Each production carries its own spelling: a terminal its whole text, a call
its op name and the fold ``fold``.  Sampling runs a top-down typed derivation
that spells its source text from those as it goes, so no AST exists until the
pipeline parses that text.  At every choice point the eligible productions are
weighted by softmax(logit / T); at the depth limit only terminal productions
remain eligible, so derivations always finish and every sampled program parses
and typechecks by construction.  Each grammar slot's eligible productions and
cdf are computed once per policy and temperature, and a choice draws the index
``Generator.choice(n, p=p)`` would.  The sampler also returns the pid of each
production it drew, in draw order: the production usage that preference-based
refinement consumes.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace

import numpy as np

from ..dsl.ast import OP_TABLE, DslType
from ..dsl.parser import MAX_DEPTH

# Nonterminals, keyed by the type an expression must produce.
NT_VECTOR = "V"
NT_SCALAR = "S"
NT_LIST = "L"

_NT_FOR_TYPE = {
    DslType.VECTOR: NT_VECTOR,
    DslType.SCALAR: NT_SCALAR,
    DslType.VECTOR_LIST: NT_LIST,
}

# Binder names the sampler emits.
BINDERS = ("acc", "x")

DEFAULT_LITERAL_PALETTE = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

LOGIT_MIN, LOGIT_MAX = -10.0, 10.0


@dataclass(frozen=True)
class Production:
    """A grammar rule; binder variables occur only in fold bodies, and folds never occur there."""
    pid: str
    kind: str  # "model" | "call" | "fold" | "lit" | "var" | "models"
    text: str  # a terminal's spelling, a call's op name, or "fold"
    args: tuple[str, ...] = ()  # none for a terminal


def _calls(result: DslType) -> list[Production]:
    """One production per table op with this result type, in table order."""
    nt = _NT_FOR_TYPE[result]
    return [
        Production(pid=f"{nt}->{name}", kind="call", text=name,
                   args=tuple(_NT_FOR_TYPE[t] for t in op.args))
        for name, op in OP_TABLE.items() if op.result == result
    ]


def default_grammar(k: int) -> dict[str, list[Production]]:
    """Full production table for instances with ``k`` candidate models."""
    if k < 1:
        raise ValueError("need at least one model")
    vector = [Production(pid=f"V->models[{j}]", kind="model", text=f"models[{j}]") for j in range(k)]
    vector += _calls(DslType.VECTOR)
    vector.append(Production(pid="V->fold", kind="fold", text="fold",
                             args=(NT_LIST, NT_VECTOR, NT_VECTOR)))
    # folds never nest in fold bodies, so a binder is always the innermost fold's
    vector += [Production(pid=f"V->{b}", kind="var", text=b) for b in BINDERS]
    scalar = [Production(pid=f"S->lit({c!r})", kind="lit", text=repr(float(c)))
              for c in DEFAULT_LITERAL_PALETTE]
    scalar += _calls(DslType.SCALAR)
    lst = [Production(pid="L->models", kind="models", text="models")] + _calls(DslType.VECTOR_LIST)
    return {NT_VECTOR: vector, NT_SCALAR: scalar, NT_LIST: lst}


@dataclass(frozen=True)
class GeneratorPolicy:
    grammar: dict[str, list[Production]]
    logits: dict[str, float]
    max_depth: int = 8
    version: int = 0
    # (temperature, nonterminal, terminal only, in fold body) -> (eligible, cdf)
    _slots: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @classmethod
    def initial(cls, grammar: dict[str, list[Production]], max_depth: int = 8) -> "GeneratorPolicy":
        """The uniform policy over ``grammar``, checked to derive only text that parses."""
        if not 1 <= max_depth < MAX_DEPTH:  # a derivation nests max_depth + 1 levels
            raise ValueError(f"max_depth must lie in [1, {MAX_DEPTH - 1}], got {max_depth}")
        for nt, prods in grammar.items():
            if not prods:
                raise ValueError(f"nonterminal {nt} has no productions")
            for p in prods:  # the sampler spells a call op(...), which only table ops parse as
                if p.kind == "call" and p.text not in OP_TABLE:
                    raise ValueError(f"production {p.pid} calls {p.text!r}, which is not a table op")
            for in_body in (False, True):
                if not _eligible(prods, True, in_body):
                    raise ValueError(
                        f"nonterminal {nt} has no terminal production "
                        f"({'in' if in_body else 'outside'} fold bodies)"
                    )
        logits = {p.pid: 0.0 for prods in grammar.values() for p in prods}
        return cls(grammar=grammar, logits=logits, max_depth=max_depth)

    def with_logits(self, logits: dict[str, float]) -> "GeneratorPolicy":
        return replace(self, logits=logits, version=self.version + 1)

    def slot(self, temp: float, nt: str, depth: int, in_body: bool) -> tuple:
        """The eligible productions and cdf of ``nt`` at ``depth``, built on first use."""
        key = (temp, nt, depth >= self.max_depth, in_body)
        slot = self._slots.get(key)
        if slot is None:
            eligible = _eligible(self.grammar[nt], key[2], in_body)
            probs = _softmax(np.array([self.logits[p.pid] for p in eligible]), temp)
            cdf = probs.cumsum()
            cdf /= cdf[-1]
            slot = self._slots[key] = (eligible, cdf.tolist())
        return slot


def _eligible(prods: list[Production], terminal_only: bool, in_body: bool) -> tuple[Production, ...]:
    return tuple(
        p for p in prods
        if p.kind != ("fold" if in_body else "var")
        and not (terminal_only and p.args)
    )


def _softmax(logits: np.ndarray, temp: float) -> np.ndarray:
    if not temp > 0:
        raise ValueError("temperature must be positive")
    with np.errstate(over="ignore"):  # a logit far below the max overflows to -inf: weight 0
        w = np.exp((logits - logits.max()) / temp)
    p = w / w.sum()
    if not np.isfinite(p).all():
        raise ValueError("probabilities are not finite")
    return p


def _derive(policy: GeneratorPolicy, temp: float, nt: str, depth: int, in_body: bool,
            rng: np.random.Generator, drawn: list[str]) -> str:
    """The source text of one derivation of ``nt``, spelled as the parser reads it;
    appends the pid of each production it draws to ``drawn``."""
    # Generator.choice(n, p=probs) draws the cdf's searchsorted(side="right")
    # index of one rng.random(); bisect_right finds the same index.
    eligible, cdf = policy.slot(temp, nt, depth, in_body)
    prod = eligible[bisect_right(cdf, rng.random())]
    drawn.append(prod.pid)
    if not prod.args:
        return prod.text
    if prod.kind == "fold":
        list_expr = _derive(policy, temp, prod.args[0], depth + 1, False, rng, drawn)
        init_expr = _derive(policy, temp, prod.args[1], depth + 1, False, rng, drawn)
        body = _derive(policy, temp, prod.args[2], depth + 1, True, rng, drawn)
        return f"fold({list_expr}, {init_expr}, ({BINDERS[0]}, {BINDERS[1]}) -> {body})"
    args = [_derive(policy, temp, a, depth + 1, in_body, rng, drawn) for a in prod.args]
    return f"{prod.text}({', '.join(args)})"


def sample_program(policy: GeneratorPolicy, temp: float,
                   rng: np.random.Generator) -> tuple[str, tuple[str, ...]]:
    """Sample one program: its source text, which always parses and typechecks,
    and the pids of the productions drawn for it, in draw order."""
    drawn: list[str] = []
    text = "merge(models) = " + _derive(policy, float(temp), NT_VECTOR, 0, False, rng, drawn)
    return text, tuple(drawn)
