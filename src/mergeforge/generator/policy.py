"""Production-weighted typed grammar: the refinable candidate-program source.

Sampling runs a top-down typed derivation that spells its source text as it
goes, so no AST exists until the pipeline parses that text.  At every choice
point the eligible productions are weighted by softmax(logit / T); at the depth
limit only terminal productions remain eligible, so derivations always finish and
every sampled program parses and typechecks by construction.  Each grammar
slot's eligible productions and cdf are computed once per policy and
temperature, and a choice draws the index ``Generator.choice(n, p=p)`` would.

The same grammar supports deterministic re-derivation: given a typed AST we
can recover exactly which productions a derivation would have used, which is
what the preference-based refinement consumes.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from ..dsl.ast import (
    OP_TABLE,
    Call,
    DslType,
    ModelIndex,
    ModelsRef,
    Node,
    ScalarLit,
    Var,
)
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

# Binder names the sampler emits; re-derivation matches binders by slot.
BINDERS = ("acc", "x")

DEFAULT_LITERAL_PALETTE = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

LOGIT_MIN, LOGIT_MAX = -10.0, 10.0


class UnderivableProgram(ValueError):
    """The AST uses a shape the grammar cannot produce (index, literal, nesting)."""


@dataclass(frozen=True)
class Production:
    """A grammar rule; binder variables occur only in fold bodies, and folds never occur there."""
    pid: str
    kind: str  # "model" | "call" | "fold" | "lit" | "var" | "models"
    payload: object = None
    args: tuple[str, ...] = ()  # none for a terminal


def _calls(result: DslType) -> list[Production]:
    """One production per table op with this result type, in table order."""
    nt = _NT_FOR_TYPE[result]
    return [
        Production(pid=f"{nt}->{name}", kind="call", payload=name,
                   args=tuple(_NT_FOR_TYPE[t] for t in op.args))
        for name, op in OP_TABLE.items() if op.result == result
    ]


def default_grammar(k: int) -> dict[str, list[Production]]:
    """Full production table for instances with ``k`` candidate models."""
    if k < 1:
        raise ValueError("need at least one model")
    vector: list[Production] = [
        Production(pid=f"V->models[{j}]", kind="model", payload=j)
        for j in range(k)
    ]
    vector += _calls(DslType.VECTOR)
    vector += [
        Production(pid="V->fold", kind="fold", args=(NT_LIST, NT_VECTOR, NT_VECTOR)),
        Production(pid="V->acc", kind="var", payload=0),
        Production(pid="V->x", kind="var", payload=1),
    ]
    scalar: list[Production] = [
        Production(pid=f"S->lit({c!r})", kind="lit", payload=float(c))
        for c in DEFAULT_LITERAL_PALETTE
    ]
    scalar += _calls(DslType.SCALAR)
    lst = [Production(pid="L->models", kind="models")] + _calls(DslType.VECTOR_LIST)
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
        policy = cls(
            grammar=grammar,
            logits={p.pid: 0.0 for prods in grammar.values() for p in prods},
            max_depth=max_depth,
        )
        policy.validate()
        return policy

    def validate(self) -> None:
        if not 1 <= self.max_depth < MAX_DEPTH:  # a derivation nests max_depth + 1 levels
            raise ValueError(f"max_depth must lie in [1, {MAX_DEPTH - 1}], got {self.max_depth}")
        for nt, prods in self.grammar.items():
            if not prods:
                raise ValueError(f"nonterminal {nt} has no productions")
            for p in prods:  # the sampler spells a call op(...), which only table ops parse as
                if p.kind == "call" and p.payload not in OP_TABLE:
                    raise ValueError(f"production {p.pid} calls {p.payload!r}, which is not a table op")
            for in_body in (False, True):
                if not _eligible(prods, True, in_body):
                    raise ValueError(
                        f"nonterminal {nt} has no terminal production "
                        f"({'in' if in_body else 'outside'} fold bodies)"
                    )

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
    shifted = (logits - logits.max()) / temp
    w = np.exp(shifted)
    p = w / w.sum()
    if not np.isfinite(p).all():
        raise ValueError("probabilities are not finite")
    return p


def _derive(policy: GeneratorPolicy, temp: float, nt: str, depth: int, in_body: bool,
            rng: np.random.Generator) -> str:
    """The source text of one derivation of ``nt``, spelled as the parser reads it."""
    # Generator.choice(n, p=probs) draws the cdf's searchsorted(side="right")
    # index of one rng.random(); bisect_right finds the same index.
    eligible, cdf = policy.slot(temp, nt, depth, in_body)
    prod = eligible[bisect_right(cdf, rng.random())]
    kind = prod.kind
    if kind == "call":
        args = [_derive(policy, temp, a, depth + 1, in_body, rng) for a in prod.args]
        return f"{prod.payload}({', '.join(args)})"
    if kind == "model":
        return f"models[{int(prod.payload)}]"
    if kind == "lit":
        return repr(float(prod.payload))
    if kind == "var":  # folds never nest in fold bodies, so the binder is the innermost
        return BINDERS[int(prod.payload)]
    if kind == "models":
        return "models"
    if kind == "fold":
        list_expr = _derive(policy, temp, prod.args[0], depth + 1, False, rng)
        init_expr = _derive(policy, temp, prod.args[1], depth + 1, False, rng)
        body = _derive(policy, temp, prod.args[2], depth + 1, True, rng)
        return f"fold({list_expr}, {init_expr}, ({BINDERS[0]}, {BINDERS[1]}) -> {body})"
    raise AssertionError(f"unknown production kind {kind}")


def sample_program(policy: GeneratorPolicy, temp: float, rng: np.random.Generator) -> str:
    """Sample one program as source text; always parses and typechecks."""
    return "merge(models) = " + _derive(policy, float(temp), NT_VECTOR, 0, False, rng)


def derivation_counts(policy: GeneratorPolicy, root: Node) -> Counter:
    """Production usage of the derivation that would produce ``root``.

    Raises UnderivableProgram for shapes the grammar cannot emit: out-of-range
    model indexes, literals outside the palette, scalar infix arithmetic,
    nested folds, or ops missing from a restricted grammar.
    """
    counts: Counter = Counter()
    _rederive(policy, root, NT_VECTOR, False, counts)
    return counts


def _rederive(policy: GeneratorPolicy, node: Node, nt: str, in_body: bool, counts: Counter) -> None:
    """Count ``node``'s productions; ``in_body`` says whether it lies in a fold body."""
    children: tuple = ()  # (child node, whether it lies in a fold body) pairs
    if isinstance(node, ModelIndex):
        key = ("model", node.index)
    elif isinstance(node, ModelsRef):
        key = ("models", None)
    elif isinstance(node, ScalarLit):
        key = ("lit", float(node.value))
    elif isinstance(node, Var):
        if not in_body:
            raise UnderivableProgram("variable outside a fold body")
        key = ("var", node.slot)
    elif isinstance(node, Call):
        if node.op not in OP_TABLE:
            raise UnderivableProgram("scalar infix arithmetic has no production")
        key = ("call", node.op)
        children = tuple((arg, in_body) for arg in node.args)
    else:  # a Fold
        if in_body:
            raise UnderivableProgram("nested fold has no production")
        key = ("fold", None)
        children = ((node.list_expr, False), (node.init_expr, False), (node.body, True))
    prod = next((p for p in policy.grammar[nt] if (p.kind, p.payload) == key), None)
    if prod is None:
        where = "the palette" if key[0] == "lit" else "the grammar"
        raise UnderivableProgram(f"{key[0]} {key[1]!r} is outside {where}")
    counts[prod.pid] += 1
    for arg_nt, (arg, arg_in_body) in zip(prod.args, children):
        _rederive(policy, arg, arg_nt, arg_in_body, counts)
