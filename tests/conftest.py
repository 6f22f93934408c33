"""Test helpers that the package itself does not need.

Test modules import these by name (``from conftest import tokenize``).
"""

from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from mergeforge.core import Vector, as_vectors
from mergeforge.dsl import MergeProgram, compile_program
from mergeforge.dsl.ast import INFIX, INFIX_OPS, Call, Fold, ModelIndex, ModelsRef, Node, ScalarLit, Var
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
    kinds, texts, offsets = lex(source, len(source))
    locate = _locator(source, len(source))
    return [Token(kind, text, *locate(off)) for kind, text, off in zip(kinds, texts, offsets)]


# Ops with infix syntax only, and the raw symbols of an untyped tree, print infix.
_PRINT_INFIX = {name: op.infix for name, op in INFIX_OPS.items()}
_PRINT_INFIX.update((sym, sym) for sym, _, _ in INFIX)


def _binder(level: int, slot: int) -> str:
    """The name pretty gives a fold's binder: ``acc``/``x`` for the outermost fold, then ``acc1``/``x1``..."""
    return ("acc", "x")[slot] + (str(level) if level else "")


def pretty_expr(node: Node, level: int = 0) -> str:
    """``node``'s text, where ``level`` folds enclose it."""
    if isinstance(node, ScalarLit):
        return repr(float(node.value))
    if isinstance(node, ModelsRef):
        return "models"
    if isinstance(node, ModelIndex):
        return f"models[{node.index}]"
    if isinstance(node, Var):
        return _binder(level - 1 - node.depth, node.slot)
    if isinstance(node, Call):
        args = [pretty_expr(a, level) for a in node.args]
        if node.op in _PRINT_INFIX:
            return f"({args[0]} {_PRINT_INFIX[node.op]} {args[1]})"
        return f"{node.op}({', '.join(args)})"
    if isinstance(node, Fold):
        return (
            f"fold({pretty_expr(node.list_expr, level)}, {pretty_expr(node.init_expr, level)}, "
            f"({_binder(level, 0)}, {_binder(level, 1)}) -> {pretty_expr(node.body, level + 1)})"
        )
    raise TypeError(f"unknown node {node!r}")


def pretty(root: Node) -> str:
    """Render a program body back to concrete syntax: the AST oracle of ``sample_program``."""
    return f"merge(models) = {pretty_expr(root)}"


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


CORPUS = Path(__file__).parent / "corpus"  # reference merge programs


def corpus_names() -> list[str]:
    return sorted(p.stem for p in CORPUS.glob("*.merge"))


def load_corpus_source(name: str) -> str:
    return (CORPUS / f"{name}.merge").read_text()


def load_corpus_program(name: str) -> MergeProgram:
    return compile_program(load_corpus_source(name), provenance=(0, "corpus"))


def mean_fold_merge(taus: Sequence) -> Vector:
    """Sequentially blend each vector's element mean into a running merge.

    Starting from the first task vector, each later vector tau_i contributes
    only the scalar mean of its elements, broadcast as a constant vector:
    merged <- (merged + mean(tau_i) * ones) / 2.  A single input is returned
    unchanged.  The corpus program ``mean_shift_fold`` computes the same merge.
    """
    vecs = as_vectors(taus)
    merged = vecs[0].copy()
    for vec in vecs[1:]:
        merged = 0.5 * (merged + float(vec.mean()))
    return merged
