import re

import numpy as np
import pytest

from conftest import corpus_names, load_corpus_source, pretty
from mergeforge.dsl import EvalBudget, compile_program, evaluate
from mergeforge.dsl.ast import OP_TABLE, Call, Fold
from mergeforge.generator import GeneratorPolicy, default_grammar, sample_program


def h(src):
    return compile_program(src).canonical_hash


def test_commutative_argument_order():
    assert h("merge(models) = add(models[0], models[1])") == h(
        "merge(models) = add(models[1], models[0])"
    )
    assert h("merge(models) = emax(models[0], models[1])") == h(
        "merge(models) = emax(models[1], models[0])"
    )


def test_non_commutative_order_matters():
    assert h("merge(models) = sub(models[0], models[1])") != h(
        "merge(models) = sub(models[1], models[0])"
    )


def test_binder_renaming():
    assert h("merge(models) = fold(models, models[0], (acc, x) -> add(acc, x))") == h(
        "merge(models) = fold(models, models[0], (left, right) -> add(left, right))"
    )


def test_distinct_constants_differ():
    assert h("merge(models) = scale(2.0, models[0])") != h(
        "merge(models) = scale(3.0, models[0])"
    )


def test_whitespace_and_comments_ignored():
    assert h("merge(models)=add(models[0],models[1])") == h(
        "# comment\nmerge(models) = add( models[0] ,\n models[1] )  # trailing"
    )


def test_literal_subexpressions_folded():
    assert h("merge(models) = scale(0.25 + 0.25, models[0])") == h(
        "merge(models) = scale(0.5, models[0])"
    )
    assert h("merge(models) = scale(clamp(5.0, 0.0, 2.0), models[0])") == h(
        "merge(models) = scale(2.0, models[0])"
    )


def test_infix_and_named_forms_agree():
    assert h("merge(models) = models[0] + models[1]") == h(
        "merge(models) = add(models[0], models[1])"
    )
    assert h("merge(models) = models[0] * 0.5") == h(
        "merge(models) = scale(0.5, models[0])"
    )


# Canonical hashes are written to the deterministic run files, so the bytes
# they hash are pinned.
PINNED_HASHES = {
    "cosine_blend_fold": "2cb919b8a48af5dd90c3c9a13a7dcb0a",
    "extremes_mixture": "8f8dbe2c756744e786c3c5b07bed6d6b",
    "mean_shift_fold": "e7a8cb29ebe718a572b5a81b055fba4b",
    "stack_mean": "36897b95684dce7cf6b57ee323d6a1da",
    "uniform_sum": "1853020d975501b66b3b2f1e6de66bfc",
    "weighted_sum_three": "482f86c43ab6d03fe33515838be5b33f",
    "merge(models) = models[0] + models[1]": "fa020c132284bf1d8df6f8617d92ee9b",
    "merge(models) = add(models[0], models[1])": "fa020c132284bf1d8df6f8617d92ee9b",
    "merge(models) = models[0] * 0.5": "f794f4763da905a798dfaffaafe2083b",
    "merge(models) = scale(0.5, models[0])": "f794f4763da905a798dfaffaafe2083b",
}


@pytest.mark.parametrize("key", PINNED_HASHES)
def test_pinned_canonical_hashes(key):
    source = load_corpus_source(key) if key in corpus_names() else key
    assert h(source) == PINNED_HASHES[key]


def _scramble(node):
    """Equivalence-preserving rewrite: swap commutative args."""
    if isinstance(node, Call):
        args = tuple(_scramble(a) for a in node.args)
        if OP_TABLE[node.op].commutative:
            args = tuple(reversed(args))
        return Call(node.op, args)
    if isinstance(node, Fold):
        return Fold(_scramble(node.list_expr), _scramble(node.init_expr), _scramble(node.body))
    return node


def _renamed(source):
    """``source`` printed by ``pretty`` with every fold's binders renamed."""
    return re.sub(r"\b(acc|x)(\d*)\b", lambda m: {"acc": "left_", "x": "right_"}[m[1]] + m[2], source)


def test_hash_equality_implies_equal_semantics():
    # Sampled programs vs an equivalence-preserving scramble of themselves:
    # hashes agree, and so do outputs on 50 random model sets.
    from mergeforge.dsl import canonical_hash, parse, typecheck

    policy = GeneratorPolicy.initial(default_grammar(3))
    rng = np.random.default_rng(77)
    checked = 0
    for i in range(40):
        source = sample_program(policy, 1.2, np.random.default_rng((5, i)))
        original = compile_program(source)
        scrambled = typecheck(parse(_renamed(pretty(_scramble(original.ast)))))
        assert canonical_hash(scrambled) == original.canonical_hash
        for _ in range(50):
            models = [rng.normal(size=6) for _ in range(3)]
            budget = EvalBudget(50_000)
            try:
                a = evaluate(original.ast, models, budget)
            except Exception as exc:
                with pytest.raises(type(exc)):
                    evaluate(scrambled, models, budget)
                continue
            b = evaluate(scrambled, models, budget)
            # commutative swaps are exact in IEEE arithmetic: no reassociation
            assert np.array_equal(a, b)
            checked += 1
    assert checked > 500
