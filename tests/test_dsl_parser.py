import numpy as np
import pytest

from mergeforge.dsl import (
    DslTypeError,
    ParseError,
    canonical_hash,
    compile_program,
    parse,
    pretty,
    typecheck,
)
from mergeforge.dsl.ast import Call, ModelIndex, ScalarLit
from mergeforge.dsl.parser import MAX_DEPTH
from mergeforge.fixtures import corpus_names, load_corpus_source
from mergeforge.generator import GeneratorPolicy, default_grammar, sample_program

MEAN_FOLD_SRC = (
    "merge(models) = fold(tail(models), models[0], "
    "(acc, x) -> scale(0.5, add(acc, ones(mean_elem(x)))))"
)


def test_projection_parses():
    ast = typecheck(parse("merge(models) = models[0]"))
    assert ast == ModelIndex(index=0)


def test_mean_fold_fixture_parses():
    ast = typecheck(parse(MEAN_FOLD_SRC))
    assert ast == parse(MEAN_FOLD_SRC)


def test_unclosed_paren_is_parse_error():
    with pytest.raises(ParseError) as exc:
        parse("merge(models) = add(models[0]")
    assert exc.value.line == 1 and exc.value.col > 1


def test_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse("merge(models) = frob")


def test_unknown_operation():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse("merge(models) = frobnicate(models[0])")


def test_scalar_infix_ops_are_not_callable_by_name():
    with pytest.raises(ParseError, match="unknown identifier 's_add'"):
        parse("merge(models) = ones(s_add(1.0, 2.0))")


def _nested_calls(n):
    return "merge(models) = " + "add(" * n + "models[0]" + ", models[1])" * n


def _infix_chain(n):
    return "merge(models) = models[0]" + " + models[1]" * n


def _parens(n):
    return "merge(models) = " + "(" * n + "models[0]" + ")" * n


def _chains_in_parens(levels):
    # every level short enough on its own; together far deeper than MAX_DEPTH
    expr = "models[0]"
    for level in range(levels, 0, -1):
        expr = "(" + expr + " + models[1]" * (MAX_DEPTH - level - 1) + ")"
    return "merge(models) = " + expr


@pytest.mark.parametrize("build", [_nested_calls, _infix_chain, _parens])
def test_nesting_up_to_max_depth_parses(build):
    typecheck(parse(build(MAX_DEPTH - 1)))


@pytest.mark.parametrize("source", [
    _nested_calls(MAX_DEPTH), _nested_calls(5000),
    _infix_chain(MAX_DEPTH), _infix_chain(5000),
    _parens(MAX_DEPTH), _parens(5000),
    _chains_in_parens(60),
])
def test_nesting_beyond_max_depth_is_parse_error(source):
    with pytest.raises(ParseError, match="nested deeper than 128 levels"):
        parse(source)


def test_arity_mismatch():
    with pytest.raises(ParseError, match="add takes 2 arguments"):
        parse("merge(models) = add(models[0])")


def test_binder_not_visible_outside_fold():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse("merge(models) = add(fold(models, models[0], (a, b) -> a), b)")


def test_duplicate_binders_rejected():
    with pytest.raises(ParseError, match="distinct"):
        parse("merge(models) = fold(models, models[0], (a, a) -> a)")


def test_comments_and_whitespace():
    src = """
    # blended strategy
    merge(models) =   add(
        models[0],   # first
        models[1])
    """
    assert typecheck(parse(src)) == parse("merge(models) = add(models[0], models[1])")


def test_non_integer_index_rejected():
    with pytest.raises(ParseError, match="integer"):
        parse("merge(models) = models[0.5]")


def test_negative_literal():
    ast = typecheck(parse("merge(models) = scale(-0.5, models[0])"))
    assert ast == Call(op="scale", args=(ScalarLit(value=-0.5), ModelIndex(index=0)))


# -- typecheck ------------------------------------------------------------

def test_scalar_result_rejected():
    with pytest.raises(DslTypeError, match="must produce a vector"):
        compile_program("merge(models) = mean_elem(models[0])")


def test_list_result_rejected():
    with pytest.raises(DslTypeError, match="must produce a vector"):
        compile_program("merge(models) = tail(models)")


def test_mean_stack_well_typed():
    assert compile_program("merge(models) = mean_stack(models)")


def test_add_of_lists_rejected():
    with pytest.raises(DslTypeError, match="add expects vector"):
        compile_program("merge(models) = add(models, models)")


def test_infix_resolution():
    program = compile_program("merge(models) = models[0] + 0.5 * models[1]")
    assert program.ast == Call(op="add", args=(
        ModelIndex(index=0),
        Call(op="scale", args=(ScalarLit(value=0.5), ModelIndex(index=1))),
    ))


def test_typecheck_lowers_infix_to_named_ops():
    assert typecheck(parse("merge(models) = models[0] * 0.5")) == typecheck(
        parse("merge(models) = scale(0.5, models[0])")
    )


def test_scalar_plus_vector_rejected():
    with pytest.raises(DslTypeError):
        compile_program("merge(models) = 0.5 + models[0]")


# -- pretty-print round trip ----------------------------------------------

SCALAR_INFIX_SRC = "merge(models) = scale(mean_elem(models[0]) + 0.1, models[0])"


@pytest.mark.parametrize(
    "source",
    [load_corpus_source(name) for name in corpus_names()] + [SCALAR_INFIX_SRC],
    ids=corpus_names() + ["scalar_infix"],
)
def test_corpus_round_trip(source):
    ast = typecheck(parse(source))
    reparsed = typecheck(parse(pretty(ast)))
    assert canonical_hash(reparsed) == canonical_hash(ast)


def test_sampled_program_round_trip():
    policy = GeneratorPolicy.initial(default_grammar(3))
    for i in range(200):
        source = sample_program(policy, 1.2, np.random.default_rng((1, i)))
        ast = typecheck(parse(source))
        reparsed = typecheck(parse(pretty(ast)))
        assert canonical_hash(reparsed) == canonical_hash(ast)
