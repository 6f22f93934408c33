import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from mergeforge.dsl.parser import _TOKEN_RE, MAX_DEPTH, tokenize
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


# -- lexer against the per-token-object oracle ------------------------------

def _oracle_tokenize(source):
    """The lexer before tokens became tuples: newlines counted in every token."""
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line, col)
        text = m.group(0)
        kind = m.lastgroup or ""
        if kind not in ("ws", "comment"):
            tokens.append((kind if kind != "sym" else text, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


def _lexed(lex, source):
    try:
        return [tuple(t) for t in lex(source)]
    except ParseError as exc:
        return (exc.line, exc.col, str(exc))


_LEXER_CASES = [
    "1e5add", "# add\nadd(", "\tadd(\t models[0],\n\t\tmodels[1])", "add(\r\n models[0])\r\n",
    "add(é)", "", "merge(models) = (acc, x) -> 1.5e-3 * models[2]\n# end",
    "\n\n  x\n", "models[0] !", "a b\x0cc d",
]

_lexer_text = st.one_of(
    st.text(max_size=80),
    st.lists(st.sampled_from([
        "add", "(", ")", "[", "]", ",", "=", "+", "-", "*", "->", "1", "1e5", "0.5e-3", "é",
        " ", "\t", "\n", "\r\n", "# note", "#", "models", "_x9", "!", "\x0b",
    ]), max_size=60).map("".join),
)


@pytest.mark.parametrize("source", _LEXER_CASES)
def test_tokenize_matches_the_oracle_on_hand_cases(source):
    assert _lexed(tokenize, source) == _lexed(_oracle_tokenize, source)


@settings(max_examples=400, deadline=None)
@given(_lexer_text)
def test_tokenize_matches_the_oracle(source):
    assert _lexed(tokenize, source) == _lexed(_oracle_tokenize, source)


def test_unexpected_character_position():
    with pytest.raises(ParseError, match="unexpected character 'é'") as exc:
        tokenize("merge(models) =\n  add(é)")
    assert (exc.value.line, exc.value.col) == (2, 7)
