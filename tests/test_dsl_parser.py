import dataclasses
import functools
import gc
import hashlib
import importlib.util
import sys
import time
import timeit
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    Token, corpus_names, load_corpus_source, position, pretty, reference_hash, reference_typecheck, tokenize,
)
from mergeforge.dsl.ast import (
    OP_TABLE,
    OPS,
    Call,
    Fold,
    ModelIndex,
    ModelsRef,
    Node,
    ScalarLit,
    Var,
)
from mergeforge.dsl.interp import Memo, evaluate
from mergeforge.dsl.parser import _TOKEN_RE, MAX_DEPTH, MAX_SOURCE_CHARS, ParseError, _height, _lex_end, parse
from mergeforge.dsl.program import compile_program
from mergeforge.dsl.typecheck import DslTypeError, canonical_hash, typecheck
from mergeforge.generator.extract import extract_program
from mergeforge.generator.policy import GeneratorPolicy, default_grammar, sample_program

MEAN_FOLD_SRC = (
    "merge(models) = fold(tail(models), models[0], "
    "(acc, x) -> scale(0.5, add(acc, ones(mean_elem(x)))))"
)


def _typed(source):
    root = parse(source)
    typecheck(root, source)
    return root


def test_projection_parses():
    ast = _typed("merge(models) = models[0]")
    assert ast == ModelIndex(index=0)


def test_mean_fold_fixture_parses():
    ast = _typed(MEAN_FOLD_SRC)
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
    _typed(build(MAX_DEPTH - 1))


# The deepest texts here stay under MAX_SOURCE_CHARS, so the depth bound is
# what rejects them.
@pytest.mark.parametrize("source", [
    _nested_calls(MAX_DEPTH), _nested_calls(4000),
    _infix_chain(MAX_DEPTH), _infix_chain(5000),
    _parens(MAX_DEPTH), _parens(5000),
    _chains_in_parens(50),
])
def test_nesting_beyond_max_depth_is_parse_error(source):
    with pytest.raises(ParseError, match="nested deeper than 128 levels"):
        parse(source)


def test_text_over_max_source_chars_is_rejected_before_lexing():
    at_cap = "merge(models) = models[0]".ljust(MAX_SOURCE_CHARS)
    assert parse(at_cap) == ModelIndex(index=0)
    for source in (at_cap + " ", at_cap + "\u00e9", _nested_calls(5000)):
        with pytest.raises(ParseError) as exc:
            parse(source)
        assert str(exc.value) == (
            f"1:1: program text is {len(source)} characters, over the limit of {MAX_SOURCE_CHARS}"
        )


def test_arity_mismatch():
    with pytest.raises(ParseError, match="add takes 2 arguments"):
        parse("merge(models) = add(models[0])")


def test_binder_not_visible_outside_fold():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse("merge(models) = add(fold(models, models[0], (a, b) -> a), b)")


def test_inner_fold_that_swaps_the_outer_binder_names():
    # The inner pair (x, acc) names its accumulator x and its element acc; its
    # seed acc still reads the outer accumulator.  Each pass reads the parser's
    # resolution, so the wrong binder would change the canonical text and result.
    source = (
        "merge(models) = fold(models, models[0], (acc, x) -> "
        "fold(tail(models), acc, (x, acc) -> add(acc, scale(0.5, x))))"
    )
    program = compile_program(source)
    assert typecheck(parse(source), source) == (
        "(fold (models) (model 0) (fold (tail (models)) (var 0 0) "
        "(add (scale lit:0.5 (var 0 0)) (var 0 1))))"
    )
    models = [np.array([8.0, 0.0]), np.array([0.0, 8.0]), np.array([8.0, 8.0])]
    # each outer step maps a to models[2] + 0.5 * models[1] + 0.25 * a, from models[0]
    expected = np.array([10.625, 15.75])
    budget = 1000
    assert np.array_equal(evaluate(program.ast, models, budget), expected)
    memo = Memo()
    assert np.array_equal(evaluate(program.ast, models, budget, memo), expected)
    assert list(memo.table) == [("tail", None)]  # one miss, then a hit per outer step
    assert (memo.misses, memo.hits) == (1, 2)


def test_a_variable_must_be_built_with_its_binder():
    with pytest.raises(TypeError, match="depth.*slot"):
        Var()


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
    assert _typed(src) == parse("merge(models) = add(models[0], models[1])")


def test_non_integer_index_rejected():
    with pytest.raises(ParseError, match="integer"):
        parse("merge(models) = models[0.5]")


def test_negative_literal():
    ast = _typed("merge(models) = scale(-0.5, models[0])")
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
    assert _typed("merge(models) = models[0] * 0.5") == _typed("merge(models) = scale(0.5, models[0])")


def test_scalar_plus_vector_rejected():
    with pytest.raises(DslTypeError):
        compile_program("merge(models) = 0.5 + models[0]")


@pytest.mark.parametrize("source,message", [
    ("merge(models) = fold(models[0], models[0], (acc, x) -> acc)",
     "1:22: fold expects a vector list, got vector"),
    ("merge(models) = fold(models, 0.5, (acc, x) -> acc)",
     "1:30: fold seed must be a vector, got scalar"),
    ("merge(models) = fold(models, models[0], (acc, x) -> mean_elem(x))",
     "1:53: fold body must produce a vector, got scalar"),
    ("# blend the models\nmerge(models) = fold(models, 0.5, (acc, x) -> acc)",
     "2:30: fold seed must be a vector, got scalar"),
    ("merge(models) =\r\n  fold(models, models[0],\r\n    (acc, x) -> mean_elem(x))",
     "3:17: fold body must produce a vector, got scalar"),
], ids=["list", "seed", "body", "seed_after_comment", "body_crlf"])
def test_fold_operand_of_the_wrong_type_is_named(source, message):
    with pytest.raises(DslTypeError) as exc:
        typecheck(parse(source), source)
    assert str(exc.value) == message


# -- pretty-print round trip ----------------------------------------------

SCALAR_INFIX_SRC = "merge(models) = scale(mean_elem(models[0]) + 0.1, models[0])"


@pytest.mark.parametrize(
    "source",
    [load_corpus_source(name) for name in corpus_names()] + [SCALAR_INFIX_SRC],
    ids=corpus_names() + ["scalar_infix"],
)
def test_corpus_round_trip(source):
    program = compile_program(source)
    assert compile_program(pretty(program.ast)).canonical_hash == program.canonical_hash


def test_sampled_program_round_trip():
    policy = GeneratorPolicy.initial(default_grammar(3))
    for i in range(200):
        source, _ = sample_program(policy, 1.2, np.random.default_rng((1, i)))
        program = compile_program(source)
        assert compile_program(pretty(program.ast)).canonical_hash == program.canonical_hash
        # the spelling every grammar run parses, positions included
        assert _parsed(parse, source) == _parsed(_oracle_parse, source)


def _calls(node):
    stack = [node]
    while stack:
        node = stack.pop()
        if type(node) is Call:
            yield node
            stack.extend(node.args)
        elif type(node) is Fold:
            stack.extend((node.list_expr, node.init_expr, node.body))


def test_compiled_calls_share_the_op_table_keys():
    # a call's op is the OPS key itself, not a private copy of the text's name
    keys = {name: name for name in OPS}
    policy = GeneratorPolicy.initial(default_grammar(3))
    sources = [load_corpus_source(name) for name in corpus_names()] + [SCALAR_INFIX_SRC]
    sources += [sample_program(policy, 1.2, np.random.default_rng((2, i)))[0] for i in range(200)]
    seen = set()
    for source in sources:
        for call in _calls(compile_program(source).ast):
            assert call.op is keys[call.op], (source, call.op)
            seen.add(call.op)
    assert {"add", "scale", "s_add"} <= seen  # named and infix calls alike


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


# -- parser against the per-token-method oracle ------------------------------

class _OracleParser:
    """The parser before it read parallel token lists: a method per step."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.scopes = []  # fold binder pairs, innermost last
        self.depth = 0  # nesting of brackets and call arguments
        self.infix = False  # whether an infix operator was parsed

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind, what=None):
        tok = self.peek()
        if tok.kind != kind:
            want = what or repr(kind)
            got = tok.text or "end of input"
            raise ParseError(f"expected {want}, found {got!r}", tok.line, tok.col)
        return self.advance()

    def fail(self, message):
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    def parse_program(self):
        head = self.expect("ident", "'merge'")
        if head.text != "merge":
            raise ParseError("program must start with 'merge'", head.line, head.col)
        self.expect("(")
        models = self.expect("ident", "'models'")
        if models.text != "models":
            raise ParseError("merge takes the single parameter 'models'", models.line, models.col)
        self.expect(")")
        self.expect("=")
        body = self.parse_expr()
        self.expect("eof", "end of program")
        return body

    def parse_expr(self):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise self.fail(f"expression nested deeper than {MAX_DEPTH} levels")
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            right = self.parse_term()
            node = Call(op=op.kind, args=(node, right), pos=(op.line, op.col))
            self.infix = True
        self.depth -= 1
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek().kind == "*":
            op = self.advance()
            right = self.parse_factor()
            node = Call(op="*", args=(node, right), pos=(op.line, op.col))
            self.infix = True
        return node

    def parse_factor(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return ScalarLit(value=float(tok.text), pos=(tok.line, tok.col))
        if tok.kind == "-":
            self.advance()
            num = self.expect("number", "a number after unary '-'")
            return ScalarLit(value=-float(num.text), pos=(tok.line, tok.col))
        if tok.kind == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok.kind == "ident":
            return self.parse_ident()
        raise self.fail(f"expected an expression, found {tok.text or 'end of input'!r}")

    def parse_ident(self):
        tok = self.advance()
        name = tok.text
        pos = (tok.line, tok.col)
        if name == "models":
            if self.peek().kind == "[":
                self.advance()
                idx = self.expect("number", "an integer index")
                if not idx.text.isdigit():
                    raise ParseError("model index must be an integer", idx.line, idx.col)
                self.expect("]")
                return ModelIndex(index=int(idx.text), pos=pos)
            return ModelsRef(pos=pos)
        if name == "fold":
            return self.parse_fold(pos)
        if name in OP_TABLE:
            args = self.parse_args()
            arity = len(OP_TABLE[name].args)
            if len(args) != arity:
                raise ParseError(
                    f"{name} takes {arity} argument{'s' if arity != 1 else ''}, got {len(args)}",
                    *pos,
                )
            return Call(op=name, args=tuple(args), pos=pos)
        for depth, pair in enumerate(reversed(self.scopes)):
            if name in pair:
                return Var(depth=depth, slot=pair.index(name), pos=pos)
        raise ParseError(f"unknown identifier {name!r}", *pos)

    def parse_args(self):
        self.expect("(")
        args = [self.parse_expr()]
        while self.peek().kind == ",":
            self.advance()
            args.append(self.parse_expr())
        self.expect(")")
        return args

    def parse_fold(self, pos):
        self.expect("(")
        list_expr = self.parse_expr()
        self.expect(",")
        init_expr = self.parse_expr()
        self.expect(",")
        self.expect("(")
        first = self.expect("ident", "a binder name")
        self.expect(",")
        second = self.expect("ident", "a binder name")
        if second.text == first.text:
            raise ParseError("fold binders must be distinct", second.line, second.col)
        self.expect(")")
        self.expect("arrow", "'->'")
        self.scopes.append((first.text, second.text))
        try:
            body = self.parse_expr()
        finally:
            self.scopes.pop()
        self.expect(")")
        return Fold(list_expr=list_expr, init_expr=init_expr, body=body, pos=pos)


def _oracle_parse(source):
    parser = _OracleParser([Token(*tok) for tok in _oracle_tokenize(source)])
    root = parser.parse_program()
    if parser.infix and _height(root) > MAX_DEPTH:
        raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", *root.pos)
    return root


def _dump(value, locate):
    """A node as nested tuples that include every node's (line, col), ``locate(pos)``."""
    if isinstance(value, Node):
        return (type(value).__name__, locate(value.pos), *(
            _dump(getattr(value, f.name), locate) for f in dataclasses.fields(value) if f.name != "pos"
        ))
    if isinstance(value, tuple):
        return tuple(_dump(v, locate) for v in value)
    return value


def _oracle_typecheck(root):
    """The reference type pass's outcome on the oracle's tree, whose nodes hold (line, col)."""
    try:
        reference_typecheck(root, None)
    except DslTypeError as exc:
        return ("DslTypeError", exc.pos, str(exc))
    return _dump(root, lambda pos: pos)


def _parsed(parse_fn, source):
    """The untyped and the typechecked tree, or the error with its position.

    The parser's nodes hold offsets, which ``position`` turns into the
    (line, col) that the oracle parser's nodes hold.
    """
    try:
        root = parse_fn(source)
    except ParseError as exc:
        return ("ParseError", exc.line, exc.col, str(exc))
    if parse_fn is _oracle_parse:
        return _dump(root, lambda pos: pos), _oracle_typecheck(root)
    locate = functools.partial(position, source)
    untyped = _dump(root, locate)
    try:
        typecheck(root, source)
        return untyped, _dump(root, locate)
    except DslTypeError as exc:
        return untyped, ("DslTypeError", exc.pos, str(exc))


def _nest(n, tail=""):
    return "merge(models) = " + "add(" * n + "models[0]" + ", models[1])" * n + tail


_PARSER_CASES = [
    "merge(models) = models[0] + 0.5 * models[1] - models[2] * 2.0 * -1.5",
    "merge(models) = (models[0] - models[1]) * (0.5 + mean_elem(models[2]) * 3.0)",
    "merge(models) = scale(-0.5, models[0]) - -1.0",
    "merge(models) = fold(models, models[0], (acc, x) -> "
    "fold(models, acc, (x, acc) -> add(acc, scale(0.5, x))))",
    "# header\nmerge(models) = # rest\n  add(models[0], # first\n models[1])\n",
    "merge(models) =\r\n  add(models[0],\r\n\tmodels[1])\r\n",
    "merge(models) = models[\u0663] * \u0663.5",
    "merge(models) =\u00a0add(models[0],\u00a0models[1])",
    "merge(models) =\n  add(models[0], \u00e9)",
    "merge(models) = add(models[0])",
    "merge(models) = ones(1.0, 2.0)",
    "merge(models) = models[1.5]",
    "merge(models) = fold(models, models[0], (acc, acc) -> acc)",
    "merge(models) = add(models[0], models[1]",
    "merge(model) = models[0]",
    "merge(models) = mean_elem(models[0])",
    "merge(models) = add models[0], models[1])",
    "merge(models) = models[x]",
    "merge(models) = models[0",
    "merge(models) = (models[0] + models[1]",
    "merge(models) = scale(- mean_elem(models[0]), models[1])",
    "merge(models) = add(models[0] models[1])",
    _nest(120), _nest(127), _nest(128), _nest(200), _nest(200, " \u00e9"),
    "merge(models) = " + "(" * 150 + "models[0]" + ")" * 150,
    "merge(models) = models[0]" + "\n + models[1]" * 130,
]

# Texts of MAX_SOURCE_CHARS characters: groups of 129 "(" and a ")", and "(" only.
_CRAFTED = {"groups": (("(" * 129 + ")") * 505)[:MAX_SOURCE_CHARS], "opens": "(" * MAX_SOURCE_CHARS}

# Texts with many brackets, each with whether parse may lex it only up to the
# bracket that opens MAX_DEPTH + 2 levels.
_CUT_CASES = [
    (_nest(200, " + fold(models, scale(0.5, models[0]), (acc, x) -> acc)"), True),
    (_nest(200, " x1.5"), False), (_nest(200, " 1e5.5"), False), (_nest(200, " + 1e+5.5"), False),
    (_nest(200, " a > b"), False), (_nest(200, " \u00e9"), False),
    (_nest(200, " + \u0663.5"), False), (_nest(200, "\u00a0"), False),
    ("# (((\n" + _nest(200), False),
    ("# " + "(" * 200 + "\nmerge(models) = add(models[0], models[1])", False),
    ("merge(models) = frob(" + _nest(200)[len("merge(models) = "):] + ")", True),
    ("merge(model) = " + _nest(200)[len("merge(models) = "):], True),
    ("merge(models) = " + "(" * 128 + "fold(models, models[0], (acc, x) -> acc)" + ")" * 128, True),
    ("merge(models) = " + "(" * 127 + "fold(models, models[0], (acc, x) -> acc)" + ")" * 127, False),
    ("merge(models) = " + "add(" * 64 + "fold(models, (" * 33 + "models[0]", True),
    ("merge(models) =\r\n" + "add(\r\n" * 200 + "models[0]" + ", models[1])\r\n" * 200, True),
    *((text, True) for text in _CRAFTED.values()),
]
_PARSER_CASES += [source for source, _ in _CUT_CASES]

_LEAVES = [
    "models[0]", "models[0]", "models[2]", "models", "models", "0.5", "0.5", "-1.5", "1e-3",
    "\u0663", "acc", "x", "models[1.5]", "models[\u0663]", "frob",
]
_BINDERS = ["acc", "x", "x", "y", "add", "models"]


def _call(parts):
    name, args = parts
    body = [f for i, arg in enumerate(args) for f in ([","] if i else []) + arg]
    return [name, "(", *body, ")"]


def _infix(parts):
    left, op, right = parts
    return [*left, op, *right]


def _fold(parts):
    items, init, first, second, body = parts
    return ["fold", "(", *items, ",", *init, ",", "(", first, ",", second, ")", "->", *body, ")"]


# Fragment lists of any shape: unknown names, wrong arity, binders out of scope.
_any_call = st.sampled_from([*OP_TABLE, "s_add"])
_any_expr = st.recursive(
    st.sampled_from(_LEAVES).map(lambda leaf: [leaf]),
    lambda inner: st.one_of(
        st.tuples(_any_call, st.lists(inner, max_size=4)).map(_call),
        st.tuples(inner, st.sampled_from(["+", "-", "*"]), inner).map(_infix),
        inner.map(lambda f: ["(", *f, ")"]),
        st.tuples(inner, inner, st.sampled_from(_BINDERS), st.sampled_from(_BINDERS), inner).map(_fold),
    ),
    max_leaves=24,
)


@functools.cache
def _vector_expr(depth, binders=()):
    """Fragment lists of well-typed vector expressions; fold bodies may shadow binders."""
    leaf = st.sampled_from(["models[0]", "models[2]", "models[\u0663]", *binders]).map(lambda s: [s])
    if depth == 0:
        return leaf
    vec = _vector_expr(depth - 1, binders)
    scalar = st.one_of(
        st.sampled_from(["0.5", "-1.5", "\u0663.5", "2e-1"]).map(lambda s: [s]),
        vec.map(lambda v: ["mean_elem", "(", *v, ")"]),
    )
    scalar = st.one_of(scalar, st.tuples(scalar, st.sampled_from(["+", "-", "*"]), scalar).map(_infix))
    pair = st.tuples(st.sampled_from(["x", "acc", "b"]), st.sampled_from(["acc", "x", "c"])).filter(
        lambda p: p[0] != p[1]
    )
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from(["add", "sub", "hadamard", "emax", "emin"]), st.lists(vec, min_size=2, max_size=2)).map(_call),
        st.tuples(scalar, vec).map(lambda t: ["scale", "(", *t[0], ",", *t[1], ")"]),
        st.tuples(vec, st.sampled_from(["+", "-", "*"]), vec).map(_infix),
        st.tuples(vec, st.just("*"), scalar).map(_infix),
        vec.map(lambda f: ["(", *f, ")"]),
        pair.flatmap(lambda p: st.tuples(
            st.just(["models"]), vec, st.just(p[0]), st.just(p[1]), _vector_expr(depth - 1, (*p, *binders)),
        )).map(_fold),
    )


_HEAD = ["merge", "(", "models", ")", "="]
_BAD_HEADS = [["merge", "(", "model", ")", "="], ["merge", "(", "models", ")"], ["merge"], []]
_SEPARATORS = [" "] * 8 + ["", "", "\n", "\r\n", "\t", "\u00a0", " # note\n"]


@st.composite
def _program_text(draw):
    head = draw(st.sampled_from(_BAD_HEADS)) if draw(st.integers(0, 9)) == 5 else _HEAD
    fragments = head + draw(st.one_of(
        st.tuples(_any_call, st.lists(_any_expr, min_size=1, max_size=4)).map(_call),
        _vector_expr(4),
    ))
    seps = draw(st.lists(
        st.sampled_from(_SEPARATORS), min_size=len(fragments), max_size=len(fragments),
    ))
    if draw(st.integers(0, 9)) == 5:  # one rejected character somewhere
        seps[draw(st.integers(0, len(seps) - 1))] += "\u00e9"
    return "".join(s + f for s, f in zip(seps, fragments))


@st.composite
def _nested_fold_text(draw):
    """Folds nested in fold bodies, each binder pair drawn from three names: an
    inner pair shadows some outer names, and a body reads binders of any enclosing fold."""

    def fold(levels, scope):
        first, second, _ = draw(st.permutations(["acc", "x", "b"]))
        inner = [first, second, *scope]
        body = fold(levels - 1, inner) if levels > 1 else [draw(st.sampled_from(inner))]
        body = ["add", "(", *body, ",", draw(st.sampled_from(inner)), ")"]
        return _fold((["models"], [draw(st.sampled_from(["models[0]", *scope]))], first, second, body))

    return " ".join(_HEAD + fold(draw(st.integers(1, 3)), []))


_DEEP_LEVELS = {
    "add(": ", models[1])", "(": ")", "scale(0.5, ": ")",
    "fold(models, models[0], (acc, x) -> ": ")", "fold(models, (": "), models[0], (a, b) -> a)",
}


@st.composite
def _deep_text(draw):
    n = draw(st.integers(120, 260))
    inner = draw(st.sampled_from(sorted(_DEEP_LEVELS)))
    sep = draw(st.sampled_from(["", " ", "\n", "\r\n"]))
    head = draw(st.sampled_from(["", "# (((\n", "\n"]))
    tail = draw(st.sampled_from([
        "", " # end", " \u00e9", " + models[2]", ")", " x1.5", " 1e5.5", " a > b", " + \u0663.5",
        "\u00a0", " - 0.5", " + fold(models, models[0], (acc, x) -> acc)",
    ]))
    return head + "merge(models) = " + (inner + sep) * n + "models[0]" + _DEEP_LEVELS[inner] * n + tail


@pytest.mark.parametrize("source", _PARSER_CASES, ids=[f"case{i}" for i in range(len(_PARSER_CASES))])
def test_parse_matches_the_oracle_on_hand_cases(source):
    assert _parsed(parse, source) == _parsed(_oracle_parse, source)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_program_text(), _program_text(), _program_text(), _nested_fold_text(), _deep_text()))
def test_parse_matches_the_oracle(source):
    assert _parsed(parse, source) == _parsed(_oracle_parse, source)


# -- the one walk against the reference passes -----------------------------

def _compiled(source):
    """compile_program's outcome: the hash, or the error with its text."""
    try:
        return compile_program(source).canonical_hash
    except (ParseError, DslTypeError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _referenced(parse_fn, source):
    """The outcome of ``parse_fn``'s tree through the reference type pass and
    the reference canonical text, each a walk of its own."""
    try:
        return reference_hash(reference_typecheck(parse_fn(source), source))
    except (ParseError, DslTypeError) as exc:
        return f"{type(exc).__name__}: {exc}"


_FOLDING_CASES = [
    "merge(models) = scale(clamp(1e308 * 10.0, 0.1, 0.9), models[0])",
    "merge(models) = scale(0.25 + 0.25 * mean_elem(models[0]) - 0.5 * 2.0, models[0])",
    "merge(models) = scale(1e308 * 10.0 - 1e308 * 10.0, models[0]) + models[1] * (0.5 - 0.25)",
    "merge(models) = fold(models, models[0] * 0.5, (acc, x) -> hadamard(x, acc) + ones(0.1 * 0.2))",
]


@pytest.mark.parametrize("source", _PARSER_CASES + _FOLDING_CASES + [MEAN_FOLD_SRC])
def test_one_walk_matches_the_reference_passes_on_hand_cases(source):
    assert _compiled(source) == _referenced(parse, source) == _referenced(_oracle_parse, source)


_POLICY = GeneratorPolicy.initial(default_grammar(3))
_sampled_text = st.integers(0, 2**32 - 1).map(
    lambda i: sample_program(_POLICY, 1.2, np.random.default_rng((9, i)))[0]
)

# Calls of the op table's arity on operands of any type: texts that parse and
# mostly fail the type check, somewhere inside.
_any_typed = st.recursive(
    st.sampled_from(["models[0]", "models[1]", "models", "0.5", "-1.5"]).map(lambda leaf: [leaf]),
    lambda inner: st.one_of(
        st.sampled_from(sorted(OP_TABLE)).flatmap(lambda op: st.tuples(
            st.just(op), st.lists(inner, min_size=len(OP_TABLE[op].args), max_size=len(OP_TABLE[op].args)),
        )).map(_call),
        st.tuples(inner, st.sampled_from(["+", "-", "*"]), inner).map(_infix),
        st.tuples(inner, inner, st.just("acc"), st.just("x"), inner).map(_fold),
    ),
    max_leaves=12,
).map(lambda fragments: " ".join(_HEAD + fragments))


@settings(max_examples=400, deadline=None)
@given(st.one_of(_sampled_text, _any_typed, _program_text(), _nested_fold_text()))
def test_one_walk_matches_the_reference_passes(source):
    # the same hash or the same error text as the two walks it replaced, on
    # the parser's tree and on the oracle parser's
    assert _compiled(source) == _referenced(parse, source) == _referenced(_oracle_parse, source)


def test_a_named_call_checks_its_args_in_turn():
    # the first arg is named, although the second is mistyped as well
    with pytest.raises(DslTypeError) as exc:
        compile_program("merge(models) = add(models, models[0] + 0.5)")
    assert str(exc.value) == "1:21: add expects vector, got vector_list"


def test_swapped_infix_operands_spell_the_named_call():
    infix = compile_program("merge(models) = models[0] * 0.5")
    named = compile_program("merge(models) = scale(0.5, models[0])")
    assert infix.canonical_hash == named.canonical_hash == "f794f4763da905a798dfaffaafe2083b"


@pytest.mark.parametrize("source", [MEAN_FOLD_SRC, *_FOLDING_CASES, _PARSER_CASES[0], _PARSER_CASES[3]])
def test_checking_a_checked_tree_again_spells_the_same_text(source):
    root = parse(source)
    text = typecheck(root, source)
    assert typecheck(root, source) == text
    assert canonical_hash(text) == compile_program(source).canonical_hash


@pytest.mark.parametrize("source, cut", _CUT_CASES, ids=[f"cut{i}" for i in range(len(_CUT_CASES))])
def test_lex_end_cuts_only_text_proved_too_deep(source, cut):
    end = _lex_end(source)
    assert (end < len(source)) == cut
    if cut:
        assert source[end - 1] == "(" and source.count("(", 0, end) - source.count(")", 0, end) == MAX_DEPTH + 2


@pytest.mark.parametrize("source", _CRAFTED.values(), ids=list(_CRAFTED))
def test_lex_end_costs_linear_time(source):
    # A backtracking search for the deep bracket took 0.09 s on the groups
    # text, where these checks take about 1 ms.
    assert min(timeit.repeat(lambda: _lex_end(source), number=1, repeat=3)) < 0.05


_TEXTGEN_FILE = Path(__file__).resolve().parents[1] / "bench" / "textgen.py"
# One sha256 over the compile outcome of every extracted deep, long,
# syntax_error and scalar_result text of textgen seeds 0-39, recorded when
# parse still lexed every text to its end.
_UNTRUSTED_OUTCOMES_SHA256 = "f421290105b8b9ac89d3a20f400b2627317b4ae57d7dce54882891d6e4f8f70e"


def test_untrusted_text_outcomes_are_pinned(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_textgen", _TEXTGEN_FILE)
    textgen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, textgen)  # its dataclass looks the module up
    spec.loader.exec_module(textgen)
    digest = hashlib.sha256()
    for seed in range(40):
        for text in textgen.generate(seed, 3000):
            if text.kind not in ("deep", "long", "syntax_error", "scalar_result"):
                continue
            source = extract_program(text.text)
            if source is None:
                outcome = "none"
            else:
                # the deep texts, and only they, are lexed in part
                assert (_lex_end(source) < len(source)) == (text.kind == "deep")
                try:
                    outcome = compile_program(source).canonical_hash
                except (ParseError, DslTypeError) as exc:  # the message starts with line:col
                    outcome = f"{type(exc).__name__}: {exc}"
            digest.update(outcome.encode() + b"\n")
    assert digest.hexdigest() == _UNTRUSTED_OUTCOMES_SHA256


def _balanced(leaves):
    if leaves == 1:  # a short leaf keeps 4,096 of them under MAX_SOURCE_CHARS
        return "\nmodels"
    half = leaves // 2
    return f"add({_balanced(half)}, {_balanced(leaves - half)})"


def test_positions_cost_linear_time():
    source = "merge(models) = " + _balanced(4096)
    start = time.perf_counter()
    root = parse(source)
    assert time.perf_counter() - start < 1.0
    last = root
    while isinstance(last, Call):
        last = last.args[1]
    assert position(source, root.pos) == (1, 17) and position(source, last.pos) == (4097, 1)
    lines = (source + " \u00e9").split("\n")
    with pytest.raises(ParseError, match="unexpected character") as exc:
        parse(source + " \u00e9")
    assert (exc.value.line, exc.value.col) == (len(lines), len(lines[-1]))


@pytest.mark.parametrize("source", [MEAN_FOLD_SRC, "merge(models) = add(models[0], frob)"])
def test_parse_leaves_no_reference_cycles(source):
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            try:
                parse(source)
            except ParseError:
                pass
        assert gc.collect() == 0
    finally:
        gc.enable()

