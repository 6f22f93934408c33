"""Lexer and recursive-descent parser for the merge-program concrete syntax.

    program := "merge" "(" "models" ")" "=" expr
    expr    := term (("+" | "-") term)*
    term    := factor ("*" factor)*
    factor  := number | fold | models-ref | call | ident | "(" expr ")"
    fold    := "fold" "(" expr "," expr "," "(" ident "," ident ")" "->" expr ")"

`#` starts a comment running to end of line.  Call names are fixed by the op
table; a bare identifier must be a fold binder in scope, and its Var records
only that binder's (depth, slot): the AST keeps no binder names.  An infix
operator becomes a Call whose op is its symbol, which the typechecker resolves.  Both
the nesting of brackets and call arguments and the depth of the resulting AST
are bounded by MAX_DEPTH, so no text, however deep, exhausts the stack here or
in the passes that recurse over the AST.  A text longer than MAX_SOURCE_CHARS
is rejected before it is lexed, and one nested too deep after lexing only the
prefix the parser reads, though a rejected character anywhere in it is still
reported first; so no text costs more than a bounded time and memory.

The lexer splits a text with one ``findall`` and classifies each piece by its
first character, so a token costs no Python-level regex call; the parser walks
the resulting lists by index.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate, compress
from operator import itemgetter
from typing import Callable

import numpy as np

from .ast import (
    OP_TABLE,
    Call,
    Fold,
    ModelIndex,
    ModelsRef,
    Node,
    ScalarLit,
    Var,
)


MAX_DEPTH = 128
# Longest program text parse accepts, in characters.  Candidate text may come
# from a remote model, so its length is untrusted; the cap lies far above the
# longest text a grammar run samples or the bench's untrusted texts contain.
MAX_SOURCE_CHARS = 65_536


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


# Token alternatives in match order; ws and comment pieces are skipped.
_ALTERNATIVES = (
    ("ws", r"\s+"),
    ("comment", r"#[^\n]*"),
    ("number", r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"),
    ("ident", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("arrow", r"->"),
    ("sym", r"[()\[\],=+\-*]"),
)
_TOKEN_RE = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in _ALTERNATIVES))

# The alternatives without groups plus a catch-all, so findall returns pieces:
# tokens, skipped text and single rejected characters, which tile the text.
_PIECE_RE = re.compile("|".join(pattern for _, pattern in _ALTERNATIVES) + r"|.", re.DOTALL)


def _kind(piece: str) -> str | None:
    """A piece's token kind, "" for skipped text, None for a rejected character."""
    m = _TOKEN_RE.match(piece)
    if m is None:
        return None
    kind = m.lastgroup
    return "" if kind in ("ws", "comment") else piece if kind == "sym" else kind


# The alternatives' first characters are disjoint except "-", which starts
# both "-" and "->" (lex marks the arrows), so the first character of an
# ASCII piece fixes its kind.  Other first characters are left to _kind.
_FIRST_KIND = {c: k for c in map(chr, range(128)) if (k := _kind(c)) is not None}

# What _lex_end admits: these characters only (no "#", so each "(" is a token),
# each ">" in a "->", and each "." after a digit run that starts a token and
# before a digit, found in the reversed text so that the search jumps to dots.
_PLAIN_RE = re.compile(r"[^A-Za-z0-9_ \t\n\r\x0b\x0c()\[\],=+\-*.>]")
_REVERSED_NUMBER_DOT_RE = re.compile(r"\.(?<=[0-9]\.)[0-9]+(?![\w.]|[+-][eE])")
_BRACKET_STEP = np.array([(c == 40) - (c == 41) for c in range(128)], np.int8)  # by ASCII code


def _locator(source: str, end: int) -> Callable[[int], tuple[int, int]]:
    """Map an offset in ``source[:end]`` to its (line, col), both from 1."""
    if source.find("\n", 0, end) < 0:
        return lambda offset: (1, offset + 1)
    starts = [0, *(m.end() for m in re.compile("\n").finditer(source, 0, end))]

    def locate(offset: int) -> tuple[int, int]:
        line = bisect_right(starts, offset)
        return line, offset - starts[line - 1] + 1

    return locate


def lex(source: str, end: int) -> tuple[list[str], list[str], list[int]]:
    """Kinds, texts and offsets of the tokens of ``source[:end]``, ending in eof."""
    pieces = _PIECE_RE.findall(source, 0, end)
    offsets = list(accumulate(map(len, pieces), initial=0))
    kinds = list(map(_FIRST_KIND.get, map(itemgetter(0), pieces)))
    j = -1
    for _ in range(pieces.count("->")):
        j = pieces.index("->", j + 1)
        kinds[j] = "arrow"
    if None in kinds:  # a non-ASCII or rejected first character
        for j, kind in enumerate(kinds):
            if kind is None:
                kind = kinds[j] = _kind(pieces[j])
                if kind is None:
                    raise ParseError(
                        f"unexpected character {pieces[j]!r}", *_locator(source, end)(offsets[j])
                    )
    texts = list(compress(pieces, kinds))
    offsets = list(compress(offsets, kinds))
    kinds = list(filter(None, kinds))
    kinds.append("eof")
    texts.append("")
    offsets.append(end)
    return kinds, texts, offsets


def _lex_end(source: str) -> int:
    """Just past the "(" that first opens MAX_DEPTH + 2 brackets, if the text
    provably has one and lexes in full, else its end.  Were the parser to read
    that "(", each bracket then open but it and a binder pair's fold would hold
    an expression it entered: it would have nested MAX_DEPTH + 1 deep and failed
    first.  So it reads no token past that "(" of the whole text."""
    if (source.count("(") <= MAX_DEPTH + 1 or _PLAIN_RE.search(source)
            or source.count(">") != source.count("->")
            or source.count(".") != len(_REVERSED_NUMBER_DOT_RE.findall(source[::-1]))):
        return len(source)
    depth = np.cumsum(_BRACKET_STEP[np.frombuffer(source.encode(), np.uint8)], dtype=np.int32)
    hits = np.flatnonzero(depth == MAX_DEPTH + 2)
    return int(hits[0]) + 1 if hits.size else len(source)


def _height(root: Node) -> int:
    """Levels of nodes in the AST, counted without recursion."""
    height, stack = 0, [(root, 1)]
    while stack:
        node, level = stack.pop()
        height = max(height, level)
        for value in vars(node).values():
            for child in value if isinstance(value, tuple) else (value,):
                if isinstance(child, Node):
                    stack.append((child, level + 1))
    return height


_ARITY = {name: len(op.args) for name, op in OP_TABLE.items()}


def parse(source: str) -> Node:
    """Parse program text into an untyped AST; raises ParseError with position."""
    if len(source) > MAX_SOURCE_CHARS:
        raise ParseError(
            f"program text is {len(source)} characters, over the limit of {MAX_SOURCE_CHARS}", 1, 1
        )
    kinds, texts, offsets = lex(source, _lex_end(source))
    locate = _locator(source, offsets[-1])  # eof's offset, where lexing stopped
    i = 0  # index of the next token
    depth = 0  # nesting of brackets and call arguments
    infix = False  # whether an infix operator was parsed
    scopes: list[tuple[str, str]] = []  # fold binder pairs, innermost last

    def error(message: str, j: int) -> ParseError:
        return ParseError(message, *locate(offsets[j]))

    def expected(want: str) -> ParseError:
        return error(f"expected {want}, found {texts[i] or 'end of input'!r}", i)

    def expect(kind: str, want: str | None = None) -> int:
        nonlocal i
        if kinds[i] != kind:
            raise expected(want or repr(kind))
        i += 1
        return i - 1

    def expr() -> Node:
        nonlocal i, depth, infix
        depth += 1
        if depth > MAX_DEPTH:
            raise error(f"expression nested deeper than {MAX_DEPTH} levels", i)
        node = factor()
        kind = kinds[i]
        while kind == "*" or kind == "+" or kind == "-":
            infix = True
            op = i
            i += 1
            right = factor()
            if kind != "*":  # the right term binds its own "*" chain first
                while kinds[i] == "*":
                    star = i
                    i += 1
                    right = Call("*", (right, factor()), pos=locate(offsets[star]))
            node = Call(kind, (node, right), pos=locate(offsets[op]))
            kind = kinds[i]
        depth -= 1
        return node

    def factor() -> Node:
        nonlocal i
        j = i
        kind = kinds[j]
        i += 1
        if kind == "ident":
            name = texts[j]
            arity = _ARITY.get(name)
            if arity is not None:
                expect("(")
                args = [expr()]
                while kinds[i] == ",":
                    i += 1
                    args.append(expr())
                expect(")")
                if len(args) != arity:
                    plural = "s" if arity != 1 else ""
                    raise error(f"{name} takes {arity} argument{plural}, got {len(args)}", j)
                return Call(name, tuple(args), pos=locate(offsets[j]))
            if name == "models":
                if kinds[i] != "[":
                    return ModelsRef(pos=locate(offsets[j]))
                i += 1
                n = expect("number", "an integer index")
                if not texts[n].isdigit():
                    raise error("model index must be an integer", n)
                try:
                    index = int(texts[n])
                except ValueError:  # more digits than sys.get_int_max_str_digits()
                    raise error("model index is too long", n) from None
                expect("]")
                return ModelIndex(index, pos=locate(offsets[j]))
            if name == "fold":
                return fold(j)
            for out, pair in enumerate(reversed(scopes)):  # innermost binder first
                if name in pair:
                    return Var(out, pair.index(name), pos=locate(offsets[j]))
            raise error(f"unknown identifier {name!r}", j)
        if kind == "number":
            return ScalarLit(float(texts[j]), pos=locate(offsets[j]))
        if kind == "(":
            node = expr()
            expect(")")
            return node
        if kind == "-":
            n = expect("number", "a number after unary '-'")
            return ScalarLit(-float(texts[n]), pos=locate(offsets[j]))
        raise error(f"expected an expression, found {texts[j] or 'end of input'!r}", j)

    def fold(j: int) -> Node:
        expect("(")
        list_expr = expr()
        expect(",")
        init_expr = expr()
        expect(",")
        expect("(")
        first = texts[expect("ident", "a binder name")]
        expect(",")
        second = expect("ident", "a binder name")
        if texts[second] == first:
            raise error("fold binders must be distinct", second)
        expect(")")
        expect("arrow", "'->'")
        scopes.append((first, texts[second]))
        body = expr()
        scopes.pop()
        expect(")")
        return Fold(list_expr, init_expr, body, pos=locate(offsets[j]))

    try:
        if texts[expect("ident", "'merge'")] != "merge":
            raise error("program must start with 'merge'", 0)
        expect("(")
        if texts[expect("ident", "'models'")] != "models":
            raise error("merge takes the single parameter 'models'", 2)
        expect(")")
        expect("=")
        root = expr()
        expect("eof", "end of program")
    finally:
        # The nested functions reach one another through their closures, a
        # reference cycle; unbinding them frees the parse's lists here rather
        # than at the next run of the cycle collector.
        expr = factor = fold = None
    # Without infix chains the AST is no deeper than the bracket nesting.
    if infix and _height(root) > MAX_DEPTH:
        raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", *root.pos)
    return root
