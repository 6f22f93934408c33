"""Lexer and recursive-descent parser for the merge-program concrete syntax.

    program := "merge" "(" "models" ")" "=" expr
    expr    := term (("+" | "-") term)*
    term    := factor ("*" factor)*
    factor  := number | fold | models-ref | call | ident | "(" expr ")"
    fold    := "fold" "(" expr "," expr "," "(" ident "," ident ")" "->" expr ")"

`#` starts a comment running to end of line.  Call names are fixed by the op
table; bare identifiers must be fold binders in scope.  An infix operator
becomes a Call whose op is its symbol, which the typechecker resolves.  Both
the nesting of brackets and call arguments and the depth of the resulting AST
are bounded by MAX_DEPTH, so no text, however deep, exhausts the stack here or
in the passes that recurse over the AST.
"""

from __future__ import annotations

import re
from typing import NamedTuple

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


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<arrow>->)
  | (?P<sym>[()\[\],=+\-*])
    """,
    re.VERBOSE,
)

# The token pattern plus a catch-all: findall over it walks the tokens that
# tokenize yields, and a character tokenize rejects lands in group ``bad``.
SCAN_RE = re.compile(_TOKEN_RE.pattern + r"| (?P<bad>.)", re.VERBOSE | re.DOTALL)


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0  # line number and offset of its first character
    pos, end = 0, len(source)
    match = _TOKEN_RE.match
    while pos < end:
        m = match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        text = m.group()
        if kind == "ws":
            # only whitespace can hold a newline
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = pos + text.rfind("\n") + 1
        elif kind != "comment":
            tokens.append(Token(text if kind == "sym" else kind, text, line, pos - line_start + 1))
        pos = m.end()
    tokens.append(Token("eof", "", line, pos - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.scopes: list[tuple[str, str]] = []  # fold binder pairs, innermost last
        self.depth = 0  # nesting of brackets and call arguments
        self.infix = False  # whether an infix operator was parsed

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            want = what or repr(kind)
            got = tok.text or "end of input"
            raise ParseError(f"expected {want}, found {got!r}", tok.line, tok.col)
        return self.advance()

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    # -- grammar ---------------------------------------------------------

    def parse_program(self) -> Node:
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

    def parse_expr(self) -> Node:
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

    def parse_term(self) -> Node:
        node = self.parse_factor()
        while self.peek().kind == "*":
            op = self.advance()
            right = self.parse_factor()
            node = Call(op="*", args=(node, right), pos=(op.line, op.col))
            self.infix = True
        return node

    def parse_factor(self) -> Node:
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

    def parse_ident(self) -> Node:
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
        for pair in reversed(self.scopes):
            if name in pair:
                return Var(name=name, pos=pos)
        raise ParseError(f"unknown identifier {name!r}", *pos)

    def parse_args(self) -> list[Node]:
        self.expect("(")
        args = [self.parse_expr()]
        while self.peek().kind == ",":
            self.advance()
            args.append(self.parse_expr())
        self.expect(")")
        return args

    def parse_fold(self, pos: tuple[int, int]) -> Node:
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
        return Fold(
            list_expr=list_expr,
            init_expr=init_expr,
            binders=(first.text, second.text),
            body=body,
            pos=pos,
        )


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


def parse(source: str) -> Node:
    """Parse program text into an untyped AST; raises ParseError with position."""
    parser = _Parser(tokenize(source))
    root = parser.parse_program()
    # Without infix chains the AST is no deeper than the bracket nesting.
    if parser.infix and _height(root) > MAX_DEPTH:
        raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", *root.pos)
    return root
