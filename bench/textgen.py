"""Seeded completion-shaped text for the ``untrusted_text`` workload.

The texts imitate what a remote chat model returns: prose, fenced code
blocks, broken programs, repeats of earlier answers and hostile input.  Each
text carries the filter outcome its construction fixes, so the benchmark can
check the filter without asking any part of the DSL under test.  Programs are
built from this module's own typed grammar, following the concrete syntax the
parser documents, never from ``mergeforge.generator``.

Every fresh valid program has the form ``scale(c, body)`` with a literal ``c``
used by no other fresh program in the batch, so no two of them can share a
canonical hash; variants and repeats of one are duplicates by construction.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

K = 3  # task vectors per instance; programs index models[0..K-1]

# Outcome labels.  COMPILED means "compiled and was new": success, timeout, or
# non_executable with a compiled program (a runtime failure).
NO_FUNCTION = "no_function_extracted"
NON_EXECUTABLE = "non_executable"
DUPLICATE = "duplicate"
COMPILED = "compiled"

# Share of a batch per construction kind.  The counts are exact, not drawn,
# so batches of one size differ only in content and order.
#
# Kinds no grammar run produces.  The repository holds no recorded remote
# completions, so these shares are assumptions, not measurements; revisit them
# when such completions are recorded.  The deep share is large enough that
# the recursion defect shows in every batch.
ASSUMED = (
    ("prose", 0.08),
    ("fence_without_merge", 0.06),
    ("syntax_error", 0.10),
    ("scalar_result", 0.06),
    ("long", 0.02),
    ("deep", 0.02),
)
# The rest, texts holding a well-formed program, split the way iteration 1 of
# ``full_scale_preset`` splits its candidates, measured over instance seeds 7,
# 23, 39 and 55 (12000 candidates): 6495 new, 5406 exact repeats of an
# earlier text, 99 other duplicates.  Iteration 1, because a batch starts
# from an empty seen set as each iteration does.
MEASURED = (("valid", 6495), ("repeat", 5406), ("variant", 99))
_PROGRAM_SHARE = 1.0 - sum(share for _, share in ASSUMED)
MIX = ASSUMED + tuple(
    (kind, _PROGRAM_SHARE * count / sum(c for _, c in MEASURED)) for kind, count in MEASURED
)

# Nesting at which the parser's recursion is known to exhaust Python's stack.
DEEP_MIN, DEEP_MAX = 201, 400

_COMMUTATIVE = ("add", "hadamard", "emax", "emin")
_VEC_BINARY = ("add", "sub", "hadamard", "emax", "emin")
_BINDER_PAIRS = (("acc", "x"), ("a", "b"), ("prev", "cur"), ("u", "w"), ("left", "right"))
_LITERALS = ("0.1", "0.25", "0.5", "0.75", "1.0", "2.0")
_WORDS = (
    "the", "merge", "should", "weight", "each", "model", "by", "its", "agreement",
    "with", "others", "average", "vectors", "task", "scale", "carefully", "so",
    "that", "sum", "stays", "stable", "we", "can", "blend", "them", "instead",
)


@dataclass(frozen=True)
class Text:
    text: str
    kind: str  # construction kind, one of MIX
    expected: tuple[str, ...]  # acceptable outcome labels
    hostile: bool = False


def outcome_label(category: str, compiled: bool) -> str:
    """Map a filter outcome to the labels ``Text.expected`` uses."""
    if category in ("success", "timeout") or (category == NON_EXECUTABLE and compiled):
        return COMPILED
    return category


def matches(text: Text, category: str, compiled: bool) -> bool:
    return outcome_label(category, compiled) in text.expected


# --- programs as trees: ("m", i) ("models",) ("lit", s) ("var", slot)
# ("op", name, *args) ("fold", init, body); folds run over tail(models).


def _vec(rng: random.Random, depth: int, in_body: bool):
    leaf = depth >= 4 or rng.random() < 0.3
    if leaf:
        choices = ["m", "m", "stack"]
        if in_body:
            choices += ["var", "var"]
        pick = rng.choice(choices)
        if pick == "m":
            return ("m", rng.randrange(K))
        if pick == "var":
            return ("var", rng.randrange(2))
        return ("op", rng.choice(("mean_stack", "sum_stack")), ("models",))
    roll = rng.random()
    if roll < 0.45:
        op = rng.choice(_VEC_BINARY)
        return ("op", op, _vec(rng, depth + 1, in_body), _vec(rng, depth + 1, in_body))
    if roll < 0.75:
        return ("op", "scale", _scal(rng, depth + 1, in_body), _vec(rng, depth + 1, in_body))
    if roll < 0.85 or in_body:
        return ("op", "ones", _scal(rng, depth + 1, in_body))
    return ("fold", _vec(rng, depth + 1, False), _vec(rng, depth + 1, True))


def _scal(rng: random.Random, depth: int, in_body: bool):
    if depth >= 4 or rng.random() < 0.6:
        return ("lit", rng.choice(_LITERALS))
    op = rng.choice(("mean_elem", "cos", "clamp"))
    if op == "mean_elem":
        return ("op", op, _vec(rng, depth + 1, in_body))
    if op == "cos":
        return ("op", op, _vec(rng, depth + 1, in_body), _vec(rng, depth + 1, in_body))
    return ("op", op, _scal(rng, depth + 1, in_body), ("lit", "0.1"), ("lit", "0.9"))


def _render(node, binders=("acc", "x"), swap=frozenset()) -> str:
    """Concrete syntax; ``swap`` holds ids of commutative nodes to render reversed."""
    tag = node[0]
    if tag == "m":
        return f"models[{node[1]}]"
    if tag == "models":
        return "models"
    if tag == "lit":
        return node[1]
    if tag == "var":
        return binders[node[1]]
    if tag == "fold":
        a, b = binders
        init = _render(node[1], binders, swap)
        body = _render(node[2], binders, swap)
        return f"fold(tail(models), {init}, ({a}, {b}) -> {body})"
    args = [_render(arg, binders, swap) for arg in node[2:]]
    if id(node) in swap:
        args.reverse()
    return f"{node[1]}({', '.join(args)})"


def _commutative_nodes(node) -> list:
    if node[0] == "op":
        found = [node] if node[1] in _COMMUTATIVE else []
        for arg in node[2:]:
            found += _commutative_nodes(arg)
        return found
    if node[0] == "fold":
        return _commutative_nodes(node[1]) + _commutative_nodes(node[2])
    return []


def _program(body: str) -> str:
    return f"merge(models) = {body}"


def _wrap(rng: random.Random, program: str) -> str:
    info = rng.choice(("", "merge", "text", "python"))
    before = rng.choice(("Here is a candidate:", "Try this merge.", "Proposed strategy:", ""))
    return f"{before}\n\n```{info}\n{program}\n```\n\n{_sentence(rng)}\n"


def _sentence(rng: random.Random) -> str:
    words = [rng.choice(_WORDS) for _ in range(rng.randint(6, 18))]
    return " ".join(words).capitalize() + "."


def _balanced(rng: random.Random, depth: int) -> str:
    if depth == 0:
        return f"models[{rng.randrange(K)}]"
    op = rng.choice(_VEC_BINARY)
    return f"{op}({_balanced(rng, depth - 1)}, {_balanced(rng, depth - 1)})"


def _chain(rng: random.Random, depth: int, innermost: str) -> str:
    ops = [rng.choice(_VEC_BINARY) for _ in range(depth)]
    leaves = [f"models[{rng.randrange(K)}]" for _ in range(depth)]
    return "".join(f"{op}(" for op in ops) + innermost + "".join(f", {leaf})" for leaf in leaves)


def _spread(lo: int, hi: int, count: int) -> list[int]:
    """``count`` sizes spread evenly over [lo, hi]."""
    return [lo + (hi - lo) * i // max(1, count - 1) for i in range(count)]


class _Batch:
    def __init__(self, seed: int, long_shapes: list, deep_shapes: list):
        self.rng = random.Random(seed)
        self.long_shapes = long_shapes  # (balanced?, depth), consumed in order
        self.deep_shapes = deep_shapes  # (unbalanced?, depth), consumed in order
        self.fresh = 0  # fresh programs so far; indexes the unique root literal
        self.valid: list[tuple[tuple, str]] = []  # (tree, full text) of fresh programs

    def unique_literal(self) -> str:
        self.fresh += 1
        return repr(0.5 + self.fresh / 4096)

    def fresh_tree(self) -> tuple:
        return ("op", "scale", ("lit", self.unique_literal()), _vec(self.rng, 0, False))

    def make(self, kind: str) -> Text:
        rng = self.rng
        if kind in ("variant", "repeat") and not self.valid:
            kind = "valid"
        if kind == "prose":
            return Text("\n\n".join(_sentence(rng) for _ in range(rng.randint(1, 4))), kind, (NO_FUNCTION,))
        if kind == "fence_without_merge":
            return Text(self._fence_without_merge(), kind, (NO_FUNCTION,))
        if kind == "syntax_error":
            return Text(_wrap(rng, self._syntax_error()), kind, (NON_EXECUTABLE,))
        if kind == "scalar_result":
            body = _render(("op", rng.choice(("mean_elem", "norm2")), _vec(rng, 1, False)))
            return Text(_wrap(rng, _program(body)), kind, (NON_EXECUTABLE,))
        if kind == "valid":
            tree = self.fresh_tree()
            text = _wrap(rng, _program(_render(tree)))
            self.valid.append((tree, text))
            return Text(text, kind, (COMPILED,))
        if kind == "repeat":
            return Text(rng.choice(self.valid)[1], kind, (DUPLICATE,))
        if kind == "variant":
            return Text(_wrap(rng, self._variant(rng.choice(self.valid)[0])), kind, (DUPLICATE,))
        if kind == "long":
            return self._long()
        if kind == "deep":
            return self._deep()
        raise ValueError(f"unknown text kind {kind!r}")

    def _fence_without_merge(self) -> str:
        rng = self.rng
        body = rng.choice((
            "def blend(a, b):\n    return (a + b) / 2",
            "result = mean_stack(models)",
            "def merge(models):\n    return sum(models)",
            "  # merge(models) belongs on the first line\nsum_stack(models)",
        ))
        if rng.random() < 0.25:  # a merge program in a fence that is never closed
            return f"{_sentence(rng)}\n\n```\n{_program('sum_stack(models)')}\n"
        return f"{_sentence(rng)}\n\n```\n{body}\n```\n"

    def _syntax_error(self) -> str:
        rng = self.rng
        source = _program(_render(("op", "scale", ("lit", "0.5"), _vec(rng, 0, False))))
        how = rng.randrange(5)
        if how == 0:  # unbalanced: the root call is never closed
            return source[:-1]
        if how == 1:  # a character the lexer does not know
            cut = rng.randrange(len("merge(models) = scale("), len(source))
            return source[:cut] + rng.choice("$;@?{") + source[cut:]
        if how == 2:  # an unknown operation
            return source.replace("scale(", "rescale(", 1)
        if how == 3:  # wrong arity for scale
            return source[:-1] + ", models[0])"
        return source.replace(" = ", " ", 1)  # header without '='

    def _variant(self, tree: tuple) -> str:
        rng = self.rng
        binders = rng.choice(_BINDER_PAIRS)
        candidates = _commutative_nodes(tree)
        swap = frozenset(id(n) for n in candidates if rng.random() < 0.5)
        source = _program(_render(tree, binders, swap))
        if rng.random() < 0.5:
            source = re.sub(", ", lambda _: rng.choice((",", ",  ", ",\n    ", " , ")), source)
            source = "# same idea, restated\n" + source.replace(" = ", " =\n  ", 1)
        return source

    def _long(self) -> Text:
        rng = self.rng
        literal = self.unique_literal()
        balanced, depth = self.long_shapes.pop()
        if balanced:  # wide: a balanced tree of up to 512 leaves
            body = f"scale({literal}, {_balanced(rng, depth)})"
        else:  # deep but under the recursion limit
            body = _chain(rng, depth, f"scale({literal}, models[0])")
        return Text(_wrap(rng, _program(body)), "long", (COMPILED,))

    def _deep(self) -> Text:
        rng = self.rng
        unbalanced, depth = self.deep_shapes.pop()
        body = _chain(rng, depth, f"scale({self.unique_literal()}, models[0])")
        if unbalanced:  # so it is malformed at any depth limit
            return Text(_wrap(rng, _program(body[:-1])), "deep", (NON_EXECUTABLE,), hostile=True)
        # Balanced: a depth limit rejects it, an unlimited DSL accepts it; raising is the defect.
        return Text(_wrap(rng, _program(body)), "deep", (NON_EXECUTABLE, COMPILED), hostile=True)


def generate(seed: int, n: int) -> list[Text]:
    """``n`` texts whose kinds follow ``MIX`` exactly, in a seed-shuffled order.

    Long and deep texts take sizes spread evenly over their ranges, so the
    costliest texts weigh the same in every batch of one size.
    """
    rng = random.Random(seed)
    kinds = [kind for kind, share in MIX for _ in range(round(share * n))]
    kinds = (kinds + ["valid"] * n)[:n]
    rng.shuffle(kinds)
    n_long, n_deep = kinds.count("long"), kinds.count("deep")
    long_shapes = [(True, d) for d in _spread(6, 9, n_long // 2)]
    long_shapes += [(False, d) for d in _spread(30, 120, n_long - n_long // 2)]
    deep_shapes = [(i % 2 == 1, d) for i, d in enumerate(_spread(DEEP_MIN, DEEP_MAX, n_deep))]
    rng.shuffle(long_shapes)
    rng.shuffle(deep_shapes)
    batch = _Batch(rng.randrange(2**32), long_shapes, deep_shapes)
    return [batch.make(kind) for kind in kinds]
