import hashlib
import re
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import identity_grammar, pretty, production_probability
from mergeforge.dsl import OP_TABLE, compile_program, parse, typecheck
from mergeforge.dsl.parser import MAX_DEPTH, ParseError
from mergeforge.generator import (
    GeneratorPolicy,
    Production,
    UnderivableProgram,
    default_grammar,
    default_prompt_template,
    derivation_counts,
    extract_program,
    sample_program,
    temperature,
)
from mergeforge.generator.policy import NT_LIST, NT_SCALAR, NT_VECTOR


# -- temperature schedule ---------------------------------------------------

def test_temperature_first_iteration_is_t1():
    assert temperature(1, 1.2, 0.2) == 1.2


def test_temperature_second_iteration():
    assert temperature(2, 1.2, 0.2) == pytest.approx(1.0, abs=1e-12)


def test_temperature_third_iteration_matches_reported_rounding():
    t3 = temperature(3, 1.2, 0.2)
    assert t3 == pytest.approx(1.2 / 1.4, abs=1e-12)
    assert abs(t3 - 0.85) < 0.01


def test_temperature_strictly_decreasing_when_beta_positive():
    values = [temperature(t, 1.2, 0.2) for t in range(1, 10)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_temperature_constant_when_beta_zero():
    assert len({temperature(t, 0.7, 0.0) for t in range(1, 10)}) == 1


def test_temperature_validation():
    with pytest.raises(ValueError):
        temperature(0, 1.2, 0.2)
    with pytest.raises(ValueError):
        temperature(1, 0.0, 0.2)
    with pytest.raises(ValueError):
        temperature(1, 1.2, -0.1)


# -- sampling ---------------------------------------------------------------

def test_fixed_seed_gives_identical_text():
    policy = GeneratorPolicy.initial(default_grammar(3))
    a = sample_program(policy, 1.2, np.random.default_rng((0, 4)))
    b = sample_program(policy, 1.2, np.random.default_rng((0, 4)))
    assert a == b


def test_grammar_totality_fuzz():
    # Every sample parses and typechecks; the release-gate fuzz count.
    policy = GeneratorPolicy.initial(default_grammar(3), max_depth=8)
    for i in range(10_000):
        source = sample_program(policy, 1.2, np.random.default_rng((2, i)))
        compile_program(source)


def test_max_depth_stays_under_the_parser_nesting_bound():
    with pytest.raises(ValueError, match="max_depth"):
        GeneratorPolicy.initial(default_grammar(3), MAX_DEPTH)
    # ones(mean_elem(ones(...))) chains nest one expression level per derivation step
    policy = GeneratorPolicy.initial(default_grammar(3), MAX_DEPTH - 1)
    policy = policy.with_logits({**policy.logits, "V->ones": 10.0, "S->mean_elem": 10.0})
    for i in range(20):
        compile_program(sample_program(policy, 1.0, np.random.default_rng((5, i))))
    # one level more, bypassing validate, gives text the parser refuses
    too_deep = replace(policy, max_depth=MAX_DEPTH)
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH}"):
        for i in range(20):
            compile_program(sample_program(too_deep, 1.0, np.random.default_rng((5, i))))


def test_low_temperature_concentrates_on_argmax():
    grammar = identity_grammar()
    grammar[NT_VECTOR] = [
        Production(pid="V->models[0]", kind="model", payload=0),
        Production(pid="V->models[1]", kind="model", payload=1),
    ]
    policy = GeneratorPolicy.initial(grammar, max_depth=2)
    logits = dict(policy.logits)
    logits["V->models[1]"] = 2.0
    policy = policy.with_logits(logits)
    outputs = {
        sample_program(policy, 0.01, np.random.default_rng((3, i))) for i in range(200)
    }
    assert outputs == {"merge(models) = models[1]"}


def test_uniform_logits_sample_uniformly():
    grammar = identity_grammar()
    grammar[NT_VECTOR] = [
        Production(pid=f"V->models[{j}]", kind="model", payload=j)
        for j in range(4)
    ]
    policy = GeneratorPolicy.initial(grammar, max_depth=2)
    n = 10_000
    counts = np.zeros(4)
    for i in range(n):
        src = sample_program(policy, 1.0, np.random.default_rng((4, i)))
        counts[int(src[-2])] += 1
    p = 1 / 4
    sigma = np.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) <= 3 * sigma)


def test_softmax_invariant_to_constant_logit_shift():
    # chi-squared goodness of fit of shifted-policy samples against the
    # unshifted analytic distribution; 0.999 quantile for df=3 is 16.266.
    grammar = identity_grammar()
    grammar[NT_VECTOR] = [
        Production(pid=f"V->models[{j}]", kind="model", payload=j)
        for j in range(4)
    ]
    policy = GeneratorPolicy.initial(grammar, max_depth=2)
    base_logits = {f"V->models[{j}]": 0.3 * j for j in range(4)}
    base_logits["S->lit(1.0)"] = 0.0
    base_logits["L->models"] = 0.0
    policy = policy.with_logits(base_logits)

    temp = 0.9
    expected = np.array([
        production_probability(policy, NT_VECTOR, f"V->models[{j}]", temp) for j in range(4)
    ])
    shifted = policy.with_logits({
        pid: (v + 5.0 if pid.startswith("V->") else v)
        for pid, v in policy.logits.items()
    })
    n = 10_000
    counts = np.zeros(4)
    for i in range(n):
        src = sample_program(shifted, temp, np.random.default_rng((6, i)))
        counts[int(src[-2])] += 1
    chi2 = float(np.sum((counts - n * expected) ** 2 / (n * expected)))
    assert chi2 < 16.266


def test_analytic_probability_unchanged_by_shift():
    policy = GeneratorPolicy.initial(default_grammar(3))
    shifted = policy.with_logits({
        pid: (v + 2.5 if pid.startswith("V->") else v)
        for pid, v in policy.logits.items()
    })
    for pid in ("V->add", "V->fold", "V->models[0]"):
        assert production_probability(policy, NT_VECTOR, pid, 1.1) == pytest.approx(
            production_probability(shifted, NT_VECTOR, pid, 1.1), abs=1e-12
        )


def test_depth_limit_forces_terminals():
    # max_depth=1 derivations may branch once; every child must be terminal
    policy = GeneratorPolicy.initial(default_grammar(2), max_depth=1)
    for i in range(100):
        source = sample_program(policy, 1.2, np.random.default_rng((7, i)))
        program = compile_program(source)
        assert _depth(program.ast) <= 2


def _depth(node):
    from mergeforge.dsl.ast import Call, Fold

    if isinstance(node, Call):
        return 1 + max((_depth(a) for a in node.args), default=0)
    if isinstance(node, Fold):
        return 1 + max(_depth(node.list_expr), _depth(node.init_expr), _depth(node.body))
    return 1


def test_identity_grammar_only_emits_projection():
    policy = GeneratorPolicy.initial(identity_grammar(), max_depth=4)
    assert sample_program(policy, 1.0, np.random.default_rng(0)) == "merge(models) = models[0]"


def test_policy_validation_rejects_empty_nonterminal():
    grammar = identity_grammar()
    grammar[NT_SCALAR] = []
    with pytest.raises(ValueError, match="no productions"):
        GeneratorPolicy.initial(grammar)


def test_policy_validation_requires_terminals():
    grammar = identity_grammar()
    grammar[NT_LIST] = [
        Production(pid="L->tail", kind="call", payload="tail", args=(NT_LIST,))
    ]
    with pytest.raises(ValueError, match="terminal"):
        GeneratorPolicy.initial(grammar)


def test_policy_validation_rejects_calls_outside_the_op_table():
    # scalar arithmetic is infix only, so a sampled s_add(...) would not parse
    grammar = identity_grammar()
    grammar[NT_SCALAR] = grammar[NT_SCALAR] + [
        Production(pid="S->s_add", kind="call", payload="s_add", args=(NT_SCALAR, NT_SCALAR))
    ]
    with pytest.raises(ValueError, match="S->s_add calls 's_add', which is not a table op"):
        GeneratorPolicy.initial(grammar)


# -- derivation recovery ------------------------------------------------------

def test_derivation_counts_hand_case():
    policy = GeneratorPolicy.initial(default_grammar(3))
    program = compile_program("merge(models) = add(models[0], models[1])")
    assert dict(derivation_counts(policy, program.ast)) == {
        "V->add": 1, "V->models[0]": 1, "V->models[1]": 1,
    }


def test_derivation_counts_fold_and_scalars():
    policy = GeneratorPolicy.initial(default_grammar(3))
    program = compile_program(
        "merge(models) = fold(tail(models), models[0], (acc, x) -> scale(0.5, add(acc, x)))"
    )
    counts = derivation_counts(policy, program.ast)
    assert counts["V->fold"] == 1
    assert counts["L->tail"] == 1
    assert counts["L->models"] == 1
    assert counts["S->lit(0.5)"] == 1
    assert counts["V->acc"] == 1
    assert counts["V->x"] == 1


def test_sampled_programs_are_rederivable():
    policy = GeneratorPolicy.initial(default_grammar(3))
    for i in range(500):
        ast = parse(sample_program(policy, 1.2, np.random.default_rng((8, i))))
        typecheck(ast)
        counts = derivation_counts(policy, ast)
        assert sum(counts.values()) >= 1


def test_literal_outside_palette_is_underivable():
    policy = GeneratorPolicy.initial(default_grammar(3))
    program = compile_program("merge(models) = scale(0.123, models[0])")
    with pytest.raises(UnderivableProgram, match="palette"):
        derivation_counts(policy, program.ast)


def test_scalar_infix_is_underivable():
    policy = GeneratorPolicy.initial(default_grammar(3))
    program = compile_program("merge(models) = scale(mean_elem(models[0]) + 0.1, models[0])")
    with pytest.raises(UnderivableProgram, match="infix"):
        derivation_counts(policy, program.ast)


def test_out_of_grammar_index_is_underivable():
    policy = GeneratorPolicy.initial(default_grammar(2))
    program = compile_program("merge(models) = models[5]")
    with pytest.raises(UnderivableProgram):
        derivation_counts(policy, program.ast)


def test_nested_fold_is_underivable():
    policy = GeneratorPolicy.initial(default_grammar(3))
    program = compile_program(
        "merge(models) = fold(models, models[0], (acc, x) -> fold(models, acc, (a, b) -> a))"
    )
    with pytest.raises(UnderivableProgram, match="nested fold"):
        derivation_counts(policy, program.ast)


def test_variable_outside_a_fold_body_is_underivable():
    from mergeforge.dsl.ast import Call, ModelIndex, Var

    policy = GeneratorPolicy.initial(default_grammar(3))
    root = Call(op="add", args=(ModelIndex(index=0), Var(depth=0, slot=0)))
    with pytest.raises(UnderivableProgram, match="outside a fold body"):
        derivation_counts(policy, root)


def test_op_missing_from_a_restricted_grammar_is_underivable():
    grammar = default_grammar(3)
    grammar[NT_VECTOR] = [p for p in grammar[NT_VECTOR] if p.pid != "V->hadamard"]
    policy = GeneratorPolicy.initial(grammar)
    program = compile_program("merge(models) = hadamard(models[0], models[1])")
    with pytest.raises(UnderivableProgram, match="hadamard"):
        derivation_counts(policy, program.ast)


def test_infix_vector_ops_are_rederivable():
    policy = GeneratorPolicy.initial(default_grammar(2))
    program = compile_program("merge(models) = models[0] + 0.5 * models[1]")
    counts = derivation_counts(policy, program.ast)
    assert counts["V->add"] == 1 and counts["V->scale"] == 1


# -- code-block extraction ----------------------------------------------------

def test_extract_single_block():
    raw = "Here is my idea:\n```\nmerge(models) = models[0]\n```\nDone."
    assert extract_program(raw) == "merge(models) = models[0]"


def test_extract_no_fence():
    assert extract_program("just prose, no code here") is None


def test_extract_requires_merge_header():
    raw = "```\nnot a program\n```"
    assert extract_program(raw) is None


def test_extract_picks_first_block_with_header():
    raw = (
        "```\nsome output\n```\n"
        "```text\nmerge(models) = models[1]\n```\n"
        "```\nmerge(models) = models[2]\n```"
    )
    assert extract_program(raw) == "merge(models) = models[1]"


def test_extract_with_language_tag_and_comment():
    raw = "```merge\n# strategy: mean\nmerge(models) = mean_stack(models)\n```"
    assert extract_program(raw) == "# strategy: mean\nmerge(models) = mean_stack(models)"


def test_extract_idempotence():
    raw = "prose\n```\nmerge(models) = mean_stack(models)\n```"
    once = extract_program(raw)
    again = extract_program(f"```\n{once}\n```")
    assert once == again


def test_extract_is_linear_on_unclosed_fences():
    start = time.perf_counter()
    assert extract_program("`" * 80_000) is None
    assert time.perf_counter() - start < 0.5


# The regex the fence scan replaced: same results, quadratic on hostile text.
_FENCE_ORACLE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)


def _oracle_extract(raw):
    for match in _FENCE_ORACLE.finditer(raw):
        body = match.group(1)
        if any(line.lstrip().startswith("merge(") for line in body.splitlines()):
            return body.strip()
    return None


_fence_pieces = st.sampled_from(["`", "``", "```", "\n", " ", "x", "merge(", "\r", "```merge\n"])


@settings(max_examples=300, deadline=None)
@given(st.lists(_fence_pieces, max_size=40).map("".join))
def test_extract_matches_the_regex_oracle(raw):
    assert extract_program(raw) == _oracle_extract(raw)


# -- op lists in documents --------------------------------------------------

def _listed_ops(text, start):
    """Names called between ``start`` and the line that introduces ``models[i]``."""
    begin = text.index(start) + len(start)
    section = text[begin:text.index("`models[i]`", begin)]
    return sorted(set(re.findall(r"([a-z_0-9]+)\(", section)))


@pytest.mark.parametrize("text,start", [
    (default_prompt_template().text, "Available operations:"),
    ((Path(__file__).parents[1] / "README.md").read_text(), "program := merge(models) = <expr>"),
], ids=["prompt_template", "readme"])
def test_documented_ops_match_the_op_table(text, start):
    assert _listed_ops(text, start) == sorted([*OP_TABLE, "fold"])


def test_grammar_calls_follow_the_op_table():
    grammar = default_grammar(3)
    assert [p.pid for p in grammar[NT_VECTOR]] == [
        "V->models[0]", "V->models[1]", "V->models[2]",
        "V->add", "V->sub", "V->scale", "V->hadamard", "V->emax", "V->emin",
        "V->mean_stack", "V->sum_stack", "V->ones", "V->fold", "V->acc", "V->x",
    ]
    assert [p.pid for p in grammar[NT_SCALAR] if p.kind == "call"] == [
        "S->mean_elem", "S->norm1", "S->norm2", "S->cos", "S->clamp", "S->length",
    ]
    assert [p.pid for p in grammar[NT_LIST]] == ["L->models", "L->tail"]
    calls = [p for prods in grammar.values() for p in prods if p.kind == "call"]
    assert {p.payload: p.args for p in calls} == {
        "add": ("V", "V"), "sub": ("V", "V"), "scale": ("S", "V"), "hadamard": ("V", "V"),
        "emax": ("V", "V"), "emin": ("V", "V"), "mean_stack": ("L",), "sum_stack": ("L",),
        "ones": ("S",), "mean_elem": ("V",), "norm1": ("V",), "norm2": ("V",),
        "cos": ("V", "V"), "clamp": ("S", "S", "S"), "length": ("L",), "tail": ("L",),
    }


# -- cached slots against the per-choice-point sampler ----------------------

def _oracle_derive(policy, temp, nt, depth, in_body, rng, drawn):
    """The sampler before slots were cached: eligibility, softmax and rng.choice at every choice.

    Counts the pid of every production drawn in ``drawn``.
    """
    from mergeforge.dsl.ast import Call, Fold, ModelIndex, ModelsRef, ScalarLit, Var

    eligible = [
        p for p in policy.grammar[nt]
        if (in_body or p.kind != "var")
        and (not in_body or p.kind != "fold")
        and (depth < policy.max_depth or not p.args)
    ]
    logits = np.array([policy.logits[p.pid] for p in eligible])
    w = np.exp((logits - logits.max()) / temp)
    prod = eligible[rng.choice(len(eligible), p=w / w.sum())]
    drawn[prod.pid] += 1
    if prod.kind == "model":
        return ModelIndex(index=int(prod.payload))
    if prod.kind == "models":
        return ModelsRef()
    if prod.kind == "lit":
        return ScalarLit(value=float(prod.payload))
    if prod.kind == "var":
        return Var(depth=0, slot=int(prod.payload))
    if prod.kind == "call":
        return Call(op=prod.payload, args=tuple(
            _oracle_derive(policy, temp, a, depth + 1, in_body, rng, drawn) for a in prod.args
        ))
    return Fold(
        list_expr=_oracle_derive(policy, temp, prod.args[0], depth + 1, False, rng, drawn),
        init_expr=_oracle_derive(policy, temp, prod.args[1], depth + 1, False, rng, drawn),
        body=_oracle_derive(policy, temp, prod.args[2], depth + 1, True, rng, drawn),
    )


# enough logits for a grammar with up to five models; zip drops those a smaller one lacks
_N_PRODUCTIONS = sum(len(prods) for prods in default_grammar(5).values())
_POLICY_DRAWS = {
    "logits": st.lists(st.floats(-10.0, 10.0), min_size=_N_PRODUCTIONS, max_size=_N_PRODUCTIONS),
    "temp": st.floats(0.05, 3.0, exclude_min=True),
    "max_depth": st.integers(1, 8),
    "seed": st.integers(0, 2**32 - 1),
}


@settings(max_examples=60, deadline=None)
@given(**_POLICY_DRAWS, k=st.integers(2, 5))
def test_sampling_matches_the_per_choice_point_oracle(logits, temp, max_depth, seed, k):
    # the sampler spells its text as it derives; the oracle builds an AST and prints it
    policy = GeneratorPolicy.initial(default_grammar(k), max_depth=max_depth)
    policy = policy.with_logits(dict(zip(policy.logits, logits)))
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        expected = pretty(_oracle_derive(policy, temp, NT_VECTOR, 0, False, oracle_rng, Counter()))
        assert sample_program(policy, temp, rng) == expected
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(**_POLICY_DRAWS)
def test_derivation_counts_are_the_productions_drawn(logits, temp, max_depth, seed):
    policy = GeneratorPolicy.initial(default_grammar(3), max_depth=max_depth)
    policy = policy.with_logits(dict(zip(policy.logits, logits)))
    rng = np.random.default_rng(seed)
    for _ in range(3):
        drawn = Counter()
        ast = _oracle_derive(policy, temp, NT_VECTOR, 0, False, rng, drawn)
        assert derivation_counts(policy, compile_program(pretty(ast)).ast) == drawn


def test_pinned_sample_texts():
    # sha256 of the first 300 texts, recorded before choice points drew from cached slots
    policy = GeneratorPolicy.initial(default_grammar(3))
    rng = np.random.default_rng(7)
    texts = [sample_program(policy, 1.2, rng) for _ in range(300)]
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == (
        "190acc389703dc267fef66de9671dd44c7ac27ab58c40eb9b366d2242056983e"
    )


@pytest.mark.parametrize("nt,depth,in_body", [
    (NT_VECTOR, 0, False), (NT_VECTOR, 0, True), (NT_VECTOR, 4, False),
    (NT_SCALAR, 2, True), (NT_LIST, 4, False),
])
def test_production_probability_matches_the_cached_cdf(nt, depth, in_body):
    policy = GeneratorPolicy.initial(default_grammar(3), max_depth=4)
    policy = policy.with_logits({pid: 0.37 * (i % 7) - 1.0 for i, pid in enumerate(policy.logits)})
    eligible, cdf = policy.slot(0.8, nt, depth, in_body)
    increments = np.diff(cdf, prepend=0.0)
    probs = {p.pid: production_probability(policy, nt, p.pid, 0.8, depth, in_body)
             for p in policy.grammar[nt]}
    assert [probs[p.pid] for p in eligible] == pytest.approx(increments, abs=1e-12)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
    assert all(probs[p.pid] == 0.0 for p in policy.grammar[nt] if p not in eligible)


def test_refined_policy_starts_with_no_cached_slots():
    policy = GeneratorPolicy.initial(default_grammar(3))
    policy.slot(1.0, NT_VECTOR, 0, False)
    assert policy._slots  # the parent's cache is filled, the child's must start empty
    before = production_probability(policy, NT_VECTOR, "V->add", 1.0)
    assert policy.with_logits(policy.logits)._slots == {}
    refined = policy.with_logits({**policy.logits, "V->add": 3.0})
    assert production_probability(refined, NT_VECTOR, "V->add", 1.0) > before
    assert refined == replace(policy, logits=refined.logits, version=1)  # slots do not compare


@pytest.mark.parametrize("temp", [0.0, -1.0, float("nan")])
def test_non_positive_temperature_raises(temp):
    policy = GeneratorPolicy.initial(default_grammar(3))
    with pytest.raises(ValueError, match="temperature"):
        sample_program(policy, temp, np.random.default_rng(0))
    with pytest.raises(ValueError, match="temperature"):
        production_probability(policy, NT_VECTOR, "V->add", temp)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_infinite_logit_raises():
    # rng.choice rejected the NaN probabilities an infinite logit gives; the cached slot does too
    policy = GeneratorPolicy.initial(default_grammar(3))
    policy = policy.with_logits({**policy.logits, "V->add": float("inf")})
    with pytest.raises(ValueError, match="not finite"):
        sample_program(policy, 1.0, np.random.default_rng(0))
