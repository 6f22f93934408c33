import json
import re
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import tokenize
from mergeforge.benchmark import BenchmarkConfig
from mergeforge.config import RunConfig
from mergeforge.dsl.ast import OP_TABLE
from mergeforge.dsl.parser import ParseError
from mergeforge.driver import run
from mergeforge.pipeline import CATEGORIES
from mergeforge.report import ReportError, write_reports


def _write_logs(run_dir, candidates, iterations):
    run_dir.mkdir(parents=True, exist_ok=True)
    with open(run_dir / "candidates.jsonl", "w") as fh:
        for rec in candidates:
            fh.write(json.dumps(rec) + "\n")
    with open(run_dir / "iterations.jsonl", "w") as fh:
        for rec in iterations:
            fh.write(json.dumps(rec) + "\n")


def _iteration_record(iteration, success):
    counts = {"duplicate": 0, "no_function_extracted": 0, "non_executable": 0,
              "timeout": 0, "success": success}
    return {"iteration": iteration, "temperature": 1.0, "counts": counts}


def _report_of(run_dir, successes):
    """The report of one iteration whose successes are these (score, source) pairs."""
    candidates = [{"category": "success", "iteration": 1, "score": score, "source": source}
                  for score, source in successes]
    _write_logs(run_dir, candidates, [_iteration_record(1, len(candidates))])
    return write_reports(run_dir)


def _token_counts(run_dir, sources):
    rows = (_report_of(run_dir, [(50.0, s) for s in sources]) / "strategy_tokens.csv").read_text()
    return Counter({token: int(count) for token, count in (row.split(",") for row in rows.splitlines()[1:])})


@pytest.mark.parametrize("scores, rows", [
    ([2.0, 7.0, 51.0], ["1,0,5,1", "1,5,10,1", "1,50,55,1"]),
    ([100.0, 97.5, 95.0], ["1,95,100,3"]),  # 100 lands in the top bin
    ([], []),  # an iteration with no success writes no row
])
def test_histogram_rows(tmp_path, scores, rows):
    report_dir = _report_of(tmp_path, [(score, "merge(models) = models[0]") for score in scores])
    assert (report_dir / "score_histogram.csv").read_text().splitlines()[1:] == rows


_OP_NAMES = set(OP_TABLE) | {"fold"}


def _oracle_op_names(source):
    """Op names among tokenize's ident tokens; None if lex rejects the source."""
    try:
        tokens = tokenize(source)
    except ParseError:
        return None
    return [t.text for t in tokens if t.kind == "ident" and t.text in _OP_NAMES]


_REPORT_CASES = [
    "1e5add", "# add\nadd(", "\tadd(\t fold(models),\n\t\tnorm2)", "add(\r\n tail)\r\n",
    "", "mean_stack # mean_stack é\nsum_stack", "add_x addx xadd 1add", "x # add\n add", "١add",
    "add->add", "1e+ add", "add\u00a0add", "#\radd\nadd",
    "merge(models) = add(mean_elem(models[0]) * models[1], models[0])",
]


def test_strategy_tokens_match_the_oracle_on_hand_cases(tmp_path):
    for source in _REPORT_CASES:
        assert _token_counts(tmp_path, [source]) == Counter(_oracle_op_names(source)), source
    assert _token_counts(tmp_path, _REPORT_CASES) == Counter(
        name for source in _REPORT_CASES for name in _oracle_op_names(source))


# Sources lex rejects, which only a hand-edited log holds (a success compiled, so
# it lexed), with what the report counts in them: the identifiers outside
# comments and numbers, as on a source that lexes.
_UNLEXED_CASES = [
    ("add(é)", {"add": 1}),
    ("add!", {"add": 1}),
    # lex rejects the ".", though a tiling free to backtrack would read "a" "1.5"
    ("a1.5 add", {"add": 1}),
    ("añd add", {"add": 1}),
    ("1.e5 add", {"add": 1}),
    ("1.5.5 add", {"add": 1}),
    ("norm2(é) # add\nfold $", {"norm2": 1, "fold": 1}),
    ("not parseable at all !!!", {}),
]


@pytest.mark.parametrize("source, counts", _UNLEXED_CASES)
def test_strategy_tokens_count_a_source_that_does_not_lex(tmp_path, source, counts):
    assert _oracle_op_names(source) is None
    assert _token_counts(tmp_path, [source]) == Counter(counts)


# Pieces lex accepts (with comments, non-ASCII whitespace and digits), and
# pieces that leave a rejected character unless a comment swallows them.
_LEXABLE_PIECES = [
    *OP_TABLE, "fold", "models", "(", ")", "[", "]", ",", "=", "+", "-", "*", "->", " ", "\n",
    "\r", "\t", "\u00a0", "1", "1.5", "e", "E", "1e5", "1e-", "١", "#", "# add", "# é!", "_",
    "x", "a1",
]
_REJECTED_PIECES = [".", ">", "é", "ñ", "!", "$", "\\"]


def _report_text(pieces):
    return st.lists(st.sampled_from(pieces), max_size=40).map("".join)


# each example rewrites both logs, so the examples can share one run directory
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.one_of(
    _report_text(_LEXABLE_PIECES),
    _report_text(_LEXABLE_PIECES + _REJECTED_PIECES),
    st.text(max_size=40),
), max_size=5))
def test_strategy_tokens_match_the_oracle(tmp_path, sources):
    names = [_oracle_op_names(source) for source in sources]
    lexed = [source for source, n in zip(sources, names) if n is not None]
    assert _token_counts(tmp_path, lexed) == Counter(name for n in names if n is not None for name in n)


def test_reports_from_crafted_logs(tmp_path):
    candidates = [
        {"iteration": 1, "index": 0, "category": "success", "score": 2.0,
         "source": "merge(models) = mean_stack(models)"},
        {"iteration": 1, "index": 1, "category": "success", "score": 7.0,
         "source": "merge(models) = mean_stack(models)"},
        {"iteration": 1, "index": 2, "category": "success", "score": 51.0,
         "source": "merge(models) = sum_stack(models)"},
        {"iteration": 2, "index": 0, "category": "timeout", "score": None,
         "source": "merge(models) = models[0]"},
    ]
    iterations = [_iteration_record(1, 3), _iteration_record(2, 0)]
    iterations[1]["counts"]["timeout"] = 1
    _write_logs(tmp_path, candidates, iterations)

    report_dir = write_reports(tmp_path)
    hist = (report_dir / "score_histogram.csv").read_text().splitlines()
    assert hist[0] == "iteration,bin_lo,bin_hi,count"
    assert hist[1:] == ["1,0,5,1", "1,5,10,1", "1,50,55,1"]  # iteration 2: no rows

    cats = (report_dir / "filter_categories.csv").read_text().splitlines()
    assert cats[1] == "1,0,0,0,0,3"
    assert cats[2] == "2,0,0,0,1,0"

    tokens = dict(
        line.split(",") for line in
        (report_dir / "strategy_tokens.csv").read_text().splitlines()[1:]
    )
    assert tokens["mean_stack"] == "2"
    assert tokens["sum_stack"] == "1"


def test_histogram_totals_reconcile_with_run(tmp_path):
    config = RunConfig(
        seed=3, iterations=2, candidates_per_iteration=30,
        benchmark=BenchmarkConfig(d=16, k=3, n_dev=20, n_test=20),
        output_dir=str(tmp_path / "run"),
    )
    report = run(config)
    hist_rows = (Path(config.output_dir) / "report/score_histogram.csv").read_text().splitlines()[1:]
    totals = {}
    for row in hist_rows:
        it, _, _, count = row.split(",")
        totals[int(it)] = totals.get(int(it), 0) + int(count)
    for stats in report.iterations:
        assert totals.get(stats.iteration, 0) == stats.counts["success"]


def test_missing_log_is_report_error(tmp_path):
    with pytest.raises(ReportError, match="candidates.jsonl"):
        write_reports(tmp_path)


def test_corrupt_log_is_report_error(tmp_path):
    (tmp_path / "iterations.jsonl").write_text("")
    for text, line in [
        (b'{"iteration": 1}\nnot json\n', 2),
        (b'{"iteration": 1}\r\n\r\n  \n{"iteration": 2}\nnot json', 5),  # blank lines count
        # a byte that is not UTF-8, in a string or not; nesting past the
        # recursion limit; an int past the digit limit
        (b'{"iteration": 1}\n{"category": "\xff"}\n', 2),
        (b'{"iteration": 1}\n\n{"category": \xff}\n', 3),
        (b'{"iteration": 1}\n' + b"[" * 200_000, 2),
        (b'{"iteration": 1}\n[' + b"1" * 5000 + b"]", 2),
    ]:
        (tmp_path / "candidates.jsonl").write_bytes(text)
        want = f"corrupt log file {tmp_path / 'candidates.jsonl'} at line {line}: "
        with pytest.raises(ReportError, match=re.escape(want)):
            write_reports(tmp_path)

    success = {"category": "success", "iteration": 1, "score": 50.0, "source": "merge(models) = models[0]"}
    iteration = {"iteration": 1, "counts": {**dict.fromkeys(CATEGORIES, 0), "success": 1}}
    for name, records, line, problem in [
        ("candidates.jsonl", [success, {"iteration": 1}], 2, "missing field 'category'"),
        ("candidates.jsonl", [[1, 2]], 1, "a record must be a JSON object"),
        ("candidates.jsonl", [{"category": 5}], 1, "category must be a string, got 5"),
        ("candidates.jsonl", [{**success, "source": 5}], 1, "source must be a string, got 5"),
        ("candidates.jsonl", [{**success, "score": "50"}], 1, "score must be a number, got '50'"),
        ("candidates.jsonl", [{**success, "score": 10**400}], 1, f"score must be a number, got {10**400}"),
        ("candidates.jsonl", [{**success, "iteration": True}], 1, "iteration must be an integer, got True"),
        ("candidates.jsonl", [success, {k: v for k, v in success.items() if k != "source"}], 2,
         "missing field 'source'"),
        ("iterations.jsonl", [iteration, [1, 2]], 2, "a record must be a JSON object"),
        ("iterations.jsonl", [{"counts": iteration["counts"]}], 1, "missing field 'iteration'"),
        ("iterations.jsonl", [{"iteration": 1, "counts": {"success": 0}}], 1,
         "counts must be an object with a count for each of"),
        ("iterations.jsonl", [{**iteration, "counts": {**iteration["counts"], "duplicate": "x", "success": [1, 2]}}],
         1, "counts.duplicate must be an integer, got 'x'"),
        ("iterations.jsonl", [iteration, {**iteration, "counts": {**iteration["counts"], "success": [1, 2]}}],
         2, "counts.success must be an integer, got [1, 2]"),
        ("iterations.jsonl", [{**iteration, "counts": {**iteration["counts"], "timeout": True}}], 1,
         "counts.timeout must be an integer, got True"),
        ("iterations.jsonl", [{**iteration, "counts": {**iteration["counts"], "non_executable": 1.0}}], 1,
         "counts.non_executable must be an integer, got 1.0"),
    ]:
        logs = {"candidates.jsonl": [success], "iterations.jsonl": [iteration], name: records}
        for log, recs in logs.items():
            (tmp_path / log).write_text("".join(json.dumps(r) + "\n" for r in recs))
        want = f"corrupt log file {tmp_path / name} at line {line}: {problem}"
        with pytest.raises(ReportError, match=re.escape(want)):
            write_reports(tmp_path)
    # records other than successes are read for their category only
    (tmp_path / "candidates.jsonl").write_text(
        json.dumps({"category": "duplicate"}) + "\n" + json.dumps(success) + "\n"
    )
    (tmp_path / "iterations.jsonl").write_text(json.dumps(iteration) + "\n")
    write_reports(tmp_path)


def test_a_second_record_for_an_iteration_is_report_error(tmp_path):
    # a run that stopped between its two appends, resumed by hand, can leave
    # one; its histogram rows would be written twice
    success = {"category": "success", "iteration": 1, "score": 50.0, "source": "merge(models) = models[0]"}
    _write_logs(tmp_path, [success, {**success, "iteration": 2}],
                [_iteration_record(1, 1), _iteration_record(2, 1), _iteration_record(1, 1)])
    (tmp_path / "report").mkdir()
    want = f"corrupt log file {tmp_path / 'iterations.jsonl'} at line 3: a second record for iteration 1"
    with pytest.raises(ReportError, match=re.escape(want)):
        write_reports(tmp_path)
    assert not any((tmp_path / "report").iterdir())


def test_a_success_of_an_unrecorded_iteration_is_report_error(tmp_path):
    # its score would be counted in strategy_tokens.csv and in no histogram row
    success = {"category": "success", "iteration": 1, "score": 50.0, "source": "merge(models) = models[0]"}
    other = {"category": "duplicate", "iteration": 2}
    _write_logs(tmp_path, [success, other, {**success, "iteration": 3}, {**success, "iteration": 2}],
                [_iteration_record(1, 1)])
    want = (f"corrupt log file {tmp_path / 'candidates.jsonl'} at line 3: "
            "a success of iteration 3, which iterations.jsonl does not record")
    with pytest.raises(ReportError, match=re.escape(want)):
        write_reports(tmp_path)


def test_a_negative_category_count_is_report_error(tmp_path):
    # filter_categories.csv would print it as a count
    iterations = [_iteration_record(1, 0), _iteration_record(2, 0)]
    iterations[1]["counts"]["timeout"] = -5
    _write_logs(tmp_path, [], iterations)
    want = f"corrupt log file {tmp_path / 'iterations.jsonl'} at line 2: counts.timeout must be >= 0, got -5"
    with pytest.raises(ReportError, match=re.escape(want)):
        write_reports(tmp_path)


def test_a_success_count_the_candidates_do_not_hold_is_report_error(tmp_path):
    # filter_categories.csv would state a count that the histogram rows do not total
    success = {"category": "success", "iteration": 1, "score": 50.0, "source": "merge(models) = models[0]"}
    _write_logs(tmp_path, [success, {**success, "iteration": 2}, success],
                [_iteration_record(1, 2), _iteration_record(2, 7)])
    want = (f"corrupt log file {tmp_path / 'iterations.jsonl'} at line 2: "
            "counts.success must be 1, the number of successes candidates.jsonl holds for iteration 2, got 7")
    with pytest.raises(ReportError, match=re.escape(want)):
        write_reports(tmp_path)
    # an iteration record's successes with none in candidates.jsonl
    _write_logs(tmp_path, [success], [_iteration_record(1, 1), _iteration_record(2, 3)])
    want = "counts.success must be 0, the number of successes candidates.jsonl holds for iteration 2, got 3"
    with pytest.raises(ReportError, match=re.escape(want)):
        write_reports(tmp_path)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_score_is_report_error(tmp_path, token):
    # json reads these tokens as floats; they cannot be binned
    (tmp_path / "candidates.jsonl").write_text(
        f'{{"category": "success", "iteration": 1, "score": {token}, "source": "merge(models) = models[0]"}}\n'
    )
    (tmp_path / "iterations.jsonl").write_text(
        json.dumps({"iteration": 1, "counts": dict.fromkeys(CATEGORIES, 0)}) + "\n"
    )
    want = f"corrupt log file {tmp_path / 'candidates.jsonl'} at line 1: score must be a finite number"
    with pytest.raises(ReportError, match=re.escape(want)):
        write_reports(tmp_path)


def test_score_outside_0_to_100_is_report_error(tmp_path):
    # every score is mapped onto [0, 100]; a hand-edited one outside it would
    # land in the top bin or in a bin below 0
    (tmp_path / "iterations.jsonl").write_text(
        json.dumps({"iteration": 1, "counts": {**dict.fromkeys(CATEGORIES, 0), "success": 4}}) + "\n"
    )
    success = {"category": "success", "iteration": 1, "source": "merge(models) = models[0]"}
    for score in (-0.5, 100.5):
        (tmp_path / "candidates.jsonl").write_text(
            json.dumps({**success, "score": 50.0}) + "\n" + json.dumps({**success, "score": score}) + "\n"
        )
        want = (f"corrupt log file {tmp_path / 'candidates.jsonl'} at line 2: "
                f"score must lie in [0, 100], got {score!r}")
        with pytest.raises(ReportError, match=re.escape(want)):
            write_reports(tmp_path)
    (tmp_path / "candidates.jsonl").write_text(
        "".join(json.dumps({**success, "score": score}) + "\n" for score in (0, 0.0, 100, 100.0))
    )
    hist = (write_reports(tmp_path) / "score_histogram.csv").read_text().splitlines()
    assert hist[1:] == ["1,0,5,2", "1,95,100,2"]


def test_report_memory_does_not_grow_with_the_log(tmp_path):
    # 20,000 records would hold several MiB as parsed records; a report that
    # keeps none peaks at what one line and the running totals take
    n = 20_000
    with open(tmp_path / "candidates.jsonl", "w") as fh:
        for i in range(n):
            source = f"merge(models) = add(scale({i % 97 / 100}, models[{i % 3}]), mean_stack(models))"
            fh.write(json.dumps({"category": "success", "hash": f"{i:032x}", "index": i,
                                 "iteration": 1 + i % 3, "score": i % 1000 / 10, "source": source},
                                sort_keys=True) + "\n")
    with open(tmp_path / "iterations.jsonl", "w") as fh:
        for it in (1, 2, 3):
            fh.write(json.dumps({"iteration": it, "counts": {**dict.fromkeys(CATEGORIES, 0),
                                                             "success": n // 3 + (it <= n % 3)}}) + "\n")
    tracemalloc.start()
    try:
        report_dir = write_reports(tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak
    tokens = (report_dir / "strategy_tokens.csv").read_text().splitlines()
    assert tokens[1:] == [f"add,{n}", f"mean_stack,{n}", f"scale,{n}"]
