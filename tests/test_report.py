import json
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tokenize
from mergeforge.config import BenchmarkConfig, RunConfig
from mergeforge.dsl import OP_TABLE, ParseError
from mergeforge.driver import run
from mergeforge.pipeline import CATEGORIES
from mergeforge.report import ReportError, histogram_bins, strategy_token_counts, write_reports


def test_histogram_binning_example():
    assert histogram_bins([2.0, 7.0, 51.0]) == [
        (0.0, 5.0, 1), (5.0, 10.0, 1), (50.0, 55.0, 1),
    ]


def test_histogram_upper_edge():
    bins = histogram_bins([100.0, 97.5, 95.0])
    assert bins == [(95.0, 100.0, 3)]


def test_histogram_empty():
    assert histogram_bins([]) == []


def test_strategy_token_counts():
    sources = ["merge(models) = mean_stack(models)"] * 12 + [
        "merge(models) = add(mean_elem(models[0]) * models[1], models[0])",
        "not parseable at all !!!",
    ]
    counts = strategy_token_counts(sources)
    assert counts["mean_stack"] == 12
    assert counts["add"] == 1
    assert counts["mean_elem"] == 1
    assert "models" not in counts


def _oracle_token_counts(sources):
    """Op names counted from tokenize's token stream; unlexable sources skipped."""
    names = set(OP_TABLE) | {"fold"}
    counts = Counter()
    for source in sources:
        try:
            tokens = tokenize(source)
        except ParseError:
            continue
        counts.update(t.text for t in tokens if t.kind == "ident" and t.text in names)
    return counts


_REPORT_CASES = [
    "1e5add", "# add\nadd(", "\tadd(\t fold(models),\n\t\tnorm2)", "add(\r\n tail)\r\n",
    "add(é)", "", "mean_stack # mean_stack é\nsum_stack", "add_x addx xadd 1add", "add!",
    # lex rejects the ".", though a tiling free to backtrack would read "a" "1.5"
    "a1.5 add", "x # add\n add", "١add", "añd add", "add->add", "1.e5 add", "1e+ add",
    "add\u00a0add", "#\radd\nadd", "1.5.5 add",
]


def test_strategy_token_counts_match_the_oracle_on_hand_cases():
    for source in _REPORT_CASES:
        assert strategy_token_counts([source]) == _oracle_token_counts([source]), source
    assert strategy_token_counts(_REPORT_CASES) == _oracle_token_counts(_REPORT_CASES)


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


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    _report_text(_LEXABLE_PIECES),
    _report_text(_LEXABLE_PIECES + _REJECTED_PIECES),
    st.text(max_size=40),
), max_size=5))
def test_strategy_token_counts_match_the_oracle(sources):
    assert strategy_token_counts(sources) == _oracle_token_counts(sources)


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
    iteration = {"iteration": 1, "counts": dict.fromkeys(CATEGORIES, 0)}
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
    ]:
        logs = {"candidates.jsonl": [success], "iterations.jsonl": [iteration], name: records}
        for log, recs in logs.items():
            (tmp_path / log).write_text("".join(json.dumps(r) + "\n" for r in recs))
        want = f"corrupt log file {tmp_path / name} at line {line}: {problem}"
        with pytest.raises(ReportError, match=re.escape(want)):
            write_reports(tmp_path)
    # records other than successes are read for their category only
    (tmp_path / "candidates.jsonl").write_text(json.dumps({"category": "duplicate"}) + "\n")
    (tmp_path / "iterations.jsonl").write_text(json.dumps(iteration) + "\n")
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
