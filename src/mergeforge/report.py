"""Run reports: score histograms, filter-category counts, op-usage frequency.

Everything here is recomputed from the JSONL logs a run leaves behind, so
reports can be regenerated without re-running the search.  The logs are read
in one pass that keeps no candidate record: each success adds its score's bin
and its op names to running totals, so a report's memory does not grow with
the number of candidates.

A success's op names are the op-table names (plus ``fold``) among the
identifiers of its source.  The one regex that finds them matches comments and
numbers too, so that no identifier is read inside one.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from pathlib import Path
from typing import Iterator

from .benchmark import JSON_ERRORS, _KINDS
from .dsl.ast import OP_TABLE
from .dsl.parser import _ALTERNATIVES
from .pipeline import CATEGORIES, SUCCESS

HISTOGRAM_BIN_WIDTH = 5.0

# Identifiers, as lex finds them: a comment or a number is matched first so that
# no identifier is read inside one ("# add", the "e5" of "1e5").  The pieces
# left between matches (whitespace, arrows, symbols) start no comment, number or
# identifier, so on a text that lexes the groups are exactly lex's ident tokens.
# A success's source compiled, so it lexes; a hand-edited one that does not is
# counted as the regex reads it.
_PATTERNS = dict(_ALTERNATIVES)
_IDENTS = re.compile(
    r"%s|%s|(%s)" % (_PATTERNS["comment"], _PATTERNS["number"], _PATTERNS["ident"])
)
_NAMES = frozenset(OP_TABLE) | {"fold"}


# What the reports read of a record: (field, test of its value, kind name).  A
# candidate is read for more than its category only when it succeeded.
_CATEGORY = (("category", *_KINDS["str"]),)
_ITERATION = (("iteration", *_KINDS["int"]),)
_SUCCESS = (*_CATEGORY, *_ITERATION, ("score", *_KINDS["float"]), ("source", *_KINDS["str"]))


class ReportError(RuntimeError):
    pass


def _fault(rec: dict, reads) -> str | None:
    for name, is_kind, kind_name in reads:
        if not is_kind(rec.get(name)):
            if name not in rec:
                return f"missing field {name!r}"
            return f"{name} must be {kind_name}, got {rec[name]!r}"
    return None


def _candidate_fault(rec: dict) -> str | None:
    success = rec.get("category") == SUCCESS
    fault = _fault(rec, _SUCCESS if success else _CATEGORY)
    if success and fault is None:
        score = rec["score"]
        if not math.isfinite(score):  # json reads NaN, Infinity
            return "score must be a finite number"
        if not 0.0 <= score <= 100.0:
            return f"score must lie in [0, 100], got {score!r}"
    return fault


def _iteration_fault(rec: dict) -> str | None:
    counts = rec.get("counts")
    if not (isinstance(counts, dict) and all(cat in counts for cat in CATEGORIES)):
        return f"counts must be an object with a count for each of {', '.join(CATEGORIES)}"
    is_int, kind_name = _KINDS["int"]
    for cat in CATEGORIES:
        if not is_int(counts[cat]):
            return f"counts.{cat} must be {kind_name}, got {counts[cat]!r}"
        if counts[cat] < 0:
            return f"counts.{cat} must be >= 0, got {counts[cat]}"
    return _fault(rec, _ITERATION)


def _records(path: Path, fault) -> Iterator[tuple[int, dict]]:
    """Yield a log's records one at a time, with their line numbers, each one
    that ``fault`` passes.

    A line that is not JSON raises at once.  The first record ``fault`` finds
    wrong stops the yielding, and raises once the rest of the log has been
    read, so a later line that is not JSON is reported first.  No record is
    kept, and the whole text is never held.
    """
    if not path.exists():
        raise ReportError(f"missing log file: {path}")
    first_fault = None
    # a byte that is not UTF-8 is escaped, so that the strict decode of its
    # line below names the line
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                if not line.isascii():
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                rec = json.loads(line)
            except JSON_ERRORS as exc:
                raise ReportError(f"corrupt log file {path} at line {lineno}: {exc}") from exc
            if first_fault is None:
                problem = fault(rec) if isinstance(rec, dict) else "a record must be a JSON object"
                if problem is None:
                    yield lineno, rec
                else:
                    first_fault = f"corrupt log file {path} at line {lineno}: {problem}"
    if first_fault:
        raise ReportError(first_fault)


_TOP_BIN = int(100.0 / HISTOGRAM_BIN_WIDTH) - 1


def _bin(score: float) -> int:
    """The index of ``score``'s bin; 100 lands in the top one."""
    return min(int(score // HISTOGRAM_BIN_WIDTH), _TOP_BIN)


def _bin_rows(counts: Counter[int]) -> list[tuple[float, float, int]]:
    width = HISTOGRAM_BIN_WIDTH
    return [(i * width, (i + 1) * width, counts[i]) for i in sorted(counts)]


def write_reports(run_dir: str | Path) -> Path:
    """Emit CSV reports under <run_dir>/report from the run's JSONL logs.

    Both logs are read in full before anything is written, so a log that
    cannot be read leaves the report directory as it was.  They must agree: an
    iteration has one record, whose success count is the number of its
    successes, and so does each iteration with a success.
    """
    run_dir = Path(run_dir)
    candidates = run_dir / "candidates.jsonl"
    bins: dict[int, Counter[int]] = {}  # iteration -> success count per bin
    first_success: dict[int, int] = {}  # iteration -> the line of its first success
    tokens: Counter[str] = Counter()
    for lineno, rec in _records(candidates, _candidate_fault):
        if rec["category"] == SUCCESS:
            bins.setdefault(rec["iteration"], Counter())[_bin(rec["score"])] += 1
            first_success.setdefault(rec["iteration"], lineno)
            tokens.update(filter(_NAMES.__contains__, _IDENTS.findall(rec["source"])))
    rows: dict[int, str] = {}  # iteration -> its category counts

    def iteration_fault(rec: dict) -> str | None:
        # _records checks a record only after the loop below has stored the one before it
        if (fault := _iteration_fault(rec)) is not None:
            return fault
        it = rec["iteration"]
        if it in rows:
            return f"a second record for iteration {it}"
        logged = bins.get(it, Counter()).total()
        if rec["counts"][SUCCESS] != logged:
            return (f"counts.{SUCCESS} must be {logged}, the number of successes candidates.jsonl "
                    f"holds for iteration {it}, got {rec['counts'][SUCCESS]}")
        return None

    for _, rec in _records(run_dir / "iterations.jsonl", iteration_fault):
        rows[rec["iteration"]] = ",".join(str(rec["counts"][cat]) for cat in CATEGORIES)
    for it, lineno in first_success.items():  # in line order
        if it not in rows:
            raise ReportError(f"corrupt log file {candidates} at line {lineno}: "
                              f"a success of iteration {it}, which iterations.jsonl does not record")
    iterations = sorted(rows.items())
    report_dir = run_dir / "report"
    report_dir.mkdir(exist_ok=True)

    lines = ["iteration,bin_lo,bin_hi,count"]
    for it, _ in iterations:
        for lo, hi, count in _bin_rows(bins.get(it, Counter())):
            lines.append(f"{it},{lo:g},{hi:g},{count}")
    (report_dir / "score_histogram.csv").write_text("\n".join(lines) + "\n")

    lines = ["iteration," + ",".join(CATEGORIES)]
    lines.extend(f"{it},{row}" for it, row in iterations)
    (report_dir / "filter_categories.csv").write_text("\n".join(lines) + "\n")

    lines = ["token,count"]
    for token, count in sorted(tokens.items(), key=lambda kv: (-kv[1], kv[0])):
        lines.append(f"{token},{count}")
    (report_dir / "strategy_tokens.csv").write_text("\n".join(lines) + "\n")
    return report_dir
