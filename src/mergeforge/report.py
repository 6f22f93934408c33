"""Run reports: score histograms, filter-category counts, op-usage frequency.

Everything here is recomputed from the JSONL logs a run leaves behind, so
reports can be regenerated without re-running the search.  The logs are read
in one pass that keeps no candidate record: each success adds its score's bin
and its op names to running totals, so a report's memory does not grow with
the number of candidates.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator

from .benchmark import JSON_ERRORS, _KINDS
from .dsl.ast import OP_TABLE
from .dsl.parser import _ALTERNATIVES, lexes_plainly
from .pipeline import CATEGORIES, SUCCESS

HISTOGRAM_BIN_WIDTH = 5.0

# C-level passes stand in for ``parser.lex``.  lexes_plainly's checks prove
# most texts lexable, and _LEXABLE, run on the rest, matches exactly the texts
# lex accepts: each step takes the piece lex's alternation would (a lookahead
# is never re-entered, so no shorter or later alternative is tried) and a text
# with a rejected character does not match.  On such a text, the pieces
# _IDENTS skips (whitespace, arrows, symbols) start no comment, number or
# identifier, so its identifier groups are lex's ident tokens.
_PATTERNS = dict(_ALTERNATIVES)
_LEXABLE = re.compile(r"(?:(?=(%s))\1)*" % "|".join(_PATTERNS.values()))
_IDENTS = re.compile(
    r"%s|%s|(%s)" % (_PATTERNS["comment"], _PATTERNS["number"], _PATTERNS["ident"])
)


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
    return _fault(rec, _ITERATION)


def _records(path: Path, fault) -> Iterator[dict]:
    """Yield a log's records one at a time, each one that ``fault`` passes.

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
                    yield rec
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


def histogram_bins(scores) -> list[tuple[float, float, int]]:
    """Non-empty [lo, hi) bins; a score of exactly 100 lands in [95, 100]."""
    return _bin_rows(Counter(map(_bin, scores)))


_NAMES = frozenset(OP_TABLE) | {"fold"}


def _op_names(source: str) -> Iterable[str]:
    """The op-table names (plus ``fold``) among the identifier tokens of
    ``source``; none if the lexer rejects it."""
    if lexes_plainly(source) or _LEXABLE.fullmatch(source):
        return filter(_NAMES.__contains__, _IDENTS.findall(source))
    return ()


def strategy_token_counts(sources) -> Counter[str]:
    """Frequency of operation names across program sources.

    The desk analog of word-frequency analysis over generated strategies:
    counts op-table names (plus ``fold``) among the identifier tokens of each
    source.  Sources the lexer rejects are skipped.
    """
    counts: Counter[str] = Counter()
    for source in sources:
        counts.update(_op_names(source))
    return counts


def write_reports(run_dir: str | Path) -> Path:
    """Emit CSV reports under <run_dir>/report from the run's JSONL logs.

    Both logs are read in full before anything is written, so a log that
    cannot be read leaves the report directory as it was.
    """
    run_dir = Path(run_dir)
    bins: dict[int, Counter[int]] = {}  # iteration -> success count per bin
    tokens: Counter[str] = Counter()
    for rec in _records(run_dir / "candidates.jsonl", _candidate_fault):
        if rec["category"] == SUCCESS:
            bins.setdefault(rec["iteration"], Counter())[_bin(rec["score"])] += 1
            tokens.update(_op_names(rec["source"]))
    iterations = sorted(  # (iteration, its category counts), one per record
        ((rec["iteration"], ",".join(str(rec["counts"][cat]) for cat in CATEGORIES))
         for rec in _records(run_dir / "iterations.jsonl", _iteration_fault)),
        key=itemgetter(0),
    )
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
