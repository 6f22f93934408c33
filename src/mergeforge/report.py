"""Run reports: score histograms, filter-category counts, op-usage frequency.

Everything here is recomputed from the JSONL logs a run leaves behind, so
reports can be regenerated without re-running the search.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from pathlib import Path

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
    if success and fault is None and not math.isfinite(rec["score"]):  # json reads NaN, Infinity
        return "score must be a finite number"
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


def _load_jsonl(path: Path, fault) -> list[dict]:
    """A log's records; a line that is not JSON is reported before the first record ``fault`` finds wrong."""
    if not path.exists():
        raise ReportError(f"missing log file: {path}")
    records, first_fault = [], None
    # line by line: the whole text is never held; a byte that is not UTF-8 is
    # escaped, so that the strict decode of its line below names the line
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
            records.append(rec)
            if first_fault is None:
                problem = fault(rec) if isinstance(rec, dict) else "a record must be a JSON object"
                first_fault = problem and f"corrupt log file {path} at line {lineno}: {problem}"
    if first_fault:
        raise ReportError(first_fault)
    return records


def histogram_bins(scores) -> list[tuple[float, float, int]]:
    """Non-empty [lo, hi) bins; a score of exactly 100 lands in [95, 100]."""
    width = HISTOGRAM_BIN_WIDTH
    counts: Counter[int] = Counter()
    top = int(100.0 / width) - 1
    for s in scores:
        counts[min(int(s // width), top)] += 1
    return [(i * width, (i + 1) * width, counts[i]) for i in sorted(counts)]


def strategy_token_counts(sources) -> Counter[str]:
    """Frequency of operation names across program sources.

    The desk analog of word-frequency analysis over generated strategies:
    counts op-table names (plus ``fold``) among the identifier tokens of each
    source.  Sources the lexer rejects are skipped.
    """
    names = set(OP_TABLE) | {"fold"}
    counts: Counter[str] = Counter()
    for source in sources:
        if lexes_plainly(source) or _LEXABLE.fullmatch(source):
            counts.update(filter(names.__contains__, _IDENTS.findall(source)))
    return counts


def write_reports(run_dir: str | Path) -> Path:
    """Emit CSV reports under <run_dir>/report from the run's JSONL logs."""
    run_dir = Path(run_dir)
    candidates = _load_jsonl(run_dir / "candidates.jsonl", _candidate_fault)
    iterations = _load_jsonl(run_dir / "iterations.jsonl", _iteration_fault)
    report_dir = run_dir / "report"
    report_dir.mkdir(exist_ok=True)

    successes_by_iter: dict[int, list[dict]] = {}
    for rec in candidates:
        if rec["category"] == SUCCESS:
            successes_by_iter.setdefault(rec["iteration"], []).append(rec)

    lines = ["iteration,bin_lo,bin_hi,count"]
    for it in sorted(rec["iteration"] for rec in iterations):
        scores = [r["score"] for r in successes_by_iter.get(it, [])]
        for lo, hi, count in histogram_bins(scores):
            lines.append(f"{it},{lo:g},{hi:g},{count}")
    (report_dir / "score_histogram.csv").write_text("\n".join(lines) + "\n")

    lines = ["iteration," + ",".join(CATEGORIES)]
    for rec in sorted(iterations, key=lambda r: r["iteration"]):
        row = ",".join(str(rec["counts"][cat]) for cat in CATEGORIES)
        lines.append(f"{rec['iteration']},{row}")
    (report_dir / "filter_categories.csv").write_text("\n".join(lines) + "\n")

    counts = strategy_token_counts(
        rec["source"] for recs in successes_by_iter.values() for rec in recs
    )
    lines = ["token,count"]
    for token, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        lines.append(f"{token},{count}")
    (report_dir / "strategy_tokens.csv").write_text("\n".join(lines) + "\n")
    return report_dir
