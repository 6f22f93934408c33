"""Run reports: score histograms, filter-category counts, op-usage frequency.

Everything here is recomputed from the JSONL logs a run leaves behind, so
reports can be regenerated without re-running the search.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from pathlib import Path

from .dsl.ast import OP_TABLE
from .dsl.parser import _ALTERNATIVES
from .pipeline import CATEGORIES, SUCCESS

HISTOGRAM_BIN_WIDTH = 5.0

# Two C-level passes stand in for ``parser.lex``.  _LEXABLE matches exactly
# the texts lex accepts: each step takes the piece lex's alternation would (a
# lookahead is never re-entered, so no shorter or later alternative is tried)
# and a text with a rejected character does not match.  On such a text, the
# pieces _IDENTS skips (whitespace, arrows, symbols) start no comment, number
# or identifier, so its identifier groups are lex's ident tokens.
_PATTERNS = dict(_ALTERNATIVES)
_LEXABLE = re.compile(r"(?:(?=(%s))\1)*" % "|".join(_PATTERNS.values()))
_IDENTS = re.compile(
    r"%s|%s|(%s)" % (_PATTERNS["comment"], _PATTERNS["number"], _PATTERNS["ident"])
)


class ReportError(RuntimeError):
    pass


def _load_jsonl(path: Path) -> list[dict]:
    if not path.exists():
        raise ReportError(f"missing log file: {path}")
    records = []
    with open(path, encoding="utf-8") as fh:  # line by line: the whole text is never held
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ReportError(f"corrupt log file {path} at line {lineno}: {exc}") from exc
    return records


def histogram_bins(scores, width: float = HISTOGRAM_BIN_WIDTH) -> list[tuple[float, float, int]]:
    """Non-empty [lo, hi) bins; a score of exactly 100 lands in [95, 100]."""
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
        if _LEXABLE.fullmatch(source):
            counts.update(filter(names.__contains__, _IDENTS.findall(source)))
    return counts


def write_reports(run_dir: str | Path) -> Path:
    """Emit CSV reports under <run_dir>/report from the run's JSONL logs."""
    run_dir = Path(run_dir)
    candidates = _load_jsonl(run_dir / "candidates.jsonl")
    iterations = _load_jsonl(run_dir / "iterations.jsonl")
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
