"""Pull a merge program out of free-form completion text."""

from __future__ import annotations

_FENCE = "```"


def extract_program(raw: str) -> str | None:
    """Return the first fenced code block containing a ``merge(`` header.

    A block is an opening fence, the rest of its line, and everything up to
    the next fence.  Fences and surrounding prose are stripped.  Returns None
    when no such block exists (the "no function extracted" filter category).
    The scan is linear in the length of ``raw``, however hostile the text.
    """
    pos = 0
    while (start := raw.find(_FENCE, pos)) >= 0:
        newline = raw.find("\n", start + len(_FENCE))
        end = raw.find(_FENCE, newline + 1) if newline >= 0 else -1
        if end < 0:
            return None  # no block opens after this fence, nor later
        body = raw[newline + 1:end]
        if any(line.lstrip().startswith("merge(") for line in body.splitlines()):
            return body.strip()
        pos = end + len(_FENCE)
    return None
