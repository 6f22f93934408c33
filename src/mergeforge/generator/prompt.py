"""The fixed generation prompt; identical across iterations."""

from __future__ import annotations

import hashlib
from importlib import resources

PROMPT = resources.files("mergeforge.data").joinpath("prompt_template.txt").read_text(encoding="utf-8")
PROMPT_ID = "prompt-" + hashlib.sha256(PROMPT.encode("utf-8")).hexdigest()[:12]
