"""Per-iteration machinery: filtering, scoring, preference pairs, refinement.

Every generated candidate lands in exactly one of five categories, applied in
a fixed precedence order: extraction failure, then parse/typecheck failure,
then duplicate detection on the canonical hash, then step-budget exhaustion or
runtime failure during evaluation, and finally success with a dev score.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .benchmark import ProbeSet, score as probe_score
from .core import apply_merged
from .dsl import (
    BudgetExceeded,
    DslRuntimeError,
    DslTypeError,
    EvalBudget,
    MergeProgram,
    ParseError,
    compile_program,
    evaluate,
)
from .generator import GeneratorPolicy, UnderivableProgram, derivation_counts
from .generator.extract import extract_program
from .generator.policy import LOGIT_MAX, LOGIT_MIN

log = logging.getLogger(__name__)

DUPLICATE = "duplicate"
NO_FUNCTION_EXTRACTED = "no_function_extracted"
NON_EXECUTABLE = "non_executable"
TIMEOUT = "timeout"
SUCCESS = "success"

CATEGORIES = (DUPLICATE, NO_FUNCTION_EXTRACTED, NON_EXECUTABLE, TIMEOUT, SUCCESS)


@dataclass(frozen=True)
class CandidateOutcome:
    category: str
    source: str  # raw text for extraction failures, program source otherwise
    program: MergeProgram | None = None
    dev_score: float | None = None
    reason: str | None = None


@dataclass(frozen=True)
class ScoredAlgorithm:
    program: MergeProgram
    dev_score: float
    iteration: int


@dataclass(frozen=True)
class PreferencePair:
    prompt_id: str
    chosen: ScoredAlgorithm
    rejected: ScoredAlgorithm


@dataclass(frozen=True)
class RefineConfig:
    p_w: float = 3.0  # top percentile that counts as high-performing
    p_l: float = 10.0  # bottom percentile that counts as low-performing
    s: int = 3  # rejected programs sampled per chosen program
    k: int = 3  # best prior programs carried into the chosen set
    eta: float = 0.1  # policy learning rate

    def __post_init__(self) -> None:
        if not (0 < self.p_w < 100 and 0 < self.p_l < 100):
            raise ValueError("percentiles must lie strictly between 0 and 100")
        if self.s < 1:
            raise ValueError("s must be >= 1")
        if self.k < 0:
            raise ValueError("k must be >= 0")
        if not self.eta > 0:
            raise ValueError("eta must be positive")


def score_program(
    program: MergeProgram,
    taus: Sequence[np.ndarray],
    seed_model: np.ndarray,
    probes: ProbeSet,
    baseline_mse: float,
    budget: EvalBudget,
) -> float:
    """Merged tau -> merged model -> probe score, for one program."""
    tau = evaluate(program.ast, taus, budget)
    return probe_score(apply_merged(seed_model, tau), probes, baseline_mse)


def filter_candidates(
    candidates: Sequence[str],
    seen_hashes: set[str],
    budget: EvalBudget,
    taus: Sequence[np.ndarray],
    seed_model: np.ndarray,
    probes: ProbeSet,
    baseline_mse: float,
    *,
    extract_from_raw: bool = False,
    iteration: int = 0,
    generator_kind: str = "grammar",
) -> list[CandidateOutcome]:
    """Classify each candidate text into exactly one category, in input order.

    ``seen_hashes`` is updated with the canonical hash of every candidate that
    compiles, so later batches can detect duplicates against this one.  Each
    distinct source is compiled once per call; a repeat that compiled is a
    duplicate of its first occurrence.
    """
    outcomes: list[CandidateOutcome] = []
    compiled: dict[str, MergeProgram | str] = {}  # source -> program or compile error
    for raw in candidates:
        source = raw
        if extract_from_raw:
            extracted = extract_program(raw)
            if extracted is None:
                outcomes.append(CandidateOutcome(NO_FUNCTION_EXTRACTED, source=raw))
                continue
            source = extracted
        program = compiled.get(source)
        if program is None:
            try:
                program = compile_program(source, provenance=(iteration, generator_kind))
            except (ParseError, DslTypeError) as exc:
                program = str(exc)
            compiled[source] = program
        if isinstance(program, str):
            outcomes.append(CandidateOutcome(NON_EXECUTABLE, source=source, reason=program))
            continue
        if program.canonical_hash in seen_hashes:
            outcomes.append(CandidateOutcome(DUPLICATE, source=source, program=program))
            continue
        seen_hashes.add(program.canonical_hash)
        try:
            dev = score_program(program, taus, seed_model, probes, baseline_mse, budget)
        except BudgetExceeded:
            outcomes.append(CandidateOutcome(TIMEOUT, source=source, program=program))
            continue
        except DslRuntimeError as exc:
            outcomes.append(
                CandidateOutcome(NON_EXECUTABLE, source=source, program=program, reason=str(exc))
            )
            continue
        outcomes.append(
            CandidateOutcome(SUCCESS, source=source, program=program, dev_score=dev)
        )
    return outcomes


def nearest_rank_thresholds(
    scores: Sequence[float], p_w: float, p_l: float
) -> tuple[float, float]:
    """Score thresholds for the top p_w% and bottom p_l% by nearest rank.

    The top threshold is the smallest score of the ceil(p_w/100 * N) best
    entries, the bottom threshold the largest score of the ceil(p_l/100 * N)
    worst; membership ties at either threshold are all included.
    """
    ordered = sorted(scores)
    n = len(ordered)
    if n == 0:
        raise ValueError("no scores")
    n_w = min(n, max(1, int(np.ceil(p_w / 100.0 * n))))
    n_l = min(n, max(1, int(np.ceil(p_l / 100.0 * n))))
    return ordered[n - n_w], ordered[n_l - 1]


def ranked(algorithms: Iterable[ScoredAlgorithm]) -> list[ScoredAlgorithm]:
    """Score-descending; ties go to the earlier iteration, then the smaller source."""
    return sorted(
        algorithms,
        key=lambda a: (-a.dev_score, a.iteration, a.program.source),
    )


def top_k_carryover(pool: Sequence[ScoredAlgorithm], k: int) -> list[ScoredAlgorithm]:
    """Best k pool entries by score, deduplicated by canonical hash."""
    out: list[ScoredAlgorithm] = []
    seen: set[str] = set()
    for alg in ranked(pool):
        if len(out) == k:
            break
        if alg.program.canonical_hash not in seen:
            seen.add(alg.program.canonical_hash)
            out.append(alg)
    return out


def select_preference_sets(
    scored: Sequence[ScoredAlgorithm],
    carryover_pool: Sequence[ScoredAlgorithm],
    cfg: RefineConfig,
) -> tuple[list[ScoredAlgorithm], list[ScoredAlgorithm], float, float]:
    """Chosen and rejected sets for one iteration.

    Chosen is the top-p_w% of this iteration's scores plus the best k
    carried-over programs from earlier iterations (hash-deduplicated);
    rejected is the bottom-p_l%.
    """
    if len(scored) < 2:
        raise ValueError("need at least two scored algorithms")
    s_pw, s_pl = nearest_rank_thresholds([a.dev_score for a in scored], cfg.p_w, cfg.p_l)
    chosen = [a for a in scored if a.dev_score >= s_pw]
    taken = {a.program.canonical_hash for a in chosen}
    for alg in top_k_carryover(carryover_pool, cfg.k):
        if alg.program.canonical_hash not in taken:
            taken.add(alg.program.canonical_hash)
            chosen.append(alg)
    rejected = [a for a in scored if a.dev_score <= s_pl]
    return ranked(chosen), ranked(rejected), s_pw, s_pl


def build_preferences(
    chosen: Sequence[ScoredAlgorithm],
    rejected: Sequence[ScoredAlgorithm],
    cfg: RefineConfig,
    rng: np.random.Generator,
    prompt_id: str = "prompt-fixed",
) -> list[PreferencePair]:
    """Pair each chosen program with up to ``cfg.s`` sampled rejected programs.

    ``chosen`` and ``rejected`` are the sets ``select_preference_sets`` picks.
    Pairs where the two programs share a canonical hash, or where the chosen
    score does not strictly exceed the rejected score, are dropped; fully
    degenerate score distributions therefore produce no pairs.
    """
    if not rejected:
        log.warning("empty rejected set; no preference pairs built")
        return []
    pairs: list[PreferencePair] = []
    for winner in chosen:
        take = min(cfg.s, len(rejected))
        idx = rng.choice(len(rejected), size=take, replace=False)
        for i in sorted(int(j) for j in idx):
            loser = rejected[i]
            if loser.program.canonical_hash == winner.program.canonical_hash:
                continue
            if not winner.dev_score > loser.dev_score:
                continue
            pairs.append(PreferencePair(prompt_id=prompt_id, chosen=winner, rejected=loser))
    if not pairs:
        log.warning("no usable preference pairs (degenerate scores or duplicates)")
    return pairs


def _normalized_usage(policy: GeneratorPolicy, program: MergeProgram) -> dict[str, float]:
    counts = derivation_counts(policy, program.ast)
    total = sum(counts.values())
    return {pid: c / total for pid, c in counts.items()}


def refine_policy(
    policy: GeneratorPolicy,
    pairs: Sequence[PreferencePair],
    eta: float,
) -> GeneratorPolicy:
    """Contrastive production-usage update toward chosen, away from rejected.

    For each pair the normalized production-usage vectors of the two programs
    are differenced and added to the logits with step ``eta``.  A program the
    grammar cannot re-derive contributes nothing and is counted in the log.
    Logits are clipped to [-10, 10]; the policy version always increments.
    """
    if not pairs:
        raise ValueError("refine_policy needs at least one pair")
    logits = dict(policy.logits)
    skipped = 0
    for pair in pairs:
        try:
            u_chosen = _normalized_usage(policy, pair.chosen.program)
            u_rejected = _normalized_usage(policy, pair.rejected.program)
        except UnderivableProgram as exc:
            skipped += 1
            log.info("pair skipped, not derivable in grammar: %s", exc)
            continue
        for pid in set(u_chosen) | set(u_rejected):
            logits[pid] += eta * (u_chosen.get(pid, 0.0) - u_rejected.get(pid, 0.0))
    if skipped:
        log.info("%d/%d pairs contributed no update", skipped, len(pairs))
    logits = {pid: float(np.clip(v, LOGIT_MIN, LOGIT_MAX)) for pid, v in logits.items()}
    return policy.with_logits(logits)


def category_counts(outcomes: Sequence[CandidateOutcome]) -> dict[str, int]:
    counts = Counter(o.category for o in outcomes)
    return {cat: counts.get(cat, 0) for cat in CATEGORIES}


def exact_text_duplicates(candidates: Sequence[str]) -> int:
    """How many candidates repeat earlier batch text verbatim; log-only metric."""
    counts = Counter(candidates)
    return sum(c - 1 for c in counts.values())
