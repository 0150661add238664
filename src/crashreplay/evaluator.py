"""Scoring of extracted scripts against gold labels, and replay aggregates.

Step accuracy is positional: a gold step is credited only when the predicted
script has a step with the same action and (normalized) component at the
same index with consistent sentence grouping, so swapped steps earn
nothing.  The entity dimensions (action, component, input value, direction)
are scored order-insensitively as multiset overlap, always with the gold
script as denominator.  Dimensions absent from gold report as n/a, never 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .grammar import S2RScript
from .replay import Outcome, ReplayResult

DIMENSIONS = ("step", "action", "component", "input", "direction")


def normalize_component(text: str | None) -> str | None:
    if text is None:
        return None
    return " ".join(text.split()).lower()


@dataclass
class ExtractionScore:
    """Per-dimension (matched, total) counts; accuracies derive from them."""

    counts: dict[str, tuple[int, int]] = field(
        default_factory=lambda: {dim: (0, 0) for dim in DIMENSIONS}
    )

    def accuracy(self, dimension: str) -> float | None:
        matched, total = self.counts[dimension]
        if total == 0:
            return None
        return matched / total


def _same_sentence(script: S2RScript, index: int) -> bool | None:
    """Whether steps index-1 and index come from the same sentence; None if unknown."""
    a = script.steps[index - 1].sentence_index
    b = script.steps[index].sentence_index
    if a is None or b is None:
        return None
    return a == b


#: The key each entity dimension compares as a multiset; None leaves a step out of it.
_OVERLAP_KEYS = {
    "action": lambda e: e.action,
    "component": lambda e: None if e.component is None else (e.action, normalize_component(e.component)),
    "input": lambda e: None if e.value is None else e.value.strip(),
    "direction": lambda e: e.direction,
}


def score_extraction(predicted: S2RScript, gold: S2RScript) -> ExtractionScore:
    """Score a predicted script against gold; gold sets every denominator."""
    score = ExtractionScore()

    step_matched = 0
    for j, gold_step in enumerate(gold.steps):
        if j >= len(predicted.steps):
            continue
        pred_step = predicted.steps[j]
        if gold_step.entity.action != pred_step.entity.action:
            continue
        if normalize_component(gold_step.entity.component) != normalize_component(
            pred_step.entity.component
        ):
            continue
        if j > 0:
            gold_grouping = _same_sentence(gold, j)
            pred_grouping = _same_sentence(predicted, j)
            if gold_grouping is not None and pred_grouping is not None and gold_grouping != pred_grouping:
                continue
        step_matched += 1
    score.counts["step"] = (step_matched, len(gold.steps))

    gold_entities, predicted_entities = [s.entity for s in gold.steps], [s.entity for s in predicted.steps]
    for dim, key in _OVERLAP_KEYS.items():
        # The multiset overlap: each predicted key takes one of the gold keys left unmatched.
        unmatched: dict = {}
        for k in map(key, gold_entities):
            unmatched[k] = unmatched.get(k, 0) + 1
        total, matched = len(gold_entities) - unmatched.pop(None, 0), 0
        for k in map(key, predicted_entities):
            if unmatched.get(k):
                unmatched[k] -= 1
                matched += 1
        score.counts[dim] = (matched, total)
    return score


def merge_scores(scores: list[ExtractionScore]) -> ExtractionScore:
    """Pool per-report counts into corpus-level counts."""
    merged = ExtractionScore()
    for dim in DIMENSIONS:
        matched = sum(s.counts[dim][0] for s in scores)
        total = sum(s.counts[dim][1] for s in scores)
        merged.counts[dim] = (matched, total)
    return merged


@dataclass
class ReplayAggregate:
    nsr: int
    attempted: int
    avg_time: float | None
    avg_llm_time: float | None


def aggregate_replays(results: list[ReplayResult]) -> ReplayAggregate:
    """NSR plus average times over the successful reproductions only."""
    successes = [r for r in results if r.outcome == Outcome.REPRODUCED]
    nsr = len(successes)
    if nsr != sum(1 for r in results if r.crash is not None):
        raise ValueError("crash presence and reproduced outcome disagree")
    avg_time = sum(r.elapsed for r in successes) / nsr if nsr else None
    avg_llm = sum(r.llm_time for r in successes) / nsr if nsr else None
    return ReplayAggregate(nsr=nsr, attempted=len(results), avg_time=avg_time, avg_llm_time=avg_llm)


def _fmt_pct(value: float | None) -> str:
    return "n/a" if value is None else f"{value * 100:.2f}%"


def _fmt_seconds(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.2f}s"


def emit_report(scores: ExtractionScore | None, aggregate: ReplayAggregate | None) -> str:
    """Plain-text report: extraction accuracy row and replay totals."""
    lines = ["S2R entity extraction accuracy", "Step Action Component Input Direction"]
    if scores is not None:
        lines.append(" ".join(_fmt_pct(scores.accuracy(dim)) for dim in DIMENSIONS))
    lines.append("")
    lines.append("Crash reproduction")
    lines.append("NSR Attempted Average-Time Average-LLM-Time")
    if aggregate is not None:
        lines.append(
            f"{aggregate.nsr} {aggregate.attempted} "
            f"{_fmt_seconds(aggregate.avg_time)} {_fmt_seconds(aggregate.avg_llm_time)}"
        )
    return "\n".join(lines) + "\n"


def report_payload(
    scores: ExtractionScore | None,
    aggregate: ReplayAggregate | None,
    config_fingerprint: str = "",
    input_hashes: dict[str, str] | None = None,
) -> dict:
    """Machine-readable report."""
    payload: dict = {
        "schema": "crashreplay-report@1",
        "config_fingerprint": config_fingerprint,
        "input_hashes": input_hashes or {},
        "scores": None,
        "aggregate": None,
    }
    if scores is not None:
        payload["scores"] = {dim: list(scores.counts[dim]) for dim in DIMENSIONS}
    if aggregate is not None:
        payload["aggregate"] = {
            "nsr": aggregate.nsr,
            "attempted": aggregate.attempted,
            "avg_time_s": aggregate.avg_time,
            "avg_llm_time_s": aggregate.avg_llm_time,
        }
    return payload
