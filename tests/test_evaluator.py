from __future__ import annotations

import json
from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from crashreplay.evaluator import (
    DIMENSIONS,
    ExtractionScore,
    ReplayAggregate,
    aggregate_replays,
    emit_report,
    merge_scores,
    normalize_component,
    report_payload,
    score_extraction,
)
from crashreplay.grammar import ActionType, Direction, S2REntity, S2RScript, ScriptStep
from crashreplay.replay import Outcome, ReplayResult
from crashreplay.rag import load_corpus
from crashreplay.cli import fixtures_path
from conftest import script_from_report


def script(*steps: tuple) -> S2RScript:
    """steps: (action, component, value, direction, sentence_index) tuples."""
    built = []
    for action, component, value, direction, sentence in steps:
        entity = S2REntity(
            ActionType(action),
            component=component,
            value=value,
            direction=Direction(direction) if direction else None,
            generate_on_replay=ActionType(action) == ActionType.INPUT and value is None,
        )
        built.append(ScriptStep(entity, sentence))
    return S2RScript(steps=tuple(built))


CATEGORY_GOLD = script(
    ("tap", "search icon", None, None, 1),
    ("input", "search term", "A", None, 1),
    ("long_tap", "category A", None, None, 3),
)

# A two-step prediction that missed the final long-tap and the input value.
CATEGORY_TWO_STEP = script(
    ("tap", "search icon", None, None, None),
    ("input", "search term", None, None, None),
)


def replay_result(outcome: str, elapsed: float = 1.0, llm: float = 0.5) -> ReplayResult:
    from crashreplay.device import CrashInfo

    crash = CrashInfo("E", "m", "A") if outcome == "reproduced" else None
    return ReplayResult(
        outcome=Outcome(outcome),
        crash=crash,
        elapsed=elapsed,
        llm_time=llm,
        steps_executed=3,
        iterations=2,
        trace_records=(),
    )


# -- score_extraction -----------------------------------------------------------


def test_identity_scores_all_ones():
    result = score_extraction(CATEGORY_GOLD, CATEGORY_GOLD)
    assert result.accuracy("step") == 1.0
    assert result.accuracy("action") == 1.0
    assert result.accuracy("component") == 1.0
    assert result.accuracy("input") == 1.0
    assert result.accuracy("direction") is None  # gold has no direction anywhere


def test_identity_on_every_bundled_gold_script():
    corpus = load_corpus(fixtures_path() / "corpus_small.jsonl")
    for report in corpus:
        gold = script_from_report(report)
        if not gold.steps:
            continue
        result = score_extraction(gold, gold)
        for dim in ("step", "action", "component", "input", "direction"):
            acc = result.accuracy(dim)
            assert acc in (None, 1.0), (report.report_id, dim, acc)

    for name in ("url_crash", "hidden_about", "checkout"):
        gold = S2RScript.from_dict(
            json.loads(
                (fixtures_path() / "scenarios" / name / "gold.json").read_text(encoding="utf-8")
            )
        )
        result = score_extraction(gold, gold)
        assert result.accuracy("step") == 1.0


def test_partial_credit_two_of_three():
    result = score_extraction(CATEGORY_TWO_STEP, CATEGORY_GOLD)
    assert result.counts["step"] == (2, 3)
    assert result.counts["action"] == (2, 3)
    assert result.counts["component"] == (2, 3)
    assert result.counts["input"] == (0, 1)  # value "A" missing from prediction
    assert result.counts["direction"] == (0, 0)


def test_swapped_order_zero_step_full_action():
    gold = script(("tap", "OK", None, None, 1), ("rotate", None, None, None, 2))
    swapped = script(("rotate", None, None, None, 1), ("tap", "OK", None, None, 2))
    result = score_extraction(swapped, gold)
    assert result.counts["step"] == (0, 2)
    assert result.counts["action"] == (2, 2)
    assert result.counts["component"] == (1, 1)


def test_denominators_stay_on_gold_with_spurious_steps():
    padded = script(
        ("tap", "search icon", None, None, None),
        ("input", "search term", "A", None, None),
        ("long_tap", "category A", None, None, None),
        ("tap", "extra thing", None, None, None),
        ("back", None, None, None, None),
    )
    result = score_extraction(padded, CATEGORY_GOLD)
    assert result.counts["step"][1] == 3
    assert result.counts["action"][1] == 3
    assert result.counts["component"][1] == 3
    assert result.accuracy("step") == 1.0


def test_component_match_is_case_and_whitespace_insensitive():
    gold = script(("tap", "Search   Icon", None, None, None))
    predicted = script(("tap", "search icon", None, None, None))
    assert score_extraction(predicted, gold).accuracy("component") == 1.0


def test_sentence_grouping_mismatch_denies_step_credit():
    gold = script(("tap", "A", None, None, 1), ("tap", "B", None, None, 1))  # same sentence
    split = script(("tap", "A", None, None, 1), ("tap", "B", None, None, 2))  # separated
    result = score_extraction(split, gold)
    assert result.counts["step"] == (1, 2)


def test_direction_dimension_scored_when_present():
    gold = script(("scroll", None, None, "down", 1), ("swipe", None, None, "left", 2))
    predicted = script(("scroll", None, None, "down", 1), ("swipe", None, None, "right", 2))
    result = score_extraction(predicted, gold)
    assert result.counts["direction"] == (1, 2)


def test_missing_dimension_is_not_applicable_never_zero():
    gold = script(("tap", "OK", None, None, 1))
    predicted = script(("tap", "OK", None, None, 1))
    result = score_extraction(predicted, gold)
    assert result.accuracy("input") is None
    assert result.accuracy("direction") is None


def test_monotonicity_adding_correct_step_never_reduces_matches():
    gold = CATEGORY_GOLD
    shorter = CATEGORY_TWO_STEP
    longer = script(
        ("tap", "search icon", None, None, None),
        ("input", "search term", None, None, None),
        ("long_tap", "category A", None, None, None),
    )
    fewer = score_extraction(shorter, gold).counts["step"][0]
    more = score_extraction(longer, gold).counts["step"][0]
    assert more >= fewer


def reference_entity_counts(predicted: S2RScript, gold: S2RScript) -> dict[str, tuple[int, int]]:
    """The four entity dimensions scored one ``Counter`` block each, the reference for ``score_extraction``."""
    counts = {}
    gold_actions = Counter(step.entity.action for step in gold.steps)
    pred_actions = Counter(step.entity.action for step in predicted.steps)
    counts["action"] = (sum((gold_actions & pred_actions).values()), len(gold.steps))

    gold_components = Counter(
        (step.entity.action, normalize_component(step.entity.component))
        for step in gold.steps
        if step.entity.component is not None
    )
    pred_components = Counter(
        (step.entity.action, normalize_component(step.entity.component))
        for step in predicted.steps
        if step.entity.component is not None
    )
    counts["component"] = (sum((gold_components & pred_components).values()), sum(gold_components.values()))

    gold_values = Counter(step.entity.value.strip() for step in gold.steps if step.entity.value is not None)
    pred_values = Counter(step.entity.value.strip() for step in predicted.steps if step.entity.value is not None)
    counts["input"] = (sum((gold_values & pred_values).values()), sum(gold_values.values()))

    gold_directions = Counter(step.entity.direction for step in gold.steps if step.entity.direction is not None)
    pred_directions = Counter(
        step.entity.direction for step in predicted.steps if step.entity.direction is not None
    )
    counts["direction"] = (sum((gold_directions & pred_directions).values()), sum(gold_directions.values()))
    return counts


# Few distinct values, so steps repeat; case and whitespace vary within each.
random_scripts = st.lists(
    st.builds(
        lambda action, component, value, direction, sentence: ScriptStep(
            S2REntity(action, component, value, direction), sentence
        ),
        st.sampled_from([ActionType.TAP, ActionType.INPUT, ActionType.SCROLL, ActionType.BACK]),
        st.sampled_from([None, "OK", " ok", "o k", "Search  Icon", "search icon "]),
        st.sampled_from([None, "A", " a", "A ", "", " "]),
        st.sampled_from([None, *Direction]),
        st.sampled_from([None, 1, 2]),
    ),
    max_size=8,
).map(lambda steps: S2RScript(steps=tuple(steps)))


def script_of(*entities: tuple) -> S2RScript:
    return S2RScript(steps=tuple(ScriptStep(S2REntity(*entity)) for entity in entities))


_TAP_OK, _TAP_NONE = (ActionType.TAP, "OK", None, None), (ActionType.TAP, None, None, None)
_INPUT_A = (ActionType.INPUT, "field", " A", None)


@given(random_scripts, random_scripts)
# Predicted longer than gold, with repeated keys and None components on both sides.
@example(script_of(_TAP_OK, _TAP_OK, _TAP_OK, _TAP_NONE, _INPUT_A, _INPUT_A), script_of(_TAP_OK, _TAP_NONE, _INPUT_A))
# Predicted shorter than gold, and each side empty.
@example(script_of(_TAP_NONE), script_of(_TAP_OK, _TAP_OK, _TAP_NONE, _INPUT_A))
@example(script_of(), script_of(_TAP_OK, _TAP_NONE))
@example(script_of(_TAP_OK, _TAP_NONE), script_of())
def test_entity_dimensions_equal_the_per_dimension_counter_reference(predicted, gold):
    counts = score_extraction(predicted, gold).counts
    assert {dim: counts[dim] for dim in ("action", "component", "input", "direction")} == reference_entity_counts(
        predicted, gold
    )


def test_merge_scores_pools_counts():
    a = score_extraction(CATEGORY_TWO_STEP, CATEGORY_GOLD)
    b = score_extraction(CATEGORY_GOLD, CATEGORY_GOLD)
    merged = merge_scores([a, b])
    assert merged.counts["step"] == (5, 6)


# -- aggregate_replays -------------------------------------------------------------


def test_aggregate_basic_arithmetic():
    results = [
        replay_result("reproduced", elapsed=10.0),
        replay_result("reproduced", elapsed=20.0),
        replay_result("budget_exhausted", elapsed=300.0),
    ]
    aggregate = aggregate_replays(results)
    assert aggregate.nsr == 2
    assert aggregate.attempted == 3
    assert aggregate.avg_time == pytest.approx(15.0)


def test_aggregate_all_failed_has_na_times():
    aggregate = aggregate_replays([replay_result("budget_exhausted")])
    assert aggregate.nsr == 0
    assert aggregate.avg_time is None
    assert aggregate.avg_llm_time is None


def test_aggregate_rejects_inconsistent_crash_outcome():
    bad = replay_result("budget_exhausted")
    from crashreplay.device import CrashInfo

    bad.crash = CrashInfo("E", "m", "A")
    with pytest.raises(ValueError):
        aggregate_replays([bad])


# -- reports -----------------------------------------------------------------------


def test_report_renders_reference_row_byte_exactly():
    scores = ExtractionScore({
        "step": (8785, 10_000), "action": (6949, 10_000), "component": (3387, 10_000),
        "input": (7093, 10_000), "direction": (8291, 10_000),
    })
    text = emit_report(scores, None)
    assert "87.85% 69.49% 33.87% 70.93% 82.91%" in text.splitlines()


def test_report_headers_only_when_empty():
    text = emit_report(None, None)
    lines = text.splitlines()
    assert "Step Action Component Input Direction" in lines
    assert "NSR Attempted Average-Time Average-LLM-Time" in lines
    assert not any("%" in line for line in lines)


def test_report_renders_na_for_missing_dimensions():
    scores = ExtractionScore()
    scores.counts["step"] = (3, 3)
    text = emit_report(scores, None)
    assert "100.00% n/a n/a n/a n/a" in text


def test_report_includes_aggregate_row():
    aggregate = ReplayAggregate(nsr=2, attempted=3, avg_time=15.0, avg_llm_time=0.25)
    text = emit_report(None, aggregate)
    assert "2 3 15.00s 0.25s" in text


def test_payload_round_trip():
    scores = score_extraction(CATEGORY_TWO_STEP, CATEGORY_GOLD)
    aggregate = ReplayAggregate(nsr=1, attempted=2, avg_time=3.5, avg_llm_time=None)
    payload = report_payload(scores, aggregate, config_fingerprint="abc")
    assert payload["config_fingerprint"] == "abc"
    assert payload["scores"] == {dim: list(scores.counts[dim]) for dim in DIMENSIONS}
    assert payload["aggregate"] == {"nsr": 1, "attempted": 2, "avg_time_s": 3.5, "avg_llm_time_s": None}


def test_payload_round_trip_empty():
    payload = report_payload(None, None)
    assert payload["scores"] is None and payload["aggregate"] is None
