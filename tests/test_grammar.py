from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crashreplay.grammar import (
    ACTION_PRIMITIVES_TEXT,
    AVAILABLE_ACTIONS_TEXT,
    VOCABULARY,
    ActionType,
    Direction,
    InvariantViolation,
    NoEntitiesFound,
    S2REntity,
    S2RScript,
    build_extraction_prompt,
    format_entity,
    parse_entity_notation,
    parse_extraction_response,
)
from conftest import data_path, json_values

WORDS = ["search", "icon", "playlist", "add", "to", "option", "category", "note", "URL", "OK"]


def random_component(rng: random.Random) -> str:
    return " ".join(rng.choices(WORDS, k=rng.randint(1, 3)))


def random_entity(rng: random.Random) -> S2REntity:
    action = rng.choice(list(ActionType))
    if action in (ActionType.TAP, ActionType.DOUBLE_TAP, ActionType.LONG_TAP):
        return S2REntity(action, component=random_component(rng))
    if action == ActionType.INPUT:
        if rng.random() < 0.3:
            return S2REntity(action, component=random_component(rng), generate_on_replay=True)
        return S2REntity(action, component=random_component(rng), value=random_component(rng))
    if action == ActionType.DELETE:
        value = random_component(rng) if rng.random() < 0.5 else None
        return S2REntity(action, component=random_component(rng), value=value)
    if action in (ActionType.SCROLL, ActionType.SWIPE):
        direction = rng.choice([Direction.UP, Direction.DOWN, Direction.LEFT, Direction.RIGHT])
        return S2REntity(action, direction=direction)
    if action == ActionType.ROTATE:
        if rng.random() < 0.5:
            return S2REntity(action)
        return S2REntity(action, direction=rng.choice([Direction.LANDSCAPE, Direction.PORTRAIT]))
    return S2REntity(action)  # restart / back


def test_format_tap():
    assert format_entity(S2REntity(ActionType.TAP, component="search")) == "[Tap] [search]"


def test_format_input_with_value():
    entity = S2REntity(ActionType.INPUT, component="search term", value="A")
    assert format_entity(entity) == "[Input] [search term] [A]"


def test_format_bare_rotate():
    assert format_entity(S2REntity(ActionType.ROTATE)) == "[Rotate]"


def test_format_omits_missing_value():
    entity = S2REntity(ActionType.INPUT, component="other required fields", generate_on_replay=True)
    assert format_entity(entity) == "[Input] [other required fields]"


def test_parse_numbered_multi_step():
    text = "1. [Tap] [search icon]\n2. [Input] [search term] [A]\n3. [Long Tap] [category A]"
    parsed = parse_entity_notation(text)
    assert not parsed.issues
    assert parsed.entities == [
        S2REntity(ActionType.TAP, component="search icon"),
        S2REntity(ActionType.INPUT, component="search term", value="A"),
        S2REntity(ActionType.LONG_TAP, component="category A"),
    ]


def test_parse_unnumbered_inputs_without_value():
    text = "[Input] [Secret field] [test]\n[Input] [other required fields]"
    parsed = parse_entity_notation(text)
    assert not parsed.issues
    assert parsed.entities == [
        S2REntity(ActionType.INPUT, component="Secret field", value="test"),
        S2REntity(ActionType.INPUT, component="other required fields", generate_on_replay=True),
    ]


def test_parse_empty_input():
    parsed = parse_entity_notation("")
    assert parsed.entities == [] and parsed.issues == []


@pytest.mark.parametrize("name", ["Long Tap", "Long-tap", "long tap", "LONG_TAP"])
def test_parse_action_name_variants(name):
    parsed = parse_entity_notation(f"[{name}] [category A]")
    assert parsed.entities == [S2REntity(ActionType.LONG_TAP, component="category A")]


def test_parse_trailing_period_tolerated():
    parsed = parse_entity_notation("2. [Tap] [playlist].")
    assert parsed.entities == [S2REntity(ActionType.TAP, component="playlist")]


def test_unknown_action_reported_never_guessed():
    parsed = parse_entity_notation("[Press] [OK]")
    assert parsed.entities == []
    assert len(parsed.issues) == 1
    assert "unknown action" in parsed.issues[0].reason


def test_bad_scroll_direction_reported():
    parsed = parse_entity_notation("[Scroll] [sideways]")
    assert parsed.entities == []
    assert "direction" in parsed.issues[0].reason


def test_line_without_brackets_reported():
    parsed = parse_entity_notation("[Tap] [OK]\njust some prose")
    assert len(parsed.entities) == 1
    assert parsed.issues[0].line_no == 2
    assert parsed.issues[0].reason == "no bracket groups"


def test_round_trip_sample():
    rng = random.Random(7)
    for _ in range(200):
        entity = random_entity(rng)
        parsed = parse_entity_notation(format_entity(entity))
        assert parsed.entities == [entity] and not parsed.issues


# -- extraction prompt -------------------------------------------------------

EXAMPLE_HITS = [
    (
        "Click on the add to option and select playlist.",
        [
            S2REntity(ActionType.TAP, component="add to option"),
            S2REntity(ActionType.TAP, component="playlist"),
        ],
    ),
    (
        "Rotate your phone. (Enable auto-rotate first).",
        [S2REntity(ActionType.ROTATE)],
    ),
]

REPORT_SENTENCES = [
    "Long hold on any video and press add to playlist. (Alternatively, select the add to playlist option under any video when watching).",
    "Rotate the screen while auto-rotate feature is on.",
]


def test_prompt_sections_in_order():
    prompt = build_extraction_prompt(REPORT_SENTENCES, EXAMPLE_HITS)
    positions = [
        prompt.index("Available actions:"),
        prompt.index("Action primitives:"),
        prompt.index("Here are some examples for S2R entity extraction."),
        prompt.index("Here are the sentences in current bug report:"),
    ]
    assert positions == sorted(positions)
    assert AVAILABLE_ACTIONS_TEXT in prompt
    assert ACTION_PRIMITIVES_TEXT in prompt


def test_prompt_example_rendering_singular_and_plural():
    prompt = build_extraction_prompt(REPORT_SENTENCES, EXAMPLE_HITS)
    assert (
        'The sentence is "Click on the add to option and select playlist.", '
        "the extracted S2R entities are:\n1. [Tap] [add to option]\n2. [Tap] [playlist]." in prompt
    )
    assert (
        'The sentence is "Rotate your phone. (Enable auto-rotate first).", '
        "the extracted S2R entity is:\n1. [Rotate]." in prompt
    )


def test_prompt_numbers_report_sentences():
    prompt = build_extraction_prompt(REPORT_SENTENCES, EXAMPLE_HITS)
    assert f"1. {REPORT_SENTENCES[0]}\n2. {REPORT_SENTENCES[1]}" in prompt


def test_prompt_omits_examples_section_when_no_hits():
    prompt = build_extraction_prompt(REPORT_SENTENCES, [])
    assert "Here are some examples" not in prompt
    assert "Here are the sentences in current bug report:" in prompt


def test_prompt_requires_sentences():
    with pytest.raises(ValueError):
        build_extraction_prompt([], EXAMPLE_HITS)


def test_prompt_matches_golden_bytes():
    prompt = build_extraction_prompt(REPORT_SENTENCES, EXAMPLE_HITS)
    golden = data_path("golden_extraction_prompt.txt").read_text(encoding="utf-8")
    assert prompt == golden


def test_prompt_deterministic():
    assert build_extraction_prompt(REPORT_SENTENCES, EXAMPLE_HITS) == build_extraction_prompt(
        REPORT_SENTENCES, EXAMPLE_HITS
    )


# -- extraction response -----------------------------------------------------


def test_response_prose_lines_stripped():
    script = parse_extraction_response("The entities are:\n1. [Tap] [playlist]")
    assert [s.entity for s in script.steps] == [S2REntity(ActionType.TAP, component="playlist")]


def test_response_multiple_steps_keep_order():
    script = parse_extraction_response("[Input] [Secret field] [test]\n[Input] [other required fields]")
    assert len(script.steps) == 2
    assert script.steps[0].entity.value == "test"
    assert script.steps[1].entity.generate_on_replay


def test_response_without_entities_raises():
    with pytest.raises(NoEntitiesFound):
        parse_extraction_response("no actions here")


def test_response_sentence_headers_assign_indices():
    script = parse_extraction_response(
        "Sentence 2:\n1. [Tap] [OK]\nSentence 4:\n1. [Tap] [REFRESH]"
    )
    assert [s.sentence_index for s in script.steps] == [2, 4]


def test_script_label_round_trip():
    script = parse_extraction_response("Sentence 1:\n1. [Input] [server URL] [xxyyzz]\n2. [Tap] [OK]")
    from crashreplay.grammar import S2RScript

    assert S2RScript.from_dict(script.to_dict()) == S2RScript(steps=script.steps)


def test_parse_delete_with_optional_value():
    parsed = parse_entity_notation("[Delete] [saved servers] [old entry]")
    assert parsed.entities == [
        S2REntity(ActionType.DELETE, component="saved servers", value="old entry")
    ]
    assert format_entity(parsed.entities[0]) == "[Delete] [saved servers] [old entry]"


def test_entity_from_label_rejects_unknown_action():
    from crashreplay.grammar import InvariantViolation

    with pytest.raises(InvariantViolation):
        S2REntity.from_label({"action": "mash"})


def enum_from_label(raw) -> S2REntity:
    """The reference ``from_label``: one ``ActionType`` and ``Direction`` call per name, then each shape check in turn."""
    if not (isinstance(raw, dict) and all(isinstance(raw.get(key), (str, type(None))) for key in ("component", "value"))):
        raise InvariantViolation(f"bad label: {raw!r}")
    try:
        action = ActionType(str(raw["action"]).lower())
    except (KeyError, ValueError) as exc:
        raise InvariantViolation(f"bad label action: {raw!r}") from exc
    direction = None
    if raw.get("direction") is not None:
        try:
            direction = Direction(str(raw["direction"]).lower())
        except ValueError as exc:
            raise InvariantViolation(f"bad label direction: {raw!r}") from exc
    a, spec, component, value = action.value, VOCABULARY[action], raw.get("component"), raw.get("value")
    if spec.component and not component:
        raise InvariantViolation(f"{a} requires a component")
    if not spec.component and component is not None:
        raise InvariantViolation(f"{a} takes no component")
    if not spec.value and value is not None:
        raise InvariantViolation(f"{a} takes no value")
    if direction is None and spec.direction_required:
        raise InvariantViolation(f"{a} requires a direction")
    if direction is not None and direction not in spec.directions:
        raise InvariantViolation(f"{a} does not take direction {direction.value!r}")
    return S2REntity(action, component, value, direction, spec.value_required and value is None)


LABEL_KEYS = ["action", "component", "value", "direction", "sentence_index"]
ACTION_WORDS = [*(a.value for a in ActionType), "Tap", "INPUT", "Double_Tap", "double tap", "long-tap", " back", "mash"]
DIRECTION_WORDS = [*(d.value for d in Direction), "Up", "LANDSCAPE", " down", "sideways"]
TEXT_WORDS = ["", "OK", "server URL", "Zoë"]


@st.composite
def entity_labels(draw) -> dict:
    """The label of a valid entity, its names in any case."""
    action = draw(st.sampled_from(list(ActionType)))
    spec, cased = VOCABULARY[action], st.sampled_from([str.lower, str.upper, str.title])
    label = {"action": draw(cased)(action.value)}
    if spec.component:
        label["component"] = draw(st.sampled_from(TEXT_WORDS[1:]))
    if spec.value and draw(st.booleans()):
        label["value"] = draw(st.sampled_from(TEXT_WORDS))
    if spec.directions and (spec.direction_required or draw(st.booleans())):
        label["direction"] = draw(cased)(draw(st.sampled_from(sorted(spec.directions))).value)
    return label


labels = entity_labels() | st.fixed_dictionaries({"action": st.sampled_from(ACTION_WORDS)}, optional={
    "component": st.sampled_from([*TEXT_WORDS, None, 5]),
    "value": st.sampled_from([*TEXT_WORDS, None, True]),
    "direction": st.sampled_from([*DIRECTION_WORDS, None, 5]),
    "sentence_index": st.integers(),
}) | json_values(LABEL_KEYS, ACTION_WORDS + DIRECTION_WORDS + TEXT_WORDS)


@settings(max_examples=400)
@given(labels)
@example({"action": "Input", "component": "Name"})
@example({"action": "rotate", "direction": "UP"})
def test_from_label_accepts_and_rejects_every_label_as_the_enum_calls_do(raw):
    try:
        expected = enum_from_label(raw)
    except InvariantViolation as exc:
        with pytest.raises(InvariantViolation) as caught:
            S2REntity.from_label(raw)
        assert str(caught.value) == str(exc)
        return
    entity = S2REntity.from_label(raw)
    assert entity == expected and list(map(type, entity)) == list(map(type, expected))
    assert S2REntity.from_label(entity.to_label()) == entity


@pytest.mark.parametrize("action", [ActionType.TAP, ActionType.INPUT, ActionType.DELETE])
def test_component_action_rejects_direction(action):
    from crashreplay.grammar import InvariantViolation

    with pytest.raises(InvariantViolation):
        S2REntity(action, component="x", value="v" if action == ActionType.INPUT else None,
                  direction=Direction.UP).validate()


# -- script files ----------------------------------------------------------------


@pytest.mark.parametrize(
    "raw",
    [[1], {"steps": "x"}, {"steps": [5]}, {"steps": [{"action": "fly"}]}, {"steps": [{"action": "tap", "component": 5}]}],
)
def test_script_of_another_form_is_an_invariant_violation(raw):
    with pytest.raises(InvariantViolation):
        S2RScript.from_dict(raw)


@given(json_values(["steps", "action", "component", "value", "direction", "sentence_index"], ["tap", "input", "scroll", "up", "OK"]))
def test_any_json_script_loads_or_raises_invariant_violation(raw):
    """A value either is rejected or loads a script whose every step renders in bracket notation."""
    try:
        script = S2RScript.from_dict(raw)
    except InvariantViolation:
        return
    for step in script.steps:
        assert format_entity(step.entity).startswith("[")
