from __future__ import annotations

import contextlib
import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crashreplay.cli import fixtures_path
from crashreplay.device import (
    AlreadyCrashed,
    encode_state_text,
    feature_for_element,
    interactable_elements,
    no_match,
    resolve_feature,
)
from crashreplay.gateway import ActionCommand
from crashreplay.grammar import VERB_SPECS
from conftest import json_values
from crashreplay.simulator import (
    SimAppSpec,
    SimSession,
    SpecInvalid,
    load_spec,
)

APPS = fixtures_path() / "apps"
BUNDLED = {name: load_spec(APPS / f"{name}.json") for name in ("url_crash", "hidden_about", "checkout")}


def declared_reachable_states(spec: SimAppSpec) -> set[str]:
    """States reachable from the initial state over the declared transitions."""
    reached = {spec.initial_state}
    frontier = [spec.initial_state]
    while frontier:
        current = frontier.pop()
        for rule in spec.transitions:
            if rule.from_state == current and rule.to_state not in reached:
                reached.add(rule.to_state)
                frontier.append(rule.to_state)
    return reached


def write_spec(tmp_path, body: dict):
    path = tmp_path / "app.json"
    path.write_text(json.dumps(body), encoding="utf-8")
    return path


MINIMAL = {
    "app_id": "t.app",
    "initial_state": "a",
    "states": {
        "a": {
            "activity": "AActivity",
            "elements": [
                {"id": "go", "class": "Button", "text": "GO", "bounds": [0, 0, 100, 100], "clickable": True},
                {"id": "field", "class": "EditText", "text": "hello", "bounds": [0, 200, 100, 300], "editable": True},
            ],
        },
        "b": {
            "activity": "BActivity",
            "elements": [
                {"id": "back_btn", "class": "Button", "text": "BACK", "bounds": [0, 0, 100, 100], "clickable": True}
            ],
        },
    },
    "transitions": [
        {"from": "a", "verb": "click", "feature": "go", "to": "b"},
        {"from": "b", "verb": "back", "to": "a"},
    ],
    "crash_rules": [
        {
            "state": "a",
            "verb": "set_text",
            "feature": "field",
            "required_text": "boom",
            "crash": {"exception_type": "java.lang.IllegalStateException", "message": "boom"},
        }
    ],
}


# -- loading / validation -------------------------------------------------------


def test_url_crash_fixture_loads_with_four_states():
    spec = load_spec(APPS / "url_crash.json")
    assert len(spec.states) == 4
    assert spec.initial_state == "settings"


def test_bundled_fixtures_fully_reachable():
    for name, spec in BUNDLED.items():
        assert declared_reachable_states(spec) == set(spec.states), name


def test_transition_to_missing_state_reported(tmp_path):
    body = json.loads(json.dumps(MINIMAL))
    body["transitions"].append({"from": "a", "verb": "back", "to": "nowhere"})
    with pytest.raises(SpecInvalid) as excinfo:
        load_spec(write_spec(tmp_path, body))
    assert any("nowhere" in v for v in excinfo.value.violations)


def test_rule_on_a_verb_no_command_can_fire_reported(tmp_path):
    # "clik" is no device verb, and a model's restart goes to restart_app, never to a rule.
    body = json.loads(json.dumps(MINIMAL))
    crash = {"exception_type": "java.lang.IllegalStateException"}
    body["transitions"] += [{"from": "a", "verb": "restart", "to": "b"}, {"from": "a", "verb": "clik", "to": "b"},
                            {"from": "a", "to": "b"}]
    body["crash_rules"] += [{"state": "a", "verb": "restart", "crash": crash}, {"state": "a", "verb": "clik", "crash": crash},
                            {"state": "a", "crash": crash}]
    with pytest.raises(SpecInvalid) as excinfo:
        load_spec(write_spec(tmp_path, body))
    assert excinfo.value.violations == [
        "transition 2: verb 'restart' is not a UI verb",
        "transition 3: verb 'clik' is not a UI verb",
        "transition 4: missing key 'verb'",
        "crash rule 1: verb 'restart' is not a UI verb",
        "crash rule 2: verb 'clik' is not a UI verb",
        "crash rule 3: missing key 'verb'",
    ]


def test_empty_states_map_is_invalid(tmp_path):
    with pytest.raises(SpecInvalid) as excinfo:
        load_spec(write_spec(tmp_path, {"app_id": "x", "initial_state": "a", "states": {}}))
    assert any("initial_state" in v for v in excinfo.value.violations)


def test_ambiguous_trigger_feature_reported(tmp_path):
    body = json.loads(json.dumps(MINIMAL))
    body["states"]["a"]["elements"].append(
        {
            "id": "go2",
            "class": "Button",
            "resource_id": "t.app:id/go",
            "bounds": [0, 400, 100, 500],
            "clickable": True,
        }
    )
    with pytest.raises(SpecInvalid) as excinfo:
        load_spec(write_spec(tmp_path, body))
    assert excinfo.value.violations == ["transition 0: feature 'go' is ambiguous in 'a'"]


def test_duplicate_trigger_reported_with_the_bound_trigger(tmp_path):
    body = json.loads(json.dumps(MINIMAL))
    body["transitions"].append({"from": "a", "verb": "click", "feature": "GO", "to": "a"})  # binds to "go" as well
    with pytest.raises(SpecInvalid) as excinfo:
        load_spec(write_spec(tmp_path, body))
    assert excinfo.value.violations == [
        "transition 2: duplicate trigger Trigger(verb='click', element_id='go', required_text=None, direction=None) from 'a'"
    ]


@pytest.mark.parametrize(
    "change",
    [
        lambda body: [body],
        lambda body: body.update(states=["a", "b"]),
        lambda body: body["states"].update(b=5),
        lambda body: body["states"]["a"].update(elements=5),
        lambda body: body["states"]["a"]["elements"].append("x"),
        lambda body: body.update(transitions={"from": "a"}),
        lambda body: body["transitions"].append(5),
        lambda body: body["crash_rules"].append("boom"),
        lambda body: body["crash_rules"][0].update(requires_field=["field"]),
    ],
    ids=["top level", "states", "state body", "elements", "element", "transitions", "transition", "crash rule", "requires_field"],
)
def test_spec_part_that_is_no_object_is_a_violation(tmp_path, change):
    body = json.loads(json.dumps(MINIMAL))
    body = change(body) or body
    with pytest.raises(SpecInvalid):
        load_spec(write_spec(tmp_path, body))


STRING_FIELDS = [
    ("spec", "app_id"),
    ("spec", "initial_state"),
    ("state", "activity"),
    *(("element", key) for key in ("id", "class", "text", "content_desc", "resource_id")),
    *(("transition", key) for key in ("from", "to", "verb", "feature", "required_text", "direction")),
    *(("crash rule", key) for key in ("state", "verb", "feature", "required_text", "direction")),
    *(("requires_field", key) for key in ("element", "op", "value")),
    *(("crash", key) for key in ("exception_type", "message", "activity")),
]


def guarded_spec() -> tuple[dict, dict]:
    """A copy of MINIMAL whose crash rule also has a field guard, and its parts by name."""
    body = json.loads(json.dumps(MINIMAL))
    rule = body["crash_rules"][0]
    rule["requires_field"] = {"element": "field", "op": "equals", "value": "x"}
    parts = {
        "spec": body,
        "state": body["states"]["a"],
        "element": body["states"]["a"]["elements"][0],
        "transition": body["transitions"][0],
        "crash rule": rule,
        "requires_field": rule["requires_field"],
        "crash": rule["crash"],
    }
    return body, parts


@pytest.mark.parametrize("value", [["x"], {"x": "y"}], ids=["list", "object"])
@pytest.mark.parametrize("part, key", STRING_FIELDS, ids=[f"{part} {key}" for part, key in STRING_FIELDS])
def test_spec_field_that_is_no_string_is_a_violation(tmp_path, part, key, value):
    body, parts = guarded_spec()
    parts[part][key] = value
    with pytest.raises(SpecInvalid) as excinfo:
        load_spec(write_spec(tmp_path, body))
    assert f"{key} {value!r} is not a string" in str(excinfo.value)


def test_spec_optional_strings_may_be_null(tmp_path):
    body, parts = guarded_spec()
    parts["element"].update(content_desc=None, resource_id=None)
    parts["transition"].update(required_text=None, direction=None)
    assert load_spec(write_spec(tmp_path, body)).crash_rules[0].requires_field.value == "x"


def test_spec_bounds_that_are_no_numbers_are_a_violation(tmp_path):
    body, parts = guarded_spec()
    parts["element"]["bounds"] = ["0", "0", "1", "1"]
    with pytest.raises(SpecInvalid) as excinfo:
        load_spec(write_spec(tmp_path, body))
    assert "bounds ('0', '0', '1', '1') are not well-ordered" in str(excinfo.value)


@pytest.mark.parametrize(
    "bounds",
    [[False, False, True, True], [0.5, 0, 10.25, 3], [0, 0, math.inf, math.inf], [0, 0, 10], [0, 0, 10, 10, 10]],
    ids=["booleans", "fractions", "infinite", "three", "five"],
)
def test_spec_bounds_that_are_not_four_integers_are_a_violation(tmp_path, bounds):
    body, parts = guarded_spec()
    parts["element"]["bounds"] = bounds
    with pytest.raises(SpecInvalid) as excinfo:
        load_spec(write_spec(tmp_path, body))  # json writes math.inf as Infinity, which json reads back
    assert f"state 'a' element 0: bounds {tuple(bounds)} are not well-ordered integers" in excinfo.value.violations


def test_all_violations_collected(tmp_path):
    body = {
        "app_id": "x",
        "initial_state": "missing",
        "states": {"a": {"activity": "A", "elements": [{"id": "e", "class": "B", "bounds": [5, 5, 1, 1]}]}},
        "transitions": [{"from": "a", "verb": "click", "feature": "nope", "to": "gone"}],
    }
    with pytest.raises(SpecInvalid) as excinfo:
        load_spec(write_spec(tmp_path, body))
    assert len(excinfo.value.violations) >= 3


@pytest.mark.parametrize("value", ["false", 1, None], ids=["string", "number", "null"])
@pytest.mark.parametrize("flag", ["clickable", "long_clickable", "editable", "scrollable"])
def test_element_flag_that_is_no_boolean_is_a_violation(tmp_path, flag, value):
    body, parts = guarded_spec()
    parts["element"][flag] = value
    with pytest.raises(SpecInvalid) as excinfo:
        load_spec(write_spec(tmp_path, body))
    assert f"{flag} {value!r} is not a boolean" in str(excinfo.value)


UNKNOWN_KEYS = [
    ("element", "clikable"),
    ("element", "children"),
    ("spec", "state"),
    ("state", "element"),
    ("transition", "from_state"),
    ("crash rule", "requires"),
    ("requires_field", "id"),
    ("crash", "activity_name"),
]


@pytest.mark.parametrize("part, key", UNKNOWN_KEYS, ids=[f"{part} {key}" for part, key in UNKNOWN_KEYS])
def test_spec_key_that_is_unknown_is_a_violation(tmp_path, part, key):
    body, parts = guarded_spec()
    parts[part][key] = [] if key == "children" else True
    with pytest.raises(SpecInvalid) as excinfo:
        load_spec(write_spec(tmp_path, body))
    assert f"unknown key {key!r}" in str(excinfo.value)


@pytest.mark.parametrize(
    "part, key", [("crash rule", "crash"), ("crash", "exception_type"), ("element", "id"), ("element", "class")]
)
def test_spec_object_without_a_required_key_is_a_violation(tmp_path, part, key):
    body, parts = guarded_spec()
    del parts[part][key]
    with pytest.raises(SpecInvalid) as excinfo:
        load_spec(write_spec(tmp_path, body))
    assert f"missing key {key!r}" in str(excinfo.value)


def test_a_mistyped_top_level_key_does_not_stop_the_walk(tmp_path):
    body = json.loads(json.dumps(MINIMAL))
    body["app_id"] = ["t.app"]
    body["transitions"][1]["to"] = "nowhere"
    with pytest.raises(SpecInvalid) as excinfo:
        load_spec(write_spec(tmp_path, body))
    violations = "\n".join(excinfo.value.violations)
    assert "app_id ['t.app'] is not a string" in violations
    assert "unknown to-state 'nowhere'" in violations


STRING, TEXT, FLAG = "a string", "a string or null", "a boolean"
HAS_TYPE = {
    STRING: lambda v: isinstance(v, str),
    TEXT: lambda v: v is None or isinstance(v, str),
    FLAG: lambda v: isinstance(v, bool),
}
#: README's type of each scalar spec key, and the attribute that holds it once loaded: the oracle below.
DOCUMENTED = {
    "spec": {"app_id": (STRING, "app_id"), "initial_state": (STRING, "initial_state")},
    "state": {"activity": (STRING, "activity")},
    "element": {
        "id": (STRING, "element_id"),
        "class": (STRING, "class_name"),
        **{key: (TEXT, key) for key in ("text", "content_desc", "resource_id")},
        **{key: (FLAG, key) for key in ("clickable", "long_clickable", "editable", "scrollable")},
    },
    "transition": {"from": (STRING, "from_state"), "to": (STRING, "to_state")},
    "crash rule": {"state": (STRING, "state")},
    "requires_field": {"element": (STRING, "element_id"), "op": (STRING, "op"), "value": (STRING, "value")},
    "crash": {
        "exception_type": (STRING, "exception_type"),
        "message": (STRING, "message"),
        "activity": (STRING, "raised_in_activity"),
    },
}
for rule in ("transition", "crash rule"):
    DOCUMENTED[rule].update(verb=(STRING, "trigger.verb"), feature=(TEXT, "trigger.element_id"))
    DOCUMENTED[rule].update({key: (TEXT, f"trigger.{key}") for key in ("required_text", "direction")})
FIELDS = [(part, key) for part, keys in DOCUMENTED.items() for key in keys]


def spec_and_loaded_parts() -> tuple[dict, dict, dict]:
    """A valid spec, its parts, and where a loaded spec holds each part.

    The parts sit on state ``b``, whose one element nothing else names, so a
    changed value breaks nothing but itself.
    """
    body, parts = guarded_spec()
    body["crash_rules"].append({"state": "b", "verb": "rotate", "crash": {"exception_type": "java.lang.Error"}})
    parts.update(
        {
            "state": body["states"]["b"],
            "element": body["states"]["b"]["elements"][0],
            "transition": body["transitions"][1],
            "crash rule": body["crash_rules"][1],
            "crash": body["crash_rules"][1]["crash"],
        }
    )
    loaded = {
        "spec": lambda spec: spec,
        "state": lambda spec: spec.states["b"],
        "element": lambda spec: spec.states["b"].elements[0],
        "transition": lambda spec: spec.transitions[1],
        "crash rule": lambda spec: spec.crash_rules[1],
        "requires_field": lambda spec: spec.crash_rules[0].requires_field,
        "crash": lambda spec: spec.crash_rules[1].crash,
    }
    return body, parts, loaded


@given(
    st.sampled_from(FIELDS),
    json_values(["id", "text", "x"], ["a", "b", "field", "back_btn", "BACK", "equals", "click"]),
)
def test_a_spec_field_loads_only_as_its_documented_type(tmp_path_factory, field, value):
    part, key = field
    kind, attribute = DOCUMENTED[part][key]
    body, parts, loaded = spec_and_loaded_parts()
    parts[part][key] = value
    path = tmp_path_factory.getbasetemp() / "documented_type.json"  # one file, rewritten per example
    path.write_text(json.dumps(body), encoding="utf-8")
    try:
        spec = load_spec(path)
    except SpecInvalid as exc:
        assert any(key in violation for violation in exc.violations), exc.violations
        if not HAS_TYPE[kind](value):
            assert f"{key} {value!r} is not {kind}" in str(exc)
        return
    assert HAS_TYPE[kind](value)
    held = loaded[part](spec)
    for name in attribute.split("."):
        held = getattr(held, name)
    if key == "feature" and value is not None:
        element = next(e for e in spec.states["b"].elements if e.element_id == held)
        assert value in (element.element_id, element.text, (element.resource_id or "").rsplit("/", 1)[-1])
    else:
        assert held == value and type(held) is type(value)


# -- stepping ----------------------------------------------------------------------


def test_transition_moves_to_target(tmp_path):
    session = SimSession(load_spec(write_spec(tmp_path, MINIMAL)))
    status = session.step(ActionCommand(action="click", feature="GO"))
    assert status.ok and session.current == "b"
    assert status.new_state.activity_name == "BActivity"


def test_back_without_transition_is_noop(tmp_path):
    session = SimSession(load_spec(write_spec(tmp_path, MINIMAL)))
    before = session.build_state().state_id
    status = session.step(ActionCommand(action="back"))
    assert not status.ok
    assert session.current == "a"
    assert status.new_state.state_id == before


def test_set_text_updates_field_without_transition(tmp_path):
    session = SimSession(load_spec(write_spec(tmp_path, MINIMAL)))
    status = session.step(ActionCommand(action="set_text", feature="hello", input_text="typed"))
    assert status.ok and session.current == "a"
    state = session.build_state()
    field = next(e for e in state.root.iter_tree() if e.element_id == "field")
    assert field.text == "typed"


def test_set_text_crash_rule_fires_on_trigger_value(tmp_path):
    session = SimSession(load_spec(write_spec(tmp_path, MINIMAL)))
    status = session.step(ActionCommand(action="set_text", feature="hello", input_text="boom"))
    assert status.crash is not None
    assert status.crash.exception_type == "java.lang.IllegalStateException"


def test_crash_freezes_session(tmp_path):
    session = SimSession(load_spec(write_spec(tmp_path, MINIMAL)))
    session.step(ActionCommand(action="set_text", feature="hello", input_text="boom"))
    with pytest.raises(AlreadyCrashed):
        session.step(ActionCommand(action="click", feature="GO"))


def test_unmatched_click_keeps_state(tmp_path):
    body = json.loads(json.dumps(MINIMAL))
    body["states"]["a"]["elements"].append(
        {"id": "dead", "class": "Button", "text": "NOTHING", "bounds": [0, 600, 100, 700], "clickable": True}
    )
    session = SimSession(load_spec(write_spec(tmp_path, body)))
    status = session.step(ActionCommand(action="click", feature="NOTHING"))
    assert not status.ok and session.current == "a"


def test_table_sequence_triggers_url_crash(url_crash_device):
    device = url_crash_device
    s1 = device.execute(
        ActionCommand(action="set_text", feature="https://librenews.io/api", input_text="xxyyzz")
    )
    assert s1.ok and s1.crash is None
    s2 = device.execute(ActionCommand(action="click", feature="OK"))
    assert s2.ok and s2.new_state.activity_name == "MainFlashActivity"
    s3 = device.execute(ActionCommand(action="click", feature="REFRESH"))
    assert s3.crash is not None
    assert s3.crash.exception_type == "java.lang.IllegalArgumentException"


def test_refresh_with_good_url_does_not_crash(url_crash_device):
    device = url_crash_device
    device.execute(ActionCommand(action="click", feature="OK"))
    status = device.execute(ActionCommand(action="click", feature="REFRESH"))
    assert status.ok and status.crash is None
    assert status.new_state.activity_name == "MainFlashActivity"


def test_restart_returns_to_initial_and_clears_fields(url_crash_device):
    device = url_crash_device
    initial_id = device.capture_state().state_id
    device.execute(ActionCommand(action="set_text", feature="https://librenews.io/api", input_text="xxyyzz"))
    device.execute(ActionCommand(action="click", feature="OK"))
    assert device.restart_app().state_id == initial_id
    assert device.restart_app().state_id == initial_id


def test_identical_command_sequences_are_deterministic(tmp_path):
    commands = [
        ActionCommand(action="click", feature="GO"),
        ActionCommand(action="back"),
        ActionCommand(action="set_text", feature="hello", input_text="x"),
        ActionCommand(action="click", feature="GO"),
    ]

    def trace():
        session = SimSession(load_spec(write_spec(tmp_path, MINIMAL)))
        out = []
        for cmd in commands:
            status = session.step(cmd)
            out.append((status.ok, status.new_state.state_id, status.crash))
        return out

    assert trace() == trace()


def test_device_wrapper_exposes_app_id(checkout_device):
    assert checkout_device.app_id == "org.example.shop"


def test_checkout_quantity_crash(checkout_device):
    status = checkout_device.execute(
        ActionCommand(action="set_text", feature="Quantity", input_text="-1")
    )
    assert status.crash is not None
    assert status.crash.exception_type == "java.lang.NumberFormatException"


def test_guarded_crash_reads_an_unset_field_from_the_first_state_declaring_it(tmp_path):
    body = json.loads(json.dumps(MINIMAL))
    body["states"]["b"]["elements"].append(
        {"id": "field", "class": "EditText", "text": "other", "bounds": [0, 200, 100, 300], "editable": True}
    )
    body["crash_rules"].append(
        {
            "state": "b",
            "verb": "click",
            "feature": "BACK",
            "requires_field": {"element": "field", "op": "equals", "value": "hello"},
            "crash": {"exception_type": "java.lang.IllegalStateException"},
        }
    )
    session = SimSession(load_spec(write_spec(tmp_path, body)))
    session.step(ActionCommand(action="click", feature="GO"))
    assert session.step(ActionCommand(action="click", feature="BACK")).crash is not None


def _features(spec: SimAppSpec) -> list[str]:
    found = {feature_for_element(e) for state in spec.states.values() for e in state.elements}
    return sorted(f for f in found if f) + ["no such element"]


@st.composite
def command_runs(draw):
    """A bundled spec and a run of clicks, text entries (values repeat and
    change), backs and restarts (None) over the features its screens declare."""
    name = draw(st.sampled_from(sorted(BUNDLED)))
    features = st.sampled_from(_features(BUNDLED[name]))
    values = st.sampled_from(["", "x", "boom", "-1", "xxyyzz", "https://librenews.io/api"])
    command = st.one_of(
        st.builds(ActionCommand, action=st.just("click"), feature=features),
        st.builds(ActionCommand, action=st.just("set_text"), feature=features, input_text=values),
        st.just(ActionCommand(action="back")),
        st.none(),
    )
    return name, draw(st.lists(command, max_size=25))


def _assert_same_as_cold_build(session: SimSession, screen) -> None:
    cold_session = SimSession(session.spec)
    cold_session.current = session.current
    cold_session.field_values = dict(session.field_values)
    cold = cold_session.build_state()
    assert screen == cold
    assert screen.state_id == cold.state_id
    assert encode_state_text(screen) == encode_state_text(cold)


@given(command_runs())
def test_memoized_screens_equal_a_cold_build(run):
    name, commands = run
    session = SimSession(BUNDLED[name])
    for cmd in commands:
        if cmd is None:  # a restart goes through restart(), as restart_app sends it
            session.restart()
            _assert_same_as_cold_build(session, session.build_state())
            continue
        try:
            status = session.step(cmd)
        except AlreadyCrashed:
            session.restart()
            continue
        _assert_same_as_cold_build(session, status.new_state)
        screen = session.build_state()
        assert screen is session.build_state()
        _assert_same_as_cold_build(session, screen)


def test_a_screen_cannot_be_changed_once_built(url_crash_device):
    screen = url_crash_device.capture_state()
    for attribute in ("activity_name", "root", "_state_id", "_text", "_tables", "_interactable"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(screen, attribute, None)


def test_changing_the_interactable_elements_returned_does_not_change_the_next_call(url_crash_device):
    screen = url_crash_device.capture_state()
    returned = interactable_elements(screen)
    expected = list(returned)
    assert expected
    with contextlib.suppress(TypeError):  # a tuple cannot be changed at all
        returned[:] = []
    assert list(interactable_elements(screen)) == expected


# -- the rule index: the first matching rule in spec order, as a scan of every rule finds it ------------

RULE_STATES = ["s0", "s1", "s2", "s3", "s4"]
RULE_VERBS = ["click", "long_click", "set_text", "scroll", "back"]
RULE_TEXTS = ["", "x", "boom"]
#: One screen layout for every state; each element's id is also its resource id suffix, so a rule's feature binds to it.
RULE_ELEMENTS = [
    {"id": "btn", "class": "Button", "text": "Go", "resource_id": "app:id/btn", "bounds": [0, 0, 100, 100],
     "clickable": True, "long_clickable": True},
    {"id": "field", "class": "EditText", "resource_id": "app:id/field", "bounds": [0, 200, 100, 300], "editable": True},
    {"id": "list", "class": "ListView", "resource_id": "app:id/list", "bounds": [0, 400, 100, 900], "scrollable": True},
]


@st.composite
def rule_runs(draw):
    """A spec of 2-5 states with rules of several verbs, with and without a
    feature, text or direction, guarded crash rules, and a run of commands and restarts (None)."""
    states = RULE_STATES[: draw(st.integers(2, 5))]
    state = st.sampled_from(states)
    trigger = st.fixed_dictionaries(
        {"verb": st.sampled_from(RULE_VERBS)},
        optional={
            "feature": st.sampled_from(["btn", "field", "list"]),
            "required_text": st.sampled_from(RULE_TEXTS),
            "direction": st.sampled_from(["up", "down"]),
        },
    )
    transitions = draw(st.lists(st.tuples(state, trigger, state), min_size=4, max_size=14,
                                unique_by=lambda rule: (rule[0], tuple(sorted(rule[1].items())))))
    guard = st.fixed_dictionaries({"element": st.just("field"), "op": st.sampled_from(["equals", "not_equals", "prefix",
                                   "not_prefix"]), "value": st.sampled_from(RULE_TEXTS)})
    crash_rules = draw(st.lists(st.tuples(state, trigger, st.none() | guard), max_size=6))
    body = {
        "app_id": "t.rules",
        "initial_state": "s0",
        "states": {name: {"activity": f"{name}Activity", "elements": RULE_ELEMENTS} for name in states},
        "transitions": [{"from": source, **rule, "to": target} for source, rule, target in transitions],
        "crash_rules": [
            {"state": name, **rule, "requires_field": guarded, "crash": {"exception_type": f"E{i}"}}
            for i, (name, rule, guarded) in enumerate(crash_rules)
        ],
    }
    command = st.builds(
        ActionCommand,
        action=st.sampled_from(RULE_VERBS),
        feature=st.none() | st.sampled_from(["Go", "field", "list", "nothing"]),
        input_text=st.none() | st.sampled_from(RULE_TEXTS),
        direction=st.none() | st.sampled_from(["up", "down"]),
    )
    # Commands that fire a declared rule where its state is current; a rule without a feature is also fired by one that names any.
    triggers = [rule for _, rule, _ in transitions] + [rule for _, rule, _ in crash_rules]
    if triggers:
        command |= st.builds(
            lambda rule, feature: ActionCommand(rule["verb"], rule.get("feature", feature), rule.get("required_text"),
                                                rule.get("direction")),
            st.sampled_from(triggers), st.sampled_from(["btn", "field", "list"]),
        )
    return body, draw(st.lists(command | st.none(), min_size=10, max_size=30))


class ScanningSession:
    """The reference for ``SimSession.step``: every rule of the current state, in spec order, whatever its verb."""

    def __init__(self, spec: SimAppSpec):
        self.spec, self.current, self.field_values = spec, spec.initial_state, {}

    def restart(self) -> None:
        self.current, self.field_values = self.spec.initial_state, {}

    def screen(self):
        builder = SimSession(self.spec)
        builder.current, builder.field_values = self.current, dict(self.field_values)
        return builder.build_state()

    def field(self, element_id: str) -> str:
        declared = (e.text or "" for state in self.spec.states.values() for e in state.elements if e.element_id == element_id)
        return self.field_values.get(element_id, next(declared, ""))

    def step(self, cmd: ActionCommand) -> tuple:
        """(ok, detail, state id, crash, no_match_feature) of one command."""
        screen, element = self.screen(), None
        if cmd.feature is not None:
            element = resolve_feature(screen, cmd.feature)
            if element is None:
                return False, no_match(screen, cmd.feature).detail, screen.state_id, None, cmd.feature
        elif cmd.action in VERB_SPECS and VERB_SPECS[cmd.action].component:
            return False, f"{cmd.action} needs a feature", screen.state_id, None, None

        def fires(trigger) -> bool:
            return (
                trigger.verb == cmd.action
                and (trigger.element_id is None or (element is not None and element.element_id == trigger.element_id))
                and trigger.required_text in (None, cmd.input_text)
                and trigger.direction in (None, cmd.direction)
            )

        for rule in self.spec.crash_rules:
            guard = rule.requires_field
            if rule.state == self.current and fires(rule.trigger) and (guard is None or guard.holds(self.field(guard.element_id))):
                return True, f"app crashed: {rule.crash.exception_type}", screen.state_id, rule.crash, None
        if cmd.action == "set_text":
            if not element.editable:
                return False, f"element {cmd.feature!r} is not editable", screen.state_id, None, None
            self.field_values[element.element_id] = cmd.input_text or ""
        for rule in self.spec.transitions:
            if rule.from_state == self.current and fires(rule.trigger):
                self.current = rule.to_state
                moved = self.screen()
                return True, f"moved to {moved.activity_name}", moved.state_id, None, None
        if cmd.action == "set_text":
            return True, "text set", self.screen().state_id, None, None
        return False, f"{cmd.action} had no effect here", self.screen().state_id, None, None


@given(rule_runs())
def test_indexed_rules_step_as_a_scan_of_every_rule_in_spec_order(tmp_path_factory, run):
    body, commands = run
    path = tmp_path_factory.getbasetemp() / "rules.json"  # one file, rewritten per example
    path.write_text(json.dumps(body), encoding="utf-8")
    spec = load_spec(path)
    session, reference = SimSession(spec), ScanningSession(spec)
    for cmd in commands:
        if cmd is None or session.crashed is not None:  # restarts interleave with commands on both sides
            session.restart()
            reference.restart()
            assert session.build_state().state_id == reference.screen().state_id
        if cmd is None:
            continue
        status = session.step(cmd)
        assert (status.ok, status.detail, status.new_state.state_id, status.crash, status.no_match_feature) == reference.step(cmd)


# -- feature binding: one table lookup per rule, as a scan of every element of the rule's state finds it ------

BIND_STATES = ["a", "b", "c", "d"]
#: A small alphabet, so that ids equal other elements' texts, ids repeat, and "" is a feature.
BIND_WORDS = ["", "go", "Go", "ok", "x"]
#: Resource ids whose suffixes are shared ("go"), empty ("app:id/") or the whole id ("ok").
BIND_RESOURCE_IDS = [None, "app:id/go", "other:id/go", "app:id/", "ok", "a/b/x"]


@st.composite
def binding_specs(draw):
    """A spec of 1-4 states of 0-4 elements each, with transitions and crash rules whose features come from
    the same alphabet as the elements' ids, texts and resource-id suffixes; some rules name an unknown state."""
    states = BIND_STATES[: draw(st.integers(1, 4))]
    element = st.fixed_dictionaries(
        {"id": st.sampled_from(BIND_WORDS), "class": st.just("Button")},
        optional={"text": st.none() | st.sampled_from(BIND_WORDS), "resource_id": st.sampled_from(BIND_RESOURCE_IDS)},
    )
    unique_ids = draw(st.integers(0, 3)) > 0  # duplicate ids make every spec invalid, so draw them only now and then
    layouts = {name: draw(st.lists(element, max_size=4, unique_by=(lambda e: e["id"]) if unique_ids else None))
               for name in states}

    @st.composite
    def rule(draw):
        name = draw(st.sampled_from(states * 4 + ["zz"]))
        keys = [key for e in layouts.get(name, ()) for key in (e["id"], e.get("text"), (e.get("resource_id") or "").rsplit("/", 1)[-1])]
        return name, draw(st.sampled_from([key for key in keys if key is not None] + ["id/go", "zz", None]))

    def featured(key: str, name: str, verb: str, feature: str | None) -> dict:
        return {key: name, "verb": verb, **({} if feature is None else {"feature": feature})}

    transitions = draw(st.lists(rule(), min_size=1, max_size=4, unique=True))
    crash_rules = draw(st.lists(rule(), max_size=2))
    return {
        "app_id": "t.bind",
        "initial_state": "a",
        "states": {name: {"elements": [{**e, "bounds": [0, 0, 10, 10]} for e in layouts[name]]} for name in states},
        "transitions": [{**featured("from", name, "click", f), "to": "a"} for name, f in transitions],
        "crash_rules": [{**featured("state", name, "long_click", f), "crash": {"exception_type": "E"}} for name, f in crash_rules],
    }


@settings(max_examples=300)
@given(binding_specs())
def test_a_feature_binds_as_a_scan_of_its_states_elements(tmp_path_factory, body):
    path = tmp_path_factory.getbasetemp() / "bindings.json"  # one file, rewritten per example
    path.write_text(json.dumps(body), encoding="utf-8")
    rules = [(f"transition {i}", raw, raw["from"]) for i, raw in enumerate(body["transitions"])]
    rules += [(f"crash rule {i}", raw, raw["state"]) for i, raw in enumerate(body["crash_rules"])]
    expected_lines, bound = [], []
    for where, raw, name in rules:
        feature, hits = raw.get("feature"), None
        if feature is not None and name in body["states"]:
            hits = [e["id"] for e in body["states"][name]["elements"]
                    if e["id"] == feature or e.get("text") == feature or (e.get("resource_id") or "").rsplit("/", 1)[-1] == feature]
            if len(hits) != 1:
                fault = "is ambiguous in" if hits else "matches no element of"
                expected_lines.append(f"{where}: feature {feature!r} {fault} {name!r}")
        bound.append(hits[0] if hits and len(hits) == 1 else None)
    try:
        spec = load_spec(path)
    except SpecInvalid as exc:
        assert [v for v in exc.violations if ": feature " in v] == expected_lines
        return
    assert not expected_lines
    assert [rule.trigger.element_id for rule in (*spec.transitions, *spec.crash_rules)] == bound
