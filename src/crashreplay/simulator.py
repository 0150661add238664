"""Scriptable fake Android app: a finite state machine over screens.

An app spec declares named states (each a screen full of elements),
transitions triggered by device verbs, and crash rules.  Sessions over a
spec are fully deterministic, which is what makes desk-scale reproduction
experiments possible.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .device import (
    AlreadyCrashed,
    Bounds,
    CrashInfo,
    Device,
    ExecStatus,
    UiElement,
    UiState,
    no_match,
    resolve_feature,
)
from .gateway import ActionCommand, decode_json
from .grammar import VERB_SPECS


class SpecInvalid(Exception):
    """An app spec failed validation; ``violations`` lists every problem."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("invalid app spec: " + "; ".join(violations))


class Trigger(NamedTuple):
    verb: str
    element_id: str | None = None
    required_text: str | None = None
    direction: str | None = None


class TransitionRule(NamedTuple):
    from_state: str
    trigger: Trigger
    to_state: str


class FieldCondition(NamedTuple):
    element_id: str
    op: str  # a key of _FIELD_OPS
    value: str

    def holds(self, current: str) -> bool:
        return _FIELD_OPS[self.op](current, self.value)


class CrashRule(NamedTuple):
    state: str
    trigger: Trigger
    crash: CrashInfo
    requires_field: FieldCondition | None = None


class StateSpec(NamedTuple):
    name: str
    activity: str
    elements: tuple[UiElement, ...]


@dataclass(frozen=True)
class SimAppSpec:
    app_id: str
    initial_state: str
    states: dict[str, StateSpec]
    transitions: tuple[TransitionRule, ...]
    crash_rules: tuple[CrashRule, ...]


#: Each field op, as a predicate of the field's current text and the rule's value.
_FIELD_OPS = {
    "equals": operator.eq,
    "not_equals": operator.ne,
    "prefix": str.startswith,
    "not_prefix": lambda current, value: not current.startswith(value),
}

_TEXT, _GUARD = (str, type(None)), (dict, type(None))
_TRIGGER = {"verb": str, "feature": _TEXT, "required_text": _TEXT, "direction": _TEXT}
_FLAGS = dict.fromkeys(("clickable", "long_clickable", "editable", "scrollable"), bool)
#: Each kind of spec object: where its violations point, the JSON type of
#: each key it may hold (a tuple admits null), and the keys it must hold.
_KINDS = {
    "spec": ("spec", {"app_id": str, "initial_state": str, "states": dict, "transitions": list, "crash_rules": list}, ()),
    "state": ("state {!r}", {"activity": str, "elements": list}, ()),
    "element": ("state {!r} element {}", {"id": str, "class": str, "text": _TEXT, "content_desc": _TEXT,
                "resource_id": _TEXT, "bounds": list, **_FLAGS}, ("id", "class")),
    "transition": ("transition {}", {"from": str, "to": str, **_TRIGGER}, ("verb",)),
    "crash rule": ("crash rule {}", {"state": str, **_TRIGGER, "requires_field": _GUARD, "crash": dict},
                   ("verb", "crash")),
    "requires_field": ("crash rule {} requires_field", {"element": str, "op": str, "value": str}, ()),
    "crash": ("crash rule {} crash", {"exception_type": str, "message": str, "activity": str}, ("exception_type",)),
}
_TYPE_NAMES = {str: "a string", _TEXT: "a string or null", bool: "a boolean", list: "a JSON array",
               dict: "a JSON object", _GUARD: "a JSON object or null"}


def _fields(raw, kind: str, where: tuple, violations: list[str]) -> bool:
    """Whether ``raw`` is a ``kind`` object of known keys, each of its type, and the required keys.

    Appends a violation per fault, and builds no message otherwise."""
    template, types, required = _KINDS[kind]
    if not isinstance(raw, dict):
        violations.append(f"{template.format(*where)} is not a JSON object")
        return False
    before = len(violations)
    for key, value in raw.items():
        expected = types.get(key)
        if expected is None:
            violations.append(f"{template.format(*where)}: unknown key {key!r}")
        elif not isinstance(value, expected):
            violations.append(f"{template.format(*where)}: {key} {value!r} is not {_TYPE_NAMES[expected]}")
    for key in required:
        if key not in raw:
            violations.append(f"{template.format(*where)}: missing key {key!r}")
    return len(violations) == before


def _container(raw: dict, key: str, empty):
    """``raw[key]`` if it has the type of ``empty``, else ``empty``; :func:`_fields` reports the fault."""
    value = raw.get(key, empty)
    return value if isinstance(value, type(empty)) else empty


_AMBIGUOUS = object()  # a feature table's value for a key that two elements claim


def _feature_table(state: StateSpec) -> dict:
    """Each element's id, text and resource-id suffix, mapped to the element, or to ``_AMBIGUOUS`` if two claim it."""
    table: dict = {}
    for e in state.elements:
        rid = e.resource_id or ""
        suffix = rid[rid.rfind("/") + 1:]
        table[e.element_id] = e if table.get(e.element_id, e) is e else _AMBIGUOUS
        table[e.text] = e if table.get(e.text, e) is e else _AMBIGUOUS
        table[suffix] = e if table.get(suffix, e) is e else _AMBIGUOUS
    return table


def _parse_trigger(
    raw: dict, kind: str, where: tuple, states: dict[str, StateSpec], tables: dict[str, dict], from_state: str,
    violations: list[str],
) -> Trigger:
    """A checked rule's trigger; its verb is a UI verb, and its feature binds to the one element of ``from_state``
    with that id, text or resource-id suffix.

    ``tables`` keeps each state's feature table, built the first time a rule names the state."""
    verb, element_id, feature, state = raw["verb"], None, raw.get("feature"), states.get(from_state)
    if verb not in VERB_SPECS or verb == "restart":  # a restart goes to restart_app, never to step
        violations.append(f"{_KINDS[kind][0].format(*where)}: verb {verb!r} is not a UI verb")
    if feature is not None and state is not None:
        table = tables.get(from_state)
        if table is None:
            table = tables[from_state] = _feature_table(state)
        hit = table.get(feature)
        if hit is None or hit is _AMBIGUOUS:
            fault = "matches no element of" if hit is None else "is ambiguous in"
            violations.append(f"{_KINDS[kind][0].format(*where)}: feature {feature!r} {fault} {from_state!r}")
        else:
            element_id = hit.element_id
    return Trigger(verb, element_id, raw.get("required_text"), raw.get("direction"))


def load_spec(path: str | Path) -> SimAppSpec:
    """Load and fully validate an app spec file; raises :class:`SpecInvalid`."""
    try:
        raw = decode_json(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SpecInvalid([f"{path}: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise SpecInvalid([f"{path}: the top level is not a JSON object"])

    violations: list[str] = []
    _fields(raw, "spec", (), violations)
    states: dict[str, StateSpec] = {}
    for name, body in _container(raw, "states", {}).items():
        if not _fields(body, "state", (name,), violations) and not isinstance(body, dict):
            continue
        elements, seen_ids = [], set()
        for i, entry in enumerate(_container(body, "elements", [])):
            if not _fields(entry, "element", (name, i), violations):
                continue
            element_id = entry["id"]
            if element_id in seen_ids:
                violations.append(f"state {name!r} element {i}: duplicate element id {element_id!r}")
            seen_ids.add(element_id)
            try:
                bounds = Bounds(*entry.get("bounds", (0, 0, 0, 0)))
                well_formed = bounds.well_formed()
            except TypeError:  # not four values
                well_formed = False
            if not well_formed:
                given = tuple(entry["bounds"])
                violations.append(f"state {name!r} element {i}: bounds {given} are not well-ordered integers")
                continue
            elements.append(UiElement(
                element_id, entry["class"], entry.get("text"), entry.get("content_desc"), entry.get("resource_id"), bounds,
                entry.get("clickable", False), entry.get("long_clickable", False), entry.get("editable", False),
                entry.get("scrollable", False),
            ))
        states[name] = StateSpec(name=name, activity=body.get("activity", name), elements=tuple(elements))

    initial = raw.get("initial_state", "")
    if isinstance(initial, str) and initial not in states:
        violations.append(f"initial_state {initial!r} is not a declared state")

    transitions, seen_triggers, tables = [], set(), {}
    for i, entry in enumerate(_container(raw, "transitions", [])):
        if not _fields(entry, "transition", (i,), violations):
            continue
        from_state, to_state = entry.get("from", ""), entry.get("to", "")
        if from_state not in states:
            violations.append(f"transition {i}: unknown from-state {from_state!r}")
        if to_state not in states:
            violations.append(f"transition {i}: unknown to-state {to_state!r}")
        trigger = _parse_trigger(entry, "transition", (i,), states, tables, from_state, violations)
        if (from_state, trigger) in seen_triggers:
            violations.append(f"transition {i}: duplicate trigger {trigger} from {from_state!r}")
        seen_triggers.add((from_state, trigger))
        transitions.append(TransitionRule(from_state, trigger, to_state))

    editable_ids = {e.element_id for state in states.values() for e in state.elements if e.editable}
    crash_rules = []
    for i, entry in enumerate(_container(raw, "crash_rules", [])):
        if not _fields(entry, "crash rule", (i,), violations):
            continue
        cond, crash = entry.get("requires_field"), entry["crash"]
        cond_ok = cond is None or _fields(cond, "requires_field", (i,), violations)
        if not (_fields(crash, "crash", (i,), violations) and cond_ok):
            continue
        state_name = entry.get("state", "")
        if state_name not in states:
            violations.append(f"crash rule {i}: unknown state {state_name!r}")
        trigger = _parse_trigger(entry, "crash rule", (i,), states, tables, state_name, violations)
        condition = None
        if cond is not None:
            op = cond.get("op", "")
            if op not in _FIELD_OPS:
                violations.append(f"crash rule {i}: unknown field op {op!r}")
            if cond.get("element") not in editable_ids:
                violations.append(f"crash rule {i}: requires_field names no editable element")
            condition = FieldCondition(cond.get("element", ""), op, cond.get("value", ""))
        activity = crash.get("activity", states[state_name].activity if state_name in states else "")
        crash_info = CrashInfo(crash["exception_type"], crash.get("message", ""), activity)
        crash_rules.append(CrashRule(state_name, trigger, crash_info, condition))

    if violations:
        raise SpecInvalid(violations)
    return SimAppSpec(raw.get("app_id", "sim.app"), initial, states, tuple(transitions), tuple(crash_rules))


_SCREEN_BOUNDS = Bounds(0, 0, 1080, 1920)


class SimSession:
    """One deterministic run of a simulated app."""

    def __init__(self, spec: SimAppSpec):
        self.spec = spec
        self.current = spec.initial_state
        self.field_values: dict[str, str] = {}
        self.crashed: CrashInfo | None = None
        # Rules per (state, verb) in spec order (the first match wins), each
        # state's editable elements, each element id's text in the first state
        # that declares it, and one built screen per state with the editable
        # values it was built from.
        self._transitions: dict[tuple[str, str], list[TransitionRule]] = {}
        for rule in spec.transitions:
            self._transitions.setdefault((rule.from_state, rule.trigger.verb), []).append(rule)
        self._crash_rules: dict[tuple[str, str], list[CrashRule]] = {}
        for crash_rule in spec.crash_rules:
            self._crash_rules.setdefault((crash_rule.state, crash_rule.trigger.verb), []).append(crash_rule)
        self._editable: dict[str, tuple[UiElement, ...]] = {}
        self._initial_text: dict[str, str] = {}
        for name, state in spec.states.items():
            self._editable[name] = tuple(e for e in state.elements if e.editable)
            for element in state.elements:
                self._initial_text.setdefault(element.element_id, element.text or "")
        self._screens: dict[str, tuple[tuple[str | None, ...], UiState]] = {}

    # -- observation -------------------------------------------------------

    def build_state(self) -> UiState:
        name = self.current
        editable = self._editable[name]
        values = tuple(self.field_values.get(e.element_id, e.text) for e in editable) if editable else ()
        memo = self._screens.get(name)
        if memo is not None and memo[0] == values:
            return memo[1]
        state_spec = self.spec.states[name]
        children = tuple(e._replace(text=self.field_values.get(e.element_id, e.text)) if e.editable else e
                         for e in state_spec.elements)  # a field's typed text, else as declared
        root = UiElement(element_id="root", class_name="FrameLayout", bounds=_SCREEN_BOUNDS, children=children)
        screen = UiState(activity_name=state_spec.activity, root=root)
        self._screens[name] = (values, screen)
        return screen

    # -- execution ---------------------------------------------------------

    def _field_value(self, element_id: str) -> str:
        return self.field_values.get(element_id, self._initial_text.get(element_id, ""))

    def _fields_match(self, trigger: Trigger, cmd: ActionCommand) -> bool:
        """Whether a trigger's required text and direction, where it sets them, are the command's.

        :meth:`step` checks the rest first: its rules are keyed by verb, and it skips
        a rule that names another element without this call, which costs more than the comparison."""
        if trigger.required_text is not None and cmd.input_text != trigger.required_text:
            return False
        return trigger.direction is None or cmd.direction == trigger.direction

    def step(self, cmd: ActionCommand) -> ExecStatus:
        """Apply one UI command: crash rules match first, then transitions.

        ``set_text`` updates the field store even without a transition;
        any other unmatched command returns ok=False with the state
        unchanged.  :meth:`restart` is the one restart.
        """
        if self.crashed is not None:
            raise AlreadyCrashed(f"session already crashed: {self.crashed.exception_type}")

        state = self.build_state()
        element = element_id = None
        if cmd.feature is not None:
            element = resolve_feature(state, cmd.feature)
            if element is None:
                return no_match(state, cmd.feature)
            element_id = element.element_id
        elif cmd.action in VERB_SPECS and VERB_SPECS[cmd.action].component:
            return ExecStatus(ok=False, detail=f"{cmd.action} needs a feature", new_state=state)

        for rule in self._crash_rules.get((self.current, cmd.action), ()):
            trigger, condition = rule.trigger, rule.requires_field
            if trigger.element_id is not None and trigger.element_id != element_id:
                continue  # most of a page's rules name another element
            if not self._fields_match(trigger, cmd):
                continue
            if condition is not None and not condition.holds(self._field_value(condition.element_id)):
                continue
            self.crashed = rule.crash
            return ExecStatus(
                ok=True,
                detail=f"app crashed: {rule.crash.exception_type}",
                new_state=state,
                crash=rule.crash,
            )

        applied = False
        if cmd.action == "set_text":
            assert element is not None
            if not element.editable:
                return ExecStatus(
                    ok=False, detail=f"element {cmd.feature!r} is not editable", new_state=state
                )
            self.field_values[element.element_id] = cmd.input_text or ""
            applied = True

        for rule in self._transitions.get((self.current, cmd.action), ()):
            trigger = rule.trigger
            if (trigger.element_id is None or trigger.element_id == element_id) and self._fields_match(trigger, cmd):
                self.current = rule.to_state
                new_state = self.build_state()
                return ExecStatus(
                    ok=True, detail=f"moved to {new_state.activity_name}", new_state=new_state
                )

        if applied:
            return ExecStatus(ok=True, detail="text set", new_state=self.build_state())
        return ExecStatus(ok=False, detail=f"{cmd.action} had no effect here", new_state=self.build_state())

    def restart(self) -> None:
        self.current = self.spec.initial_state
        self.field_values = {}
        self.crashed = None


class SimulatorDevice(Device):
    """Device backend over a simulated app session."""

    def __init__(self, spec: SimAppSpec):
        self.session = SimSession(spec)

    @property
    def app_id(self) -> str:
        return self.session.spec.app_id

    def capture_state(self) -> UiState:
        return self.session.build_state()

    def execute(self, cmd: ActionCommand) -> ExecStatus:
        return self.session.step(cmd)

    def restart_app(self) -> UiState:
        self.session.restart()
        return self.session.build_state()
