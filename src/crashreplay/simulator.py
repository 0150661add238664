"""Scriptable fake Android app: a finite state machine over screens.

An app spec declares named states (each a screen full of elements),
transitions triggered by device verbs, and crash rules.  Sessions over a
spec are fully deterministic, which is what makes desk-scale reproduction
experiments possible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from .device import (
    AlreadyCrashed,
    Bounds,
    CrashInfo,
    Device,
    ExecStatus,
    NoMatchError,
    UiElement,
    UiState,
    resolve_feature,
)
from .gateway import ActionCommand
from .grammar import VERB_SPECS


class SpecInvalid(Exception):
    """An app spec failed validation; ``violations`` lists every problem."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("invalid app spec:\n" + "\n".join(f"- {v}" for v in violations))


@dataclass(frozen=True)
class Trigger:
    verb: str
    element_id: str | None = None
    required_text: str | None = None
    direction: str | None = None


@dataclass(frozen=True)
class TransitionRule:
    from_state: str
    trigger: Trigger
    to_state: str


@dataclass(frozen=True)
class FieldCondition:
    element_id: str
    op: str  # equals | not_equals | prefix | not_prefix
    value: str

    def holds(self, current: str) -> bool:
        if self.op == "equals":
            return current == self.value
        if self.op == "not_equals":
            return current != self.value
        if self.op == "prefix":
            return current.startswith(self.value)
        if self.op == "not_prefix":
            return not current.startswith(self.value)
        raise ValueError(f"unknown field op {self.op!r}")


@dataclass(frozen=True)
class CrashRule:
    state: str
    trigger: Trigger
    crash: CrashInfo
    requires_field: FieldCondition | None = None


@dataclass(frozen=True)
class StateSpec:
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


_FIELD_OPS = ("equals", "not_equals", "prefix", "not_prefix")

#: The string fields of each kind of spec object, and those of them that may be null.
_STRING_FIELDS = {
    "spec": ("app_id", "initial_state"),
    "state": ("activity",),
    "element": ("id", "class", "text", "content_desc", "resource_id"),
    "rule": ("from", "to", "state", "verb", "feature", "required_text", "direction"),
    "requires_field": ("element", "op", "value"),
}
_NULLABLE = {"text", "content_desc", "resource_id", "feature", "required_text", "direction"}


def _strings_ok(raw: dict, kind: str, where: str, violations: list[str]) -> bool:
    """Whether each of ``kind``'s fields in ``raw`` is a string, or null where allowed; a violation per other value."""
    ok = True
    for key in _STRING_FIELDS[kind]:
        value = raw.get(key, "")
        if not isinstance(value, str) and not (value is None and key in _NULLABLE):
            violations.append(f"{where}: {key} {value!r} is not a string")
            ok = False
    return ok


def _bind_feature(state: StateSpec, feature: str) -> list[str]:
    """Element ids in ``state`` that a trigger feature names (id, text or resource id)."""
    hits = []
    for element in state.elements:
        if (
            element.element_id == feature
            or element.text == feature
            or (element.resource_id or "").rsplit("/", 1)[-1] == feature
        ):
            hits.append(element.element_id)
    return hits


def _parse_trigger(raw: dict, where: str, spec_states: dict[str, StateSpec], from_state: str, violations: list[str]) -> Trigger:
    verb = raw.get("verb", "")
    element_id = None
    feature = raw.get("feature")
    if feature is not None:
        state = spec_states.get(from_state)
        if state is not None:
            hits = _bind_feature(state, feature)
            if len(hits) == 1:
                element_id = hits[0]
            elif not hits:
                violations.append(f"{where}: feature {feature!r} matches no element of {from_state!r}")
            else:
                violations.append(f"{where}: feature {feature!r} is ambiguous in {from_state!r}")
    return Trigger(
        verb=verb,
        element_id=element_id,
        required_text=raw.get("required_text"),
        direction=raw.get("direction"),
    )


def _objects(raw: dict, key: str, kind: type, violations: list[str], where: str = ""):
    """The (name or index, object) pairs of ``raw[key]``, a dict or list; anything else is a violation."""
    items = raw.get(key, kind())
    if not isinstance(items, kind):
        violations.append(f"{where}{key} is not a JSON {'object' if kind is dict else 'array'}")
        return
    for name, value in items.items() if kind is dict else enumerate(items):
        if isinstance(value, dict):
            yield name, value
        else:
            violations.append(f"{where}{key} {name!r} is not a JSON object")


def load_spec(path: str | Path) -> SimAppSpec:
    """Load and fully validate an app spec file; raises :class:`SpecInvalid`."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SpecInvalid([f"{path}: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise SpecInvalid([f"{path}: the top level is not a JSON object"])

    violations: list[str] = []
    states: dict[str, StateSpec] = {}
    for name, body in _objects(raw, "states", dict, violations):
        elements = []
        seen_ids: set[str] = set()
        for i, entry in _objects(body, "elements", list, violations, f"state {name!r} "):
            where = f"state {name!r} element {i}"
            if not _strings_ok(entry, "element", where, violations):
                continue
            try:
                element = UiElement.from_dict(entry)
            except (KeyError, TypeError) as exc:
                violations.append(f"{where}: {exc}")
                continue
            if element.element_id in seen_ids:
                violations.append(f"{where}: duplicate element id {element.element_id!r}")
            seen_ids.add(element.element_id)
            try:
                well_formed = element.bounds.well_formed()
            except TypeError:  # a bound that is no number
                well_formed = False
            if not well_formed:
                violations.append(f"{where}: bounds {tuple(element.bounds)} are not well-ordered")
            elements.append(element)
        activity = body.get("activity", name) if _strings_ok(body, "state", f"state {name!r}", violations) else name
        states[name] = StateSpec(name=name, activity=activity, elements=tuple(elements))

    initial = raw.get("initial_state", "")
    if _strings_ok(raw, "spec", "spec", violations) and initial not in states:
        violations.append(f"initial_state {initial!r} is not a declared state")

    transitions = []
    for i, entry in _objects(raw, "transitions", list, violations):
        where = f"transition {i}"
        if not _strings_ok(entry, "rule", where, violations):
            continue
        from_state = entry.get("from", "")
        to_state = entry.get("to", "")
        if from_state not in states:
            violations.append(f"{where}: unknown from-state {from_state!r}")
        if to_state not in states:
            violations.append(f"{where}: unknown to-state {to_state!r}")
        trigger = _parse_trigger(entry, where, states, from_state, violations)
        transitions.append(TransitionRule(from_state, trigger, to_state))

    seen_triggers: set[tuple] = set()
    for rule in transitions:
        key = (rule.from_state, rule.trigger.verb, rule.trigger.element_id, rule.trigger.required_text, rule.trigger.direction)
        if key in seen_triggers:
            violations.append(f"duplicate trigger {key} declared twice")
        seen_triggers.add(key)

    editable_ids = {
        e.element_id for state in states.values() for e in state.elements if e.editable
    }
    crash_rules = []
    for i, entry in _objects(raw, "crash_rules", list, violations):
        where = f"crash rule {i}"
        if not _strings_ok(entry, "rule", where, violations):
            continue
        state_name = entry.get("state", "")
        if state_name not in states:
            violations.append(f"{where}: unknown state {state_name!r}")
        trigger = _parse_trigger(entry, where, states, state_name, violations)
        condition, cond = None, entry.get("requires_field")
        if cond is not None and not isinstance(cond, dict):
            violations.append(f"{where}: requires_field is not a JSON object")
        elif cond is not None and _strings_ok(cond, "requires_field", f"{where} requires_field", violations):
            op = cond.get("op", "")
            if op not in _FIELD_OPS:
                violations.append(f"{where}: unknown field op {op!r}")
            if cond.get("element") not in editable_ids:
                violations.append(f"{where}: requires_field names no editable element")
            condition = FieldCondition(cond.get("element", ""), op, cond.get("value", ""))
        try:
            crash = CrashInfo(
                exception_type=entry["crash"]["exception_type"],
                message=entry["crash"].get("message", ""),
                raised_in_activity=entry["crash"].get(
                    "activity", states[state_name].activity if state_name in states else ""
                ),
            )
        except (KeyError, TypeError):
            violations.append(f"{where}: missing crash info")
            crash = CrashInfo("unknown", "", "")
        crash_rules.append(CrashRule(state_name, trigger, crash, condition))

    if violations:
        raise SpecInvalid(violations)
    return SimAppSpec(
        app_id=raw.get("app_id", "sim.app"),
        initial_state=initial,
        states=states,
        transitions=tuple(transitions),
        crash_rules=tuple(crash_rules),
    )


_SCREEN_BOUNDS = Bounds(0, 0, 1080, 1920)


class SimSession:
    """One deterministic run of a simulated app."""

    def __init__(self, spec: SimAppSpec):
        self.spec = spec
        self.current = spec.initial_state
        self.field_values: dict[str, str] = {}
        self.crashed: CrashInfo | None = None
        # Rules per state in spec order (the first match wins), each element
        # id's text in the first state that declares it, and one built
        # screen per state with the editable values it was built from.
        self._transitions: dict[str, list[TransitionRule]] = {}
        for rule in spec.transitions:
            self._transitions.setdefault(rule.from_state, []).append(rule)
        self._crash_rules: dict[str, list[CrashRule]] = {}
        for crash_rule in spec.crash_rules:
            self._crash_rules.setdefault(crash_rule.state, []).append(crash_rule)
        self._initial_text: dict[str, str] = {}
        for state in spec.states.values():
            for element in state.elements:
                self._initial_text.setdefault(element.element_id, element.text or "")
        self._screens: dict[str, tuple[tuple[str | None, ...], UiState]] = {}

    # -- observation -------------------------------------------------------

    def _effective_text(self, element: UiElement) -> str | None:
        if element.editable and element.element_id in self.field_values:
            return self.field_values[element.element_id]
        return element.text

    def build_state(self) -> UiState:
        name = self.current
        state_spec = self.spec.states[name]
        values = tuple(self._effective_text(e) for e in state_spec.elements if e.editable)
        memo = self._screens.get(name)
        if memo is not None and memo[0] == values:
            return memo[1]
        children = tuple(
            replace(e, text=self._effective_text(e), children=()) for e in state_spec.elements
        )
        root = UiElement(element_id="root", class_name="FrameLayout", bounds=_SCREEN_BOUNDS, children=children)
        screen = UiState(activity_name=state_spec.activity, root=root)
        self._screens[name] = (values, screen)
        return screen

    # -- execution ---------------------------------------------------------

    def _field_value(self, element_id: str) -> str:
        return self.field_values.get(element_id, self._initial_text.get(element_id, ""))

    def _trigger_matches(self, trigger: Trigger, cmd: ActionCommand, element: UiElement | None) -> bool:
        if trigger.verb != cmd.action:
            return False
        if trigger.element_id is not None:
            if element is None or element.element_id != trigger.element_id:
                return False
        if trigger.required_text is not None and cmd.input_text != trigger.required_text:
            return False
        if trigger.direction is not None and cmd.direction != trigger.direction:
            return False
        return True

    def step(self, cmd: ActionCommand) -> ExecStatus:
        """Apply one command: crash rules match first, then transitions.

        ``set_text`` updates the field store even without a transition;
        any other unmatched command returns ok=False with the state
        unchanged.
        """
        if self.crashed is not None:
            raise AlreadyCrashed(f"session already crashed: {self.crashed.exception_type}")
        if cmd.action == "restart":
            self.restart()
            return ExecStatus(ok=True, detail="app restarted", new_state=self.build_state())

        state = self.build_state()
        element: UiElement | None = None
        if cmd.feature is not None:
            try:
                element = resolve_feature(state, cmd.feature)
            except NoMatchError as exc:
                return ExecStatus(
                    ok=False, detail=str(exc), new_state=state, no_match_feature=cmd.feature
                )
        elif cmd.action in VERB_SPECS and VERB_SPECS[cmd.action].component:
            return ExecStatus(ok=False, detail=f"{cmd.action} needs a feature", new_state=state)

        for rule in self._crash_rules.get(self.current, ()):
            if not self._trigger_matches(rule.trigger, cmd, element):
                continue
            if rule.requires_field is not None:
                if not rule.requires_field.holds(self._field_value(rule.requires_field.element_id)):
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

        for rule in self._transitions.get(self.current, ()):
            if self._trigger_matches(rule.trigger, cmd, element):
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
