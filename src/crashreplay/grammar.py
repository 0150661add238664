"""Step-to-reproduce action grammar and its canonical bracket notation.

A reproduction step is an action primitive plus optional arguments, written
as bracket groups: ``[Input] [server URL] [xxyyzz]``.  This module owns the
action vocabulary, formatting/parsing of that notation, the prompt used to
ask a language model for steps, and the parsing of its reply.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple


class GrammarError(Exception):
    """Base error for grammar-level failures."""


class InvariantViolation(GrammarError):
    """An entity does not satisfy the shape required by its action."""


class NoEntitiesFound(GrammarError):
    """A model response contained no parseable step lines."""


class ActionType(str, Enum):
    TAP = "tap"
    INPUT = "input"
    SCROLL = "scroll"
    SWIPE = "swipe"
    ROTATE = "rotate"
    DELETE = "delete"
    DOUBLE_TAP = "double_tap"
    LONG_TAP = "long_tap"
    RESTART = "restart"
    BACK = "back"


class Direction(str, Enum):
    UP = "up"
    DOWN = "down"
    LEFT = "left"
    RIGHT = "right"
    LANDSCAPE = "landscape"
    PORTRAIT = "portrait"


@dataclass(frozen=True)
class ActionSpec:
    """How one action is written as a step, executed on a device, and argued.

    ``value_required`` means an input value must be given; a step may leave
    it to the replay loop instead (``generate_on_replay``).
    """

    display: str
    device_verb: str | None
    component: bool = False
    value: bool = False
    value_required: bool = False
    directions: frozenset[Direction] = frozenset()
    direction_required: bool = False


_MOVES = frozenset({Direction.UP, Direction.DOWN, Direction.LEFT, Direction.RIGHT})
_TURNS = frozenset({Direction.LANDSCAPE, Direction.PORTRAIT})

#: The one action vocabulary: bracket name, device verb and argument shape.
VOCABULARY: dict[ActionType, ActionSpec] = {
    ActionType.TAP: ActionSpec("Tap", "click", component=True),
    ActionType.INPUT: ActionSpec("Input", "set_text", component=True, value=True, value_required=True),
    ActionType.SCROLL: ActionSpec("Scroll", "scroll", directions=_MOVES, direction_required=True),
    ActionType.SWIPE: ActionSpec("Swipe", "swipe", directions=_MOVES, direction_required=True),
    ActionType.ROTATE: ActionSpec("Rotate", "rotate", directions=_TURNS),
    ActionType.DELETE: ActionSpec("Delete", None, component=True, value=True),
    ActionType.DOUBLE_TAP: ActionSpec("Double-tap", "double_click", component=True),
    ActionType.LONG_TAP: ActionSpec("Long-tap", "long_click", component=True),
    ActionType.RESTART: ActionSpec("Restart", "restart"),
    ActionType.BACK: ActionSpec("Back", "back"),
}


def normalize_verb(text: str) -> str:
    """Case-fold a verb and unify its separators: "Long_Tap" -> "long tap"."""
    return " ".join(str(text).strip().lower().replace("-", " ").replace("_", " ").split())


#: Actions by normalized name, and action specs by device verb.
ACTION_NAMES = {normalize_verb(a.value): a for a in ActionType}
VERB_SPECS = {spec.device_verb: spec for spec in VOCABULARY.values() if spec.device_verb}

AVAILABLE_ACTIONS_TEXT = (
    "[tap(click), input(set_text), scroll, swipe, rotate, delete, "
    "double tap(click), long tap(click), restart, back]. "
    "Generate input when none is given."
)

ACTION_PRIMITIVES_TEXT = (
    "[Tap] [Component], [Scroll] [Direction], [Input] [Component] [Value], "
    "[Rotate] [Direction], [Delete] [Component] [Value], "
    "[Double-tap] [Component], [Long-tap] [Component]. "
    "The actions you identify should be in the available actions."
)


_TEXT = (str, type(None))  #: The types a label's component and value may have.
#: Actions and directions by label value: a dict lookup costs less than an Enum call.
_LABEL_ACTIONS, _LABEL_DIRECTIONS = {a.value: a for a in ActionType}, {d.value: d for d in Direction}


class S2REntity(NamedTuple):
    """One structured reproduction step; an immutable named tuple.

    ``generate_on_replay`` marks an input step whose value was not stated in
    the report; the replay loop asks the model to invent one.
    """

    action: ActionType
    component: str | None = None
    value: str | None = None
    direction: Direction | None = None
    generate_on_replay: bool = False

    def validate(self) -> None:
        spec = VOCABULARY[self.action]
        if spec.component and not self.component:
            raise InvariantViolation(f"{self.action.value} requires a component")
        if not spec.component and self.component is not None:
            raise InvariantViolation(f"{self.action.value} takes no component")
        if not spec.value and self.value is not None:
            raise InvariantViolation(f"{self.action.value} takes no value")
        if spec.value_required and self.value is None and not self.generate_on_replay:
            raise InvariantViolation(f"{self.action.value} requires a value unless generate_on_replay is set")
        if self.direction is None and spec.direction_required:
            raise InvariantViolation(f"{self.action.value} requires a direction")
        if self.direction is not None and self.direction not in spec.directions:
            raise InvariantViolation(f"{self.action.value} does not take direction {self.direction.value!r}")

    def to_label(self) -> dict:
        """Serialize to the corpus label schema (absent fields omitted)."""
        out: dict = {"action": self.action.value}
        if self.component is not None:
            out["component"] = self.component
        if self.value is not None:
            out["value"] = self.value
        if self.direction is not None:
            out["direction"] = self.direction.value
        return out

    @classmethod
    def from_label(cls, raw: dict) -> "S2REntity":
        """The entity a corpus or script label describes; raises InvariantViolation for any other value."""
        if not (isinstance(raw, dict) and isinstance(raw.get("component"), _TEXT) and isinstance(raw.get("value"), _TEXT)):
            raise InvariantViolation(f"bad label: {raw!r}")
        try:
            action = _LABEL_ACTIONS[str(raw["action"]).lower()]
        except KeyError as exc:  # no action, or none of that name
            raise InvariantViolation(f"bad label action: {raw!r}") from exc
        direction = None
        if raw.get("direction") is not None:
            try:
                direction = _LABEL_DIRECTIONS[str(raw["direction"]).lower()]
            except KeyError as exc:
                raise InvariantViolation(f"bad label direction: {raw!r}") from exc
        value = raw.get("value")
        entity = cls(action, raw.get("component"), value, direction, VOCABULARY[action].value_required and value is None)
        entity.validate()
        return entity


def format_entity(entity: S2REntity) -> str:
    """Render an entity in canonical bracket notation, e.g. ``[Tap] [search]``."""
    entity.validate()
    parts = [VOCABULARY[entity.action].display]
    if entity.component is not None:
        parts.append(entity.component)
    if entity.value is not None:
        parts.append(entity.value)
    if entity.direction is not None:
        parts.append(entity.direction.value.capitalize())
    return " ".join(f"[{p}]" for p in parts)


@dataclass(frozen=True)
class ParseIssue:
    line_no: int
    line: str
    reason: str


@dataclass
class ParsedEntities:
    entities: list[S2REntity]
    issues: list[ParseIssue]


_BRACKET_GROUP = re.compile(r"\[([^\[\]]*)\]")
_LINE_NUMBERING = re.compile(r"^\s*\d+[.)]\s*")


def _entity_from_groups(groups: list[str]) -> S2REntity:
    """Assign bracket arguments by the action's shape; ``validate`` checks the rest."""
    action = ACTION_NAMES.get(normalize_verb(groups[0]))
    if action is None:
        raise ValueError(f"unknown action {groups[0]!r}")
    spec = VOCABULARY[action]
    args = [g.strip() for g in groups[1:]]
    if any(not a for a in args):
        raise ValueError("empty bracket argument")
    component = value = direction = None
    if spec.component and args:
        component = args.pop(0)
        if spec.value and args:
            value = args.pop(0)
    elif spec.directions and args:
        text = args.pop(0)
        try:
            direction = Direction(text.lower())
        except ValueError:
            raise ValueError(f"unknown direction {text!r}")
    if args:
        raise ValueError(f"{action.value} takes too many arguments")
    return S2REntity(
        action, component, value, direction, generate_on_replay=spec.value_required and value is None
    )


def parse_entity_notation(text: str) -> ParsedEntities:
    """Parse bracket-notation lines into entities.

    Lines may be numbered or not; action names are matched case-insensitively
    and tolerate space/hyphen/underscore variants ("Long Tap", "long-tap").
    Unparseable lines are reported as issues, never silently dropped.
    """
    entities: list[S2REntity] = []
    issues: list[ParseIssue] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        body = _LINE_NUMBERING.sub("", line)
        groups = _BRACKET_GROUP.findall(body)
        if not groups:
            issues.append(ParseIssue(line_no, raw, "no bracket groups"))
            continue
        try:
            entity = _entity_from_groups(groups)
            entity.validate()
        except (ValueError, InvariantViolation) as exc:
            issues.append(ParseIssue(line_no, raw, str(exc)))
            continue
        entities.append(entity)
    return ParsedEntities(entities, issues)


@dataclass(frozen=True)
class ScriptStep:
    """An entity plus the 1-based report sentence it was extracted from."""

    entity: S2REntity
    sentence_index: int | None = None


@dataclass
class S2RScript:
    """Ordered reproduction steps extracted from one bug report."""

    steps: tuple[ScriptStep, ...]

    def to_dict(self) -> dict:
        steps = []
        for step in self.steps:
            entry = step.entity.to_label()
            entry["sentence_index"] = step.sentence_index
            steps.append(entry)
        return {"steps": steps}

    @classmethod
    def from_dict(cls, raw: dict) -> "S2RScript":
        """The script a ``to_dict`` object describes; raises InvariantViolation for any other value."""
        entries = raw.get("steps", []) if isinstance(raw, dict) else None
        if not isinstance(entries, list):
            raise InvariantViolation(f"a script is a JSON object with a list of steps, not {raw!r}")
        return cls(steps=tuple(ScriptStep(S2REntity.from_label(entry), entry.get("sentence_index")) for entry in entries))


def build_extraction_prompt(
    report_sentences: list[str],
    hits: list[tuple[str, list[S2REntity]]],
) -> str:
    """Assemble the step-extraction prompt.

    Sections appear in a fixed order: available actions, action primitives,
    retrieved examples (omitted when there are none), then the numbered
    sentences of the current report.  Identical inputs produce identical
    bytes.
    """
    if not report_sentences:
        raise ValueError("at least one report sentence is required")
    lines = [
        f"Available actions: {AVAILABLE_ACTIONS_TEXT}",
        f"Action primitives: {ACTION_PRIMITIVES_TEXT}",
    ]
    if hits:
        lines.append("Here are some examples for S2R entity extraction.")
        for sentence, labels in hits:
            noun = "entity is" if len(labels) == 1 else "entities are"
            lines.append(f'The sentence is "{sentence}", the extracted S2R {noun}:')
            for i, entity in enumerate(labels, start=1):
                terminal = "." if i == len(labels) else ""
                lines.append(f"{i}. {format_entity(entity)}{terminal}")
    lines.append("Here are the sentences in current bug report:")
    for i, sentence in enumerate(report_sentences, start=1):
        lines.append(f"{i}. {sentence}")
    return "\n".join(lines) + "\n"


_SENTENCE_HEADER = re.compile(r"^\s*sentence\s+(\d+)\s*:?\s*$", re.IGNORECASE)


def parse_extraction_response(text: str) -> S2RScript:
    """Turn a model reply into a script.

    Prose lines without a bracket group are discarded.  Optional
    ``Sentence <n>:`` headers assign the following steps to that report
    sentence.  Raises :class:`NoEntitiesFound` when nothing parses.
    """
    steps: list[ScriptStep] = []
    current_sentence: int | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        header = _SENTENCE_HEADER.match(line)
        if header:
            current_sentence = int(header.group(1))
            continue
        if "[" not in line or "]" not in line:
            continue
        for entity in parse_entity_notation(line).entities:
            steps.append(ScriptStep(entity, current_sentence))
    if not steps:
        raise NoEntitiesFound("response contained no parseable steps")
    return S2RScript(steps=tuple(steps))
