"""Device abstraction: screens as data, feature resolution, execution.

A device yields :class:`UiState` snapshots, executes
:class:`~crashreplay.gateway.ActionCommand` verbs, and reports crashes.
Concrete backends are the in-process app simulator and the debug-bridge
driver for real hardware.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from .gateway import ActionCommand


class DeviceUnavailable(Exception):
    pass


class AlreadyCrashed(Exception):
    """A command was issued to a session frozen by a crash."""


#: What a miss reports of the resolution cascade: every one of its five tiers found nothing.
_TIER_MISSES = (
    "no exact text match; no exact description match; no resource id suffix match; "
    "no case-insensitive text match; no substring of text or description match"
)


class NoMatchError(Exception):
    """No element matched a feature at any tier of :func:`resolve_feature`'s cascade."""

    def __init__(self, feature: str):
        super().__init__(f"no element matched feature {feature!r} ({_TIER_MISSES})")


class Bounds(NamedTuple):
    left: int
    top: int
    right: int
    bottom: int

    def center(self) -> tuple[int, int]:
        return (self.left + self.right) // 2, (self.top + self.bottom) // 2

    def well_formed(self) -> bool:
        """Four integers, none a boolean, with 0 <= left <= right and 0 <= top <= bottom."""
        left, top, right, bottom = self
        integers = type(left) is type(top) is type(right) is type(bottom) is int
        return integers and 0 <= left <= right and 0 <= top <= bottom


@dataclass(frozen=True, slots=True)
class UiElement:
    element_id: str
    class_name: str
    text: str | None = None
    content_desc: str | None = None
    resource_id: str | None = None
    bounds: Bounds = Bounds(0, 0, 0, 0)
    clickable: bool = False
    long_clickable: bool = False
    editable: bool = False
    scrollable: bool = False
    children: tuple["UiElement", ...] = ()

    @property
    def interactable(self) -> bool:
        return self.clickable or self.long_clickable or self.editable or self.scrollable

    def iter_tree(self) -> Iterator["UiElement"]:
        yield self
        for child in self.children:
            yield from child.iter_tree()


def _sort_key(element: UiElement):
    return (
        element.bounds.top,
        element.bounds.left,
        element.class_name,
        element.text or "",
        element.content_desc or "",
        element.resource_id or "",
    )


def _skeleton(element: UiElement) -> list:
    children = sorted(element.children, key=_sort_key)
    return [
        element.class_name,
        element.text or "",
        element.content_desc or "",
        element.resource_id or "",
        [_skeleton(c) for c in children],
    ]


@dataclass(frozen=True)
class UiState:
    """A screen snapshot; ``state_id`` fingerprints its visible content.

    Siblings are canonicalized by position before hashing, so the fingerprint
    does not depend on observation order.  Bounds themselves are not hashed.
    Frozen, so one snapshot can be shared; the fingerprint, the encoded
    text, the feature resolution tables and the interactable elements are
    computed once and cached on it.
    """

    activity_name: str
    root: UiElement
    _state_id: str | None = field(default=None, repr=False, compare=False)
    _text: str | None = field(default=None, repr=False, compare=False)
    _tables: tuple | None = field(default=None, repr=False, compare=False)
    _interactable: tuple[UiElement, ...] | None = field(default=None, repr=False, compare=False)

    @property
    def state_id(self) -> str:
        if self._state_id is None:
            blob = json.dumps([self.activity_name, _skeleton(self.root)], separators=(",", ":"))
            object.__setattr__(self, "_state_id", hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16])
        return self._state_id


@dataclass(frozen=True)
class CrashInfo:
    exception_type: str
    message: str
    raised_in_activity: str

    def to_dict(self) -> dict:
        return {
            "exception_type": self.exception_type,
            "message": self.message,
            "raised_in_activity": self.raised_in_activity,
        }


@dataclass(slots=True)
class ExecStatus:
    ok: bool
    detail: str
    new_state: UiState
    crash: CrashInfo | None = None
    no_match_feature: str | None = None


def _canonical_walk(element: UiElement, depth: int) -> Iterator[tuple[UiElement, int]]:
    for child in sorted(element.children, key=_sort_key):
        yield child, depth
        yield from _canonical_walk(child, depth + 1)


def encode_state_text(state: UiState) -> str:
    """Render a screen as a deterministic indented outline.

    One line per element below the root container: index, widget class
    short-name, any text / description / resource id, and interaction flags.
    The indices are stable, so the model can refer back to elements.
    """
    if state._text is not None:
        return state._text
    lines = [f"Screen: {state.activity_name}"]
    for index, (element, depth) in enumerate(_canonical_walk(state.root, 0)):
        parts = [f"[{index}] {element.class_name.rsplit('.', 1)[-1]}"]
        if element.text is not None:
            parts.append(f'text="{element.text}"')
        if element.content_desc is not None:
            parts.append(f'desc="{element.content_desc}"')
        if element.resource_id is not None:
            parts.append(f"id={element.resource_id.rsplit('/', 1)[-1]}")
        if element.clickable:
            parts.append("clickable")
        if element.long_clickable:
            parts.append("long-clickable")
        if element.editable:
            parts.append("editable")
        if element.scrollable:
            parts.append("scrollable")
        lines.append("  " * depth + " ".join(parts))
    object.__setattr__(state, "_text", "\n".join(lines))
    return state._text


def interactable_elements(state: UiState) -> tuple[UiElement, ...]:
    """Interactable elements of a screen in canonical (top, left) order; computed once per screen."""
    if state._interactable is None:
        found = tuple(e for e, _ in _canonical_walk(state.root, 0) if e.interactable)
        object.__setattr__(state, "_interactable", found)
    return state._interactable


def feature_for_element(element: UiElement) -> str | None:
    """The feature string a model (or the explorer) would use to address an element."""
    if element.text:
        return element.text
    if element.content_desc:
        return element.content_desc
    if element.resource_id:
        return element.resource_id.rsplit("/", 1)[-1] or None
    return None


def _resolution_tables(state: UiState) -> tuple:
    """Tiers 1-4 as dicts from key to element, and tier 5's folded (text, description, element) list.

    Built once per screen and cached on it.  Elements are visited by
    (top, left, element id), in tree order on an exact tie, and each key keeps
    its first element, so a lookup returns the topmost-then-leftmost match.
    """
    if state._tables is None:
        text, desc, rid, folded_text = {}, {}, {}, {}
        scan = []
        for e in sorted(state.root.iter_tree(), key=lambda e: (e.bounds.top, e.bounds.left, e.element_id)):
            if e.text is not None:
                text.setdefault(e.text, e)
                folded_text.setdefault(e.text.lower(), e)
            if e.content_desc is not None:
                desc.setdefault(e.content_desc, e)
            if e.resource_id is not None:  # the full id and every suffix after a "/"
                parts = e.resource_id.split("/")
                for i in range(len(parts)):
                    rid.setdefault("/".join(parts[i:]), e)
            scan.append(((e.text or "").lower(), (e.content_desc or "").lower(), e))
        object.__setattr__(state, "_tables", ((text, desc, rid, folded_text), scan))
    return state._tables


def resolve_feature(state: UiState, feature: str) -> UiElement:
    """Resolve a feature string to one element via a fixed matching cascade.

    Tiers, first non-empty wins: exact text, exact content description,
    resource-id suffix, case-insensitive text, case-insensitive substring of
    text or description.  Ties break topmost-then-leftmost.  Raises
    :class:`NoMatchError` when no tier matches.
    """
    if not feature:
        raise ValueError("feature must be nonempty")
    (by_text, by_desc, by_rid, by_folded_text), scan = _resolution_tables(state)
    # The exact tiers first, with the feature as given; an element is always true, so ``or`` stops at a hit.
    element = (by_text.get(feature) or by_desc.get(feature) or by_rid.get(feature)
               or by_folded_text.get(folded := feature.lower()))
    if element is not None:
        return element
    for text, desc, element in scan:
        if folded in text or folded in desc:
            return element
    raise NoMatchError(feature)


class Device:
    """A device session owned by exactly one replay or exploration loop.

    ``execute`` takes the UI verbs; ``restart_app`` is the one restart."""

    @property
    def app_id(self) -> str:
        raise NotImplementedError

    def capture_state(self) -> UiState:
        raise NotImplementedError

    def execute(self, cmd: ActionCommand) -> ExecStatus:
        raise NotImplementedError

    def restart_app(self) -> UiState:
        raise NotImplementedError
