"""UI transition graph exploration and app-knowledge synthesis.

When replay gets stuck on a page, the explorer systematically triggers each
interactable element of that page (recursively to a configured depth),
recording every (state, action, resulting state) edge.  A language model
then summarizes what each element leads to and what each discovered screen
does; those knowledge lines re-ground the replay prompts.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .device import (
    Device,
    UiState,
    encode_state_text,
    feature_for_element,
    interactable_elements,
    resolve_feature,
)
from .gateway import ActionCommand, GatewayError, LlmGateway, decode_json, load_template

#: Text typed into editable fields while probing; the value is arbitrary.
EXPLORE_FILL_TEXT = "test"
#: The summary of an origin element whose probe recorded no edge.
NO_SCREEN_CHANGE = "No screen change was observed for this element."


class ExplorerError(Exception):
    pass


class UtgEdge(NamedTuple):
    from_state: str
    action: ActionCommand
    to_state: str


@dataclass
class UtgGraph:
    """Directed graph of screen fingerprints connected by executed actions."""

    origin: str
    nodes: dict[str, UiState]
    edges: list[UtgEdge]
    truncated: bool = False

    def out_edges(self, state_id: str) -> list[UtgEdge]:
        return [e for e in self.edges if e.from_state == state_id]

    def bfs(self) -> dict[str, int]:
        """Breadth-first distances from the origin, keyed in visit order.

        Neighbours are visited in state-id order.
        """
        adjacency: dict[str, set[str]] = {}
        for edge in self.edges:
            adjacency.setdefault(edge.from_state, set()).add(edge.to_state)
        order, distances = [self.origin], {self.origin: 0}
        for current in order:  # the list grows while it is walked
            for to_state in sorted(adjacency.get(current, ())):
                if to_state not in distances:
                    order.append(to_state)
                    distances[to_state] = distances[current] + 1
        return distances


class _BudgetDone(Exception):
    pass


def _probe_commands(state: UiState) -> list[ActionCommand]:
    """Probe commands for a screen: one per interactable element and verb."""
    probes: list[ActionCommand] = []
    seen: set[tuple] = set()
    for element in interactable_elements(state):
        feature = feature_for_element(element)
        if feature is None:
            continue
        candidates = []
        if element.clickable:
            candidates.append(ActionCommand(action="click", feature=feature))
        if element.long_clickable:
            candidates.append(ActionCommand(action="long_click", feature=feature))
        if element.editable:
            candidates.append(
                ActionCommand(action="set_text", feature=feature, input_text=EXPLORE_FILL_TEXT)
            )
        if element.scrollable:
            candidates.append(ActionCommand(action="scroll", direction="down"))
        for cmd in candidates:
            key = (cmd.action, cmd.feature, cmd.direction)
            if key not in seen:
                seen.add(key)
                probes.append(cmd)
    return probes


def explore(
    device: Device,
    depth: int,
    action_budget: int,
    origin_path: tuple[ActionCommand, ...] = (),
    deadline: float | None = None,
) -> UtgGraph:
    """Build the transition graph around the device's current screen.

    ``origin_path`` is the recorded command path from app start to the
    current screen; the explorer restores with restart + that path before
    each probe that left the page.  Probing (the probes and the restores
    between them) issues at most ``action_budget`` device commands, and none
    once ``deadline`` (a ``time.monotonic()`` value) has passed; a graph cut
    short by either is flagged truncated.  Cut short or not, the device then
    returns to the origin page, a return charged only to the deadline.

    Probing is systematic (element position order) so runs are reproducible.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if action_budget < 1:
        raise ValueError("action_budget must be >= 1")

    origin = device.capture_state()
    graph = UtgGraph(origin=origin.state_id, nodes={origin.state_id: origin}, edges=[])
    end = math.inf if deadline is None else deadline
    used = 0
    current_id: str | None = origin.state_id

    def restore_to(state_id: str, rel_path: tuple[ActionCommand, ...], limit: float) -> None:
        """restart + origin path + ``rel_path`` to ``state_id``, begun only if it and one more command fit ``limit``."""
        nonlocal current_id, used
        if used + 1 + len(origin_path) + len(rel_path) + 1 > limit:
            raise _BudgetDone  # a restore only pays if the command it serves fits too
        current_id = None
        for cmd in (None, *origin_path, *rel_path):  # None stands for the restart
            if time.monotonic() >= end:
                raise _BudgetDone
            used += 1
            if cmd is None:
                device.restart_app()
            elif not (status := device.execute(cmd)).ok or status.crash:
                raise ExplorerError(f"restore path failed at {cmd.to_dict()}")
        current_id = state_id

    frontier: list[tuple[str, tuple[ActionCommand, ...]]] = [(origin.state_id, ())]
    probed: set[str] = set()
    try:
        for level in range(depth):
            next_frontier: list[tuple[str, tuple[ActionCommand, ...]]] = []
            for state_id, rel_path in frontier:
                if state_id in probed:
                    continue
                probed.add(state_id)
                state = graph.nodes[state_id]
                for probe in _probe_commands(state):
                    if current_id != state_id:
                        restore_to(state_id, rel_path, action_budget)
                    if used + 1 > action_budget or time.monotonic() >= end:
                        raise _BudgetDone
                    used += 1
                    status = device.execute(probe)
                    if status.crash:
                        current_id = None
                        continue
                    if not status.ok:
                        continue
                    dest = status.new_state
                    current_id = dest_id = dest.state_id
                    graph.nodes.setdefault(dest_id, dest)
                    # No edge repeats: each state is probed once, with distinct probes.
                    graph.edges.append(UtgEdge(state_id, probe, dest_id))
                    if level + 1 < depth and dest_id not in probed:
                        next_frontier.append((dest_id, rel_path + (probe,)))
            frontier = next_frontier
    except (_BudgetDone, ExplorerError):
        graph.truncated = True
    with contextlib.suppress(_BudgetDone, ExplorerError):  # past the deadline, or the path failed
        if current_id != origin.state_id:
            restore_to(origin.state_id, (), math.inf)  # the return is charged only to the deadline
    return graph


def closest_state_for_element(graph: UtgGraph, element_feature: str) -> str:
    """The state containing the element at minimal BFS distance from the origin.

    Ties break by smallest state id.
    """
    hits = [state_id for state_id, state in graph.nodes.items() if resolve_feature(state, element_feature) is not None]
    if not hits:
        raise ExplorerError(f"element {element_feature!r} appears in no node")
    distances = graph.bfs()
    reachable = [h for h in hits if h in distances]
    if not reachable:
        raise ExplorerError(f"element {element_feature!r} appears only in unreachable nodes")
    return min(reachable, key=lambda sid: (distances[sid], sid))


def synthesize_functionality(graph: UtgGraph, gateway: LlmGateway, deadline: float | None = None) -> list[str]:
    """One knowledge line per interactable origin element: the summary of the screen it leads to, and the path.

    Every probe of an origin element starts on the origin, so an element's
    destination is the first origin edge probing its feature.  An element
    with no edge gets :data:`NO_SCREEN_CHANGE` without a model call; a
    gateway failure gives its summary "(summary unavailable)", and an empty
    reply "(no summary)".
    """
    template = load_template("functionality_summary.txt")
    origin_state = graph.nodes[graph.origin]
    origin_activity = origin_state.activity_name
    first_edges: dict[str | None, UtgEdge] = {}
    for edge in graph.out_edges(graph.origin):
        first_edges.setdefault(edge.action.feature, edge)
    lines: list[str] = []
    for element in interactable_elements(origin_state):
        feature = feature_for_element(element) or element.element_id
        edge = first_edges.get(feature)
        if edge is None:
            lines.append(f'- "{feature}": {NO_SCREEN_CHANGE}')
            continue
        destination = graph.nodes[edge.to_state]
        prompt = template.format(
            feature=feature, origin_activity=origin_activity, destination=encode_state_text(destination)
        )
        try:
            summary = gateway.complete(prompt, deadline).strip() or "(no summary)"
        except GatewayError:
            summary = "(summary unavailable)"
        path = f"{origin_activity} > {destination.activity_name} via [{feature}]"
        lines.append(f'- "{feature}": {summary} Path: {path}.')
    return lines


def synthesize_ui_functions(graph: UtgGraph, gateway: LlmGateway, deadline: float | None = None) -> list[str]:
    """One knowledge line per screen of the graph, in BFS order: the model's description of it.

    A gateway failure or an empty reply gives "(description unavailable)".
    """
    template = load_template("state_summary.txt")
    lines: list[str] = []
    for state_id in graph.bfs():
        state = graph.nodes[state_id]
        try:
            description = gateway.complete(template.format(state=encode_state_text(state)), deadline).strip()
        except GatewayError:
            description = ""
        lines.append(f"- {state.activity_name}: {description or '(description unavailable)'}")
    return lines


def save_knowledge(path: str | Path, text: str) -> None:
    """Write the rendered knowledge ``text`` to ``path`` atomically: a temp file, then a rename."""
    path = Path(path)
    staging = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        staging.write_text(json.dumps({"knowledge": text}, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
        os.replace(staging, path)
    finally:
        staging.unlink(missing_ok=True)


def load_knowledge(path: str | Path) -> str:
    """Read the text written by :func:`save_knowledge`.

    Raises ExplorerError when the file does not hold an object whose
    ``"knowledge"`` is a string; OSError when it cannot be read.
    """
    try:
        text = decode_json(Path(path).read_text(encoding="utf-8"))["knowledge"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ExplorerError(f"{path} holds no knowledge record: {exc!r}") from exc
    if not isinstance(text, str):
        raise ExplorerError(f"{path} holds no knowledge text")
    return text
