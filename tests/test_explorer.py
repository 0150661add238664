from __future__ import annotations

import json
import random
import time
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crashreplay import explorer

from crashreplay.cli import fixtures_path
from crashreplay.device import (
    Bounds,
    UiElement,
    UiState,
    feature_for_element,
    interactable_elements,
)
from crashreplay.explorer import (
    EXPLORE_FILL_TEXT,
    ExplorerError,
    UtgEdge,
    UtgGraph,
    closest_state_for_element,
    explore,
    load_knowledge,
    save_knowledge,
    synthesize_functionality,
    synthesize_ui_functions,
)
from crashreplay.gateway import ActionCommand, MockGateway
from crashreplay.simulator import SimSession, SimulatorDevice, load_spec
from conftest import DEEP_JSON

APPS = fixtures_path() / "apps"


def probe_plan(state: UiState) -> list[ActionCommand]:
    """The documented probe policy, re-derived for the oracle."""
    probes = []
    seen = set()
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
            candidates.append(ActionCommand(action="set_text", feature=feature, input_text=EXPLORE_FILL_TEXT))
        if element.scrollable:
            candidates.append(ActionCommand(action="scroll", direction="down"))
        for cmd in candidates:
            key = (cmd.action, cmd.feature, cmd.direction)
            if key not in seen:
                seen.add(key)
                probes.append(cmd)
    return probes


def depth1_oracle(spec_path, origin_path=()):
    """Expected depth-1 (nodes, edges) by stepping a fresh FSM session per probe.

    Independent of explore(): no restart/restore loop, no UtgGraph; it reads
    the fixture's declared behaviour directly.
    """
    spec = load_spec(spec_path)

    def fresh_session_at_origin() -> SimSession:
        session = SimSession(spec)
        for cmd in origin_path:
            status = session.step(cmd)
            assert status.ok and status.crash is None
        return session

    origin = fresh_session_at_origin().build_state()
    nodes = {origin.state_id}
    edges = set()
    for probe in probe_plan(origin):
        session = fresh_session_at_origin()
        status = session.step(probe)
        if status.ok and status.crash is None:
            nodes.add(status.new_state.state_id)
            edges.add((origin.state_id, probe.action, probe.feature, probe.direction, status.new_state.state_id))
    return nodes, edges


def assert_graph_invariants(graph: UtgGraph) -> None:
    """Every edge joins two nodes, and no state has two edges with the same action."""
    assert graph.origin in graph.nodes
    for edge in graph.edges:
        assert edge.from_state in graph.nodes and edge.to_state in graph.nodes, edge
    keys = [(edge.from_state, edge.action) for edge in graph.edges]
    assert len(keys) == len(set(keys))


def edge_set(graph: UtgGraph):
    return {
        (e.from_state, e.action.action, e.action.feature, e.action.direction, e.to_state)
        for e in graph.edges
    }


@pytest.mark.parametrize("name", ["url_crash.json", "hidden_about.json", "checkout.json"])
def test_depth1_matches_fsm_oracle(name):
    device = SimulatorDevice(load_spec(APPS / name))
    graph = explore(device, depth=1, action_budget=60)
    expected_nodes, expected_edges = depth1_oracle(APPS / name)
    assert set(graph.nodes) == expected_nodes
    assert edge_set(graph) == expected_edges
    assert not graph.truncated
    assert_graph_invariants(graph)


def test_depth1_from_non_initial_state_with_origin_path():
    device = SimulatorDevice(load_spec(APPS / "url_crash.json"))
    path = (ActionCommand(action="click", feature="OK"),)
    status = device.execute(path[0])
    assert status.ok
    graph = explore(device, depth=1, action_budget=60, origin_path=path)
    expected_nodes, expected_edges = depth1_oracle(APPS / "url_crash.json", origin_path=path)
    assert set(graph.nodes) == expected_nodes
    assert edge_set(graph) == expected_edges
    assert device.capture_state().state_id == graph.origin


def explore_one_screen(tmp_path, elements: list[dict], transitions: list[dict] = ()) -> tuple[UtgGraph, "CountingDevice"]:
    """Explore, at depth 1, an app of one screen holding ``elements`` (and an empty "next" screen that
    ``transitions`` may lead to); the graph and the device."""
    body = {
        "app_id": "t",
        "initial_state": "only",
        "states": {"only": {"activity": "OnlyActivity", "elements": elements}, "next": {"activity": "NextActivity"}},
        "transitions": list(transitions),
        "crash_rules": [],
    }
    path = tmp_path / "app.json"
    path.write_text(json.dumps(body))
    device = CountingDevice(load_spec(path))
    return explore(device, depth=1, action_budget=10), device


def test_origin_without_interactables_yields_single_node(tmp_path):
    graph, _ = explore_one_screen(tmp_path, [{"id": "t1", "class": "TextView", "text": "static", "bounds": [0, 0, 10, 10]}])
    assert len(graph.nodes) == 1 and graph.edges == []


def test_an_element_whose_resource_id_names_nothing_is_not_probed(tmp_path):
    button = {"id": "b1", "class": "Button", "resource_id": "app:id/", "bounds": [0, 0, 10, 10], "clickable": True}
    graph, device = explore_one_screen(tmp_path, [button])
    assert len(graph.nodes) == 1 and graph.edges == [] and device.log == []


def test_exploration_deterministic():
    def once():
        device = CountingDevice(load_spec(APPS / "hidden_about.json"))
        graph = explore(device, depth=1, action_budget=60)
        return set(graph.nodes), edge_set(graph), device.log

    assert once() == once()


class CountingDevice(SimulatorDevice):
    """Logs the device commands issued: every executed command, and "restart" for every restart."""

    def __init__(self, spec):
        super().__init__(spec)
        self.log: list[ActionCommand | str] = []

    @property
    def commands(self) -> int:
        return len(self.log)

    def execute(self, cmd):
        self.log.append(cmd)
        return super().execute(cmd)

    def restart_app(self):
        self.log.append("restart")
        return super().restart_app()


def test_exploration_respects_action_budget():
    for budget in (1, 2, 3, 4, 5):
        device = CountingDevice(load_spec(APPS / "hidden_about.json"))
        graph = explore(device, depth=1, action_budget=budget)
        # Probing ends with the last probe, or with a restore cut short after it; the return is one restart.
        last_probe = max(i for i, cmd in enumerate(device.log) if cmd != "restart")
        assert last_probe + 1 <= budget and device.commands <= budget + 1
        # Probing home takes five commands: three probes and the two restores between them.
        assert graph.truncated == (budget < 5)
        assert device.capture_state().state_id == graph.origin


#: An app whose start page opens a hub; the hub's child pages link back to it, and one of its buttons crashes the app.
LINKED_BACK_APP = {
    "app_id": "linked.back",
    "initial_state": "start",
    "states": {
        "start": {"activity": "StartActivity", "elements": [
            {"id": "open", "class": "Button", "text": "Open", "bounds": [0, 0, 100, 50], "clickable": True},
            {"id": "idle", "class": "Button", "text": "Idle", "bounds": [0, 100, 100, 150], "clickable": True},
        ]},
        "hub": {"activity": "HubActivity", "elements": [
            {"id": "child", "class": "Button", "text": "Child", "bounds": [0, 0, 100, 50], "clickable": True},
            {"id": "up", "class": "Button", "text": "Up", "bounds": [0, 100, 100, 150], "clickable": True},
            {"id": "stay", "class": "Button", "text": "Stay", "bounds": [0, 200, 100, 250], "clickable": True},
            {"id": "boom", "class": "Button", "text": "Boom", "bounds": [0, 300, 100, 350], "clickable": True},
            {"id": "leaf", "class": "Button", "text": "Leaf", "bounds": [0, 400, 100, 450], "clickable": True},
        ]},
        "child": {"activity": "ChildActivity", "elements": [
            {"id": "hub_link", "class": "Button", "text": "Hub", "bounds": [0, 0, 100, 50], "clickable": True},
            {"id": "note", "class": "Button", "text": "Note", "bounds": [0, 100, 100, 150], "clickable": True},
        ]},
        "leaf": {"activity": "LeafActivity", "elements": [
            {"id": "nothing", "class": "Button", "text": "Nothing", "bounds": [0, 0, 100, 50], "clickable": True},
        ]},
    },
    "transitions": [
        {"from": "start", "verb": "click", "feature": "open", "to": "hub"},
        {"from": "hub", "verb": "click", "feature": "child", "to": "child"},
        {"from": "hub", "verb": "click", "feature": "up", "to": "start"},
        {"from": "hub", "verb": "click", "feature": "leaf", "to": "leaf"},
        {"from": "child", "verb": "click", "feature": "hub_link", "to": "hub"},
    ],
    "crash_rules": [
        {"state": "hub", "verb": "click", "feature": "boom",
         "crash": {"exception_type": "java.lang.IllegalStateException", "message": "boom", "activity": "HubActivity"}},
    ],
}


def origin_cases(tmp_path_factory):
    """(spec, origin path): origins reached by an empty path and by a nonempty one, each with a page linking back."""
    path = tmp_path_factory.getbasetemp() / "linked_back.json"
    path.write_text(json.dumps(LINKED_BACK_APP), encoding="utf-8")
    linked_back, hidden_about = load_spec(path), load_spec(APPS / "hidden_about.json")
    open_hub = (ActionCommand(action="click", feature="Open"),)
    tools = (ActionCommand(action="click", feature="Tools"),)
    return [(linked_back, ()), (linked_back, open_hub), (hidden_about, ()), (hidden_about, tools)]


#: Per depth, the device commands of every run of each origin case, summed over its action budgets.
COMMANDS_OVER_BUDGETS = {1: [7, 103, 24, 18], 2: [150, 567, 209, 18]}


@pytest.mark.parametrize("depth", [1, 2])
def test_explore_ends_on_its_origin_at_every_action_budget(tmp_path_factory, depth):
    totals = []
    for spec, origin_path in origin_cases(tmp_path_factory):

        def explored(budget: int) -> tuple[UtgGraph, CountingDevice]:
            device = CountingDevice(spec)
            for cmd in origin_path:
                assert device.execute(cmd).ok
            device.log.clear()
            return explore(device, depth=depth, action_budget=budget, origin_path=origin_path), device

        graph, device = explored(1000)
        origin_probes = len(probe_plan(graph.nodes[graph.origin]))
        total = 0
        for budget in range(1, device.commands + 1):
            graph, device = explored(budget)
            assert device.capture_state().state_id == graph.origin, (origin_path, budget)
            assert device.commands <= budget + 1 + len(origin_path), (origin_path, budget)
            assert restores_are_whole(device.log, origin_path, origin_probes), (origin_path, budget, device.log)
            total += device.commands
        totals.append(total)
    assert totals == COMMANDS_OVER_BUDGETS[depth]


def restores_are_whole(log: list, origin_path: tuple, origin_probes: int) -> bool:
    """Whether every restart in ``log`` but the return is followed by its whole path and one probe.

    A restore replays ``origin_path``; once the origin's ``origin_probes``
    probes are done, a restore also takes the one step to the page it
    restores (depth 2).  The return is a last restart followed by
    ``origin_path`` alone.
    """
    segments: list[list] = [[]]
    for cmd in log:
        if cmd == "restart":
            segments.append([])
        else:
            segments[-1].append(cmd)
    if len(segments) > 1 and segments[-1] == list(origin_path):
        segments.pop()
    probes = len(segments[0])
    for segment in segments[1:]:
        path = len(origin_path) + (probes >= origin_probes)
        if segment[: len(origin_path)] != list(origin_path) or len(segment) < path + 1:
            return False
        probes += len(segment) - path
    return True


def test_exploration_action_count_matches_simulator_log():
    # The oracle: each origin probe in plan order, then one restart if, from a fresh start, it leaves the origin.
    spec = load_spec(APPS / "hidden_about.json")
    device = CountingDevice(spec)
    graph = explore(device, depth=1, action_budget=60)
    expected: list[ActionCommand | str] = []
    for probe in probe_plan(graph.nodes[graph.origin]):
        status = SimSession(spec).step(probe)
        expected.append(probe)
        if status.crash or status.new_state.state_id != graph.origin:
            expected.append("restart")
    assert "restart" in expected
    assert device.log == expected


#: Labels that collide: two elements of a screen may share one, and "Open" and "open" fold to the same key.
EXPLORE_LABELS = ["Open", "open", "Go", "Back"]
#: Each probed verb and the element flag that makes the explorer probe it.
PROBE_FLAGS = {"click": "clickable", "long_click": "long_clickable", "set_text": "editable", "scroll": "scrollable"}


@st.composite
def explorable_specs(draw):
    """A spec of 3-8 states of 1-4 elements each, with colliding or missing labels and any mix of the probe flags,
    and up to 12 transitions (to any state, so back to earlier ones too) and one crash rule that probes trigger."""
    states = [f"s{i}" for i in range(draw(st.integers(3, 8)))]
    element = st.tuples(st.sampled_from([*EXPLORE_LABELS, None]), st.sets(st.sampled_from(list(PROBE_FLAGS.values()))))
    layouts = {
        name: [{"id": f"e{i}", "class": "View", "bounds": [0, 10 * i, 100, 10 * i + 5],
                **({} if label is None else {"text": label}), **dict.fromkeys(flags, True)}
               for i, (label, flags) in enumerate(draw(st.lists(element, min_size=1, max_size=4)))]
        for name in states
    }
    # A scroll probe names no element, so a scroll trigger names none either.
    triggers = sorted({(name, verb, None if verb == "scroll" else e["id"])
                       for name in states for e in layouts[name] for verb, flag in PROBE_FLAGS.items() if e.get(flag)},
                      key=str)

    def rule(key: str, name: str, verb: str, element_id: str | None) -> dict:
        return {key: name, "verb": verb, **({"direction": "down"} if element_id is None else {"feature": element_id})}

    chosen = draw(st.lists(st.sampled_from(triggers), max_size=12, unique=True)) if triggers else []
    crashing = draw(st.lists(st.sampled_from(triggers), max_size=1)) if triggers else []
    return {
        "app_id": "t.explore",
        "initial_state": "s0",
        "states": {name: {"activity": f"{name}Activity", "elements": layouts[name]} for name in states},
        "transitions": [{**rule("from", *key), "to": draw(st.sampled_from(states))} for key in chosen],
        "crash_rules": [{**rule("state", *key), "crash": {"exception_type": "E"}} for key in crashing],
    }


class ScreenLoggingDevice(SimulatorDevice):
    """Logs every command with the screen it ran on, and None for every restart."""

    def __init__(self, spec):
        super().__init__(spec)
        self.log: list[tuple[str, ActionCommand] | None] = []

    def execute(self, cmd):
        self.log.append((self.capture_state().state_id, cmd))
        return super().execute(cmd)

    def restart_app(self):
        self.log.append(None)
        return super().restart_app()


@settings(max_examples=150)
@given(explorable_specs(), st.sampled_from([1, 2]))
def test_every_probe_of_a_probed_state_reaches_the_device_once(tmp_path_factory, body, depth):
    path = tmp_path_factory.getbasetemp() / "explorable.json"  # one file, rewritten per example
    path.write_text(json.dumps(body), encoding="utf-8")
    device = ScreenLoggingDevice(load_spec(path))
    graph = explore(device, depth=depth, action_budget=10_000)
    assert not graph.truncated
    assert_graph_invariants(graph)
    assert len(set(graph.edges)) == len(graph.edges)
    origin, runs = graph.origin, list(enumerate(device.log))
    plan = probe_plan(graph.nodes[origin])
    on_origin = [i for i, entry in runs if entry is not None and entry[0] == origin]
    # Levels are probed in turn: the origin's probes run first, and each later command on the origin is the
    # restore step to a page one probe away, right after a restart.
    assert [device.log[i][1] for i in on_origin[: len(plan)]] == plan
    assert all(device.log[i - 1] is None for i in on_origin[len(plan):])
    # At depth 2 each page one probe away is probed too, each of its probes once.
    pages = {e.to_state for e in graph.edges if e.from_state == origin} - {origin} if depth == 2 else set()
    elsewhere = Counter(entry for _, entry in runs if entry is not None and entry[0] != origin)
    assert elsewhere == Counter((page, probe) for page in pages for probe in probe_plan(graph.nodes[page]))


def test_depth2_discovers_second_layer():
    device = SimulatorDevice(load_spec(APPS / "hidden_about.json"))
    graph = explore(device, depth=2, action_budget=100)
    activities = {state.activity_name for state in graph.nodes.values()}
    assert "NoteActivity" in activities and "ToolsActivity" in activities
    # second-layer edge recorded (tools screen's back-free elements have no
    # transitions, but note_view's button leads home)
    assert any(e.action.feature == "Back to list" for e in graph.edges)


# -- closest state -----------------------------------------------------------------


def state_with_features(state_id: str, features: list[str]) -> UiState:
    children = tuple(
        UiElement(
            element_id=f"e{i}",
            class_name="Button",
            text=feature,
            bounds=Bounds(0, 100 * i, 100, 100 * i + 50),
            clickable=True,
        )
        for i, feature in enumerate(features)
    )
    root = UiElement(element_id="root", class_name="FrameLayout", bounds=Bounds(0, 0, 1080, 1920), children=children)
    return UiState(activity_name=state_id, root=root)


def synthetic_graph(assignments: dict[str, list[str]], edges: list[tuple[str, str]], origin: str) -> UtgGraph:
    nodes = {sid: state_with_features(sid, feats) for sid, feats in assignments.items()}
    graph = UtgGraph(
        origin=origin,
        nodes=nodes,
        edges=[UtgEdge(a, ActionCommand(action="click", feature=f"to {b}"), b) for a, b in edges],
    )
    return graph


def test_closest_state_origin_wins_at_distance_zero():
    graph = synthetic_graph({"s0": ["feat00"], "s1": ["feat00"]}, [("s0", "s1")], "s0")
    assert closest_state_for_element(graph, "feat00") == "s0"


def test_closest_state_prefers_shorter_distance():
    graph = synthetic_graph(
        {"s0": [], "s1": ["feat01"], "s2": ["feat01"]},
        [("s0", "s1"), ("s1", "s2")],
        "s0",
    )
    assert closest_state_for_element(graph, "feat01") == "s1"


def test_closest_state_absent_element():
    graph = synthetic_graph({"s0": ["feat00"]}, [], "s0")
    with pytest.raises(ExplorerError, match="element 'feat99' appears in no node"):
        closest_state_for_element(graph, "feat99")


def test_bfs_visits_neighbours_in_state_id_order():
    # s3 sits at depth 2 under both s1 and s2; s2's edges are inserted first
    graph = synthetic_graph(
        {"s0": [], "s1": [], "s2": [], "s3": []},
        [("s0", "s2"), ("s0", "s1"), ("s2", "s3"), ("s1", "s3")],
        "s0",
    )
    distances = graph.bfs()
    assert list(distances) == ["s0", "s1", "s2", "s3"]
    assert distances == {"s0": 0, "s1": 1, "s2": 1, "s3": 2}


def test_closest_state_matches_networkx_oracle():
    rng = random.Random(5)
    features = [f"feat{i:02d}" for i in range(12)]
    for _ in range(20):
        state_ids = [f"s{i:02d}" for i in range(rng.randint(3, 8))]
        assignments = {sid: rng.sample(features, rng.randint(0, 4)) for sid in state_ids}
        edges = []
        for a in state_ids:
            for b in state_ids:
                if a != b and rng.random() < 0.3:
                    edges.append((a, b))
        graph = synthetic_graph(assignments, edges, state_ids[0])

        oracle = nx.DiGraph()
        oracle.add_nodes_from(state_ids)
        oracle.add_edges_from(edges)
        distances = nx.single_source_shortest_path_length(oracle, state_ids[0])

        for feature in features:
            containing = [sid for sid in state_ids if feature in assignments[sid]]
            reachable = [sid for sid in containing if sid in distances]
            if not reachable:
                if containing:
                    with pytest.raises(ExplorerError, match=f"element '{feature}' appears only in unreachable nodes"):
                        closest_state_for_element(graph, feature)
                continue
            expected = min(reachable, key=lambda sid: (distances[sid], sid))
            assert closest_state_for_element(graph, feature) == expected


labels = st.sampled_from(["OK", "ok", "Save", "Save draft", "a/b", "x"])
optional_labels = st.none() | st.just("") | labels


@st.composite
def random_screens(draw):
    """A random origin screen, other screens and edges, with colliding labels."""

    def screen(name: str) -> UiState:
        children = []
        for i in range(draw(st.integers(0, 5))):
            interactable = draw(st.booleans())
            children.append(
                UiElement(
                    element_id=f"{name}e{i}",
                    class_name="Button",
                    text=draw(optional_labels),
                    content_desc=draw(optional_labels),
                    resource_id=draw(st.none() | labels.map(lambda label: f"app:id/{label}")),
                    bounds=Bounds(0, 10 * draw(st.integers(0, 3)), 10, 50),
                    clickable=interactable,
                    long_clickable=interactable and draw(st.booleans()),
                )
            )
        root = UiElement(
            element_id=f"{name}root", class_name="FrameLayout", bounds=Bounds(0, 0, 1080, 1920), children=tuple(children)
        )
        return UiState(activity_name=name, root=root)

    names = [f"s{i}" for i in range(draw(st.integers(1, 4)))]
    pairs = [(a, b) for a in names for b in names if a != b]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return UtgGraph(
        origin="s0",
        nodes={name: screen(name) for name in names},
        edges=[UtgEdge(a, ActionCommand(action="click", feature=f"to {b}"), b) for a, b in edges],
    )


@settings(max_examples=200)
@given(random_screens())
def test_an_origin_element_with_a_feature_is_closest_on_the_origin(graph):
    # The premise of synthesize_functionality: an origin element's own
    # feature always resolves on the origin, at distance zero.
    for element in interactable_elements(graph.nodes[graph.origin]):
        feature = feature_for_element(element)
        if feature:
            assert closest_state_for_element(graph, feature) == graph.origin


# -- synthesis ---------------------------------------------------------------------


def explored_hidden_about():
    device = SimulatorDevice(load_spec(APPS / "hidden_about.json"))
    return explore(device, depth=1, action_budget=60)


def test_functionality_table_one_entry_per_interactable():
    graph = explored_hidden_about()
    gateway = MockGateway.from_script([{"response": "summary text"}])
    lines = synthesize_functionality(graph, gateway)
    origin_interactables = interactable_elements(graph.nodes[graph.origin])
    assert len(lines) == len(origin_interactables) == 3
    for line in lines:
        assert line.startswith('- "') and '": summary text Path: NotesActivity > ' in line


def test_functionality_entry_paths_have_length_two_at_depth_one():
    graph = explored_hidden_about()
    gateway = MockGateway.from_script([{"response": "s"}])
    lines = synthesize_functionality(graph, gateway)
    assert '- "Tools": s Path: NotesActivity > ToolsActivity via [Tools].' in lines


def test_functionality_gateway_failure_marks_single_entry_unavailable():
    graph = explored_hidden_about()
    gateway = MockGateway.from_script(
        [{"response": "ok one", "times": 1}, {"error": "down", "times": 1}, {"response": "ok three"}]
    )
    summaries = [line.split('": ', 1)[1].split(" Path: ")[0] for line in synthesize_functionality(graph, gateway)]
    assert summaries == ["ok one", "(summary unavailable)", "ok three"]


def test_functionality_element_without_edge_gets_static_note(tmp_path):
    graph, _ = explore_one_screen(
        tmp_path, [{"id": "dead", "class": "Button", "text": "DEAD", "bounds": [0, 0, 10, 10], "clickable": True}]
    )
    gateway = MockGateway.from_script([])
    lines = synthesize_functionality(graph, gateway)
    assert lines == ['- "DEAD": No screen change was observed for this element.']
    assert gateway.exchanges == []


def test_knowledge_lines_stand_in_for_what_the_model_did_not_give(tmp_path):
    # An empty reply, a gateway failure and an element without an edge each
    # have their own fixed wording; only the two elements with edges ask the model.
    graph, _ = explore_one_screen(
        tmp_path,
        [
            {"id": "one", "class": "Button", "text": "One", "bounds": [0, 0, 10, 10], "clickable": True},
            {"id": "two", "class": "Button", "text": "Two", "bounds": [0, 20, 10, 30], "clickable": True},
            {"id": "dead", "class": "Button", "text": "Dead", "bounds": [0, 40, 10, 50], "clickable": True},
        ],
        transitions=[
            {"from": "only", "verb": "click", "feature": "one", "to": "next"},
            {"from": "only", "verb": "click", "feature": "two", "to": "next"},
        ],
    )
    script = [{"response": " \n", "times": 1}, {"error": "down"}]
    gateway = MockGateway.from_script(script)
    assert synthesize_functionality(graph, gateway) == [
        '- "One": (no summary) Path: OnlyActivity > NextActivity via [One].',
        '- "Two": (summary unavailable) Path: OnlyActivity > NextActivity via [Two].',
        '- "Dead": No screen change was observed for this element.',
    ]
    assert [entry.used for entry in gateway.entries] == [1, 1]
    assert synthesize_ui_functions(graph, MockGateway.from_script(script)) == [
        "- OnlyActivity: (description unavailable)",
        "- NextActivity: (description unavailable)",
    ]


def test_ui_function_table_covers_every_node_in_bfs_order():
    graph = explored_hidden_about()
    gateway = MockGateway.from_script([{"response": "described"}])
    lines = synthesize_ui_functions(graph, gateway)
    assert lines == [f"- {graph.nodes[state_id].activity_name}: described" for state_id in graph.bfs()]
    assert len(lines) == len(graph.nodes)


def test_ui_function_table_single_node(tmp_path):
    graph, _ = explore_one_screen(tmp_path, [])
    lines = synthesize_ui_functions(graph, MockGateway.from_script([{"response": "only"}]))
    assert lines == ["- OnlyActivity: only"]


def test_synthesis_rerun_identical():
    graph = explored_hidden_about()

    def once():
        gateway = MockGateway.from_script([{"response": "same"}])
        return synthesize_functionality(graph, gateway), synthesize_ui_functions(graph, gateway)

    assert once() == once()


def test_functionality_needs_no_graph_search_or_feature_resolution(monkeypatch):
    graph = explore(SimulatorDevice(load_spec(APPS / "hidden_about.json")), depth=2, action_budget=100)
    expected = synthesize_functionality(graph, MockGateway.from_script([{"response": "s"}]))

    def forbidden(*args, **kwargs):
        raise AssertionError("not needed to build the functionality lines")

    monkeypatch.setattr(UtgGraph, "bfs", forbidden)
    monkeypatch.setattr(explorer, "resolve_feature", forbidden)
    lines = synthesize_functionality(graph, MockGateway.from_script([{"response": "s"}]))
    assert lines == expected
    origin_edges = {e.action.feature: e.to_state for e in reversed(graph.edges) if e.from_state == graph.origin}
    for line in lines:
        feature = line[3 : line.index('"', 3)]
        assert line.endswith(f" > {graph.nodes[origin_edges[feature]].activity_name} via [{feature}].")


KNOWLEDGE_TEXT = 'Functionality of the elements on the MainActivity screen:\n- "About": Opens the “About” page.'


def test_knowledge_save_load_round_trip(tmp_path):
    path = tmp_path / "knowledge.json"
    save_knowledge(path, KNOWLEDGE_TEXT)
    assert json.loads(path.read_text(encoding="utf-8")) == {"knowledge": KNOWLEDGE_TEXT}
    assert load_knowledge(path) == KNOWLEDGE_TEXT


def test_knowledge_save_that_fails_midway_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "knowledge.json"
    save_knowledge(path, KNOWLEDGE_TEXT)
    before = path.read_bytes()
    real_write_text = type(path).write_text

    def torn_write(self, text, *args, **kwargs):
        real_write_text(self, text[: len(text) // 2], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(type(path), "write_text", torn_write)
    with pytest.raises(OSError):
        save_knowledge(path, "other text")
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["knowledge.json"]


@pytest.mark.parametrize(
    "content",
    ["{corrupt", "{}", '{"graph": []}', "[1]", "", '"text"', '{"knowledge": ["x"]}', '{"knowledge": null}',
     pytest.param(DEEP_JSON, id="nested too deeply"), pytest.param('{"knowledge": "x\\ud800"}', id="lone surrogate")],
)
def test_knowledge_load_of_a_malformed_file_is_an_explorer_error(tmp_path, content):
    path = tmp_path / "knowledge.json"
    path.write_text(content)
    with pytest.raises(ExplorerError):
        load_knowledge(path)


def test_explore_past_its_deadline_issues_no_command():
    commands = []

    class CountingDevice(SimulatorDevice):
        def execute(self, cmd):
            commands.append(cmd)
            return super().execute(cmd)

        def restart_app(self):
            commands.append("restart")
            return super().restart_app()

    device = CountingDevice(load_spec(APPS / "hidden_about.json"))
    graph = explore(device, depth=1, action_budget=60, deadline=time.monotonic())
    assert commands == []
    assert graph.truncated
    assert list(graph.nodes) == [graph.origin]
