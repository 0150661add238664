from __future__ import annotations

import dataclasses
import hashlib
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crashreplay.device import Bounds, ExecStatus, UiElement, UiState
from crashreplay.explorer import explore, synthesize_functionality, synthesize_ui_functions
from crashreplay.gateway import ActionCommand, MockEntry, MockGateway
from crashreplay.grammar import ActionType, S2REntity, S2RScript, ScriptStep
from crashreplay.replay import (
    NO_ACTIONABLE_THRESHOLD,
    NO_MATCH_THRESHOLD,
    REVISIT_THRESHOLD,
    Outcome,
    StuckReason,
    StuckSignal,
    StuckTracker,
    build_replay_prompt,
    detect_stuck,
    replay_prompt_head,
    render_feedback,
    run,
)
from crashreplay.simulator import SimulatorDevice, load_spec
from crashreplay.cli import fixtures_path
from conftest import DEEP_JSON, load_scenario

APPS = fixtures_path() / "apps"


def simple_state(state_id_seed: str) -> UiState:
    root = UiElement(
        element_id="root",
        class_name="FrameLayout",
        bounds=Bounds(0, 0, 100, 100),
        children=(
            UiElement(
                element_id="t",
                class_name="TextView",
                text=state_id_seed,
                bounds=Bounds(0, 0, 100, 50),
            ),
        ),
    )
    return UiState(activity_name=f"{state_id_seed}Activity", root=root)


#: One history record: the state a command ran on and its status, or None
#: for a reply without an action.
Record = tuple[str, ExecStatus | None]


def ok_record(from_state: UiState, to_state: UiState) -> Record:
    return from_state.state_id, ExecStatus(ok=True, detail="moved", new_state=to_state)


def nomatch_record(state: UiState, feature: str) -> Record:
    return state.state_id, ExecStatus(ok=False, detail="no match", new_state=state, no_match_feature=feature)


def no_action_record(state: UiState) -> Record:
    return state.state_id, None


# -- detect_stuck ---------------------------------------------------------------


def batch_detect_stuck(history: list[Record]) -> StuckSignal | None:
    """Reference for the stuck tracker: every heuristic recomputed over the whole history."""
    if not history:
        return None

    # (a) repeated failure to resolve the same feature on the same state
    miss_counts: dict[tuple[str, str], int] = {}
    for state_id, status in history:
        if status is not None and status.no_match_feature:
            key = (state_id, status.no_match_feature)
            miss_counts[key] = miss_counts.get(key, 0) + 1
            if miss_counts[key] >= NO_MATCH_THRESHOLD:
                return StuckSignal(StuckReason.NO_MATCH_REPEATED, state_id)

    # (b) current state re-entered with no new state discovered in between;
    # consecutive duplicates collapse (standing still is not a revisit)
    sequence: list[str] = []
    for state_id, status in history:
        if status is None:
            continue
        for sid in ((state_id,) if not sequence else ()) + (status.new_state.state_id,):
            if not sequence or sequence[-1] != sid:
                sequence.append(sid)
    if sequence:
        current = sequence[-1]
        visits = [i for i, sid in enumerate(sequence) if sid == current]
        if len(visits) >= REVISIT_THRESHOLD:
            previous_visit = visits[-2]
            first_seen: dict[str, int] = {}
            for i, sid in enumerate(sequence):
                first_seen.setdefault(sid, i)
            if not any(first > previous_visit for first in first_seen.values()):
                return StuckSignal(StuckReason.STATE_REVISITED, current)

    # (c) no actionable output twice on the same state
    no_action_counts: dict[str, int] = {}
    for state_id, status in history:
        if status is None:
            no_action_counts[state_id] = no_action_counts.get(state_id, 0) + 1
            if no_action_counts[state_id] >= NO_ACTIONABLE_THRESHOLD:
                return StuckSignal(StuckReason.LLM_NO_ACTIONABLE, state_id)
    return None


def stuck_after(history: list[Record]) -> StuckSignal | None:
    tracker = StuckTracker()
    for state_id, status in history:
        tracker.add(state_id, status)
    return detect_stuck(tracker)


def test_stuck_empty_history():
    assert stuck_after([]) is None


def test_stuck_repeated_no_match():
    s1 = simple_state("S1")
    history = [nomatch_record(s1, "About"), nomatch_record(s1, "About")]
    signal = stuck_after(history)
    assert signal is not None
    assert signal.reason == StuckReason.NO_MATCH_REPEATED
    assert signal.state == s1.state_id


def test_stuck_single_no_match_not_enough():
    s1 = simple_state("S1")
    assert stuck_after([nomatch_record(s1, "About")]) is None


def test_stuck_different_features_do_not_accumulate():
    s1 = simple_state("S1")
    history = [nomatch_record(s1, "A"), nomatch_record(s1, "B")]
    assert stuck_after(history) is None


def test_stuck_state_revisited_without_progress():
    s1, s2 = simple_state("S1"), simple_state("S2")
    history = [ok_record(s1, s2), ok_record(s2, s1), ok_record(s1, s2), ok_record(s2, s1)]
    signal = stuck_after(history)
    assert signal is not None
    assert signal.reason == StuckReason.STATE_REVISITED
    assert signal.state == s1.state_id


def test_stuck_not_raised_while_new_states_appear():
    s1, s2, s3 = simple_state("S1"), simple_state("S2"), simple_state("S3")
    history = [ok_record(s1, s2), ok_record(s2, s1), ok_record(s1, s3), ok_record(s3, s1)]
    assert stuck_after(history) is None


def test_stuck_no_actionable_twice_same_state():
    s1 = simple_state("S1")
    history = [no_action_record(s1), no_action_record(s1)]
    signal = stuck_after(history)
    assert signal is not None
    assert signal.reason == StuckReason.LLM_NO_ACTIONABLE


_STATES = [simple_state(f"S{i}") for i in range(5)]


@st.composite
def histories(draw):
    """Random session histories: misses on a few features, no-actionable
    steps, moves among at most 5 states (standing still included), restarts,
    and jumps that change the state without a record, as exploration does."""
    history = []
    current = 0
    for kind, target, feature in draw(
        st.lists(
            st.tuples(
                st.sampled_from(["move", "miss", "no_actionable", "restart", "jump"]),
                st.integers(0, len(_STATES) - 1),
                st.sampled_from(["A", "B", "C"]),
            ),
            max_size=40,
        )
    ):
        here = _STATES[current]
        if kind == "move":
            history.append(ok_record(here, _STATES[target]))
            current = target
        elif kind == "miss":
            history.append(nomatch_record(here, feature))
        elif kind == "no_actionable":
            history.append(no_action_record(here))
        elif kind == "jump":
            current = target
        else:
            history.append((here.state_id, ExecStatus(ok=True, detail="app restarted", new_state=_STATES[0])))
            current = 0
    return history


@settings(max_examples=500)
@given(histories())
def test_stuck_tracker_agrees_with_the_batch_oracle_at_every_prefix(history):
    tracker = StuckTracker()
    assert detect_stuck(tracker) is None
    for length, (state_id, status) in enumerate(history, start=1):
        tracker.add(state_id, status)
        assert detect_stuck(tracker) == batch_detect_stuck(history[:length])


# -- feedback ---------------------------------------------------------------------


def test_feedback_success_names_activity():
    s2 = simple_state("Detail")
    status = ExecStatus(ok=True, detail="moved", new_state=s2)
    text = render_feedback(status, previous_state_id="other")
    assert "executed successfully" in text
    assert "DetailActivity" in text
    assert "The screen changed." in text


def test_feedback_failure_lists_miss_tiers():
    s1 = simple_state("S1")
    status = ExecStatus(
        ok=False,
        detail="no element matched feature 'About' (no exact text match; no exact description match)",
        new_state=s1,
        no_match_feature="About",
    )
    text = render_feedback(status, s1.state_id)
    assert "About" in text and "no exact text match" in text


def test_feedback_empty_for_crash():
    s1 = simple_state("S1")
    from crashreplay.device import CrashInfo

    status = ExecStatus(ok=True, detail="crash", new_state=s1, crash=CrashInfo("E", "m", "A"))
    assert render_feedback(status, s1.state_id) == ""


# -- prompt ----------------------------------------------------------------------


SCRIPT = S2RScript(
    steps=(
        ScriptStep(S2REntity(ActionType.INPUT, component="server URL", value="xxyyzz"), 1),
        ScriptStep(S2REntity(ActionType.TAP, component="OK"), 1),
    )
)


def knowledge_fixture() -> str:
    device = SimulatorDevice(load_spec(APPS / "hidden_about.json"))
    graph = explore(device, depth=1, action_budget=60)
    gateway = MockGateway.from_script([{"response": "summary"}])
    lines = ["Functionality of the elements on the NotesActivity screen:", *synthesize_functionality(graph, gateway)]
    return "\n".join([*lines, "Screen functions:", *synthesize_ui_functions(graph, gateway)])


def test_prompt_tier1_has_three_labeled_sections():
    prompt = build_replay_prompt(replay_prompt_head("report text", SCRIPT), "Screen: X")
    assert [line for line in prompt.splitlines() if line.startswith("## ")] == [
        "## Bug report",
        "## Steps to reproduce (extracted)",
        "## Current screen",
    ]


def test_prompt_tier2_adds_knowledge_section():
    prompt = build_replay_prompt(replay_prompt_head("report text", SCRIPT), "Screen: X", knowledge=knowledge_fixture())
    sections = [line for line in prompt.splitlines() if line.startswith("## ")]
    assert sections == [
        "## Bug report",
        "## Steps to reproduce (extracted)",
        "## Current screen",
        "## Learned app knowledge",
    ]
    assert "NotesActivity" in prompt


def test_prompt_section_content_order():
    prompt = build_replay_prompt(replay_prompt_head("THE REPORT", SCRIPT), "Screen: SettingsActivity")
    assert (
        prompt.index("THE REPORT")
        < prompt.index("[Input] [server URL] [xxyyzz]")
        < prompt.index("Screen: SettingsActivity")
    )


def test_prompt_includes_feedback_line():
    prompt = build_replay_prompt(replay_prompt_head("r", SCRIPT), "Screen: X", feedback="The action failed.")
    assert "Previous action feedback: The action failed." in prompt


def test_prompt_golden_bytes():
    prompt = build_replay_prompt(replay_prompt_head("THE REPORT", SCRIPT), "Screen: SettingsActivity")
    from conftest import data_path

    golden = data_path("golden_replay_prompt.txt").read_text(encoding="utf-8")
    assert prompt == golden


def test_prompt_deterministic():
    knowledge = knowledge_fixture()
    a = build_replay_prompt(replay_prompt_head("r", SCRIPT), "Screen: X", knowledge=knowledge)
    b = build_replay_prompt(replay_prompt_head("r", SCRIPT), "Screen: X", knowledge=knowledge)
    assert a == b


# -- run ------------------------------------------------------------------------


def test_run_reproduces_url_crash_in_three_commands():
    report, gold, device, gateway, _ = load_scenario("url_crash")
    result = run(report, gold, device, gateway, 10.0)
    assert result.outcome == Outcome.REPRODUCED
    assert result.crash is not None
    assert result.steps_executed <= 3
    assert result.trace_records[-1]["statuses"][-1]["crash"] is not None


def test_run_zero_budget_executes_nothing():
    report, gold, device, gateway, _ = load_scenario("url_crash")
    result = run(report, gold, device, gateway, 0.0)
    assert result.outcome == Outcome.BUDGET_EXHAUSTED
    assert result.steps_executed == 0


def test_run_hidden_about_requires_exploration():
    report, gold, device, gateway, _ = load_scenario("hidden_about")
    with_explore = run(report, gold, device, gateway, 10.0, explore_enabled=True)
    assert with_explore.outcome == Outcome.REPRODUCED

    report, gold, device, gateway, _ = load_scenario("hidden_about")
    without = run(
        report, gold, device, gateway, 10.0, explore_enabled=False, max_iterations=8
    )
    assert without.outcome == Outcome.BUDGET_EXHAUSTED
    assert without.crash is None


def test_run_traces_identical_across_runs():
    first = run(*load_scenario("hidden_about")[:4], 10.0)
    second = run(*load_scenario("hidden_about")[:4], 10.0)
    assert first.trace_text() == second.trace_text()
    assert first.trace_text()  # non-empty


def test_run_exploration_happens_once_per_state():
    report, gold, device, gateway, _ = load_scenario("hidden_about")
    result = run(report, gold, device, gateway, 10.0)
    explored = [rec for rec in result.trace_records if rec["explored"]]
    assert len(explored) == 1


def test_run_llm_time_matches_exchange_latencies():
    report, gold, device, gateway, _ = load_scenario("checkout")
    result = run(report, gold, device, gateway, 10.0)
    assert result.llm_time == pytest.approx(sum(e.latency for e in gateway.exchanges))


def test_run_checkout_orders_screens():
    report, gold, device, gateway, _ = load_scenario("checkout")
    result = run(report, gold, device, gateway, 10.0)
    assert result.outcome == Outcome.REPRODUCED
    activities = [rec["activity"] for rec in result.trace_records]
    assert activities == ["CartActivity", "ShippingActivity", "PaymentActivity"]


def test_run_two_consecutive_no_actionable_terminates():
    report, gold, device, _, _ = load_scenario("url_crash")
    gateway = MockGateway.from_script(
        [{"response": "I cannot help with that.", "times": None}]
    )
    result = run(report, gold, device, gateway, 10.0, explore_enabled=False)
    assert result.outcome == Outcome.NO_ACTIONABLE_OUTPUT
    assert result.steps_executed == 0


def test_run_batch_stops_at_first_failure():
    report, gold, device, _, _ = load_scenario("url_crash")
    gateway = MockGateway.from_script(
        [
            {
                "response": json.dumps(
                    [
                        {"action": "click", "feature": "Nonexistent"},
                        {"action": "click", "feature": "OK"},
                    ]
                ),
                "times": 1,
            },
            {"response": "done", "times": None},
        ]
    )
    result = run(report, gold, device, gateway, 10.0, explore_enabled=False, max_iterations=2)
    first_iteration = result.trace_records[0]
    assert len(first_iteration["commands"]) == 2
    assert len(first_iteration["statuses"]) == 1  # second command discarded
    assert not first_iteration["statuses"][0]["ok"]


def test_run_stalling_mock_terminates_within_budget_slack():
    report, gold, device, _, _ = load_scenario("url_crash")
    gateway = MockGateway.from_script(
        [{"response": '[{"action": "click", "feature": "Nonexistent"}]', "times": None}]
    )
    budget = 1.5
    start = time.monotonic()
    result = run(report, gold, device, gateway, budget, explore_enabled=False)
    elapsed = time.monotonic() - start
    assert result.outcome == Outcome.BUDGET_EXHAUSTED
    assert elapsed < budget + 2.0
    assert result.elapsed <= budget + 2.0


def test_run_reproduced_iff_crash_present():
    for name, expected in (("url_crash", True), ("checkout", True)):
        report, gold, device, gateway, _ = load_scenario(name)
        result = run(report, gold, device, gateway, 10.0)
        assert (result.outcome == Outcome.REPRODUCED) == (result.crash is not None) == expected


def test_run_device_failure_surfaces_as_outcome():
    from crashreplay.device import Device, DeviceUnavailable

    class DeadDevice(Device):
        app_id = "dead"

        def capture_state(self):
            raise DeviceUnavailable("transport gone")

    report, gold, _, gateway, _ = load_scenario("url_crash")
    result = run(report, gold, DeadDevice(), gateway, 10.0)
    assert result.outcome == Outcome.DEVICE_FAILURE
    assert result.steps_executed == 0


def test_run_recovers_from_prose_reply_via_repair():
    report, gold, device, _, _ = load_scenario("url_crash")
    gateway = MockGateway.from_script(
        [
            {"response": "Sure! First I will update the server URL.", "times": 1},
            {
                "when": "Screen: SettingsActivity",
                "response": '[{"action": "set_text", "feature": "https://librenews.io/api",'
                ' "input_text": "xxyyzz"}, {"action": "click", "feature": "OK"}]',
            },
            {"when": "Screen: MainFlashActivity", "response": '[{"action": "click", "feature": "REFRESH"}]'},
        ]
    )
    result = run(report, gold, device, gateway, 10.0)
    assert result.outcome == Outcome.REPRODUCED
    # first iteration needed the one repair round-trip: two raw responses
    assert len(result.trace_records[0]["responses"]) == 2


def test_run_device_failure_during_exploration():
    from crashreplay.device import DeviceUnavailable
    from crashreplay.simulator import SimulatorDevice, load_spec

    class FlakySim(SimulatorDevice):
        """Healthy until restarted, as a dead emulator would be."""

        def restart_app(self):
            raise DeviceUnavailable("emulator went away")

    scen_report, gold, _, gateway, _ = load_scenario("hidden_about")
    device = FlakySim(load_spec(APPS / "hidden_about.json"))
    result = run(scen_report, gold, device, gateway, 10.0, explore_enabled=True)
    assert result.outcome == Outcome.DEVICE_FAILURE


def test_run_uses_utg_cache(tmp_path):
    report, gold, device, gateway, _ = load_scenario("hidden_about")
    first = run(report, gold, device, gateway, 10.0, utg_cache_dir=tmp_path)
    assert first.outcome == Outcome.REPRODUCED
    cached = list(tmp_path.glob("*.json"))
    assert len(cached) == 1

    # Second run hits the cache: fewer gateway calls (no summarization).
    report, gold, device, gateway, _ = load_scenario("hidden_about")
    second = run(report, gold, device, gateway, 10.0, utg_cache_dir=tmp_path)
    assert second.outcome == Outcome.REPRODUCED
    summary_calls = [e for e in gateway.exchanges if "Summarize" in e.prompt]
    assert summary_calls == []
    assert second.trace_text() == first.trace_text()  # the same prompts, byte for byte


def test_run_keeps_a_utg_cache_file_inside_the_cache_directory_whatever_the_app_id(tmp_path):
    report, gold, device, gateway, _ = load_scenario("hidden_about")
    device.session.spec = dataclasses.replace(device.session.spec, app_id="../escaped")
    cache = tmp_path / "cache"
    cache.mkdir()
    assert run(report, gold, device, gateway, 10.0, utg_cache_dir=cache).outcome == Outcome.REPRODUCED
    assert list(tmp_path.glob("*.json")) == []
    (cached,) = cache.iterdir()
    assert cached.name.startswith("..%2Fescaped__") and cached.suffix == ".json"


#: Functionality-entry fields of cache records in earlier graph-and-tables formats.
EARLIER_ENTRY_FIELDS = {
    "old path format": {"ui_states": ["o"], "ui_elements": []},  # the path as states via elements
    "graph format": {"destination": None},
    "list destination": {"destination": ["o"]},
}


def write_earlier_record(path, entry_fields: dict) -> None:
    """A cache record as earlier versions wrote it: a one-page graph, one
    functionality entry and one screen description."""
    entry = {"element": "About", "synthesized_functionality": "Opens a page.", **entry_fields}
    page = {"activity": "MainActivity", "root": {"id": "root", "class": "FrameLayout"}}
    graph = {"origin": "o", "nodes": {"o": page}, "edges": []}
    path.write_text(json.dumps({"graph": graph, "functionality": [entry], "ui_functions": {"o": "A page."}}))


@pytest.mark.parametrize(
    "how",
    ["{corrupt", "{}", '{"knowledge": ["x"]}', *EARLIER_ENTRY_FIELDS, pytest.param(DEEP_JSON, id="nested too deeply"),
     pytest.param('{"knowledge": "x\\ud800"}', id="lone surrogate")],
)
def test_run_treats_an_unreadable_utg_cache_file_as_a_miss(tmp_path, how):
    report, gold, device, gateway, _ = load_scenario("hidden_about")
    first = run(report, gold, device, gateway, 10.0, utg_cache_dir=tmp_path)
    (cached,) = tmp_path.glob("*.json")
    built = cached.read_bytes()
    if how in EARLIER_ENTRY_FIELDS:
        write_earlier_record(cached, EARLIER_ENTRY_FIELDS[how])
    else:
        cached.write_text(how)

    report, gold, device, gateway, _ = load_scenario("hidden_about")
    second = run(report, gold, device, gateway, 10.0, utg_cache_dir=tmp_path)
    assert second.trace_text() == first.trace_text()
    assert cached.read_bytes() == built  # rebuilt and overwritten


def test_run_skips_a_utg_cache_file_that_cannot_be_written(tmp_path):
    report, gold, device, gateway, _ = load_scenario("hidden_about")
    uncached = run(report, gold, device, gateway, 10.0)
    report, gold, device, gateway, _ = load_scenario("hidden_about")
    run(report, gold, device, gateway, 10.0, utg_cache_dir=tmp_path)
    (cached,) = tmp_path.glob("*.json")
    cached.unlink()
    cached.mkdir()  # a directory where the file goes

    report, gold, device, gateway, _ = load_scenario("hidden_about")
    result = run(report, gold, device, gateway, 10.0, utg_cache_dir=tmp_path)
    assert result.outcome == Outcome.REPRODUCED
    assert result.trace_text() == uncached.trace_text()
    assert cached.is_dir() and list(tmp_path.iterdir()) == [cached]


@pytest.mark.parametrize(
    "setting", [{"explore_depth": 2}, {"explore_action_budget": 39}, {"model_name": "another-model"}]
)
def test_utg_cache_is_never_served_under_other_exploration_settings(tmp_path, setting):
    report, gold, device, gateway, _ = load_scenario("hidden_about")
    run(report, gold, device, gateway, 10.0, utg_cache_dir=tmp_path)

    report, gold, device, gateway, _ = load_scenario("hidden_about")
    options = dict(setting)
    gateway.config.model_name = options.pop("model_name", gateway.config.model_name)
    run(report, gold, device, gateway, 10.0, utg_cache_dir=tmp_path, **options)
    assert len(list(tmp_path.glob("*.json"))) == 2
    assert any("Summarize" in e.prompt for e in gateway.exchanges)  # explored afresh


@pytest.mark.parametrize(
    "changed", ["state_summary.txt", "functionality_summary.txt", "EXPLORE_FILL_TEXT", "__version__"]
)
def test_utg_cache_is_never_served_under_another_template_fill_text_or_version(tmp_path, monkeypatch, changed):
    from crashreplay import replay

    report, gold, device, gateway, _ = load_scenario("hidden_about")
    run(report, gold, device, gateway, 10.0, utg_cache_dir=tmp_path)

    if changed.endswith(".txt"):
        original = replay.load_template
        monkeypatch.setattr(replay, "load_template", lambda name: original(name) + ("\nv2" if name == changed else ""))
    else:
        monkeypatch.setattr(replay, changed, "another")
    report, gold, device, gateway, _ = load_scenario("hidden_about")
    run(report, gold, device, gateway, 10.0, utg_cache_dir=tmp_path)
    assert len(list(tmp_path.glob("*.json"))) == 2
    assert any("Summarize" in e.prompt for e in gateway.exchanges)  # explored afresh


def test_run_without_a_utg_cache_reads_no_summary_template(monkeypatch):
    from crashreplay import replay

    read = []
    original = replay.load_template
    monkeypatch.setattr(replay, "load_template", lambda name: read.append(name) or original(name))
    report, gold, device, gateway, _ = load_scenario("hidden_about")
    assert run(report, gold, device, gateway, 10.0).outcome == Outcome.REPRODUCED
    assert not [name for name in read if "summary" in name]


@pytest.mark.parametrize("action_budget", [1, 3, 5])
def test_run_restores_the_page_after_a_truncated_exploration(monkeypatch, action_budget):
    from crashreplay import replay

    graphs = []

    def recording_explore(*args, **kwargs):
        graphs.append(explore(*args, **kwargs))
        return graphs[-1]

    monkeypatch.setattr(replay, "explore", recording_explore)
    report, gold, device, gateway, _ = load_scenario("hidden_about")
    result = run(
        report, gold, device, gateway, 10.0,
        explore_depth=2, explore_action_budget=action_budget, max_iterations=12,
    )
    (graph,) = graphs
    assert graph.truncated
    records = result.trace_records
    explored = next(i for i, rec in enumerate(records) if rec["explored"])
    assert records[explored + 1]["state"] == graph.origin


class RecordingSim(SimulatorDevice):
    """Records when each command starts and sleeps ``delay`` per command; with
    ``outlast_deadline``, a restart issued once an exploration has started sleeps
    until past the run's deadline."""

    def __init__(self, spec, delay: float, outlast_deadline: bool = False):
        super().__init__(spec)
        self.delay = delay
        self.outlast_deadline = outlast_deadline
        self.started: list[tuple[str, float]] = []
        self.deadline: float | None = None

    def execute(self, cmd):
        self.started.append((cmd.action, time.monotonic()))
        time.sleep(self.delay)
        return super().execute(cmd)

    def restart_app(self):
        self.started.append(("restart", time.monotonic()))
        time.sleep(self.delay)
        if self.outlast_deadline and self.deadline is not None:
            time.sleep(max(0.0, self.deadline - time.monotonic()) + 0.01)
        return super().restart_app()


def deadline_recording_explore(monkeypatch, device: RecordingSim, **overrides) -> None:
    """Let ``replay.run``'s explorations hand their deadline to ``device`` as they start."""
    from crashreplay import replay

    def recording_explore(dev, **kwargs):
        device.deadline = kwargs["deadline"]
        return explore(dev, **{**kwargs, **overrides})

    monkeypatch.setattr(replay, "explore", recording_explore)


def test_run_on_a_slow_device_stops_exploring_at_the_deadline(tmp_path, monkeypatch):
    report, gold, _, gateway, _ = load_scenario("hidden_about")
    device = RecordingSim(load_spec(APPS / "hidden_about.json"), delay=0.05)
    deadline_recording_explore(monkeypatch, device)
    # Two commands reach the stuck page; the deadline falls inside the first probe, which leaves the page.
    budget = 2.5 * device.delay
    result = run(report, gold, device, gateway, budget, utg_cache_dir=tmp_path)
    assert result.outcome == Outcome.BUDGET_EXHAUSTED
    assert result.trace_records[-1]["explored"]
    # Only the command running at the deadline overruns it: no restore starts after it.
    assert [action for action, started in device.started if started >= device.deadline] == []
    assert result.elapsed <= budget + device.delay + device.delay / 2
    assert list(tmp_path.iterdir()) == []  # knowledge cut short is not cached


def test_restore_after_a_cut_exploration_stops_replaying_the_path_at_the_deadline(monkeypatch):
    # Tools is reached by one click; a feature missing there twice makes the loop explore it.
    gateway = MockGateway.from_script([
        {"when": 'text="About"', "response": '[{"action": "click", "feature": "Settings"}]', "times": None},
        {"response": '[{"action": "click", "feature": "Tools"}]', "times": None},
    ])
    report, gold, _, _, _ = load_scenario("hidden_about")
    device = RecordingSim(load_spec(APPS / "hidden_about.json"), delay=0.0, outlast_deadline=True)
    # The third probe crashes the app, so exploration's only restart is its return to the page.
    deadline_recording_explore(monkeypatch, device)
    result = run(report, gold, device, gateway, 0.5)
    assert result.outcome == Outcome.BUDGET_EXHAUSTED
    assert result.trace_records[-1]["explored"]
    # The return's restart starts before the deadline and outlasts it; the path's click is not sent.
    assert device.started[-1][0] == "restart"
    assert [action for action, started in device.started if started >= device.deadline] == []


def test_run_recovers_when_a_cut_exploration_leaves_the_app_crashed_on_the_page(monkeypatch):
    from crashreplay import replay

    graphs, explored = [], []

    def counted_explore(device, *args, **kwargs):
        """explore, with the device commands it issues logged in ``explored``."""
        device.execute = lambda cmd: explored.append(cmd) or type(device).execute(device, cmd)
        device.restart_app = lambda: explored.append("restart") or type(device).restart_app(device)
        try:
            graphs.append(explore(device, *args, **kwargs))
        finally:
            del device.execute, device.restart_app
        return graphs[-1]

    monkeypatch.setattr(replay, "explore", counted_explore)
    # Tools is reached by one click; a feature missing there twice makes the loop explore it.
    gateway = MockGateway.from_script([
        {"when": "Learned app knowledge", "response": '[{"action": "click", "feature": "About"}]', "times": None},
        {"when": 'text="About"', "response": '[{"action": "click", "feature": "Settings"}]', "times": None},
        {"response": '[{"action": "click", "feature": "Tools"}]', "times": None},
    ])
    report, gold, device, _, _ = load_scenario("hidden_about")
    # The third probe clicks About and crashes the app; the return to the page, restart and path, is not charged
    # to the three-command budget.
    result = run(report, gold, device, gateway, 10.0, explore_action_budget=3, max_iterations=8)
    (graph,) = graphs
    assert not graph.truncated and explored[3:] == ["restart", ActionCommand(action="click", feature="Tools")]
    assert result.outcome == Outcome.REPRODUCED
    assert all(len(rec["statuses"]) == len(rec["commands"]) for rec in result.trace_records)


def test_a_model_restart_after_a_move_relaunches_through_restart_app_and_empties_the_restore_path(monkeypatch):
    from crashreplay import replay

    origins = []

    def recording_explore(device, **kwargs):
        origins.append(kwargs["origin_path"])
        return explore(device, **kwargs)

    monkeypatch.setattr(replay, "explore", recording_explore)
    report, gold, device, _, _ = load_scenario("hidden_about")
    launch = device.capture_state().state_id
    sent = []  # each executed command's verb, and "restart_app" for every restart
    device.execute = lambda cmd: sent.append(cmd.action) or SimulatorDevice.execute(device, cmd)
    device.restart_app = lambda: sent.append("restart_app") or SimulatorDevice.restart_app(device)
    # Each reply moves to Tools and restarts, so the second ends on the launch screen revisited, which is explored.
    gateway = MockGateway.from_script([{"response": '[{"action": "click", "feature": "Tools"}, {"action": "restart"}]'}])
    result = run(report, gold, device, gateway, 10.0, max_iterations=2)
    first, second = result.trace_records
    assert first["statuses"][0]["new_state"] != launch
    assert first["statuses"][1] == {"ok": True, "detail": "app restarted", "new_state": launch, "crash": None}
    assert second["state"] == launch
    assert sent[:4] == ["click", "restart_app", "click", "restart_app"]
    assert second["explored"] and origins == [()]


def test_each_record_hashes_the_action_prompt_of_its_iteration():
    # hidden_about explores, so later prompts carry knowledge; executed commands add feedback; a first reply in
    # prose makes the gateway send a repair prompt, which the record must not hash.
    report, gold, device, scripted, _ = load_scenario("hidden_about")
    prompts: list[str] = []

    class RecordingGateway(MockGateway):
        def request_actions(self, prompt, deadline=None):
            prompts.append(prompt)
            return super().request_actions(prompt, deadline)

    gateway = RecordingGateway([MockEntry(response="I would tap Tools.", times=1), *scripted.entries])
    result = run(report, gold, device, gateway, 10.0, max_iterations=12)
    assert result.outcome == Outcome.REPRODUCED
    assert any(ex.prompt.startswith(prompts[0]) and ex.prompt != prompts[0] for ex in gateway.exchanges)
    assert any("## Learned app knowledge" in p for p in prompts)
    assert any("Previous action feedback" in p for p in prompts)
    assert len(prompts) == len(result.trace_records)
    for prompt, record in zip(prompts, result.trace_records):
        assert record["prompt_sha256"] == hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def test_summary_hashes_the_trace_text_encoded_once(monkeypatch):
    from crashreplay import replay

    report, gold, device, gateway, _ = load_scenario("url_crash")
    result = run(report, gold, device, gateway, 10.0, explore_enabled=False)
    encoded = []
    encode_json = replay.encode_json
    monkeypatch.setattr(replay, "encode_json", lambda value: encoded.append(1) or encode_json(value))
    text = result.trace_text()
    summary = result.summary_dict()
    assert summary["trace_sha256"] == hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert len(encoded) == len(result.trace_records) > 0


def test_run_survives_a_reply_nested_too_deep_to_decode():
    report, gold, device, _, _ = load_scenario("url_crash")
    nested = "[" + '{"action": ' * 1500 + "1" + "}" * 1500 + "]"
    gateway = MockGateway.from_script([{"response": nested, "times": None}])
    result = run(report, gold, device, gateway, 10.0, explore_enabled=False)
    assert result.outcome == Outcome.NO_ACTIONABLE_OUTPUT
    assert [json.loads(line)["no_actionable"] for line in result.trace_text().splitlines()] == [True, True]


def test_run_survives_a_reply_holding_a_lone_surrogate():
    report, gold, device, _, _ = load_scenario("url_crash")
    gateway = MockGateway.from_script([{"response": '[{"action": "click", "feature": "x\ud800"}]', "times": None}])
    result = run(report, gold, device, gateway, 10.0, explore_enabled=False)
    assert result.outcome == Outcome.NO_ACTIONABLE_OUTPUT
    assert [(rec["responses"], rec["no_actionable"]) for rec in result.trace_records] == [([], True), ([], True)]
    text = result.trace_text().encode("utf-8")
    assert result.summary_dict()["trace_sha256"] == hashlib.sha256(text).hexdigest()


def test_run_survives_a_reply_with_an_empty_feature():
    # Resolution refuses an empty feature, so the reply must count as malformed before any device sees it.
    report, gold, device, _, _ = load_scenario("url_crash")
    gateway = MockGateway.from_script([{"response": '[{"action": "back", "feature": ""}]', "times": None}])
    result = run(report, gold, device, gateway, 10.0, explore_enabled=False)
    assert result.outcome == Outcome.NO_ACTIONABLE_OUTPUT
    assert [(rec["commands"], rec["no_actionable"]) for rec in result.trace_records] == [([], True), ([], True)]


def test_run_builds_the_prompt_head_once(monkeypatch):
    from crashreplay import replay

    loaded = []
    load_template = replay.load_template
    monkeypatch.setattr(replay, "load_template", lambda name: loaded.append(name) or load_template(name))
    report, gold, device, gateway, _ = load_scenario("hidden_about")
    result = run(report, gold, device, gateway, 10.0)
    assert result.iterations > 1
    assert loaded == ["replay_instructions.txt"]
