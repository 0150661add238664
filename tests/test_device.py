from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from crashreplay import adb_bridge
from crashreplay.adb_bridge import MAX_DUMP_DEPTH, AdbDevice, parse_crash_from_logcat, parse_hierarchy_xml
from crashreplay.device import (
    Bounds,
    NoMatchError,
    UiElement,
    UiState,
    encode_state_text,
    feature_for_element,
    interactable_elements,
    resolve_feature,
)
from crashreplay.gateway import ActionCommand, MockGateway, parse_action_sequence
from crashreplay.grammar import S2RScript
from crashreplay.replay import Outcome, run
from conftest import data_path


def button(eid, text=None, desc=None, rid=None, bounds=(0, 0, 100, 100), **flags):
    return UiElement(
        element_id=eid,
        class_name="android.widget.Button",
        text=text,
        content_desc=desc,
        resource_id=rid,
        bounds=Bounds(*bounds),
        **flags,
    )


def screen(*children, activity="MainActivity"):
    root = UiElement(
        element_id="root", class_name="FrameLayout", bounds=Bounds(0, 0, 1080, 1920), children=children
    )
    return UiState(activity_name=activity, root=root)


# -- fingerprints ---------------------------------------------------------------


def test_fingerprint_stable_for_identical_screens():
    a = screen(button("b1", text="OK"), button("b2", text="CANCEL", bounds=(0, 200, 100, 300)))
    b = screen(button("b1", text="OK"), button("b2", text="CANCEL", bounds=(0, 200, 100, 300)))
    assert a.state_id == b.state_id


def test_fingerprint_invariant_under_sibling_permutation():
    first = button("b1", text="OK", bounds=(0, 0, 100, 100))
    second = button("b2", text="CANCEL", bounds=(0, 200, 100, 300))
    assert screen(first, second).state_id == screen(second, first).state_id


def test_fingerprint_changes_with_text():
    a = screen(button("b1", text="OK"))
    b = screen(button("b1", text="OK!"))
    assert a.state_id != b.state_id


def test_fingerprint_changes_with_activity():
    a = screen(button("b1", text="OK"), activity="A")
    b = screen(button("b1", text="OK"), activity="B")
    assert a.state_id != b.state_id


# -- encoding ---------------------------------------------------------------------


def test_encode_contains_text_and_flags():
    state = screen(button("b1", text="GO TO LIBRENEWS", clickable=True))
    encoded = encode_state_text(state)
    lines = encoded.splitlines()
    assert lines[0] == "Screen: MainActivity"
    assert lines[1] == '[0] Button text="GO TO LIBRENEWS" clickable'


def test_encode_empty_root_is_header_only():
    state = screen()
    assert encode_state_text(state) == "Screen: MainActivity"


def test_encode_matches_golden(hidden_about_device):
    hidden_about_device.session.current = "tools"
    encoded = encode_state_text(hidden_about_device.capture_state())
    assert encoded == data_path("golden_tools_screen.txt").read_text(encoding="utf-8")


def test_encode_indents_children():
    child = button("c", text="inner", bounds=(10, 10, 50, 50))
    parent = UiElement(
        element_id="p",
        class_name="LinearLayout",
        bounds=Bounds(0, 0, 100, 100),
        children=(child,),
    )
    encoded = encode_state_text(screen(parent))
    assert "\n[0] LinearLayout\n  [1] Button" in encoded


# -- resolution ---------------------------------------------------------------------


def cascade_screen():
    return screen(
        button("refresh", text="REFRESH", bounds=(0, 0, 100, 100), clickable=True),
        button("info", desc="About the app", bounds=(0, 200, 100, 300), clickable=True),
        button("save", rid="org.app:id/save_button", bounds=(0, 400, 100, 500), clickable=True),
        button("hint", text="tap refresh twice", bounds=(0, 600, 100, 700)),
    )


def test_resolve_tier1_exact_text():
    assert resolve_feature(cascade_screen(), "REFRESH").element_id == "refresh"


def test_resolve_tier2_exact_description():
    assert resolve_feature(cascade_screen(), "About the app").element_id == "info"


def test_resolve_tier3_resource_id_suffix():
    assert resolve_feature(cascade_screen(), "save_button").element_id == "save"


def test_resolve_tier4_case_insensitive_text():
    assert resolve_feature(cascade_screen(), "refresh").element_id == "refresh"


def test_resolve_tier5_substring():
    assert resolve_feature(cascade_screen(), "about the").element_id == "info"


def test_resolve_tie_breaks_topmost_then_leftmost():
    state = screen(
        button("low", text="OK", bounds=(0, 500, 100, 600)),
        button("high", text="OK", bounds=(0, 100, 100, 200)),
        button("right", text="OK", bounds=(500, 100, 600, 200)),
    )
    assert resolve_feature(state, "OK").element_id == "high"


def test_resolve_no_match_reports_all_tiers():
    with pytest.raises(NoMatchError) as excinfo:
        resolve_feature(cascade_screen(), "Nonexistent")
    assert str(excinfo.value) == (
        "no element matched feature 'Nonexistent' (no exact text match; no exact description match; "
        "no resource id suffix match; no case-insensitive text match; no substring of text or description match)"
    )


def test_resolve_rejects_empty_feature():
    with pytest.raises(ValueError):
        resolve_feature(cascade_screen(), "")


def scan_cascade(state: UiState, feature: str) -> UiElement:
    """The oracle: the five tier scans over every element, each tier's matches reduced by ``min``."""
    elements = list(state.root.iter_tree())
    folded = feature.lower()
    tiers = (
        lambda e: e.text == feature,  # exact text
        lambda e: e.content_desc == feature,  # exact description
        lambda e: e.resource_id is not None  # resource id suffix
        and (e.resource_id == feature or e.resource_id.endswith("/" + feature)),
        lambda e: (e.text or "").lower() == folded,  # case-insensitive text
        lambda e: folded in (e.text or "").lower() or folded in (e.content_desc or "").lower(),  # substring
    )
    for matches in tiers:
        candidates = [e for e in elements if matches(e)]
        if candidates:
            return min(candidates, key=lambda e: (e.bounds.top, e.bounds.left, e.element_id))
    raise NoMatchError(feature)


# Few values per field, so texts, descriptions, ids and whole (top, left, id) keys repeat.
WORDS = ["Save", "save", "SAVE", "Save file", "file", "OK", "ok", "", "İd"]
RESOURCE_IDS = ["app:id/save", "a/b/save", "save", "a//save", "app:id/", "/save", "b/SAVE", "app:id/ok"]
leaf_elements = st.builds(
    button,
    st.sampled_from(["a", "b"]),
    st.none() | st.sampled_from(WORDS),
    st.none() | st.sampled_from(WORDS),
    st.none() | st.sampled_from(RESOURCE_IDS),
    st.tuples(st.integers(0, 1), st.integers(0, 1), st.just(100), st.just(100)),
)
elements = st.recursive(
    leaf_elements,
    lambda children: st.builds(
        lambda element, kids: dataclasses.replace(element, children=tuple(kids)),
        leaf_elements,
        st.lists(children, max_size=3),
    ),
    max_leaves=8,
)


@st.composite
def screens_and_features(draw):
    state = screen(*draw(st.lists(elements, max_size=4)))
    fields = [s for e in state.root.iter_tree() for s in (e.text, e.content_desc, e.resource_id) if s]
    source = draw(st.sampled_from([*fields, "absent"]))
    shape = draw(st.sampled_from(["as is", "lower", "upper", "substring", "id suffix"]))
    if shape == "lower":
        source = source.lower()
    elif shape == "upper":
        source = source.upper()
    elif shape == "substring":
        start = draw(st.integers(0, len(source) - 1))
        source = source[start:draw(st.integers(start + 1, len(source)))]
    elif shape == "id suffix":
        parts = source.split("/")
        source = "/".join(parts[draw(st.integers(0, len(parts) - 1)):])
    return state, source or "absent"


@given(screens_and_features())
def test_resolve_matches_the_scan_cascade(case):
    state, feature = case
    try:
        expected = scan_cascade(state, feature)
    except NoMatchError as miss:
        with pytest.raises(NoMatchError) as excinfo:
            resolve_feature(state, feature)
        assert str(excinfo.value) == str(miss)
        return
    assert resolve_feature(state, feature) is expected
    assert resolve_feature(state, feature) is expected


def test_interactable_elements_order_and_filter():
    state = cascade_screen()
    names = [e.element_id for e in interactable_elements(state)]
    assert names == ["refresh", "info", "save"]


def test_feature_for_element_prefers_text():
    assert feature_for_element(button("b", text="OK", desc="confirm")) == "OK"
    assert feature_for_element(button("b", desc="confirm")) == "confirm"
    assert feature_for_element(button("b", rid="app:id/go")) == "go"
    assert feature_for_element(button("b", rid="app:id/")) is None
    assert feature_for_element(button("b")) is None


# -- debug-bridge backend -------------------------------------------------------------


def test_hierarchy_parse_element_count_matches_xml():
    xml_text = data_path("hierarchy_dump.xml").read_text(encoding="utf-8")
    root = parse_hierarchy_xml(xml_text)
    parsed_count = sum(1 for _ in root.iter_tree())
    xml_count = len(ET.fromstring(xml_text).findall(".//node"))
    assert parsed_count == xml_count == 9


def test_hierarchy_parse_attributes():
    root = parse_hierarchy_xml(data_path("hierarchy_dump.xml").read_text(encoding="utf-8"))
    elements = list(root.iter_tree())
    refresh = next(e for e in elements if e.text == "REFRESH")
    assert refresh.clickable and not refresh.editable
    assert refresh.resource_id == "io.github.librenews:id/refresh"
    assert refresh.bounds == Bounds(42, 1737, 519, 1857)
    url_field = next(e for e in elements if e.content_desc == "Server URL")
    assert url_field.editable and url_field.long_clickable


def test_logcat_crash_parse():
    log = """E/AndroidRuntime(12345): FATAL EXCEPTION: main
E/AndroidRuntime(12345): Process: io.github.librenews, PID: 12345
E/AndroidRuntime(12345): java.lang.IllegalArgumentException: Expected URL scheme 'http' or 'https'
E/AndroidRuntime(12345):     at okhttp3.HttpUrl.get(HttpUrl.java:917)"""
    crash = parse_crash_from_logcat(log)
    assert crash is not None
    assert crash.exception_type == "java.lang.IllegalArgumentException"
    assert "Expected URL scheme" in crash.message
    assert crash.raised_in_activity == "io.github.librenews"


def test_logcat_without_crash():
    assert parse_crash_from_logcat("W/foo(1): nothing to see\nE/bar(2): minor error") is None


FATAL_LOG = """E/AndroidRuntime(12345): FATAL EXCEPTION: main
E/AndroidRuntime(12345): Process: io.github.librenews, PID: 12345
E/AndroidRuntime(12345): java.lang.IllegalStateException: refresh failed
"""


class FakeRunner:
    """Scripted adb runner: records every command, answers from a table.

    A tap at ``crash_tap`` appends a FATAL block to the log, which keeps it
    until ``logcat -c`` clears the log, as a device's log buffer does.
    """

    def __init__(self, dump_xml: str, crash_tap: tuple[str, str] | None = None):
        self.calls: list[list[str]] = []
        self.dump_xml = dump_xml
        self.crash_tap = crash_tap
        self.log = ""

    def __call__(self, args, timeout):
        self.calls.append(list(args))
        joined = " ".join(args)
        if "exec-out" in joined and "cat" in joined:
            return self.dump_xml
        if "dumpsys activity" in joined:
            return "mResumedActivity: ActivityRecord{x u0 io.github.librenews/.MainFlashActivity t1}"
        if "logcat" in joined:
            if "-c" in args:
                self.log = ""
            return self.log
        if "wm size" in joined:
            return "Physical size: 1080x1920"
        if "tap" in args and tuple(args[-2:]) == self.crash_tap:
            self.log += FATAL_LOG
        return ""


def fake_device(dump_xml: str) -> tuple[AdbDevice, FakeRunner]:
    runner = FakeRunner(dump_xml)
    return AdbDevice("emulator-5554", "io.github.librenews", ".MainFlashActivity", runner=runner), runner


@pytest.fixture
def fake_adb():
    return fake_device(data_path("hierarchy_dump.xml").read_text(encoding="utf-8"))


def test_adb_restart_issues_force_stop_then_launch(fake_adb):
    device, runner = fake_adb
    device.restart_app()
    shell_calls = [" ".join(c) for c in runner.calls]
    stop = next(i for i, c in enumerate(shell_calls) if "am force-stop io.github.librenews" in c)
    start = next(i for i, c in enumerate(shell_calls) if "am start -n" in c)
    assert stop < start


def test_adb_click_taps_element_center(fake_adb):
    device, runner = fake_adb
    status = device.execute(ActionCommand(action="click", feature="REFRESH"))
    assert status.ok
    tap = next(c for c in runner.calls if "tap" in c)
    # REFRESH bounds [42,1737][519,1857] -> center (280, 1797)
    assert tap[-2:] == ["280", "1797"]


def test_adb_set_text_taps_then_types(fake_adb):
    device, runner = fake_adb
    device.execute(ActionCommand(action="set_text", feature="Server URL", input_text="a b"))
    typed = next(c for c in runner.calls if "text" in c and c[-1] != "tap")
    assert typed[-1] == "a%sb"


def test_adb_refuses_set_text_on_an_element_that_is_not_editable_and_sends_no_input(fake_adb):
    # A tap on REFRESH could navigate, so the simulator's refusal is the only answer that leaves the screen.
    device, runner = fake_adb
    status = device.execute(ActionCommand(action="set_text", feature="REFRESH", input_text="x"))
    assert (status.ok, status.detail, status.crash) == (False, "element 'REFRESH' is not editable", None)
    assert not any("input" in call for call in runner.calls)


def test_adb_no_match_leaves_state(fake_adb):
    device, runner = fake_adb
    status = device.execute(ActionCommand(action="click", feature="Nonexistent"))
    assert not status.ok
    assert status.no_match_feature == "Nonexistent"
    assert not any("input" in c for c in runner.calls if "tap" in c)


def test_adb_swipe_uses_screen_fraction(fake_adb):
    device, runner = fake_adb
    device.execute(ActionCommand(action="scroll", direction="down"))
    swipe = next(c for c in runner.calls if "swipe" in c)
    # 60% drag centred on (540, 960): y from 1536 to 384
    assert swipe[-5:] == ["540", "1536", "540", "384", "300"]


def test_adb_long_click_holds_for_the_fixed_press_whatever_duration_the_reply_gives(fake_adb):
    device, runner = fake_adb
    (command,) = parse_action_sequence('[{"action": "long_click", "feature": "REFRESH", "duration": 1000000000}]')
    assert command == ActionCommand(action="long_click", feature="REFRESH")
    device.execute(command)
    swipe = next(c for c in runner.calls if "swipe" in c)
    assert swipe[-5:] == ["280", "1797", "280", "1797", "600"]


def test_adb_rotate_sets_user_rotation(fake_adb):
    device, runner = fake_adb
    device.execute(ActionCommand(action="rotate", direction="landscape"))
    joined = [" ".join(c) for c in runner.calls]
    assert any("settings put system accelerometer_rotation 0" in c for c in joined)
    assert any("settings put system user_rotation 1" in c for c in joined)


def test_adb_reports_each_crash_once():
    # REFRESH crashes the app; Settings is harmless.
    runner = FakeRunner(data_path("hierarchy_dump.xml").read_text(encoding="utf-8"), crash_tap=("280", "1797"))
    device = AdbDevice("emulator-5554", "io.github.librenews", ".MainFlashActivity", runner=runner)
    crashed = device.execute(ActionCommand(action="click", feature="REFRESH"))
    assert crashed.crash is not None
    assert crashed.crash.exception_type == "java.lang.IllegalStateException"
    device.restart_app()
    assert device.execute(ActionCommand(action="click", feature="Settings")).crash is None


# -- settling ---------------------------------------------------------------------


class Clock:
    """Stands in for ``adb_bridge.time``: sleeps and adb invocations advance it."""

    def __init__(self):
        self.now = 0.0
        self.sleeps: list[float] = []

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


def page_xml(label: str, button: str = "Next") -> str:
    return (
        "<?xml version='1.0' encoding='UTF-8' standalone='yes' ?><hierarchy rotation=\"0\">"
        '<node class="android.widget.FrameLayout" package="io.github.librenews" bounds="[0,0][1080,1920]">'
        f'<node class="android.widget.TextView" text="{label}" bounds="[0,0][1080,200]" />'
        f'<node class="android.widget.Button" text="{button}" clickable="true" bounds="[0,1700][1080,1900]" />'
        "</node></hierarchy>"
    )


CRASH_DIALOG = page_xml("LibreNews has stopped", button="Close app")


class ClockRunner(FakeRunner):
    """FakeRunner on a clock.  Each invocation takes ``latency`` seconds; the n-th dump
    after the k-th input event or launch shows ``page(k, n)``.  ``crash_after`` seconds
    after the first input event the app crashes: the log gains a FATAL block and every
    later dump shows the crash dialog."""

    def __init__(self, page, clock: Clock, latency: float = 0.005, crash_after: float | None = None):
        super().__init__(page(0, 1))
        self.page = page
        self.clock = clock
        self.latency = latency
        self.crash_after = crash_after
        self.crash_at: float | None = None
        self.events = 0
        self.dumps_since_event = 0

    def __call__(self, args, timeout):
        self.clock.now += self.latency
        if self.crash_at is not None and self.clock.now >= self.crash_at:
            self.crash_at = None
            self.crash_after = None
            self.log += FATAL_LOG
            self.page = lambda events, n: CRASH_DIALOG
        if "input" in args or "start" in args:
            if self.events == 0 and self.crash_after is not None:
                self.crash_at = self.clock.now + self.crash_after
            self.events += 1
            self.dumps_since_event = 0
        elif "uiautomator" in args:
            self.dumps_since_event += 1
            self.dump_xml = self.page(self.events, self.dumps_since_event)
        return super().__call__(args, timeout)


def label(state: UiState) -> str:
    return state.root.children[0].text


@pytest.fixture
def clock(monkeypatch):
    from crashreplay import adb_bridge

    fake = Clock()
    monkeypatch.setattr(adb_bridge, "time", fake)
    return fake


def clock_adb(page, clock, **runner_options):
    runner = ClockRunner(page, clock, **runner_options)
    return AdbDevice("emulator-5554", "io.github.librenews", ".MainFlashActivity", runner=runner), runner


PAGES = {
    "changes at once": lambda events, n: page_xml(f"page {events}"),
    "still": lambda events, n: page_xml("page 0"),
    "never settles": lambda events, n: page_xml(f"frame {events}.{n}"),
}


@pytest.mark.parametrize("latency", [0.005, 0.6])
@pytest.mark.parametrize("motion", list(PAGES))
def test_adb_command_sleeps_the_settle_interval_then_captures_once(clock, motion, latency):
    from crashreplay.adb_bridge import SETTLE_INTERVAL_S

    device, runner = clock_adb(PAGES[motion], clock, latency=latency)
    started = clock.now
    status = device.execute(ActionCommand(action="click", feature="Next"))
    assert status.ok and status.crash is None
    assert label(status.new_state) == label(UiState("x", parse_hierarchy_xml(PAGES[motion](1, 1))))
    assert clock.sleeps == [SETTLE_INTERVAL_S]
    assert runner.dumps_since_event == 1
    # Capture, tap, settle, capture, log poll: 3 + 1 + 3 + 1 invocations.  That is less than
    # the fixed 0.5 s sleep plus one capture, whatever the screen does.
    assert clock.now - started == pytest.approx(SETTLE_INTERVAL_S + 8 * latency)
    assert clock.now - started < 0.5 + 8 * latency


def test_adb_restart_sleeps_the_settle_interval_then_captures_once(clock):
    from crashreplay.adb_bridge import SETTLE_INTERVAL_S

    device, runner = clock_adb(PAGES["changes at once"], clock)
    state = device.restart_app()
    assert label(state) == "page 1"
    assert clock.sleeps == [SETTLE_INTERVAL_S]
    assert runner.dumps_since_event == 1


def test_adb_reports_a_crash_logged_within_the_settle_interval_on_its_command(clock):
    device, runner = clock_adb(PAGES["changes at once"], clock, crash_after=0.05)
    status = device.execute(ActionCommand(action="click", feature="Next"))
    assert status.crash is not None and status.crash.exception_type == "java.lang.IllegalStateException"
    assert label(status.new_state) == "LibreNews has stopped"


@pytest.mark.parametrize("pause", [0.0, 1.0])
def test_adb_reports_a_crash_logged_after_its_command_on_a_later_one(clock, pause):
    # The log is read SETTLE_INTERVAL_S plus one capture after the tap, so a crash logged
    # 0.3 s after it is not seen by that command.  The next commands report it, once,
    # whether they follow at once or after a pause that leaves the crash dialog on screen.
    device, runner = clock_adb(PAGES["changes at once"], clock, crash_after=0.3)
    first = device.execute(ActionCommand(action="click", feature="Next"))
    assert first.crash is None and label(first.new_state) == "page 1"
    clock.now += pause
    statuses = [device.execute(ActionCommand(action="click", feature="Next")) for _ in range(4)]
    crashes = [status.crash for status in statuses if status.crash is not None]
    assert len(crashes) == 1
    assert crashes[0].exception_type == "java.lang.IllegalStateException"
    assert statuses[0].crash is not None or statuses[1].crash is not None
    if pause:
        assert not statuses[0].ok and statuses[0].no_match_feature == "Next"


# -- typing text ---------------------------------------------------------------------


def typed_word(text: str) -> str:
    """The word AdbDevice hands the runner to type ``text`` into the Server URL field."""
    device, runner = fake_device(data_path("hierarchy_dump.xml").read_text(encoding="utf-8"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(adb_bridge, "time", Clock())
        device.execute(ActionCommand(action="set_text", feature="Server URL", input_text=text))
    (typed,) = [c for c in runner.calls if c[4:6] == ["input", "text"]]
    assert len(typed) == 7  # adb, -s, serial, shell, input, text, the word
    return typed[-1]


SHELL_SPECIALS = " $`'\"\\;&|<>(){}[]*?~#!%=^"


@given(st.text(st.one_of(st.sampled_from(SHELL_SPECIALS), st.characters(min_codepoint=0x20, exclude_characters="\x7f"))))
@example("${HOME}")
@example("$(echo X)")
@example("`id`")
@example("it's")
@example("a;b")
def test_adb_typed_text_reaches_the_device_shell_as_one_literal_word(text):
    # adb joins the shell command's words with spaces and the device's sh runs the line;
    # the local sh stands in for it, and printf for input.
    word = typed_word(text)
    shell = subprocess.run(["/bin/sh", "-c", f"printf %s {word}"], capture_output=True, check=True)
    assert shell.stdout.decode("utf-8") == text.replace(" ", "%s")


def test_a_reply_typing_a_control_character_is_no_actionable_output_and_sends_no_input():
    reply = json.dumps([{"action": "set_text", "feature": "Server URL", "input_text": "a\nb"}])
    device, runner = fake_device(data_path("hierarchy_dump.xml").read_text(encoding="utf-8"))
    gateway = MockGateway.from_script([{"response": reply}])
    result = run("report", S2RScript(steps=()), device, gateway, 10.0, explore_enabled=False)
    assert result.outcome == Outcome.NO_ACTIONABLE_OUTPUT
    assert all(record["no_actionable"] for record in result.trace_records)
    assert not any("input" in call for call in runner.calls)


def test_a_model_restart_is_restart_app_and_dumps_the_hierarchy_once(clock):
    device, runner = fake_device(data_path("hierarchy_dump.xml").read_text(encoding="utf-8"))
    gateway = MockGateway.from_script([{"response": '[{"action": "restart"}]'}])
    result = run("report", S2RScript(steps=()), device, gateway, 10.0, explore_enabled=False, max_iterations=1)
    shell = [call[4:] for call in runner.calls if call[3:4] == ["shell"]]
    (record,) = result.trace_records
    assert record["statuses"] == [{"ok": True, "detail": "app restarted", "new_state": record["state"], "crash": None}]
    # The run's first capture, then the restart: a stop, a launch and one capture of the new screen.
    launches = [words[:2] for words in shell if words[0] in ("uiautomator", "am")]
    assert launches == [["uiautomator", "dump"], ["am", "force-stop"], ["am", "start"], ["uiautomator", "dump"]]


def test_adb_output_that_is_not_utf8_decodes_with_replacement():
    # A native library can log any bytes; one that is not UTF-8 must not escape the run as UnicodeDecodeError.
    program = "import sys; sys.stdout.buffer.write(b'E/x: \\xff\\n')"
    out = adb_bridge._subprocess_runner([sys.executable, "-c", program], 30.0)
    assert out == "E/x: \ufffd\n"


# -- deep hierarchy dumps ---------------------------------------------------------------


def nested_dump(depth: int) -> str:
    """A dump of ``depth`` nested nodes whose innermost one is a clickable Deep button."""
    layout = '<node class="android.widget.FrameLayout" bounds="[0,0][1080,1920]">'
    deepest = '<node class="android.widget.Button" text="Deep" clickable="true" bounds="[0,0][100,100]" />'
    return f"<hierarchy>{layout * (depth - 1)}{deepest}{'</node>' * (depth - 1)}</hierarchy>"


@pytest.mark.parametrize("depth", [MAX_DUMP_DEPTH + 1, 600, 100_000])
def test_a_dump_nested_past_the_bound_is_a_device_failure(clock, depth):
    device, _ = fake_device(nested_dump(depth))
    gateway = MockGateway.from_script([{"response": '[{"action": "click", "feature": "Deep"}]'}])
    result = run("report", S2RScript(steps=()), device, gateway, 10.0, explore_enabled=False)
    assert result.outcome == Outcome.DEVICE_FAILURE
    assert result.iterations == 0


def test_a_dump_nested_to_the_bound_is_captured_encoded_and_resolved(clock):
    device, runner = fake_device(nested_dump(MAX_DUMP_DEPTH))
    gateway = MockGateway.from_script([{"response": '[{"action": "click", "feature": "Deep"}]'}])
    result = run("report", S2RScript(steps=()), device, gateway, 10.0, explore_enabled=False, max_iterations=1)
    assert result.outcome == Outcome.BUDGET_EXHAUSTED
    (record,) = result.trace_records
    assert 'Button text="Deep" clickable' in gateway.exchanges[0].prompt
    assert [status["ok"] for status in record["statuses"]] == [True]
    assert ["input", "tap", "50", "50"] in [call[4:] for call in runner.calls]
