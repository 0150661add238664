"""Real-device backend speaking the Android debug bridge as a subprocess.

Command mapping (see README for the full table): hierarchy via
``uiautomator dump``, taps and swipes via ``input`` events at element bounds,
text via ``input text``, crash detection by scanning the log stream for the
first fatal-exception block since the log was last cleared (at session start
and after each reported crash), settling by one short sleep before the
hierarchy is dumped.  The command runner is injectable so every mapping is
testable without hardware.
"""

from __future__ import annotations

import re
import shlex
import subprocess
import time
import xml.etree.ElementTree as ET
from typing import Callable, Sequence

from .device import (
    Bounds,
    CrashInfo,
    Device,
    DeviceUnavailable,
    ExecStatus,
    NoMatchError,
    UiElement,
    UiState,
    resolve_feature,
)
from .gateway import ActionCommand

Runner = Callable[[Sequence[str], float], str]

_BOUNDS_RE = re.compile(r"\[(-?\d+),(-?\d+)\]\[(-?\d+),(-?\d+)\]")
_FATAL_RE = re.compile(r"FATAL EXCEPTION", re.IGNORECASE)
_EXCEPTION_RE = re.compile(r"^\s*(?:E[/ ].*?:)?\s*([\w.$]+(?:Exception|Error))(?::\s*(.*))?$")

#: Drag fraction and duration for scroll/swipe gestures.
SWIPE_FRACTION = 0.6
SWIPE_DURATION_MS = 300
LONG_PRESS_MS = 600

#: Seconds one adb invocation may take before the device counts as unavailable.
COMMAND_TIMEOUT_S = 30.0

#: Seconds after an input event or a launch before the hierarchy is dumped;
#: ``uiautomator dump`` itself then waits for the UI to go idle.
SETTLE_INTERVAL_S = 0.1

#: Deepest node nesting a hierarchy dump may have; a deeper dump is a bad dump.
MAX_DUMP_DEPTH = 200


def _subprocess_runner(args: Sequence[str], timeout: float) -> str:
    try:
        proc = subprocess.run(  # a non-UTF-8 byte (a native library's log line) decodes to U+FFFD
            list(args), capture_output=True, encoding="utf-8", errors="replace", timeout=timeout, check=False
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise DeviceUnavailable(f"adb call failed: {exc}") from exc
    if proc.returncode != 0:
        raise DeviceUnavailable(f"adb call {' '.join(args)} exited {proc.returncode}: {proc.stderr}")
    return proc.stdout


def parse_hierarchy_xml(xml_text: str) -> UiElement:
    """Parse a uiautomator hierarchy dump into an element tree."""
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise DeviceUnavailable(f"bad hierarchy dump: {exc}") from exc

    counter = [0]

    def build(node: ET.Element, depth: int) -> UiElement:
        if depth > MAX_DUMP_DEPTH:
            raise DeviceUnavailable(f"bad hierarchy dump: nodes nested deeper than {MAX_DUMP_DEPTH}")
        attrs = node.attrib
        match = _BOUNDS_RE.match(attrs.get("bounds", ""))
        bounds = (
            Bounds(*(max(0, int(g)) for g in match.groups())) if match else Bounds(0, 0, 0, 0)
        )
        element_id = f"n{counter[0]}"
        counter[0] += 1
        return UiElement(
            element_id=element_id,
            class_name=attrs.get("class", "node"),
            text=attrs.get("text") or None,
            content_desc=attrs.get("content-desc") or None,
            resource_id=attrs.get("resource-id") or None,
            bounds=bounds,
            clickable=attrs.get("clickable") == "true",
            long_clickable=attrs.get("long-clickable") == "true",
            editable=attrs.get("class", "").endswith(("EditText", "AutoCompleteTextView")),
            scrollable=attrs.get("scrollable") == "true",
            children=tuple(build(child, depth + 1) for child in node if child.tag == "node"),
        )

    nodes = [build(child, 1) for child in root if child.tag == "node"]
    if len(nodes) == 1:
        return nodes[0]
    return UiElement(element_id="window", class_name="hierarchy", children=tuple(nodes))


def parse_crash_from_logcat(log_text: str) -> CrashInfo | None:
    """First fatal-exception block in a logcat excerpt, if any."""
    lines = log_text.splitlines()
    for i, line in enumerate(lines):
        if not _FATAL_RE.search(line):
            continue
        exception_type = "FatalException"
        message = ""
        activity = ""
        for follow in lines[i + 1 : i + 12]:
            match = _EXCEPTION_RE.match(follow.strip())
            if match:
                exception_type = match.group(1)
                message = match.group(2) or ""
                break
        for follow in lines[i : i + 12]:
            if "Process:" in follow:
                activity = follow.split("Process:", 1)[1].split(",")[0].strip()
                break
        return CrashInfo(exception_type=exception_type, message=message, raised_in_activity=activity)
    return None


class AdbDevice(Device):
    """Drives one device or emulator through adb shell commands."""

    def __init__(
        self,
        serial: str,
        package: str,
        launch_activity: str | None = None,
        runner: Runner | None = None,
    ):
        self.serial = serial
        self.package = package
        self.launch_activity = launch_activity
        self._runner = runner or _subprocess_runner
        self._screen: tuple[int, int] | None = None
        self._landscape = False
        self._adb(["logcat", "-c"])

    @property
    def app_id(self) -> str:
        return self.package

    # -- plumbing ------------------------------------------------------------

    def _adb(self, args: Sequence[str]) -> str:
        return self._runner(["adb", "-s", self.serial, *args], COMMAND_TIMEOUT_S)

    def _shell(self, *args: str) -> str:
        return self._adb(["shell", *args])

    def _screen_size(self) -> tuple[int, int]:
        if self._screen is None:
            out = self._shell("wm", "size")
            match = re.search(r"(\d+)x(\d+)", out)
            if not match:
                raise DeviceUnavailable(f"cannot read screen size from {out!r}")
            self._screen = (int(match.group(1)), int(match.group(2)))
        return self._screen

    # -- observation ---------------------------------------------------------

    def capture_state(self) -> UiState:
        self._shell("uiautomator", "dump", "/sdcard/window_dump.xml")
        xml_text = self._adb(["exec-out", "cat", "/sdcard/window_dump.xml"])
        root = parse_hierarchy_xml(xml_text)
        activity = self._current_activity()
        return UiState(activity_name=activity, root=root)

    def _current_activity(self) -> str:
        out = self._shell("dumpsys", "activity", "activities")
        match = re.search(r"mResumedActivity.*?([\w.]+/[\w.$]+)", out)
        if match:
            return match.group(1).split("/")[-1].lstrip(".")
        return "unknown"

    def _poll_crash(self) -> CrashInfo | None:
        """First crash logged since the log was last cleared, if any."""
        out = self._adb(["logcat", "-d", "-v", "brief", "*:E"])
        crash = parse_crash_from_logcat(out)
        if crash is not None:
            # Clear the log so that later commands do not report this crash again.
            self._adb(["logcat", "-c"])
        return crash

    # -- execution -----------------------------------------------------------

    def execute(self, cmd: ActionCommand) -> ExecStatus:
        state = self.capture_state()
        element = None
        if cmd.feature is not None:
            try:
                element = resolve_feature(state, cmd.feature)
            except NoMatchError as exc:
                # A crash logged after the previous command's log poll is reported here.
                crash = self._poll_crash()
                return ExecStatus(
                    ok=False, detail=str(exc), new_state=state, crash=crash, no_match_feature=cmd.feature
                )

        if cmd.action == "click":
            x, y = element.bounds.center()
            self._shell("input", "tap", str(x), str(y))
        elif cmd.action == "double_click":
            x, y = element.bounds.center()
            self._shell("input", "tap", str(x), str(y))
            self._shell("input", "tap", str(x), str(y))
        elif cmd.action == "long_click":
            x, y = element.bounds.center()
            self._shell("input", "swipe", str(x), str(y), str(x), str(y), str(LONG_PRESS_MS))
        elif cmd.action == "set_text":
            if not element.editable:  # the tap that would focus it could navigate, as a tap on a button does
                return ExecStatus(ok=False, detail=f"element {cmd.feature!r} is not editable", new_state=state)
            x, y = element.bounds.center()
            self._shell("input", "tap", str(x), str(y))
            # adb hands the joined line to the device's shell: the text goes as one quoted word.
            self._shell("input", "text", shlex.quote((cmd.input_text or "").replace(" ", "%s")))
        elif cmd.action in ("scroll", "swipe"):
            self._drag(cmd.direction or "down")
        elif cmd.action == "rotate":
            self._rotate(cmd.direction)
        elif cmd.action == "back":
            self._shell("input", "keyevent", "KEYCODE_BACK")
        else:
            return ExecStatus(ok=False, detail=f"unsupported action {cmd.action}", new_state=state)

        time.sleep(SETTLE_INTERVAL_S)
        new_state = self.capture_state()
        crash = self._poll_crash()
        return ExecStatus(
            ok=True,
            detail="executed",
            new_state=new_state,
            crash=crash,
        )

    def _drag(self, direction: str) -> None:
        width, height = self._screen_size()
        cx, cy = width // 2, height // 2
        dx = int(width * SWIPE_FRACTION / 2)
        dy = int(height * SWIPE_FRACTION / 2)
        vectors = {
            "up": (cx, cy - dy, cx, cy + dy),
            "down": (cx, cy + dy, cx, cy - dy),
            "left": (cx + dx, cy, cx - dx, cy),
            "right": (cx - dx, cy, cx + dx, cy),
        }
        x1, y1, x2, y2 = vectors[direction]
        self._shell("input", "swipe", str(x1), str(y1), str(x2), str(y2), str(SWIPE_DURATION_MS))

    def _rotate(self, direction: str | None) -> None:
        if direction == "landscape":
            self._landscape = True
        elif direction == "portrait":
            self._landscape = False
        else:
            self._landscape = not self._landscape
        self._shell("settings", "put", "system", "accelerometer_rotation", "0")
        self._shell("settings", "put", "system", "user_rotation", "1" if self._landscape else "0")

    def restart_app(self) -> UiState:
        self._shell("am", "force-stop", self.package)
        if self.launch_activity:
            self._shell("am", "start", "-n", f"{self.package}/{self.launch_activity}")
        else:
            self._shell(
                "monkey", "-p", self.package, "-c", "android.intent.category.LAUNCHER", "1"
            )
        time.sleep(SETTLE_INTERVAL_S)
        return self.capture_state()
