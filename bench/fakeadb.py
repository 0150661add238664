"""A stateful fake of the adb command line, backed by a simulator session.

``AdbDevice`` takes an injectable runner; this one answers every invocation
``AdbDevice`` issues from the state of a :class:`SimSession`: hierarchy
dumps render the current page as uiautomator XML, ``input`` events are
hit-tested against element bounds and applied to the session, and once the
session has crashed ``logcat -d`` returns a FATAL EXCEPTION block.  Each
invocation sleeps a fixed latency, the host-side floor of a real invocation.
"""

from __future__ import annotations

import time
from xml.sax.saxutils import quoteattr

from crashreplay.device import AlreadyCrashed, UiElement
from crashreplay.gateway import ActionCommand
from crashreplay.simulator import SimAppSpec, SimSession

#: Fixed cost of one adb invocation, in seconds: the median time of the
#: ``subprocess.run`` call that ``AdbDevice``'s default runner makes, measured
#: on a trivial program (``true``) on the reference machine (0.94-1.03 ms
#: over three rounds of 200).  A real invocation also pays the adb server's
#: round trip and the device's work, which the fake does not model.
INVOCATION_LATENCY_S = 0.001
SCREEN_SIZE = (1080, 1920)
PID = 4242


class FakeAdbError(Exception):
    """The fake received an invocation it does not understand."""


def _unescape(text: str) -> str:
    out = []
    chars = iter(text.replace("%s", " "))
    for c in chars:
        out.append(next(chars, "") if c == "\\" else c)
    return "".join(out)


def _feature(element: UiElement) -> str:
    """A feature the simulator resolves to exactly this element: its resource id."""
    return (element.resource_id or element.text or "").rsplit("/", 1)[-1]


def _node_xml(element: UiElement, index: int, package: str) -> str:
    b = element.bounds
    attrs = {
        "index": str(index),
        "text": element.text or "",
        "resource-id": element.resource_id or "",
        "class": element.class_name,
        "package": package,
        "content-desc": element.content_desc or "",
        "clickable": "true" if element.clickable else "false",
        "scrollable": "true" if element.scrollable else "false",
        "long-clickable": "true" if element.long_clickable else "false",
        "bounds": f"[{b.left},{b.top}][{b.right},{b.bottom}]",
    }
    return "<node " + " ".join(f"{k}={quoteattr(v)}" for k, v in attrs.items())


class FakeAdb:
    """Callable runner with the signature ``AdbDevice`` expects."""

    def __init__(self, spec: SimAppSpec, serial: str):
        self.session = SimSession(spec)
        self.serial = serial
        self.package = spec.app_id
        self.log: list[str] = []
        self.invocations = 0
        self.errors: list[str] = []
        self._dump: str | None = None
        self._focus: UiElement | None = None

    def __call__(self, args, timeout: float) -> str:
        self.invocations += 1
        time.sleep(INVOCATION_LATENCY_S)
        args = list(args)
        if args[:3] != ["adb", "-s", self.serial]:
            return self._unknown(args)
        rest = args[3:]
        if rest[:1] == ["logcat"]:
            return self._logcat(rest[1:], args)
        if rest == ["exec-out", "cat", "/sdcard/window_dump.xml"]:
            if self._dump is None:
                return self._unknown(args)
            return self._dump
        if rest[:1] != ["shell"]:
            return self._unknown(args)
        return self._shell(rest[1:], args)

    def _unknown(self, args: list[str]) -> str:
        self.errors.append(" ".join(args))
        raise FakeAdbError(f"fake adb does not understand: {' '.join(args)}")

    # -- log ----------------------------------------------------------------

    def _logcat(self, rest: list[str], args: list[str]) -> str:
        if rest == ["-c"]:
            self.log.clear()
            return ""
        if rest == ["-d", "-v", "brief", "*:E"]:
            return "".join(line + "\n" for line in self.log)
        return self._unknown(args)

    def _record_crash(self) -> None:
        crash = self.session.crashed
        assert crash is not None
        tag = f"E/AndroidRuntime({PID:5d}): "
        self.log += [
            tag + "FATAL EXCEPTION: main",
            tag + f"Process: {self.package}, PID: {PID}",
            tag + f"{crash.exception_type}: {crash.message}",
            tag + f"\tat {self.package}.{crash.raised_in_activity}.onClick({crash.raised_in_activity}.java:88)",
        ]

    # -- shell --------------------------------------------------------------

    def _shell(self, cmd: list[str], args: list[str]) -> str:
        if cmd == ["uiautomator", "dump", "/sdcard/window_dump.xml"]:
            self._dump = self._hierarchy()
            return "UI hierchary dumped to: /sdcard/window_dump.xml\n"
        if cmd == ["dumpsys", "activity", "activities"]:
            activity = self.session.spec.states[self.session.current].activity
            return f"  mResumedActivity: ActivityRecord{{5e1f u0 {self.package}/.{activity} t7}}\n"
        if cmd == ["wm", "size"]:
            return f"Physical size: {SCREEN_SIZE[0]}x{SCREEN_SIZE[1]}\n"
        if cmd[:3] == ["settings", "put", "system"] and len(cmd) == 5:
            return ""
        if cmd == ["am", "force-stop", self.package]:
            self.session.crashed = None
            self._focus = None
            return ""
        if cmd[:2] == ["am", "start"] and cmd[2:3] == ["-n"] and cmd[3].startswith(self.package + "/"):
            self.session.restart()
            return f"Starting: Intent {{ cmp={cmd[3]} }}\n"
        if cmd[:1] == ["input"]:
            return self._input(cmd[1:], args)
        return self._unknown(args)

    def _hierarchy(self) -> str:
        state = self.session.build_state()
        nodes = [
            _node_xml(e, i, self.package) + " />" for i, e in enumerate(state.root.children)
        ]
        root = _node_xml(state.root, 0, self.package) + ">"
        return (
            "<?xml version='1.0' encoding='UTF-8' standalone='yes' ?>\n"
            '<hierarchy rotation="0">\n  '
            + root
            + "\n    "
            + "\n    ".join(nodes)
            + "\n  </node>\n</hierarchy>\n"
        )

    def _hit(self, x: int, y: int) -> UiElement | None:
        hits = [
            e
            for e in self.session.build_state().root.children
            if e.bounds.left <= x <= e.bounds.right and e.bounds.top <= y <= e.bounds.bottom
        ]
        return hits[-1] if hits else None

    def _apply(self, cmd: ActionCommand) -> None:
        try:
            status = self.session.step(cmd)
        except AlreadyCrashed:
            return  # the app is gone; events land on the crash dialog
        if status.crash is not None:
            self._record_crash()

    def _input(self, cmd: list[str], args: list[str]) -> str:
        if cmd[:1] == ["tap"] and len(cmd) == 3:
            element = self._hit(int(cmd[1]), int(cmd[2]))
            if element is not None:
                self._focus = element if element.editable else None
                self._apply(ActionCommand(action="click", feature=_feature(element)))
            return ""
        if cmd[:1] == ["text"] and len(cmd) == 2:
            if self._focus is not None:
                feature = _feature(self._focus)
                self._apply(ActionCommand(action="set_text", feature=feature, input_text=_unescape(cmd[1])))
            return ""
        if cmd == ["keyevent", "KEYCODE_BACK"]:
            self._apply(ActionCommand(action="back"))
            return ""
        if cmd[:1] == ["swipe"] and len(cmd) == 6:
            x1, y1, x2, y2 = (int(v) for v in cmd[1:5])
            if (x1, y1) == (x2, y2):
                element = self._hit(x1, y1)
                if element is not None:
                    self._apply(ActionCommand(action="long_click", feature=_feature(element)))
                return ""
            if abs(y2 - y1) >= abs(x2 - x1):
                direction = "down" if y2 < y1 else "up"
            else:
                direction = "left" if x2 < x1 else "right"
            self._apply(ActionCommand(action="scroll", direction=direction))
            return ""
        return self._unknown(args)
