"""The replay feedback loop.

Turns a bug report plus its extracted steps into device actions: capture the
screen, prompt the model, execute what comes back, feed the outcome into the
next prompt.  When the loop detects it is stuck it explores the problem page
once and continues with knowledge-enriched prompts, until crash or budget
exhaustion.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from . import __version__
from .device import (
    AlreadyCrashed,
    CrashInfo,
    Device,
    DeviceUnavailable,
    ExecStatus,
    UiState,
    encode_state_text,
)
from .explorer import (
    EXPLORE_FILL_TEXT,
    ExplorerError,
    explore,
    load_knowledge,
    save_knowledge,
    synthesize_functionality,
    synthesize_ui_functions,
)
from .gateway import (
    ActionCommand,
    BudgetExceeded,
    GatewayError,
    LlmGateway,
    encode_json,
    load_template,
)
from .grammar import S2RScript, format_entity


class Outcome(str, Enum):
    REPRODUCED = "reproduced"
    BUDGET_EXHAUSTED = "budget_exhausted"
    NO_ACTIONABLE_OUTPUT = "no_actionable_output"
    DEVICE_FAILURE = "device_failure"


class StuckReason(str, Enum):
    NO_MATCH_REPEATED = "no_match_repeated"
    STATE_REVISITED = "state_revisited_without_progress"
    LLM_NO_ACTIONABLE = "llm_no_actionable_output"


@dataclass(frozen=True)
class StuckSignal:
    reason: StuckReason
    state: str


#: Thresholds of the stuck heuristics: failures to resolve one feature on one
#: state, visits to a state with nothing new found, and replies without an
#: action on one state.
NO_MATCH_THRESHOLD = 2
REVISIT_THRESHOLD = 3
NO_ACTIONABLE_THRESHOLD = 2


@dataclass
class ReplayResult:
    outcome: Outcome
    crash: CrashInfo | None
    elapsed: float
    llm_time: float
    steps_executed: int
    iterations: int
    trace_records: tuple[dict, ...]

    def summary_dict(self) -> dict:
        """Deterministic summary (wall-clock timing deliberately excluded)."""
        return {
            "outcome": self.outcome.value,
            "crash": self.crash.to_dict() if self.crash else None,
            "steps_executed": self.steps_executed,
            "iterations": self.iterations,
            "llm_time_s": round(self.llm_time, 6),
            "trace_sha256": hashlib.sha256(self.trace_text().encode("utf-8")).hexdigest(),
        }

    def trace_text(self) -> str:
        """The run log: one JSON record per loop iteration, reproducible byte-for-byte."""
        return self._trace_text

    @functools.cached_property
    def _trace_text(self) -> str:
        return "\n".join([*map(encode_json, self.trace_records), ""])


class StuckTracker:
    """The session history as the stuck heuristics read it, updated once per record.

    The first (state, feature) miss pair and the first no-actionable state to
    reach their thresholds stay signalled.  The sequence of visited states,
    with consecutive duplicates collapsed (standing still is not a revisit),
    is kept as each state's visit count and its last two positions, plus the
    position of the last newly seen state.
    """

    def __init__(self) -> None:
        self.no_match: StuckSignal | None = None
        self.no_actionable: StuckSignal | None = None
        self._misses: dict[tuple[str, str], int] = {}
        self._no_actions: dict[str, int] = {}
        self.current: str | None = None
        self.visits: dict[str, tuple[int, int, int]] = {}  # state -> (count, previous, last position)
        self.last_new = -1
        self._length = 0

    def _visit(self, state_id: str) -> None:
        if state_id == self.current:
            return
        count, _, last = self.visits.get(state_id, (0, -1, -1))
        if count == 0:
            self.last_new = self._length
        self.visits[state_id] = (count + 1, last, self._length)
        self.current = state_id
        self._length += 1

    def add(self, state_id: str, status: ExecStatus | None) -> None:
        """Record one command executed on ``state_id``, or (``status`` None) a reply without an action."""
        if status is None:
            if self.no_actionable is None:
                self._no_actions[state_id] = self._no_actions.get(state_id, 0) + 1
                if self._no_actions[state_id] >= NO_ACTIONABLE_THRESHOLD:
                    self.no_actionable = StuckSignal(StuckReason.LLM_NO_ACTIONABLE, state_id)
            return
        if self.no_match is None and status.no_match_feature:
            key = (state_id, status.no_match_feature)
            self._misses[key] = self._misses.get(key, 0) + 1
            if self._misses[key] >= NO_MATCH_THRESHOLD:
                self.no_match = StuckSignal(StuckReason.NO_MATCH_REPEATED, state_id)
        if self.current is None:
            self._visit(state_id)
        self._visit(status.new_state.state_id)


def detect_stuck(tracker: StuckTracker) -> StuckSignal | None:
    """Decide whether the loop is stuck, from the session history alone.

    Signals when (a) the same (state, feature) resolution failure repeats,
    (b) the current state keeps being revisited with nothing new discovered
    since the previous visit, or (c) the model produced no actionable output
    on the same state more than once.
    """
    if tracker.no_match is not None:
        return tracker.no_match
    if tracker.current is not None:
        count, previous, _ = tracker.visits[tracker.current]
        if count >= REVISIT_THRESHOLD and tracker.last_new <= previous:
            return StuckSignal(StuckReason.STATE_REVISITED, tracker.current)
    return tracker.no_actionable


def render_feedback(status: ExecStatus, previous_state_id: str) -> str:
    """One-paragraph execution feedback appended to the next prompt."""
    if status.crash:
        return ""
    command_note = f" ({status.detail})" if status.detail else ""
    if status.ok:
        changed = "changed" if status.new_state.state_id != previous_state_id else "did not change"
        return (
            f"The action executed successfully{command_note}. "
            f"The current screen is {status.new_state.activity_name}. The screen {changed}."
        )
    return f"The action failed: {status.detail}. The screen did not change."


def replay_prompt_head(report: str, script: S2RScript) -> str:
    """The part of every action prompt that is fixed for a run: instructions, report, steps."""
    steps = "\n".join(f"{i}. {format_entity(s.entity)}" for i, s in enumerate(script.steps, start=1))
    sections = [load_template("replay_instructions.txt").strip(), "## Bug report", report.strip()]
    sections += ["## Steps to reproduce (extracted)", steps or "(none extracted)"]
    return "\n\n".join(sections)


def build_replay_prompt(
    head: str,
    encoded_ui: str,
    knowledge: str | None = None,
    feedback: str | None = None,
) -> str:
    """Assemble the action prompt: the run's head (``replay_prompt_head``), the
    screen, and (once exploration has run) the rendered app knowledge."""
    sections = [head, "## Current screen", encoded_ui]
    if knowledge is not None:
        sections.append("## Learned app knowledge")
        sections.append(knowledge)
    if feedback:
        sections.append(f"Previous action feedback: {feedback}")
    return "\n\n".join(sections) + "\n"


def _status_dict(status: ExecStatus) -> dict:
    return {
        "ok": status.ok,
        "detail": status.detail,
        "new_state": status.new_state.state_id,
        "crash": status.crash.to_dict() if status.crash else None,
    }


@dataclass
class _RunState:
    """One run's memory: stuck tracker, append-only trace (one record per iteration), rendered knowledge."""

    gateway: LlmGateway
    started_at: float
    llm_base: float
    history: StuckTracker = field(default_factory=StuckTracker)
    trace_records: list[dict] = field(default_factory=list)
    knowledge: str | None = None
    explored_states: set[str] = field(default_factory=set)
    path_from_start: list[ActionCommand] = field(default_factory=list)
    no_actionable_streak: int = 0

    def result(self, outcome: Outcome, crash: CrashInfo | None = None) -> ReplayResult:
        return ReplayResult(
            outcome=outcome,
            crash=crash,
            elapsed=time.monotonic() - self.started_at,
            llm_time=self.gateway.total_llm_time - self.llm_base,
            steps_executed=sum(len(rec["statuses"]) for rec in self.trace_records),
            iterations=len(self.trace_records),
            trace_records=tuple(self.trace_records),
        )


def run(
    report: str,
    script: S2RScript,
    device: Device,
    gateway: LlmGateway,
    budget: float,
    *,
    explore_enabled: bool = True,
    explore_depth: int = 1,
    explore_action_budget: int = 40,
    max_iterations: int | None = None,
    utg_cache_dir: str | Path | None = None,
) -> ReplayResult:
    """Drive the device until the crash is reproduced or a budget runs out.

    The wall-clock budget is checked before every gateway call and every
    device command; ``max_iterations`` optionally caps loop iterations so a
    run that cannot succeed ends deterministically.  ``utg_cache_dir``, an
    existing directory, caches each explored page's knowledge.
    """
    started_at = time.monotonic()
    deadline = started_at + budget
    loop = _RunState(gateway=gateway, started_at=started_at, llm_base=gateway.total_llm_time)
    if utg_cache_dir is not None:
        # Cached knowledge is reused only under the settings, fill text, templates and package version that built it.
        settings = [explore_depth, explore_action_budget, gateway.config.model_name, EXPLORE_FILL_TEXT, __version__]
        settings += [load_template(name) for name in ("functionality_summary.txt", "state_summary.txt")]
        settings_key = hashlib.sha256(json.dumps(settings).encode("utf-8")).hexdigest()[:16]

    def handle_stuck(record: dict) -> UiState | None:
        """Flag a stuck loop in ``record``; explore a newly stuck page once.

        Returns the screen after exploration, or None when nothing was
        explored.  ``explore`` returns the device to the explored page, as
        far as the deadline allows.
        """
        signal = detect_stuck(loop.history)
        if signal is None:
            return None
        record["stuck"] = signal.reason.value
        if not explore_enabled or signal.state in loop.explored_states:
            return None
        loop.explored_states.add(signal.state)
        cache_path = knowledge = None
        if utg_cache_dir is not None:
            cache_path = Path(utg_cache_dir) / f"{device.app_id}__{signal.state}__{settings_key}.json"
            try:
                knowledge = load_knowledge(cache_path)
            except (OSError, ExplorerError):
                pass  # a missing or unreadable file is a miss, rebuilt and overwritten below
        if knowledge is None:
            graph = explore(
                device,
                depth=explore_depth,
                action_budget=explore_action_budget,
                origin_path=tuple(loop.path_from_start),
                deadline=deadline,
            )
            origin_activity = graph.nodes[graph.origin].activity_name
            knowledge = "\n".join([
                f"Functionality of the elements on the {origin_activity} screen:",
                *synthesize_functionality(graph, gateway, deadline),
                "Screen functions:",
                *synthesize_ui_functions(graph, gateway, deadline),
            ])
            # Knowledge the deadline may have cut short is not served to later runs.
            if cache_path is not None and time.monotonic() < deadline:
                with contextlib.suppress(OSError):  # an unwritable file is skipped, as an unreadable one is a miss
                    save_knowledge(cache_path, knowledge)
        loop.knowledge = knowledge
        record["explored"] = True
        return device.capture_state()

    feedback: str | None = None
    head = replay_prompt_head(report, script)
    head_sha = hashlib.sha256(head.encode("utf-8"))  # every prompt starts with the head, so it is hashed once
    try:
        state = device.capture_state()
        while True:
            iteration = len(loop.trace_records) + 1
            if time.monotonic() >= deadline or (max_iterations is not None and iteration > max_iterations):
                return loop.result(Outcome.BUDGET_EXHAUSTED)
            prompt = build_replay_prompt(head, encode_state_text(state), loop.knowledge, feedback)
            prompt_sha = head_sha.copy()
            prompt_sha.update(prompt[len(head) :].encode("utf-8"))
            record: dict = {
                "iteration": iteration,
                "state": state.state_id,
                "activity": state.activity_name,
                "prompt_sha256": prompt_sha.hexdigest(),
                "responses": [],
                "commands": [],
                "statuses": [],
                "no_actionable": False,
                "stuck": None,
                "explored": False,
            }
            loop.trace_records.append(record)

            exchanges_before = len(gateway.exchanges)
            commands: list[ActionCommand] | None
            try:
                commands = gateway.request_actions(prompt, deadline=deadline)
            except BudgetExceeded:
                return loop.result(Outcome.BUDGET_EXHAUSTED)
            except GatewayError:
                commands = None
            exchanges = gateway.exchanges[exchanges_before:]
            record["responses"] = [ex.raw_response for ex in exchanges]
            record["llm_latency_s"] = round(sum(ex.latency for ex in exchanges), 6)

            if not commands:
                record["no_actionable"] = True
                loop.history.add(state.state_id, None)
                loop.no_actionable_streak += 1
                feedback = "Your previous reply contained no executable JSON action array."
            else:
                loop.no_actionable_streak = 0
                record["commands"] = [cmd.to_dict() for cmd in commands]
                feedback_parts: list[str] = []
                for index, cmd in enumerate(commands):
                    if time.monotonic() >= deadline:
                        return loop.result(Outcome.BUDGET_EXHAUSTED)
                    previous_id = state.state_id
                    restart = cmd.action == "restart"  # restart_app is the one restart; execute takes UI verbs
                    try:
                        status = (ExecStatus(True, "app restarted", device.restart_app()) if restart
                                  else device.execute(cmd))
                    except AlreadyCrashed:
                        break
                    loop.history.add(previous_id, status)
                    record["statuses"].append(_status_dict(status))
                    state = status.new_state
                    if restart:
                        loop.path_from_start = []
                    elif status.ok and state.state_id != previous_id:
                        loop.path_from_start.append(cmd)
                    if status.crash is not None:
                        return loop.result(Outcome.REPRODUCED, status.crash)
                    feedback_parts.append(render_feedback(status, previous_id))
                    if not status.ok:
                        remaining = len(commands) - index - 1
                        if remaining:
                            feedback_parts.append(f"The remaining {remaining} queued actions were discarded.")
                        break
                feedback = " ".join(feedback_parts)

            explored = handle_stuck(record)
            if explored is not None:
                state = explored
                loop.no_actionable_streak = 0
                feedback = None
            elif loop.no_actionable_streak >= 2:
                return loop.result(Outcome.NO_ACTIONABLE_OUTPUT)
    except DeviceUnavailable:
        return loop.result(Outcome.DEVICE_FAILURE)
