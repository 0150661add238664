"""Spans for the traced run, recorded from the benchmark's own files.

The tracer wraps each public function of the program where its caller looks
the name up (a module attribute), and the devices and the gateway through
pass-through subclasses.  A span is ``[name, start_ns, end_ns, parent, op]``
kept in memory; spans are written out when the run ends.  A span's self
time is its duration minus that of its direct children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

from crashreplay import adb_bridge, cli, device, evaluator, explorer, gateway, grammar, rag, replay, simulator
from crashreplay.adb_bridge import AdbDevice
from crashreplay.simulator import SimulatorDevice

from standin import StandInModel

SETUP_OP = -1
WARMUP_OP = -2


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = SETUP_OP
        self.paused = 0
        self.counters: dict[str, float] = defaultdict(float)
        self.graphs: list[explorer.UtgGraph] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        """Open a span; while paused, record nothing and return -1."""
        if self.paused:
            return -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self.stack[-1] if self.stack else -1, self.op])
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        if index < 0:
            return
        self.spans[index][2] = time.perf_counter_ns()
        self.stack.pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        if self.op >= 0:
            self.counters[name] += amount

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(index)

        return traced

    def patch_fn(self, owner: object, attr: str, name: str) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary the workloads cross."""
        for owner, attr, name in (
            (cli, "run_extraction", "cli.run_extraction"),
            (cli, "segment_report", "rag.segment"),
            (cli, "retrieve", "rag.retrieve"),
            (rag, "embed", "rag.embed"),
            (rag, "build_index", "rag.build_index"),
            (rag, "save_index", "rag.save_index"),
            (rag, "load_index", "rag.load_index"),
            (grammar, "build_extraction_prompt", "grammar.prompt"),
            (cli, "parse_extraction_response", "grammar.parse"),
            (evaluator, "score_extraction", "evaluator.score"),
            (gateway, "filter_json_payload", "gateway.filter"),
            (gateway, "parse_action_sequence", "gateway.parse"),
            (replay, "encode_state_text", "device.encode"),
            (explorer, "encode_state_text", "device.encode"),
            (simulator, "resolve_feature", "device.resolve"),
            (adb_bridge, "resolve_feature", "device.resolve"),
            (explorer, "resolve_feature", "device.resolve"),
            (simulator, "load_spec", "simulator.load_spec"),
            (simulator.SimSession, "build_state", "simulator.build_state"),
            (replay, "run", "replay.run"),
            (replay, "build_replay_prompt", "replay.prompt"),
            (replay, "load_template", "replay.template"),
            (replay, "detect_stuck", "replay.stuck"),
            (replay, "synthesize_functionality", "explorer.synth_functionality"),
            (replay, "synthesize_ui_functions", "explorer.synth_ui"),
            (explorer.UtgGraph, "out_edges", "explorer.out_edges"),
            (adb_bridge, "parse_hierarchy_xml", "adb.xml_parse"),
            (adb_bridge, "parse_crash_from_logcat", "adb.crash_scan"),
        ):
            self.patch_fn(owner, attr, name)

        tracer = self
        traced_explore = self.wrap("explorer.explore", replay.explore)

        def explore(*args, **kwargs):
            graph = traced_explore(*args, **kwargs)
            tracer.graphs.append(graph)
            tracer.count("explorer.edges", len(graph.edges))
            return graph

        setattr(replay, "explore", explore)
        probe_commands = explorer._probe_commands

        def counted_probes(state):
            probes = probe_commands(state)
            tracer.count("explorer.probes", len(probes))
            return probes

        setattr(explorer, "_probe_commands", counted_probes)

        fingerprint = device.UiState.state_id.fget

        def state_id(state):
            if state._state_id is not None:
                return fingerprint(state)
            index = tracer.begin("device.fingerprint")
            try:
                return fingerprint(state)
            finally:
                tracer.end(index)

        setattr(device.UiState, "state_id", property(state_id))

        class _Time:
            """adb_bridge's view of ``time`` with the settle sleeps traced."""

            def __getattr__(self, name):
                return getattr(time, name)

            sleep = staticmethod(self.wrap("adb.settle", time.sleep))

        setattr(adb_bridge, "time", _Time())

    # -- output ----------------------------------------------------------------

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps({"name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": op}) + "\n")


def traced_classes(tracer: Tracer):
    """Pass-through subclasses of the devices and the model stand-in."""

    class TracedSimulatorDevice(SimulatorDevice):
        execute = tracer.wrap("simulator.step", SimulatorDevice.execute)
        restart_app = tracer.wrap("simulator.restart", SimulatorDevice.restart_app)
        capture_state = tracer.wrap("simulator.capture", SimulatorDevice.capture_state)

    class TracedAdbDevice(AdbDevice):
        execute = tracer.wrap("adb.execute", AdbDevice.execute)
        restart_app = tracer.wrap("adb.restart", AdbDevice.restart_app)
        capture_state = tracer.wrap("adb.capture", AdbDevice.capture_state)
        _poll_crash = tracer.wrap("adb.poll_crash", AdbDevice._poll_crash)

        def _adb(self, args):
            index = tracer.begin("adb.invoke")
            tracer.paused += 1  # the fake's own work is the device side, not the program
            try:
                return super()._adb(args)
            finally:
                tracer.paused -= 1
                tracer.end(index)

    class TracedStandIn(StandInModel):
        def complete(self, prompt, deadline=None):
            index = tracer.begin("gateway.complete")
            try:
                reply = super().complete(prompt, deadline)
            finally:
                tracer.end(index)
            tracer.count("gateway.reply_bytes", len(reply.encode("utf-8")))
            if prompt.endswith(self.repair_suffix):
                tracer.count("gateway.repairs")
            if any(tracer.spans[i][0].startswith("explorer.synth") for i in tracer.stack):
                tracer.count("explorer.summary_prompt_bytes", len(prompt.encode("utf-8")))
            return reply

        _complete_once = tracer.wrap("model", StandInModel._complete_once)

    return TracedSimulatorDevice, TracedAdbDevice, TracedStandIn


class Profile:
    """Self and inclusive times, counts and ancestry over the timed ops' spans."""

    def __init__(self, tracer: Tracer):
        spans = tracer.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, op in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.setup: dict[str, list[float]] = defaultdict(list)
        self.inside: dict[tuple[str, str], int] = defaultdict(int)
        for i, (name, start, end, parent, op) in enumerate(spans):
            seconds = (end - start) / 1e9
            if op == SETUP_OP:
                self.setup[name].append(seconds)
                continue
            if op < 0:
                continue
            self.total[name] += seconds
            self.self_time[name] += seconds - child_ns[i] / 1e9
            self.calls[name] += 1
            ancestor = parent
            seen: set[str] = set()
            while ancestor >= 0:
                outer = spans[ancestor][0]
                if outer not in seen:
                    seen.add(outer)
                    self.inside[(name, outer)] += 1
                ancestor = spans[ancestor][3]

    def per_call_ms(self, name: str, self_only: bool = False) -> float:
        times = self.self_time if self_only else self.total
        return 1e3 * times[name] / self.calls[name] if self.calls[name] else 0.0
