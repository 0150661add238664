"""The four workloads: inputs, set-up, one operation, and its output checks.

Each workload is a closed loop: one client, and each operation (op) starts
when the previous one has finished.  ``round`` is the seeded sequence of op
inputs that a run repeats whole.  ``setup`` and ``op`` contain only program
calls, because they are what is timed; ``prepare`` and ``check`` run outside
the timed sections.
"""

from __future__ import annotations

import json
from pathlib import Path

from crashreplay import cli, evaluator, rag, replay, simulator
from crashreplay.adb_bridge import AdbDevice
from crashreplay.grammar import S2RScript

import gen
import oracle
from fakeadb import FakeAdb
from standin import StandInModel

#: Far above any op's time, so a slow host never cuts an op short.
BUDGET_S = 600.0
EXPLORE_DEPTH = 2
#: Large enough that exploring the wide origin page is never truncated.
EXPLORE_ACTIONS = 5000
ADB_SERIAL = "emulator-5554"


def artifacts(result: replay.ReplayResult) -> tuple[str, dict]:
    """The files the CLI writes after a replay: ``trace.jsonl`` and ``result.json``."""
    return result.trace_text(), result.summary_dict()


class Workload:
    name = ""
    setup_reps = 7
    warmup_ops = 1

    def __init__(self, seed: int, workdir: Path, classes):
        self.seed = seed
        self.workdir = workdir
        self.sim_device_cls, self.adb_device_cls, self.model_cls = classes
        self.round: list = []
        self.tracer = None  # set for a traced run

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Drop what ``setup`` built, so each repetition starts from the same heap."""

    def setup_problems(self) -> list[str]:
        """Checks of the set-up's own outputs."""
        return []

    def replay_result(self, output) -> replay.ReplayResult | None:
        return None

    def prepare(self, item) -> StandInModel:
        raise NotImplementedError

    def op(self, item, model: StandInModel):
        raise NotImplementedError

    def check(self, item, model: StandInModel, output) -> list[str]:
        raise NotImplementedError



def _crash_problems(result, planted: gen.PlantedCrash) -> list[str]:
    problems = []
    if result.outcome != replay.Outcome.REPRODUCED:
        problems.append(f"outcome {result.outcome.value}, expected reproduced")
    elif (result.crash.exception_type, result.crash.message) != (planted.exception_type, planted.message):
        problems.append(f"crash {result.crash} is not the planted {planted}")
    return problems


class Extract(Workload):
    """One ``run_extraction`` of a generated report, scored against gold."""

    name = "extract"
    setup_reps = 3
    warmup_ops = 2

    def __init__(self, seed, workdir, classes):
        super().__init__(seed, workdir, classes)
        self.inputs = gen.generate_extract(seed)
        self.corpus_path = workdir / "corpus.jsonl"
        self.index_path = workdir / "index.json"
        gen.write_corpus(self.inputs.corpus, self.corpus_path)
        self.truth = self.inputs.truth
        ranking = oracle.RankingOracle(self.inputs.corpus)
        self.expected: dict[str, tuple[list[str], str]] = {}
        for report in self.inputs.reports:
            hits = []
            for sentence in report.sentences:
                hits += ranking.top_k(sentence.text, gen.RETRIEVAL_K)
            self.expected[report.report_id] = ([h[1] for h in hits], oracle.example_block(hits))
        self.round = [
            (report, S2RScript.from_dict(report.gold_dict())) for report in self.inputs.reports
        ]
        self.index = None

    def setup(self) -> None:
        corpus = rag.load_corpus(self.corpus_path)
        built = rag.build_index(corpus, rag.HashedTrigramProvider())
        rag.save_index(built, self.index_path)
        self.index = rag.load_index(self.index_path)

    def teardown(self) -> None:
        self.index = None

    def setup_problems(self) -> list[str]:
        expected = sum(len(r["sentences"]) for r in self.inputs.corpus)
        if self.index is None or len(self.index) != expected:
            return [f"index holds {len(self.index or ())} records, corpus has {expected} sentences"]
        return []

    def prepare(self, item):
        return self.model_cls(truth=self.truth)

    def op(self, item, model):
        report, gold = item
        script, log = cli.run_extraction(report.text, self.index, model, gen.RETRIEVAL_K)
        return script, log, evaluator.score_extraction(script, gold)

    def check(self, item, model, output) -> list[str]:
        report, _ = item
        script, log, score = output
        problems = []
        if log["sentences"] != [s.text for s in report.sentences]:
            problems.append("segmented sentences differ from the generated ones")
        retrieved, block = self.expected[report.report_id]
        if log["retrieved"] != retrieved or block not in log["prompt"]:
            problems.append("retrieved examples differ from the independent top-k")
        steps = [dict(step) for step in script.to_dict()["steps"]]
        if steps != report.gold_dict()["steps"]:
            problems.append("parsed script differs from the generated labels")
        if any(matched != total for matched, total in score.counts.values()):
            problems.append(f"score is not perfect: {score.counts}")
        return problems


class _Replay(Workload):
    """Shared by the simulator workloads: op = restart + ``replay.run`` + artifacts."""

    app: gen.AppInputs

    def _write_app(self) -> None:
        self.spec_path = self.workdir / f"{self.name}_app.json"
        self.app.write(self.spec_path)
        self.script = S2RScript.from_dict(self.app.script)
        self.round = [self.app]
        self.device = None

    def setup(self) -> None:
        self.device = self.sim_device_cls(simulator.load_spec(self.spec_path))

    def teardown(self) -> None:
        self.device = None

    def prepare(self, item):
        return self.model_cls(plan=self.app.plan)

    replay_options: dict = {}

    def op(self, item, model):
        self.device.restart_app()
        result = replay.run(self.app.report, self.script, self.device, model, BUDGET_S, **self.replay_options)
        return (result, *artifacts(result))

    def replay_result(self, output):
        return output[0]

    def setup_problems(self) -> list[str]:
        states = len(self.device.session.spec.states)
        if states != len(self.app.spec["states"]):
            return [f"loaded spec has {states} states, generated {len(self.app.spec['states'])}"]
        return []


class ReplayLong(_Replay):
    name = "replay_long"

    def __init__(self, seed, workdir, classes):
        super().__init__(seed, workdir, classes)
        self.app = gen.generate_long_app(seed)
        self._write_app()
        self.repairs = sum(1 for entry in self.app.plan.values() if entry["repair"])

    def check(self, item, model, output) -> list[str]:
        result, trace, summary = output
        problems = _crash_problems(result, self.app.crash)
        if result.steps_executed != gen.LONG_PATH + 1:
            problems.append(f"{result.steps_executed} steps, expected {gen.LONG_PATH + 1}")
        pages = [json.loads(line)["activity"] for line in trace.splitlines()]
        if pages != self.app.walk:
            problems.append("trace pages differ from the planted walk")
        if len(model.exchanges) != len(pages) + self.repairs:
            problems.append(f"{len(model.exchanges)} model calls, expected {len(pages) + self.repairs}")
        if summary["steps_executed"] != result.steps_executed:
            problems.append("summary disagrees with the result")
        return problems


class Explore(_Replay):
    name = "explore"
    setup_reps = 21  # a 5 ms set-up needs many repetitions for a steady median

    def __init__(self, seed, workdir, classes):
        super().__init__(seed, workdir, classes)
        self.app = gen.generate_wide_app(seed)
        self._write_app()
        origin = self.app.spec["initial_state"]
        self.bfs = oracle.probed_graph(self.app.spec, origin, EXPLORE_DEPTH)
        self.summary_calls = oracle.summary_calls(*self.bfs, self.app.spec["states"][origin]["activity"])

    replay_options = {"explore_depth": EXPLORE_DEPTH, "explore_action_budget": EXPLORE_ACTIONS}

    def check(self, item, model, output) -> list[str]:
        result, trace, _ = output
        problems = _crash_problems(result, self.app.crash)
        records = [json.loads(line) for line in trace.splitlines()]
        explorations = sum(1 for r in records if r["explored"])
        if explorations != 1:
            problems.append(f"{explorations} explorations, expected 1")
        if len(model.exchanges) != result.iterations + self.summary_calls:
            problems.append(
                f"{len(model.exchanges)} model calls, expected {result.iterations} iterations"
                f" + {self.summary_calls} summaries"
            )
        if [r["activity"] for r in records] != self.app.walk:
            problems.append("trace pages differ from the expected walk")
        if self.tracer is not None:
            problems += self._graph_problems(self.tracer.graphs)
            self.tracer.graphs.clear()
        return problems

    def _graph_problems(self, graphs) -> list[str]:
        """In a traced run: the nodes and edges ``explore()`` returned equal the BFS."""
        problems = []
        for graph in graphs:
            def page(state_id):
                return graph.nodes[state_id].activity_name

            nodes = {page(s) for s in graph.nodes}
            edges = {(page(e.from_state), e.action.feature, page(e.to_state)) for e in graph.edges}
            if graph.truncated or (nodes, edges) != self.bfs:
                problems.append("explored graph differs from the independent BFS")
        if len(graphs) != 1:
            problems.append(f"{len(graphs)} explorations traced, expected 1")
        return problems


class AdbReplay(Workload):
    """A short ``replay.run`` through ``AdbDevice`` over the stateful fake adb.

    Each op opens a fresh ``AdbDevice`` session (its constructor clears the
    log) and restarts the app, as one ``crashreplay replay`` run does.
    """

    name = "adb_replay"
    setup_reps = 21

    def __init__(self, seed, workdir, classes):
        super().__init__(seed, workdir, classes)
        self.app = gen.generate_adb_app(seed)
        self.spec_path = workdir / "adb_app.json"
        self.app.write(self.spec_path)
        self.script = S2RScript.from_dict(self.app.script)
        self.round = [self.app]
        self.fake = None

    def _device(self) -> AdbDevice:
        return self.adb_device_cls(ADB_SERIAL, gen.PACKAGE, ".LoginActivity", runner=self.fake)

    def setup(self) -> None:
        self.fake = FakeAdb(simulator.load_spec(self.spec_path), ADB_SERIAL)
        self._device()

    def teardown(self) -> None:
        self.fake = None

    def prepare(self, item):
        return self.model_cls(plan=self.app.plan)

    def op(self, item, model):
        device = self._device()
        device.restart_app()
        result = replay.run(self.app.report, self.script, device, model, BUDGET_S)
        return (result, *artifacts(result))

    def replay_result(self, output):
        return output[0]

    def check(self, item, model, output) -> list[str]:
        result, _, _ = output
        problems = _crash_problems(result, self.app.crash)
        session = self.fake.session
        if session.current != self.app.crash.state or session.crashed is None:
            problems.append(f"fake device ended on {session.current!r}, not the crash page")
        if self.fake.errors:
            problems.append(f"fake adb got invocations it does not understand: {self.fake.errors}")
        return problems


WORKLOADS = {cls.name: cls for cls in (Extract, ReplayLong, Explore, AdbReplay)}
