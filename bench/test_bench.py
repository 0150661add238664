"""Fast tests of the benchmark's generators, fake adb, stand-in and oracles.

    python3 -m pytest bench -q

They check the benchmark's own parts against the program where the two must
agree (embedding, ranking, exploration), so a disagreement found during a
run points at the program rather than at the benchmark.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import gen  # noqa: E402
import oracle  # noqa: E402
from crashreplay import explorer, rag  # noqa: E402
from crashreplay.adb_bridge import AdbDevice  # noqa: E402
from crashreplay.gateway import ActionCommand, filter_json_payload  # noqa: E402
from crashreplay.simulator import SimulatorDevice, load_spec  # noqa: E402
from fakeadb import FakeAdb, FakeAdbError  # noqa: E402
from standin import StandInModel  # noqa: E402


@pytest.fixture(scope="module")
def extract_inputs():
    return gen.generate_extract(3)


def _spec(app: gen.AppInputs, tmp_path: Path):
    path = tmp_path / "app.json"
    app.write(path)
    return load_spec(path)


def test_generators_are_seeded_and_fixed_size(extract_inputs):
    again = gen.generate_extract(3)
    other = gen.generate_extract(4)
    assert again.corpus == extract_inputs.corpus
    assert other.corpus != extract_inputs.corpus
    assert sum(len(r["sentences"]) for r in other.corpus) == gen.CORPUS_REPORTS * gen.SENTENCES_PER_CORPUS_REPORT
    for seed in (1, 2):
        long_app = gen.generate_long_app(seed)
        assert len(long_app.spec["states"]) == gen.LONG_SCREENS
        assert len(long_app.walk) == gen.LONG_PATH + 1
        assert gen.generate_long_app(seed).spec == long_app.spec


def test_corpus_has_relabeled_verbatim_duplicates(extract_inputs):
    labels_by_text: dict[str, list] = {}
    for report in extract_inputs.corpus:
        for sentence in report["sentences"]:
            labels_by_text.setdefault(sentence["text"], []).append(sentence["labels"])
    duplicates = [labels for labels in labels_by_text.values() if len(labels) > 1]
    assert len(duplicates) >= 100
    assert all(a != b for a, b in duplicates)


def test_reports_mix_corpus_and_new_sentences(extract_inputs):
    corpus_texts = {s["text"] for r in extract_inputs.corpus for s in r["sentences"]}
    for report in extract_inputs.reports:
        assert rag.segment_report(report.text) == [s.text for s in report.sentences]
        known = sum(s.text in corpus_texts for s in report.sentences)
        assert 0 < known < len(report.sentences)


def test_generated_apps_load(tmp_path):
    for app in (gen.generate_long_app(1), gen.generate_wide_app(1), gen.generate_adb_app(1)):
        spec = _spec(app, tmp_path)
        assert spec.crash_rules[0].crash.message == app.crash.message


def test_trigram_embedding_is_bit_identical_to_the_program(extract_inputs):
    provider = rag.HashedTrigramProvider()
    for report in extract_inputs.reports[:3]:
        for sentence in report.sentences:
            dense = np.zeros(oracle.DIMENSION)
            for bucket, value in oracle.trigram_embedding(sentence.text).items():
                dense[bucket] = value
            assert dense.tolist() == rag.embed(sentence.text, provider).tolist()


def test_ranking_oracle_matches_retrieve_including_ties(extract_inputs):
    corpus = extract_inputs.corpus[:60]
    ranking = oracle.RankingOracle(corpus)
    provider = rag.HashedTrigramProvider()
    index = rag.build_index([rag.LabeledReport(r["report_id"], "", tuple(
        rag.LabeledSentence(s["text"], tuple(rag.S2REntity.from_label(x) for x in s["labels"]))
        for s in r["sentences"])) for r in corpus], provider)
    texts = [s["text"] for r in corpus for s in r["sentences"]]
    queries = random.Random(0).sample(texts, 15) + ["Tap the save button twice."]
    for query in queries:
        expected = [hit[0] for hit in ranking.top_k(query, 3)]
        got = [hit.record.record_id for hit in rag.retrieve(index, query, 3, provider)]
        assert got == expected


def test_probed_graph_matches_explore(tmp_path):
    app = gen.generate_wide_app(2)
    device = SimulatorDevice(_spec(app, tmp_path))
    graph = explorer.explore(device, depth=2, action_budget=5000)
    page = {sid: state.activity_name for sid, state in graph.nodes.items()}
    nodes = set(page.values())
    edges = {(page[e.from_state], e.action.feature, page[e.to_state]) for e in graph.edges}
    assert not graph.truncated
    assert (nodes, edges) == oracle.probed_graph(app.spec, "home", 2)


def test_fake_adb_reproduces_the_planted_crash_through_adb_device(tmp_path):
    app = gen.generate_adb_app(5)
    fake = FakeAdb(_spec(app, tmp_path), "emulator-5554")
    device = AdbDevice("emulator-5554", gen.PACKAGE, ".LoginActivity", runner=fake)
    assert device.capture_state().activity_name == "LoginActivity"
    commands = app.plan["LoginActivity"]["commands"] + app.plan["HomeActivity"]["commands"]
    statuses = [device.execute(ActionCommand(**raw)) for raw in commands]
    assert [s.crash is None for s in statuses] == [True, True, False]
    crash = statuses[-1].crash
    assert (crash.exception_type, crash.message) == (app.crash.exception_type, app.crash.message)
    assert fake.session.current == app.crash.state
    assert "FATAL EXCEPTION" in fake(["adb", "-s", "emulator-5554", "logcat", "-d", "-v", "brief", "*:E"], 1.0)


def test_fake_adb_rejects_unknown_invocations(tmp_path):
    fake = FakeAdb(_spec(gen.generate_adb_app(1), tmp_path), "emulator-5554")
    with pytest.raises(FakeAdbError):
        fake(["adb", "-s", "emulator-5554", "shell", "pm", "list", "packages"], 1.0)
    assert fake.errors


def test_stand_in_answers_replay_prompts_from_the_screen_line():
    model = StandInModel(plan={"HomeActivity": {"commands": [{"action": "click", "feature": "Go"}], "repair": True}})
    prompt = "Intro\n\n## Current screen\n\nScreen: HomeActivity\n[0] Button text=\"Go\"\n"
    assert filter_json_payload(model.answer(prompt)) is None
    repaired = model.answer(prompt + "\n\n" + model.repair_suffix)
    assert filter_json_payload(repaired) == '[{"action": "click", "feature": "Go"}]'


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=root, capture_output=True, text=True, timeout=170, check=False
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_every_declared_metric(trace, section):
    root = BENCH_DIR.parent
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))[section]
    proc = _run(root, "--workload", "explore", "--seed", "9", "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "extract", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
