"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every criterion runs offline against the bundled simulator fixtures and the
scripted mock gateway, with its runtime bound asserted.  Run with ``-s`` to
see the per-criterion lines as they complete.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from contextlib import contextmanager

import networkx as nx
import pytest
from click.testing import CliRunner

from crashreplay.cli import fixtures_path, main
from crashreplay.evaluator import ExtractionScore, emit_report, score_extraction
from crashreplay.explorer import closest_state_for_element, explore
from crashreplay.gateway import (
    ActionCommand,
    ENV_ENDPOINT,
    ENV_MODEL,
    MockGateway,
    filter_json_payload,
    parse_action_sequence,
)
from crashreplay.grammar import parse_entity_notation
from crashreplay.rag import (
    HashedTrigramProvider,
    build_index,
    embed,
    load_corpus,
    retrieve,
)
from crashreplay.replay import Outcome, run
from crashreplay.simulator import SimulatorDevice, load_spec

from conftest import load_scenario, script_from_report, unstructured_example
from test_evaluator import CATEGORY_GOLD, CATEGORY_TWO_STEP
from test_explorer import depth1_oracle, edge_set, synthetic_graph
from test_grammar import random_entity
from test_rag import brute_force_ranking, random_corpus

SCENARIOS = fixtures_path() / "scenarios"


@contextmanager
def criterion(number: int, name: str, limit_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_s, f"criterion {number} took {elapsed:.2f}s, limit {limit_s}s"
    print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.2f}s]")


def test_criterion_1_grammar_round_trip():
    with criterion(1, "grammar round-trip", limit_s=1.0):
        from crashreplay.grammar import ActionType, S2REntity, format_entity

        rng = random.Random(2024)
        for _ in range(1000):
            entity = random_entity(rng)
            parsed = parse_entity_notation(format_entity(entity))
            assert parsed.entities == [entity] and not parsed.issues

        rows = parse_entity_notation("[Tap] [search]")
        assert rows.entities == [S2REntity(ActionType.TAP, component="search")]

        rows = parse_entity_notation(
            "1. [Tap] [search icon]\n2. [Input] [search term] [A]\n3. [Long Tap] [category A]"
        )
        assert rows.entities == [
            S2REntity(ActionType.TAP, component="search icon"),
            S2REntity(ActionType.INPUT, component="search term", value="A"),
            S2REntity(ActionType.LONG_TAP, component="category A"),
        ]

        rows = parse_entity_notation("[Input] [Secret field] [test]\n[Input] [other required fields]")
        assert rows.entities == [
            S2REntity(ActionType.INPUT, component="Secret field", value="test"),
            S2REntity(ActionType.INPUT, component="other required fields", generate_on_replay=True),
        ]


def test_criterion_2_retrieval_oracle_equivalence():
    with criterion(2, "retrieval oracle equivalence", limit_s=5.0):
        provider = HashedTrigramProvider(384)
        rng = random.Random(42)
        for corpus_no in range(20):
            corpus = random_corpus(rng, reports=rng.randint(4, 20), sentences_per_report=5)
            index = build_index(corpus, provider)
            assert len(index) <= 100

            queries = [random_corpus(rng, 1, 1)[0].sentences[0].text for _ in range(3)]
            for query in queries:
                expected = brute_force_ranking(index, embed(query, provider))
                for k in (1, 5, len(index)):
                    hits = retrieve(index, query, k, provider)
                    assert [(h.record.record_id, h.score) for h in hits] == expected[:k]

            self_text = corpus[0].sentences[0].text
            top = retrieve(index, self_text, 1, provider)[0]
            assert abs(top.score - 1.0) <= 1e-6


def test_criterion_3_json_filter_fixture_suite():
    with criterion(3, "json filter fixture suite", limit_s=1.0):
        for number in (1, 2, 3, 5):
            assert filter_json_payload(unstructured_example(number)) is None

        merged = filter_json_payload(unstructured_example(4))
        commands = parse_action_sequence(merged)
        assert commands == [
            ActionCommand(action="click", feature="Licenses"),
            ActionCommand(action="scroll", direction="down"),
            ActionCommand(action="back"),
        ]

        single = filter_json_payload('[\n {\n  "action": "click",\n  "feature": "REFRESH"\n }\n]')
        assert parse_action_sequence(single) == [ActionCommand(action="click", feature="REFRESH")]

        sequence = filter_json_payload(
            '[{"action": "set_text", "feature": "https://librenews.io/api", "input_text": "xxyyzz"},'
            ' {"action": "click", "feature": "OK"}]'
        )
        assert parse_action_sequence(sequence) == [
            ActionCommand(action="set_text", feature="https://librenews.io/api", input_text="xxyyzz"),
            ActionCommand(action="click", feature="OK"),
        ]


def test_criterion_4_utg_correctness():
    with criterion(4, "utg correctness", limit_s=10.0):
        apps = fixtures_path() / "apps"
        for name in ("url_crash.json", "hidden_about.json", "checkout.json"):
            device = SimulatorDevice(load_spec(apps / name))
            graph = explore(device, depth=1, action_budget=60)
            expected_nodes, expected_edges = depth1_oracle(apps / name)
            assert set(graph.nodes) == expected_nodes, name
            assert edge_set(graph) == expected_edges, name

        rng = random.Random(7)
        features = [f"feat{i:02d}" for i in range(10)]
        for _ in range(100):
            state_ids = [f"s{i:02d}" for i in range(rng.randint(2, 9))]
            assignments = {sid: rng.sample(features, rng.randint(0, 3)) for sid in state_ids}
            edges = [
                (a, b)
                for a in state_ids
                for b in state_ids
                if a != b and rng.random() < 0.25
            ]
            graph = synthetic_graph(assignments, edges, state_ids[0])
            oracle = nx.DiGraph()
            oracle.add_nodes_from(state_ids)
            oracle.add_edges_from(edges)
            distances = nx.single_source_shortest_path_length(oracle, state_ids[0])
            for feature in features:
                reachable = [s for s in state_ids if feature in assignments[s] and s in distances]
                if not reachable:
                    continue
                expected = min(reachable, key=lambda sid: (distances[sid], sid))
                assert closest_state_for_element(graph, feature) == expected

        from crashreplay.device import interactable_elements
        from crashreplay.explorer import synthesize_functionality

        for name in ("url_crash.json", "hidden_about.json", "checkout.json"):
            device = SimulatorDevice(load_spec(apps / name))
            graph = explore(device, depth=1, action_budget=60)
            table = synthesize_functionality(graph, MockGateway.from_script([{"response": "s"}]))
            assert len(table) == len(interactable_elements(graph.nodes[graph.origin])), name


def _cli_replay(scenario: str, out_dir, extra=()):
    directory = SCENARIOS / scenario
    config = json.loads((directory / "scenario.json").read_text())
    runner = CliRunner()
    return runner.invoke(
        main,
        [
            "replay",
            "--report", str((directory / config["report"]).resolve()),
            "--script", str((directory / config["gold_script"]).resolve()),
            "--sim-spec", str((directory / config["app"]).resolve()),
            "--gateway", "mock",
            "--mock-script", str((directory / config["replay_mock"]).resolve()),
            "--budget", "10",
            "--out", str(out_dir),
            *extra,
        ],
    )


def test_criterion_5_end_to_end_deterministic_reproduction(tmp_path):
    with criterion(5, "end-to-end deterministic reproduction", limit_s=30.0):
        # (a) URL-crash scenario reproduces in <= 3 commands, exit 0
        result = _cli_replay("url_crash", tmp_path / "url_a")
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "url_a" / "result.json").read_text())
        assert summary["outcome"] == "reproduced" and summary["steps_executed"] <= 3

        # (b) hidden-About reproduces WITH knowledge escalation ...
        with_explore = _cli_replay("hidden_about", tmp_path / "about_with")
        assert with_explore.exit_code == 0, with_explore.output
        # ... and exhausts its budget WITHOUT it (ablation direction)
        without = _cli_replay(
            "hidden_about", tmp_path / "about_without", extra=["--no-exploration", "--max-iterations", "8"]
        )
        assert without.exit_code == 1
        summary = json.loads((tmp_path / "about_without" / "result.json").read_text())
        assert summary["outcome"] == "budget_exhausted"

        # (c) 3-screen scenario reproduces with correct step ordering
        checkout = _cli_replay("checkout", tmp_path / "checkout_a")
        assert checkout.exit_code == 0, checkout.output
        trace = [
            json.loads(line)
            for line in (tmp_path / "checkout_a" / "trace.jsonl").read_text().splitlines()
        ]
        assert [rec["activity"] for rec in trace] == [
            "CartActivity",
            "ShippingActivity",
            "PaymentActivity",
        ]

        # two consecutive full runs produce byte-identical trace files
        for scenario, first in (
            ("url_crash", "url_a"),
            ("hidden_about", "about_with"),
            ("checkout", "checkout_a"),
        ):
            rerun_dir = tmp_path / f"{first}_rerun"
            rerun = _cli_replay(scenario, rerun_dir)
            assert rerun.exit_code == 0
            a = (tmp_path / first / "trace.jsonl").read_bytes()
            b = (rerun_dir / "trace.jsonl").read_bytes()
            assert hashlib.sha256(a).hexdigest() == hashlib.sha256(b).hexdigest(), scenario


def test_criterion_6_evaluator():
    with criterion(6, "evaluator", limit_s=1.0):
        corpus = load_corpus(fixtures_path() / "corpus_small.jsonl")
        for report in corpus:
            gold = script_from_report(report)
            if not gold.steps:
                continue
            identity = score_extraction(gold, gold)
            for dim in ("step", "action", "component", "input", "direction"):
                assert identity.accuracy(dim) in (None, 1.0)
        for name in ("url_crash", "hidden_about", "checkout"):
            from crashreplay.grammar import S2RScript

            gold = S2RScript.from_dict(
                json.loads((SCENARIOS / name / "gold.json").read_text(encoding="utf-8"))
            )
            assert score_extraction(gold, gold).accuracy("step") == 1.0

        partial = score_extraction(CATEGORY_TWO_STEP, CATEGORY_GOLD)
        assert partial.counts["step"] == (2, 3)
        assert partial.counts["action"] == (2, 3)
        assert partial.counts["component"] == (2, 3)
        assert partial.counts["input"] == (0, 1)

        scores = ExtractionScore({
            "step": (8785, 10_000), "action": (6949, 10_000), "component": (3387, 10_000),
            "input": (7093, 10_000), "direction": (8291, 10_000),
        })
        assert "87.85% 69.49% 33.87% 70.93% 82.91%" in emit_report(scores, None).splitlines()


def test_criterion_7_budget_safety():
    budget = 1.5
    with criterion(7, "budget safety", limit_s=budget + 2.0):
        report, gold, device, _, _ = load_scenario("url_crash")
        gateway = MockGateway.from_script(
            [{"response": '[{"action": "click", "feature": "Nonexistent"}]', "times": None}]
        )
        start = time.monotonic()
        result = run(report, gold, device, gateway, budget, explore_enabled=False)
        elapsed = time.monotonic() - start
        assert result.outcome == Outcome.BUDGET_EXHAUSTED
        assert elapsed < budget + 2.0


@pytest.mark.skipif(
    not (os.environ.get(ENV_ENDPOINT) and os.environ.get(ENV_MODEL)),
    reason="live-mode smoke needs CRASHREPLAY_LLM_ENDPOINT and CRASHREPLAY_LLM_MODEL",
)
def test_criterion_8_live_mode_smoke(tmp_path):
    """Non-gating, network-dependent: extraction against a configured endpoint."""
    runner = CliRunner()
    index = tmp_path / "index.json"
    built = runner.invoke(
        main, ["build-index", "--corpus", str(fixtures_path() / "corpus_small.jsonl"), "--out", str(index)]
    )
    assert built.exit_code == 0
    result = runner.invoke(
        main,
        [
            "extract",
            "--report", str(SCENARIOS / "url_crash" / "report.txt"),
            "--index", str(index),
            "--gateway", "live",
            "--out", str(tmp_path / "out"),
        ],
    )
    assert result.exit_code == 0, result.output
    script = json.loads((tmp_path / "out" / "script.json").read_text())
    assert script["steps"]
