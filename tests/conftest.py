from __future__ import annotations

import json
import random
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from crashreplay.cli import fixtures_path
from crashreplay.gateway import MockGateway
from crashreplay.grammar import S2RScript, ScriptStep
from crashreplay.rag import HashedTrigramProvider, LabeledReport, load_corpus
from crashreplay.simulator import SimulatorDevice, load_spec

DATA_DIR = Path(__file__).parent / "data"

# Property tests draw the same examples on every run and have no per-example
# time limit, so a slow or loaded host neither changes nor fails them.
settings.register_profile("crashreplay", derandomize=True, deadline=None)
settings.load_profile("crashreplay")


def json_values(keys: list[str], words: list[str] = ()):
    """Any JSON value; object keys are drawn mostly from ``keys`` and strings partly from ``words``."""
    leaves = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6)
    if words:
        leaves |= st.sampled_from(words)
    return st.recursive(
        leaves,
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(st.sampled_from(keys) | st.text(max_size=4), children, max_size=4),
        max_leaves=10,
    )


#: JSON nested too deeply for the decoder: it raises RecursionError, which ``gateway.decode_json`` turns into ValueError.
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def data_path(name: str) -> Path:
    return DATA_DIR / name


def unstructured_example(number: int) -> str:
    return (DATA_DIR / "unstructured" / f"example{number}.txt").read_text(encoding="utf-8")


def script_from_report(report: LabeledReport) -> S2RScript:
    """Flatten a report's per-sentence labels into a gold script."""
    steps = []
    for index, sentence in enumerate(report.sentences, start=1):
        for entity in sentence.labels:
            steps.append(ScriptStep(entity, index))
    return S2RScript(steps=tuple(steps))


def scenario_dir(name: str) -> Path:
    return fixtures_path() / "scenarios" / name


def load_scenario(name: str):
    """(report text, gold script, device, replay mock gateway, scenario config)."""
    directory = scenario_dir(name)
    config = json.loads((directory / "scenario.json").read_text(encoding="utf-8"))
    report = (directory / config["report"]).read_text(encoding="utf-8")
    gold = S2RScript.from_dict(
        json.loads((directory / config["gold_script"]).read_text(encoding="utf-8"))
    )
    device = SimulatorDevice(load_spec(directory / config["app"]))
    gateway = MockGateway.from_script_file(directory / config["replay_mock"])
    return report, gold, device, gateway, config


@pytest.fixture
def provider():
    return HashedTrigramProvider()


@pytest.fixture
def mini_corpus():
    return load_corpus(fixtures_path() / "corpus_small.jsonl")


@pytest.fixture
def url_crash_device():
    return SimulatorDevice(load_spec(fixtures_path() / "apps" / "url_crash.json"))


@pytest.fixture
def hidden_about_device():
    return SimulatorDevice(load_spec(fixtures_path() / "apps" / "hidden_about.json"))


@pytest.fixture
def checkout_device():
    return SimulatorDevice(load_spec(fixtures_path() / "apps" / "checkout.json"))


class _EmbedHandler(BaseHTTPRequestHandler):
    """Embeds every text of a POST as a vector seeded by the text."""

    dimension = 8

    def embeddings(self, texts: list[str]) -> list[list[float]]:
        rngs = [random.Random(text) for text in texts]
        return [[rng.random() for _ in range(self.dimension)] for rng in rngs]

    def body(self, texts: list[str]) -> bytes:
        return json.dumps({"embeddings": self.embeddings(texts)}).encode()

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = self.body(json.loads(self.rfile.read(length))["texts"])
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def embed_server():
    server = HTTPServer(("127.0.0.1", 0), _EmbedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/embed"
    server.shutdown()
    server.server_close()


class ConnectionCountingServer(ThreadingHTTPServer):
    """A local HTTP server that counts the connections it accepts."""

    daemon_threads = True
    connections = 0

    def get_request(self):
        request = super().get_request()
        self.connections += 1
        return request


@contextmanager
def counting_server(handler: type[BaseHTTPRequestHandler]):
    """A running :class:`ConnectionCountingServer` whose ``handler`` speaks HTTP/1.1, so a client may keep one connection."""
    keep_alive = type(f"KeepAlive{handler.__name__}", (handler,), {"protocol_version": "HTTP/1.1"})
    server = ConnectionCountingServer(("127.0.0.1", 0), keep_alive)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
