"""Operator entry points: build-index, extract, replay, eval.

Exit codes: 0 success (or crash reproduced), 1 domain failure (not
reproduced, no entities, scoring failure), 2 usage error, 3 environment
error (a missing, unreadable or malformed input file, an output that cannot
be written, missing env vars, unreachable endpoint/device).
"""

from __future__ import annotations

import hashlib
import json
import sys
from importlib import resources
from pathlib import Path
from typing import Callable, NoReturn, TypeVar

import click

from . import evaluator, replay
from .gateway import GatewayError, HttpGateway, LlmConfig, MockGateway, decode_json
from .grammar import GrammarError, NoEntitiesFound, S2RScript, parse_extraction_response
from .rag import (
    HashedTrigramProvider,
    HttpEmbeddingProvider,
    RagError,
    RagIndex,
    build_index,
    load_corpus,
    load_index,
    retrieve,
    save_index,
    segment_report,
)
from .simulator import SimulatorDevice, SpecInvalid, load_spec

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_ENVIRONMENT = 3

#: Default wall-clock replay budget (seconds) and exploration depth.
DEFAULT_BUDGET_S = 300.0
DEFAULT_DEPTH = 1
DEFAULT_RETRIEVAL_K = 1
DEFAULT_EXPLORE_ACTIONS = 40

#: What a parser raises for an input it cannot read; any other exception is a bug and keeps its traceback.
_INPUT_ERRORS = (OSError, ValueError, GrammarError, RagError, SpecInvalid)
T = TypeVar("T")


def fixtures_path() -> Path:
    """Directory of the bundled corpora, app specs and scenarios."""
    return Path(str(resources.files("crashreplay").joinpath("fixtures")))


def _fail(code: int, message: str) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load(what: str, path, parse: Callable[[str], T]) -> T:
    """``parse(path)``; a missing, unreadable or malformed file exits 3 naming it."""
    try:
        return parse(path)
    except _INPUT_ERRORS as exc:
        _fail(EXIT_ENVIRONMENT, f"cannot read {what} {path}: {exc}")


def _read_text(path) -> str:
    return Path(path).read_text(encoding="utf-8")


def _read_object(path) -> dict:
    value = decode_json(_read_text(path))
    if not isinstance(value, dict):
        raise ValueError("not a JSON object")
    return value


def _read_script(path) -> S2RScript:
    return S2RScript.from_dict(decode_json(_read_text(path)))


def _write(path: Path, write: Callable[[Path], object]) -> None:
    """``write(path)`` after making ``path``'s directory; an output that cannot be written exits 3 naming it."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        write(path)
    except OSError as exc:
        _fail(EXIT_ENVIRONMENT, f"cannot write {path}: {exc}")


def _write_text(path: Path, text: str) -> None:
    _write(path, lambda path: path.write_text(text, encoding="utf-8"))


def _write_json(path: Path, payload) -> None:
    _write_text(path, json.dumps(payload, indent=1, ensure_ascii=False) + "\n")


def _write_replay_artifacts(out_dir: Path, result: replay.ReplayResult) -> None:
    """``trace.jsonl`` and ``result.json``: the reproducible record of one replay."""
    _write_text(out_dir / "trace.jsonl", result.trace_text())
    _write_json(out_dir / "result.json", result.summary_dict())


def provider_for_index(index: RagIndex):
    """Reconstruct the embedding provider an index was built with, from its provider id."""
    if index.provider_id.startswith("hashed-trigram-"):
        return HashedTrigramProvider(index.dimension)
    if index.provider_id.startswith("http:"):
        return HttpEmbeddingProvider(index.provider_id.removeprefix("http:"), index.dimension)
    raise RagError(f"index was built with unknown provider {index.provider_id!r}")


def _make_gateway(mode: str, mock_script: str | None):
    if mode == "mock":
        if not mock_script:
            raise click.UsageError("mock gateway mode requires --mock-script")
        return _load("mock script", mock_script, MockGateway.from_script_file)
    try:
        return HttpGateway(LlmConfig.from_env())
    except GatewayError as exc:
        _fail(EXIT_ENVIRONMENT, str(exc))


@click.group()
@click.option("--config", "config_path", type=str, default=None, help="JSON option values by parameter name; flags win.")
@click.pass_context
def main(ctx: click.Context, config_path: str | None) -> None:
    """Reproduce Android app crashes from natural-language bug reports.

    Exit codes: 0 success / crash reproduced, 1 domain failure (not
    reproduced, no steps extracted), 2 usage error, 3 environment error.
    """
    config = _load("config", config_path, _read_object) if config_path else {}
    ctx.default_map = {name: config for name in main.commands}


@main.command("build-index")
@click.option("--corpus", "corpus_path", required=True, help="Line-delimited labeled corpus file.")
@click.option("--out", "index_path", default="index.bin", help="Index file to write.")
@click.option("--dimension", type=click.IntRange(min=1), default=384, help="Embedding dimension.")
@click.option("--embed-endpoint", default=None, help="Remote embedding endpoint (optional).")
def cmd_build_index(corpus_path, index_path, dimension, embed_endpoint):
    """Embed a labeled corpus into a persisted retrieval index."""
    corpus = _load("corpus", corpus_path, load_corpus)
    try:
        provider = HttpEmbeddingProvider(embed_endpoint, dimension) if embed_endpoint else HashedTrigramProvider(dimension)
        index = build_index(corpus, provider)
    except RagError as exc:
        _fail(EXIT_DOMAIN, str(exc))
    _write(Path(index_path), lambda path: save_index(index, path))
    click.echo(f"{len(index)} records")


def run_extraction(report_text: str, index: RagIndex, gateway, k: int) -> tuple[S2RScript, dict]:
    """Segment, retrieve, prompt, parse; returns the script and a full log."""
    from .grammar import build_extraction_prompt

    sentences = segment_report(report_text)
    if not sentences:
        raise NoEntitiesFound("report contains no sentences")
    provider = provider_for_index(index)
    hits = []
    for sentence in sentences:
        for hit in retrieve(index, sentence, k, provider):
            hits.append((hit.record.sentence, list(hit.record.labels)))
    prompt = build_extraction_prompt(sentences, hits)
    raw = gateway.complete(prompt)
    script = parse_extraction_response(raw)
    log = {
        "sentences": sentences,
        "retrieved": [h[0] for h in hits],
        "prompt": prompt,
        "response": raw,
    }
    return script, log


@main.command("extract")
@click.option("--report", "report_path", required=True, help="Bug report text file.")
@click.option("--index", "index_path", required=True, help="Retrieval index file.")
@click.option("--gateway", "gateway_mode", type=click.Choice(["mock", "live"]), default="mock")
@click.option("--mock-script", "mock_script_path", default=None, help="Scripted responses for the mock gateway.")
@click.option("--k", "retrieval_k", type=click.IntRange(min=1), default=DEFAULT_RETRIEVAL_K, help="Retrieved examples per sentence.")
@click.option("--out", "output_dir", default="out", help="Output directory.")
def cmd_extract(report_path, index_path, gateway_mode, mock_script_path, retrieval_k, output_dir):
    """Extract a reproduction script from a bug report."""
    index = _load("index", index_path, load_index)
    report_text = _load("report", report_path, _read_text)
    gateway = _make_gateway(gateway_mode, mock_script_path)
    try:
        script, log = run_extraction(report_text, index, gateway, retrieval_k)
    except (NoEntitiesFound, RagError, GatewayError) as exc:
        _fail(EXIT_DOMAIN, str(exc))
    out_dir = Path(output_dir)
    _write_json(out_dir / "script.json", script.to_dict())
    _write_json(out_dir / "extraction_log.json", log)
    click.echo(f"{len(script.steps)} steps -> {out_dir / 'script.json'}")


def _make_device(sim_spec_path, device_serial, app_package, app_activity):
    if sim_spec_path:
        return SimulatorDevice(_load("app spec", sim_spec_path, load_spec))
    from .adb_bridge import AdbDevice

    if not app_package:
        raise click.UsageError("--app-package is required with --device-serial")
    return AdbDevice(device_serial, app_package, app_activity)


class _Budget(click.FloatRange):
    def convert(self, value, param, ctx):  # refuses nan, which no deadline check is ever past
        seconds = super().convert(value, param, ctx)
        return seconds if seconds == seconds else self.fail("nan is no time bound", param, ctx)


@main.command("replay")
@click.option("--report", "report_path", required=True, help="Bug report text file.")
@click.option("--script", "script_path", default=None, help="Extracted script JSON.")
@click.option("--sim-spec", "sim_spec_path", default=None, help="Simulated app spec file.")
@click.option("--device-serial", default=None, help="adb serial of a real device.")
@click.option("--app-package", default=None)
@click.option("--app-activity", default=None)
@click.option("--gateway", "gateway_mode", type=click.Choice(["mock", "live"]), default="mock")
@click.option("--mock-script", "mock_script_path", default=None)
@click.option("--budget", "budget_s", type=_Budget(min=0), default=DEFAULT_BUDGET_S, help="Wall-clock budget (s).")
@click.option("--depth", type=click.IntRange(min=1), default=DEFAULT_DEPTH, help="Exploration depth.")
@click.option("--explore-actions", type=click.IntRange(min=1), default=DEFAULT_EXPLORE_ACTIONS, help="Device commands for probing a page; the return to it is extra.")
@click.option("--exploration/--no-exploration", default=True)
@click.option("--max-iterations", type=click.IntRange(min=0), default=None, help="Deterministic iteration cap.")
@click.option("--utg-cache", default=None, help="Directory for cached exploration knowledge.")
@click.option("--out", "output_dir", default="out", help="Output directory.")
def cmd_replay(report_path, script_path, sim_spec_path, device_serial, app_package, app_activity,
               gateway_mode, mock_script_path, budget_s, depth, explore_actions, exploration,
               max_iterations, utg_cache, output_dir):
    """Replay a bug report against a device until it crashes; exit 0 iff reproduced."""
    if bool(sim_spec_path) == bool(device_serial):
        raise click.UsageError("exactly one of --sim-spec / --device-serial is required")
    gateway = _make_gateway(gateway_mode, mock_script_path)
    report_text = _load("report", report_path, _read_text)
    script = _load("script", script_path, _read_script) if script_path else S2RScript(steps=())
    device = _make_device(sim_spec_path, device_serial, app_package, app_activity)
    if utg_cache:
        _write(Path(utg_cache), lambda path: path.mkdir(exist_ok=True))
    result = replay.run(
        report_text,
        script,
        device,
        gateway,
        budget_s,
        explore_enabled=exploration,
        explore_depth=depth,
        explore_action_budget=explore_actions,
        max_iterations=max_iterations,
        utg_cache_dir=utg_cache,
    )
    _write_replay_artifacts(Path(output_dir), result)
    click.echo(
        f"{result.outcome.value} after {result.steps_executed} commands "
        f"in {result.elapsed:.2f}s (llm {result.llm_time:.2f}s)"
    )
    sys.exit(EXIT_OK if result.outcome == replay.Outcome.REPRODUCED else EXIT_DOMAIN)


def _scenario_option(raw: dict, name: str, default, command: click.Command = cmd_replay, param_name: str | None = None):
    """``raw[name]`` (else ``default``), converted by the type of ``command``'s option ``param_name`` (else ``name``)."""
    param = next(param for param in command.params if param.name == (param_name or name))
    try:
        return param.type_cast_value(click.Context(command), raw.get(name, default))
    except click.BadParameter as exc:
        raise ValueError(f"bad value for {name!r}: {exc.message}") from exc


def _run_scenario(scenario_dir: Path, index: RagIndex, out_dir: Path):
    """Run one scenario directory, writing its artifacts to ``out_dir``; returns (score or None, ReplayResult)."""
    raw = _read_object(scenario_dir / "scenario.json")

    def named_file(key: str) -> Path:
        if not isinstance(raw.get(key), str):
            raise ValueError(f"{key!r} names no file")
        return scenario_dir / raw[key]

    report_text = _read_text(named_file("report"))
    app_spec = load_spec(named_file("app"))

    score = None
    script = S2RScript(steps=())
    if raw.get("extract_mock"):
        gateway = MockGateway.from_script_file(named_file("extract_mock"))
        k = _scenario_option(raw, "k", DEFAULT_RETRIEVAL_K, cmd_extract, "retrieval_k")
        script, log = run_extraction(report_text, index, gateway, k)
        _write_json(out_dir / "script.json", script.to_dict())
        _write_json(out_dir / "extraction_log.json", log)
        if raw.get("gold_script"):
            score = evaluator.score_extraction(script, _read_script(named_file("gold_script")))

    result = replay.run(
        report_text,
        script,
        SimulatorDevice(app_spec),
        MockGateway.from_script_file(named_file("replay_mock")),
        _scenario_option(raw, "budget_s", 10.0),
        explore_enabled=_scenario_option(raw, "exploration", True),
        explore_depth=_scenario_option(raw, "depth", DEFAULT_DEPTH),
        explore_action_budget=_scenario_option(raw, "explore_actions", DEFAULT_EXPLORE_ACTIONS),
        max_iterations=_scenario_option(raw, "max_iterations", None),
    )
    _write_replay_artifacts(out_dir, result)
    return score, result


@main.command("eval")
@click.option("--scenarios", "scenarios_dir", required=True, help="Directory of scenario subdirs.")
@click.option(
    "--corpus", "corpus_path", default=lambda: str(fixtures_path() / "corpus_small.jsonl"),
    help="Labeled corpus for retrieval (default: the bundled corpus).",
)
@click.option("--out", "output_dir", default="out", help="Output directory.")
def cmd_eval(scenarios_dir, corpus_path, output_dir):
    """Score extraction and aggregate replay outcomes over a scenario suite."""
    out = Path(output_dir)
    scenarios_root = Path(scenarios_dir)
    if not scenarios_root.is_dir():
        _fail(EXIT_ENVIRONMENT, f"scenario directory not found: {scenarios_dir}")
    index = _load("corpus", corpus_path, lambda path: build_index(load_corpus(path), HashedTrigramProvider()))

    scores = []
    results = []
    hashes = {"corpus": hashlib.sha256(Path(corpus_path).read_bytes()).hexdigest()}
    for spec_file in sorted(scenarios_root.glob("*/scenario.json")):
        scenario_dir = spec_file.parent
        try:
            score, result = _run_scenario(scenario_dir, index, out / scenario_dir.name)
        except (*_INPUT_ERRORS, GatewayError) as exc:
            _fail(EXIT_DOMAIN, f"scenario {spec_file}: {exc}")
        hashes[scenario_dir.name] = hashlib.sha256(spec_file.read_bytes()).hexdigest()
        if score is not None:
            scores.append(score)
        results.append(result)

    merged = evaluator.merge_scores(scores) if scores else None
    aggregate = evaluator.aggregate_replays(results) if results else None
    text = evaluator.emit_report(merged, aggregate)
    fingerprint = hashlib.sha256(
        json.dumps({"scenarios": str(scenarios_root), "corpus": str(corpus_path)}).encode()
    ).hexdigest()
    payload = evaluator.report_payload(merged, aggregate, config_fingerprint=fingerprint, input_hashes=hashes)
    _write_text(out / "report.txt", text)
    _write_json(out / "report.json", payload)
    click.echo(text, nl=False)
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
