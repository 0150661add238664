from __future__ import annotations

import hashlib
import json

import pytest
from click.testing import CliRunner

from crashreplay.cli import fixtures_path, main
from crashreplay.gateway import ENV_ENDPOINT, ENV_MODEL
from conftest import DEEP_JSON
from test_refactor_gate import REFERENCE_SHA256

SCENARIOS = fixtures_path() / "scenarios"
CORPUS = fixtures_path() / "corpus_small.jsonl"


@pytest.fixture
def runner():
    return CliRunner()


def file_hash(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def assert_cannot_read(result, what: str, path) -> None:
    """The command exited 3, printing only one error line naming the input file: no traceback, nothing more."""
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot read {what} {path}: "), result.output


BAD_LABEL_CORPUS = json.dumps({"report_id": "r1", "sentences": [{"text": "Tap OK.", "labels": [{"action": "fly"}]}]})


# -- build-index -------------------------------------------------------------


def test_build_index_reports_record_count(runner, tmp_path):
    out = tmp_path / "index.json"
    result = runner.invoke(main, ["build-index", "--corpus", str(CORPUS), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "20 records" in result.output
    assert out.exists()


def test_build_index_rebuild_is_identical(runner, tmp_path):
    out = tmp_path / "index.json"
    runner.invoke(main, ["build-index", "--corpus", str(CORPUS), "--out", str(out)])
    first = file_hash(out)
    runner.invoke(main, ["build-index", "--corpus", str(CORPUS), "--out", str(out)])
    assert file_hash(out) == first


def test_build_index_missing_corpus_fails(runner, tmp_path):
    result = runner.invoke(
        main, ["build-index", "--corpus", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "i.json")]
    )
    assert result.exit_code == 3


@pytest.mark.parametrize(
    "line",
    [
        BAD_LABEL_CORPUS,
        json.dumps({"report_id": "r1", "sentences": [{"text": 5}]}),
        json.dumps({"report_id": ["r1"], "sentences": [{"text": "Tap OK."}]}),
        json.dumps({"report_id": "r1", "sentences": [{"text": "Tap OK\ud800."}]}),
    ],
    ids=["bad label", "text not a string", "report_id not a string", "lone surrogate"],
)
def test_build_index_malformed_corpus_exits_3(runner, tmp_path, line):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(line + "\n")
    result = runner.invoke(main, ["build-index", "--corpus", str(corpus), "--out", str(tmp_path / "i.bin")])
    assert_cannot_read(result, "corpus", corpus)


def test_build_index_requires_corpus_flag(runner):
    result = runner.invoke(main, ["build-index"])
    assert result.exit_code == 2


# -- extract -----------------------------------------------------------------


@pytest.fixture
def index_file(runner, tmp_path):
    out = tmp_path / "index.json"
    result = runner.invoke(main, ["build-index", "--corpus", str(CORPUS), "--out", str(out)])
    assert result.exit_code == 0
    return out


def test_extract_writes_script_matching_gold(runner, tmp_path, index_file):
    scenario = SCENARIOS / "url_crash"
    out_dir = tmp_path / "out"
    result = runner.invoke(
        main,
        [
            "extract",
            "--report", str(scenario / "report.txt"),
            "--index", str(index_file),
            "--gateway", "mock",
            "--mock-script", str(scenario / "extract_mock.jsonl"),
            "--out", str(out_dir),
        ],
    )
    assert result.exit_code == 0, result.output
    script = json.loads((out_dir / "script.json").read_text())
    gold = json.loads((scenario / "gold.json").read_text())
    assert script["steps"] == gold["steps"]
    log = json.loads((out_dir / "extraction_log.json").read_text())
    assert "Here are the sentences in current bug report:" in log["prompt"]
    assert len(log["sentences"]) == 4
    assert len(log["retrieved"]) == 4


def test_extract_empty_report_fails_domain(runner, tmp_path, index_file):
    report = tmp_path / "empty.txt"
    report.write_text("\n\n")
    result = runner.invoke(
        main,
        [
            "extract",
            "--report", str(report),
            "--index", str(index_file),
            "--gateway", "mock",
            "--mock-script", str(SCENARIOS / "url_crash" / "extract_mock.jsonl"),
            "--out", str(tmp_path / "out"),
        ],
    )
    assert result.exit_code == 1


def test_extract_queries_an_index_built_with_an_embed_endpoint(runner, tmp_path, embed_server):
    index = tmp_path / "index.json"
    built = runner.invoke(
        main,
        ["build-index", "--corpus", str(CORPUS), "--out", str(index), "--dimension", "8", "--embed-endpoint", embed_server],
    )
    assert built.exit_code == 0, built.output
    scenario = SCENARIOS / "url_crash"
    result = runner.invoke(
        main,
        [
            "extract",
            "--report", str(scenario / "report.txt"),
            "--index", str(index),
            "--mock-script", str(scenario / "extract_mock.jsonl"),
            "--out", str(tmp_path / "out"),
        ],
    )
    assert result.exit_code == 0, result.output
    assert result.output.startswith("4 steps")


def test_extract_malformed_index_exits_3(runner, tmp_path):
    index = tmp_path / "index.bin"
    for text in ("not an index", DEEP_JSON + "\n"):  # the header is the first line
        index.write_text(text)
        result = runner.invoke(
            main,
            ["extract", "--report", str(SCENARIOS / "url_crash" / "report.txt"), "--index", str(index),
             "--mock-script", str(SCENARIOS / "url_crash" / "extract_mock.jsonl"), "--out", str(tmp_path / "out")],
        )
        assert_cannot_read(result, "index", index)


def test_extract_index_escaping_a_lone_surrogate_exits_3(runner, tmp_path, index_file):
    # Every record's sentence ends in an escaped lone surrogate, which no output file could encode.
    data = index_file.read_bytes()
    end = data.index(b"\n")
    header = json.loads(data[:end])
    for record in header["records"]:
        record["sentence"] += "\ud800"
    index_file.write_bytes(json.dumps(header).encode("ascii") + data[end:])
    result = runner.invoke(
        main,
        ["extract", "--report", str(SCENARIOS / "url_crash" / "report.txt"), "--index", str(index_file),
         "--mock-script", str(SCENARIOS / "url_crash" / "extract_mock.jsonl"), "--out", str(tmp_path / "out")],
    )
    assert_cannot_read(result, "index", index_file)
    assert not (tmp_path / "out").exists()


def test_extract_live_mode_without_env_fails(runner, tmp_path, index_file, monkeypatch):
    monkeypatch.delenv(ENV_ENDPOINT, raising=False)
    monkeypatch.delenv(ENV_MODEL, raising=False)
    result = runner.invoke(
        main,
        [
            "extract",
            "--report", str(SCENARIOS / "url_crash" / "report.txt"),
            "--index", str(index_file),
            "--gateway", "live",
            "--out", str(tmp_path / "out"),
        ],
    )
    assert result.exit_code == 3


# -- replay ------------------------------------------------------------------


def replay_args(scenario: str, out_dir, extra=()):
    directory = SCENARIOS / scenario
    config = json.loads((directory / "scenario.json").read_text())
    return [
        "replay",
        "--report", str((directory / config["report"]).resolve()),
        "--script", str((directory / config["gold_script"]).resolve()),
        "--sim-spec", str((directory / config["app"]).resolve()),
        "--gateway", "mock",
        "--mock-script", str((directory / config["replay_mock"]).resolve()),
        "--budget", "10",
        "--out", str(out_dir),
        *extra,
    ]


def test_replay_url_crash_exits_zero(runner, tmp_path):
    result = runner.invoke(main, replay_args("url_crash", tmp_path / "out"))
    assert result.exit_code == 0, result.output
    assert "reproduced" in result.output
    summary = json.loads((tmp_path / "out" / "result.json").read_text())
    assert summary["outcome"] == "reproduced"
    assert summary["steps_executed"] <= 3
    assert (tmp_path / "out" / "trace.jsonl").exists()


def test_replay_outputs_identical_across_runs(runner, tmp_path):
    runner.invoke(main, replay_args("url_crash", tmp_path / "a"))
    runner.invoke(main, replay_args("url_crash", tmp_path / "b"))
    assert file_hash(tmp_path / "a" / "trace.jsonl") == file_hash(tmp_path / "b" / "trace.jsonl")
    assert file_hash(tmp_path / "a" / "result.json") == file_hash(tmp_path / "b" / "result.json")


def test_replay_zero_budget_fails_domain(runner, tmp_path):
    args = replay_args("url_crash", tmp_path / "out")
    args[args.index("--budget") + 1] = "0"
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    summary = json.loads((tmp_path / "out" / "result.json").read_text())
    assert summary["outcome"] == "budget_exhausted"


def test_replay_nan_budget_is_a_usage_error(runner, tmp_path):
    args = replay_args("url_crash", tmp_path / "out")
    args[args.index("--budget") + 1] = "nan"
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "'--budget'" in result.output
    assert not (tmp_path / "out").exists()


def test_replay_hidden_about_needs_exploration(runner, tmp_path):
    ok = runner.invoke(main, replay_args("hidden_about", tmp_path / "with"))
    assert ok.exit_code == 0, ok.output
    without = runner.invoke(
        main,
        replay_args("hidden_about", tmp_path / "without", extra=["--no-exploration", "--max-iterations", "8"]),
    )
    assert without.exit_code == 1
    summary = json.loads((tmp_path / "without" / "result.json").read_text())
    assert summary["outcome"] == "budget_exhausted"


def test_replay_of_a_reply_escaping_a_lone_surrogate_ends_without_a_traceback(runner, tmp_path):
    # The reply itself is ASCII; the command it decodes to names a feature UTF-8 cannot encode.
    script = tmp_path / "mock.jsonl"
    script.write_text(json.dumps({"response": json.dumps([{"action": "click", "feature": "x\ud800"}]), "times": None}))
    args = replay_args("url_crash", tmp_path / "out", extra=["--no-exploration"])
    args[args.index("--mock-script") + 1] = str(script)
    result = runner.invoke(main, args)
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
    assert "Traceback" not in result.output
    trace = (tmp_path / "out" / "trace.jsonl").read_bytes()
    assert [json.loads(line)["no_actionable"] for line in trace.decode("utf-8").splitlines()] == [True, True]
    summary = json.loads((tmp_path / "out" / "result.json").read_text(encoding="utf-8"))
    assert summary["outcome"] == "no_actionable_output"
    assert summary["trace_sha256"] == hashlib.sha256(trace).hexdigest()


def test_replay_requires_exactly_one_backend(runner, tmp_path):
    args = replay_args("url_crash", tmp_path / "out", extra=["--device-serial", "emulator-5554"])
    result = runner.invoke(main, args)
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "option, what, text",
    [
        ("--report", "report", None),
        ("--script", "script", None),
        ("--script", "script", '{"steps": [{"action": "fly"}]}'),
        ("--script", "script", "[1]"),
        ("--script", "script", '{"steps": "x"}'),
        pytest.param("--script", "script", '{"steps": [{"action": "tap", "component": "x\\ud800"}]}', id="script-lone surrogate"),
        ("--sim-spec", "app spec", None),
        ("--sim-spec", "app spec", "[1]"),
        ("--sim-spec", "app spec", '{"initial_state": "a", "states": {"a": 5}}'),
        ("--sim-spec", "app spec", '{"initial_state": "a", "states": {"a": {}}, "transitions": [5]}'),
        ("--sim-spec", "app spec", '{"initial_state": "a", "states": {"a": {}}, "transitions": [{"from": ["a"], "to": "a", "verb": "back"}]}'),
        ("--sim-spec", "app spec", '{"initial_state": "a", "states": {"a": {"elements": [{"id": "go", "class": "Button", "text": ["Go"]}]}}}'),
        pytest.param("--sim-spec", "app spec", '{"initial_state": "a", "states": {"a": 5, "b": 6}}', id="two violations"),
        pytest.param(
            "--sim-spec", "app spec", '{"initial_state": "a", "states": {"a": {"elements": [{"id": "go", "class": "Button", "text": "Go\\ud800"}]}}}',
            id="app spec-lone surrogate",
        ),
        ("--mock-script", "mock script", None),
        ("--mock-script", "mock script", '{"when": "Screen"}'),
        ("--mock-script", "mock script", '{"response": 5}'),
        ("--mock-script", "mock script", '{"response": "x", "times": "2"}'),
        pytest.param("--mock-script", "mock script", '{"response": "x\\ud800"}', id="mock script-lone surrogate"),
        *(pytest.param(option, what, DEEP_JSON, id=f"{option}-{what}-nested too deeply")
          for option, what in (("--script", "script"), ("--sim-spec", "app spec"), ("--mock-script", "mock script"))),
    ],
)
def test_replay_missing_or_malformed_input_exits_3_naming_it(runner, tmp_path, option, what, text):
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text + "\n")
    args = replay_args("url_crash", tmp_path / "out")
    args[args.index(option) + 1] = str(path)
    assert_cannot_read(runner.invoke(main, args), what, path)


def test_config_file_that_is_malformed_exits_3_naming_it(runner, tmp_path):
    config = tmp_path / "config.json"
    for text in ("{", DEEP_JSON):
        config.write_text(text)
        assert_cannot_read(runner.invoke(main, ["--config", str(config), "build-index"]), "config", config)


# -- eval --------------------------------------------------------------------


def test_eval_bundled_suite(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(main, ["eval", "--scenarios", str(SCENARIOS), "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = (out / "report.txt").read_text()
    assert "100.00% 100.00% 100.00% 100.00% n/a" in report
    lines = report.splitlines()
    aggregate_row = lines[lines.index("NSR Attempted Average-Time Average-LLM-Time") + 1]
    assert aggregate_row.startswith("3 4 ")
    payload = json.loads((out / "report.json").read_text())
    assert payload["aggregate"]["nsr"] == 3
    assert payload["aggregate"]["attempted"] == 4
    assert payload["scores"]["step"] == [10, 10]
    assert "corpus" in payload["input_hashes"]
    for scenario in ("url_crash", "hidden_about", "hidden_about_noexplore", "checkout"):
        log = json.loads((out / scenario / "extraction_log.json").read_text())
        assert "Here are the sentences in current bug report:" in log["prompt"]
        assert len(log["retrieved"]) >= len(log["sentences"]) > 0


def test_eval_trace_files_deterministic(runner, tmp_path):
    runner.invoke(main, ["eval", "--scenarios", str(SCENARIOS), "--out", str(tmp_path / "a")])
    runner.invoke(main, ["eval", "--scenarios", str(SCENARIOS), "--out", str(tmp_path / "b")])
    for scenario in ("url_crash", "hidden_about", "hidden_about_noexplore", "checkout"):
        first = tmp_path / "a" / scenario / "trace.jsonl"
        second = tmp_path / "b" / scenario / "trace.jsonl"
        assert file_hash(first) == file_hash(second), scenario


def test_eval_empty_directory_headers_only(runner, tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    out = tmp_path / "out"
    result = runner.invoke(main, ["eval", "--scenarios", str(empty), "--out", str(out)])
    assert result.exit_code == 0
    report = (out / "report.txt").read_text()
    assert "Step Action Component Input Direction" in report
    assert "%" not in report


def test_eval_corrupt_scenario_names_file(runner, tmp_path):
    broken = tmp_path / "suite" / "broken"
    broken.mkdir(parents=True)
    (broken / "scenario.json").write_text("{not json")
    result = runner.invoke(main, ["eval", "--scenarios", str(tmp_path / "suite"), "--out", str(tmp_path / "out")])
    assert result.exit_code != 0
    assert "scenario.json" in result.output


def one_scenario_suite(tmp_path, **values):
    """A suite holding ``hidden_about_noexplore`` with absolute paths, its values replaced by ``values``."""
    source = SCENARIOS / "hidden_about_noexplore"
    raw = json.loads((source / "scenario.json").read_text())
    for key in ("app", "report", "gold_script", "extract_mock", "replay_mock"):
        raw[key] = str((source / raw[key]).resolve())
    raw.update(values)
    scenario = tmp_path / "suite" / "hidden_about_noexplore"
    scenario.mkdir(parents=True)
    (scenario / "scenario.json").write_text(json.dumps(raw))
    return tmp_path / "suite"


def test_eval_scenario_values_are_converted_like_flags(runner, tmp_path):
    suite = one_scenario_suite(tmp_path, budget_s="10", exploration="false", max_iterations="8", k="1")
    result = runner.invoke(main, ["eval", "--scenarios", str(suite), "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    digest = file_hash(tmp_path / "out" / "hidden_about_noexplore" / "trace.jsonl")[:16]
    assert digest == REFERENCE_SHA256[("hidden_about_noexplore", "trace.jsonl")]


@pytest.mark.parametrize(
    "key, value",
    [("depth", "x"), ("depth", 0), ("explore_actions", 0), ("budget_s", "soon"), ("budget_s", float("nan")),
     ("exploration", "maybe"), ("max_iterations", -1), ("k", "x"), ("k", 0)],
)
def test_eval_bad_scenario_value_names_file_and_key(runner, tmp_path, key, value):
    suite = one_scenario_suite(tmp_path, **{key: value})
    result = runner.invoke(main, ["eval", "--scenarios", str(suite), "--out", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert str(suite / "hidden_about_noexplore" / "scenario.json") in result.output
    assert repr(key) in result.output


def test_eval_malformed_corpus_exits_3_naming_it(runner, tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(BAD_LABEL_CORPUS + "\n")
    suite = one_scenario_suite(tmp_path)
    result = runner.invoke(main, ["eval", "--scenarios", str(suite), "--corpus", str(corpus), "--out", str(tmp_path / "out")])
    assert_cannot_read(result, "corpus", corpus)


def test_eval_scenario_that_is_no_object_exits_1_naming_it(runner, tmp_path):
    suite = one_scenario_suite(tmp_path)
    spec_file = suite / "hidden_about_noexplore" / "scenario.json"
    spec_file.write_text("[1]")
    result = runner.invoke(main, ["eval", "--scenarios", str(suite), "--out", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"error: scenario {spec_file}: " in result.output


@pytest.mark.parametrize("gold", ['{"steps": [{"action": "fly"}]}', "[1]"])
def test_eval_malformed_gold_script_exits_1_naming_the_scenario(runner, tmp_path, gold):
    gold_file = tmp_path / "gold.json"
    gold_file.write_text(gold)
    suite = one_scenario_suite(tmp_path, gold_script=str(gold_file))
    result = runner.invoke(main, ["eval", "--scenarios", str(suite), "--out", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"error: scenario {suite / 'hidden_about_noexplore' / 'scenario.json'}: " in result.output


def test_eval_missing_directory_fails_environment(runner, tmp_path):
    result = runner.invoke(
        main, ["eval", "--scenarios", str(tmp_path / "missing"), "--out", str(tmp_path / "out")]
    )
    assert result.exit_code == 3


# -- config file -----------------------------------------------------------------


def test_config_file_supplies_defaults_and_flags_win(runner, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"corpus_path": str(CORPUS), "index_path": str(tmp_path / "from_config.json")}))
    result = runner.invoke(main, ["--config", str(config), "build-index"])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "from_config.json").exists()

    override = tmp_path / "flag_wins.json"
    result = runner.invoke(main, ["--config", str(config), "build-index", "--out", str(override)])
    assert result.exit_code == 0
    assert override.exists()


def hidden_about_config(tmp_path, **values):
    """A config file naming every input of a ``hidden_about`` replay, plus ``values``."""
    directory = SCENARIOS / "hidden_about"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "report_path": str(directory / "report.txt"),
        "script_path": str(directory / "gold.json"),
        "sim_spec_path": str(fixtures_path() / "apps" / "hidden_about.json"),
        "mock_script_path": str(directory / "replay_mock.jsonl"),
        "output_dir": str(tmp_path / "out"),
        **values,
    }))
    return config


def test_config_file_values_are_converted_like_flags(runner, tmp_path):
    config = hidden_about_config(tmp_path, budget_s="10", exploration="false", max_iterations="8")
    result = runner.invoke(main, ["--config", str(config), "replay"])
    assert result.exit_code == 1, result.output
    digest = file_hash(tmp_path / "out" / "trace.jsonl")[:16]
    assert digest == REFERENCE_SHA256[("hidden_about_noexplore", "trace.jsonl")]


def test_config_file_flag_wins_for_replay(runner, tmp_path):
    config = hidden_about_config(tmp_path, budget_s=10, exploration=False)
    result = runner.invoke(main, ["--config", str(config), "replay", "--exploration"])
    assert result.exit_code == 0, result.output
    digest = file_hash(tmp_path / "out" / "trace.jsonl")[:16]
    assert digest == REFERENCE_SHA256[("hidden_about", "trace.jsonl")]


@pytest.mark.parametrize(
    "command, key, value, option",
    [
        ("replay", "depth", "x", "--depth"),
        ("replay", "depth", 0, "--depth"),
        ("replay", "explore_actions", 0, "--explore-actions"),
        ("replay", "budget_s", -5, "--budget"),
        ("replay", "budget_s", float("nan"), "--budget"),
        ("replay", "max_iterations", -1, "--max-iterations"),
        ("extract", "retrieval_k", 0, "--k"),
        ("build-index", "dimension", 0, "--dimension"),
    ],
)
def test_config_file_bad_value_is_a_usage_error(runner, tmp_path, command, key, value, option):
    config = hidden_about_config(
        tmp_path, corpus_path=str(CORPUS), index_path=str(tmp_path / "index.json"), **{key: value}
    )
    result = runner.invoke(main, ["--config", str(config), command])
    assert result.exit_code == 2
    assert f"'{option}'" in result.output


def test_config_file_must_hold_a_json_object(runner, tmp_path):
    config = tmp_path / "config.json"
    config.write_text("[1]")
    result = runner.invoke(
        main, ["--config", str(config), "build-index", "--corpus", str(CORPUS), "--out", str(tmp_path / "i.json")]
    )
    assert result.exit_code == 3


# -- outputs -----------------------------------------------------------------


@pytest.mark.parametrize("command", ["build-index", "extract", "replay", "replay-utg-cache", "eval"])
def test_output_path_that_cannot_be_written_exits_3(runner, tmp_path, index_file, command):
    blocker = tmp_path / "afile"
    blocker.write_text("")
    scenario = SCENARIOS / "url_crash"
    args = {
        "build-index": ["build-index", "--corpus", str(CORPUS), "--out", str(blocker / "i.bin")],
        "extract": [
            "extract", "--report", str(scenario / "report.txt"), "--index", str(index_file),
            "--mock-script", str(scenario / "extract_mock.jsonl"), "--out", str(blocker / "out"),
        ],
        "replay": replay_args("url_crash", blocker / "out"),
        "replay-utg-cache": replay_args("url_crash", tmp_path / "out", ["--utg-cache", str(blocker / "cache")]),
        "eval": ["eval", "--scenarios", str(SCENARIOS), "--out", str(blocker / "out")],
    }[command]
    result = runner.invoke(main, args)
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    errors = [line for line in result.output.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(f"error: cannot write {blocker}/"), result.output
