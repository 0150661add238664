"""The refactor gate: bundled ``eval`` artifacts keep their reference bytes.

Any change that keeps behaviour must leave every scenario's ``trace.jsonl``
and ``result.json`` byte-identical; these sha256 prefixes pin them.
"""

from __future__ import annotations

import hashlib

from click.testing import CliRunner

from crashreplay.cli import fixtures_path, main

REFERENCE_SHA256 = {
    ("checkout", "trace.jsonl"): "5d0e3774f8973be1",
    ("hidden_about", "trace.jsonl"): "a6d76197297f2934",
    ("hidden_about_noexplore", "trace.jsonl"): "dbd857ae86b8eff9",
    ("url_crash", "trace.jsonl"): "3a7d20e50dcf68cf",
    ("checkout", "result.json"): "aee91742d1d7eb84",
    ("hidden_about", "result.json"): "d9b8bd5b8dc74a6f",
    ("hidden_about_noexplore", "result.json"): "cb1869f1a5dd1b00",
    ("url_crash", "result.json"): "315b4e2ae858fea0",
}


def test_bundled_eval_artifacts_keep_reference_bytes(tmp_path):
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main, ["eval", "--scenarios", str(fixtures_path() / "scenarios"), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    digests = {
        key: hashlib.sha256((out / key[0] / key[1]).read_bytes()).hexdigest()[:16]
        for key in REFERENCE_SHA256
    }
    assert digests == REFERENCE_SHA256
    lines = result.output.splitlines()
    assert "100.00% 100.00% 100.00% 100.00% n/a" in lines
    assert lines[lines.index("NSR Attempted Average-Time Average-LLM-Time") + 1].startswith("3 4 ")
