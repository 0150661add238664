"""The refactor gate: bundled ``eval`` artifacts keep their reference bytes.

Any change that keeps behaviour must leave every scenario's ``trace.jsonl``
and ``result.json`` byte-identical; these sha256 prefixes pin them.  The
value types keep their fields, their immutability and their hashes.
"""

from __future__ import annotations

import hashlib

import pytest
from click.testing import CliRunner

from crashreplay.cli import fixtures_path, main
from crashreplay.device import Bounds, UiElement
from crashreplay.explorer import UtgEdge
from crashreplay.gateway import ActionCommand
from crashreplay.grammar import ActionType, S2REntity
from crashreplay.rag import LabeledSentence, RagRecord, RetrievalHit

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


ENTITY = S2REntity(ActionType.INPUT, "Name", "Zoë")
COMMAND = ActionCommand("set_text", "Name", "Zoë")
RECORD = RagRecord("r:0001", "Type Zoë into Name", (ENTITY,))
VALUES = {  # each value type, built in bulk on the hot paths, with its fields in order
    ENTITY: ("action", "component", "value", "direction", "generate_on_replay"),
    LabeledSentence("Type Zoë into Name", (ENTITY,)): ("text", "labels"),
    RECORD: ("record_id", "sentence", "labels"),
    RetrievalHit(RECORD, 0.5): ("record", "score"),
    COMMAND: ("action", "feature", "input_text", "direction"),
    UtgEdge("0123", COMMAND, "4567"): ("from_state", "action", "to_state"),
    UiElement("e1", "Button", "OK", bounds=Bounds(1, 2, 3, 4), children=(UiElement("e2", "TextView"),)): (
        "element_id", "class_name", "text", "content_desc", "resource_id", "bounds",
        "clickable", "long_clickable", "editable", "scrollable", "children",
    ),
}


@pytest.mark.parametrize("value", list(VALUES), ids=lambda value: type(value).__name__)
def test_value_types_stay_immutable_and_hash_as_the_frozen_dataclasses_did(value):
    # A frozen dataclass hashed the tuple of its fields, so set orders and traces cannot move.
    assert value._fields == VALUES[value]
    assert hash(value) == hash(tuple(value))
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    assert repr(value).startswith(f"{type(value).__name__}({value._fields[0]}=")


def test_value_types_keep_their_defaults_and_repr():
    assert repr(ActionCommand("back")) == "ActionCommand(action='back', feature=None, input_text=None, direction=None)"
    assert S2REntity(ActionType.BACK) == (ActionType.BACK, None, None, None, False)
    assert UiElement("e", "View")[2:] == (None, None, None, Bounds(0, 0, 0, 0), False, False, False, False, ())
