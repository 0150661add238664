from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from crashreplay import gateway as gateway_module
from crashreplay.device import UiElement, UiState
from crashreplay.explorer import UtgGraph, synthesize_ui_functions
from crashreplay.gateway import (
    MAX_REPLY_CHARS,
    MAX_REPLY_NESTING,
    ActionCommand,
    BudgetExceeded,
    GatewayError,
    HttpGateway,
    LlmConfig,
    LlmGateway,
    MockGateway,
    TransportError,
    _device_verb,
    decode_json,
    encode_json,
    filter_json_payload,
    parse_action_sequence,
)
from crashreplay.grammar import ACTION_NAMES, VOCABULARY, S2RScript, normalize_verb
from crashreplay.replay import Outcome, run
from conftest import DEEP_JSON, counting_server, json_values, unstructured_example

TABLE_SINGLE = """[
    {
        "action": "click",
        "feature": "REFRESH"
    }
]"""

TABLE_SEQUENCE = """[
    {
        "action": "set_text",
        "feature": "https://librenews.io/api",
        "input_text": "xxyyzz"
    },
    {
        "action": "click",
        "feature": "OK"
    }
]"""


# -- filtering ----------------------------------------------------------------


def test_filter_single_action_payload():
    out = filter_json_payload(TABLE_SINGLE)
    assert out is not None
    assert json.loads(out) == [{"action": "click", "feature": "REFRESH"}]


def test_filter_passes_sequence_payload():
    out = filter_json_payload("Sure, here is the plan:\n" + TABLE_SEQUENCE + "\nGood luck!")
    assert out is not None
    assert json.loads(out) == [
        {"action": "set_text", "feature": "https://librenews.io/api", "input_text": "xxyyzz"},
        {"action": "click", "feature": "OK"},
    ]


@pytest.mark.parametrize("number", [1, 2, 3, 5])
def test_filter_rejects_unstructured_outputs(number):
    assert filter_json_payload(unstructured_example(number)) is None


def test_filter_concatenates_multiple_arrays_in_order():
    out = filter_json_payload(unstructured_example(4))
    assert out is not None
    assert json.loads(out) == [
        {"action": "click", "feature": "Licenses"},
        {"action": "scroll", "target_direction": "down"},
        {"action": "back"},
    ]


def test_filter_ignores_non_action_arrays():
    assert filter_json_payload("values: [1, 2, 3] and [\"a\"]") is None


def test_filter_handles_brackets_inside_strings():
    for text, expected in (
        ('[{"action": "click", "feature": "weird ] name"}]', [{"action": "click", "feature": "weird ] name"}]),
        ('[1, [{"action": "back"}]]', [{"action": "back"}]),
    ):
        assert json.loads(filter_json_payload(text)) == expected


def test_filter_idempotent():
    for text in (TABLE_SINGLE, unstructured_example(4)):
        once = filter_json_payload(text)
        assert once is not None
        assert filter_json_payload(once) == once


@pytest.mark.parametrize(
    "reply",
    [
        pytest.param("[" * 16000, id="unclosed-brackets"),
        pytest.param("[" * 70 + '{"action": "back"}' + "]" * 70, id="over-nesting"),
        pytest.param('[{"action": "back"}]' + " " * MAX_REPLY_CHARS, id="over-length"),
    ],
)
def test_filter_treats_a_reply_over_its_bounds_as_non_actionable(reply):
    start = time.process_time()
    assert filter_json_payload(reply) is None
    assert time.process_time() - start < 0.05


def test_filter_decodes_nesting_up_to_its_bound():
    depth = MAX_REPLY_NESTING - 2  # the qualifying array and its object are two more levels
    reply = "[" * depth + '[{"action": "back"}]' + "]" * depth
    assert json.loads(filter_json_payload(reply)) == [{"action": "back"}]


def test_filter_output_always_parses_as_array():
    for number in range(1, 6):
        out = filter_json_payload(unstructured_example(number))
        if out is not None:
            assert isinstance(json.loads(out), list)


#: Any acyclic JSON value: text with non-ASCII and control characters, any int, any float (nan and infinities too).
any_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=12,
)


@given(any_json)
@example([-0.0, 1e-7, float("nan"), float("-inf"), 2**70])
@example({"é\u2028": "a\x00\x1f\x7f\"\\ü😀", "": [True, False, None]})
def test_the_shared_encoder_writes_what_json_dumps_writes(value):
    assert encode_json(value) == json.dumps(value, ensure_ascii=False)


@pytest.mark.parametrize("value", [{1, 2}, object(), [1, {"a": frozenset()}], {"k": b"x"}])
def test_the_shared_encoder_refuses_what_json_dumps_refuses_with_its_message(value):
    with pytest.raises(TypeError) as expected:
        json.dumps(value, ensure_ascii=False)
    with pytest.raises(TypeError) as refused:
        encode_json(value)
    assert str(refused.value) == str(expected.value)


def test_the_shared_encoder_writes_the_same_without_the_c_module(monkeypatch):
    values = [[{"action": "set_text", "input_text": "é\u2028\x00"}], 1e-7, float("nan"), "ü", None, {"": [True]}]
    kept = [encode_json(value) for value in values]
    monkeypatch.setattr(gateway_module, "_C_ENCODER", None)
    assert [encode_json(value) for value in values] == kept == [json.dumps(v, ensure_ascii=False) for v in values]


@given(
    st.lists(st.tuples(any_json, st.dictionaries(st.text(max_size=4), any_json, max_size=3)), min_size=1, max_size=3),
    st.text(st.characters(exclude_characters="[")),
    st.text(st.characters(exclude_characters="[")),
    st.booleans(),
)
@example([("click", {"feature": "Ü\n"})], "Sure: ", " done.", False)
def test_filter_re_encodes_commands_wrapped_in_prose_as_json_dumps_does(pairs, before, after, ascii_reply):
    commands = [{"action": action, **fields} for action, fields in pairs]
    reply = before + json.dumps(commands, ensure_ascii=ascii_reply) + after
    assert filter_json_payload(reply) == json.dumps(commands, ensure_ascii=False)


# -- parsing ------------------------------------------------------------------


def test_parse_sequence_payload():
    commands = parse_action_sequence(filter_json_payload(TABLE_SEQUENCE))
    assert commands == [
        ActionCommand(action="set_text", feature="https://librenews.io/api", input_text="xxyyzz"),
        ActionCommand(action="click", feature="OK"),
    ]


def test_parse_empty_array():
    assert parse_action_sequence("[]") == []


def test_parse_normalizes_verb_and_key_aliases():
    commands = parse_action_sequence(
        '[{"action": "tap", "feature": "OK"},'
        ' {"action": "long tap", "feature": "row"},'
        ' {"action": "Double-Tap", "feature": "row"},'
        ' {"action": "input", "feature": "field", "input_text": "x"},'
        ' {"action": "scroll", "target_direction": "down"}]'
    )
    assert [c.action for c in commands] == ["click", "long_click", "double_click", "set_text", "scroll"]
    assert commands[4].direction == "down"


def test_the_verb_memo_stays_bounded_and_maps_each_name_as_the_grammar_does():
    # 1,000 distinct hostile names: separators, case, non-ASCII, long text, and JSON values that are not strings.
    stems = ("Tap", "long-TAP", " frob_", "İnput")
    names: list = [f"{stems[i % 4]}{'_- '[i % 3]}{i}{'é' * (i % 5)}" for i in range(850)]
    names += ["x" * (1000 + i) for i in range(50)] + [[i] for i in range(40)] + [{"a": i} for i in range(40)]
    names += [i + 0.5 for i in range(18)] + [None, True]
    assert len({json.dumps(name) for name in names}) == 1000
    for name in names + ["Double-Tap", "long tap", "input", "BACK"]:
        normalized = normalize_verb(name)
        action = ACTION_NAMES.get(normalized)
        expected = (action and VOCABULARY[action].device_verb) or normalized.replace(" ", "_")
        try:
            (command,) = parse_action_sequence(json.dumps([{"action": name, "feature": "f", "input_text": "x"}]))
            assert command.action == expected
        except GatewayError as exc:
            assert f"command 0: unknown action {expected!r}" in str(exc)
        assert _device_verb.cache_info().currsize <= 256


def test_parse_rejects_missing_input_text():
    with pytest.raises(GatewayError, match="^action array failed validation: command 0: set_text requires input_text$"):
        parse_action_sequence('[{"action": "set_text", "feature": "URL"}]')


def test_parse_rejects_unknown_verb():
    with pytest.raises(GatewayError, match="command 0: unknown action 'frobnicate'"):
        parse_action_sequence('[{"action": "frobnicate", "feature": "x"}]')


def test_parse_reports_every_bad_command():
    with pytest.raises(GatewayError, match="command 0: scroll requires a direction; command 1: click requires a feature$"):
        parse_action_sequence('[{"action": "scroll"}, {"action": "click"}]')


@pytest.mark.parametrize(
    "reply, problem",
    [
        ('[{"action": "back", "feature": ""}]', "feature is empty"),
        ('[{"action": "scroll", "direction": "down", "feature": ""}]', "feature is empty"),
        ('[{"action": "click", "feature": ""}]', "click requires a feature"),
    ],
)
def test_parse_rejects_an_empty_feature_on_every_verb(reply, problem):
    # The key is reported, never dropped: no element is named by an empty feature.
    with pytest.raises(GatewayError, match=f"^action array failed validation: command 0: {problem}$"):
        parse_action_sequence(reply)


def test_parse_ignores_unknown_keys():
    (command,) = parse_action_sequence('[{"action": "back", "confidence": 0.9}]')
    assert command == ActionCommand(action="back")


@pytest.mark.parametrize("field", ["feature", "input_text", "direction"])
def test_a_command_field_holding_a_lone_surrogate_is_malformed(field):
    # The reply escapes the surrogate, so it is ASCII; the decoded field cannot be encoded as UTF-8.
    reply = json.dumps([{"action": "set_text", "feature": "URL", "input_text": "x", field: "x\ud800"}])
    with pytest.raises(GatewayError, match=f"command 0: {field} holds a lone surrogate code point"):
        parse_action_sequence(reply)


def test_decode_json_refuses_json_nested_too_deeply_as_a_value_error():
    with pytest.raises(ValueError, match="^JSON nested too deeply to decode ") as caught:
        decode_json(DEEP_JSON)
    assert not isinstance(caught.value, json.JSONDecodeError)  # a mock script line that is not JSON stays a raw reply


def test_decode_json_rejects_a_lone_surrogate_and_keeps_an_escaped_pair():
    # An escaped pair decodes to one code point, and an escaped backslash leaves no surrogate at all.
    assert decode_json(r'["\ud83d\ude00", "\\ud800"]') == ["\U0001f600", "\\ud800"]
    for text in (r'["x\ud800"]', r'{"\uDFFF": 1}', r'[["\ud83d"]]'):
        with pytest.raises(ValueError, match="^a string holds a lone surrogate code point$"):
            decode_json(text)


# -- mock gateway ----------------------------------------------------------------


def test_mock_fifo_returns_in_order():
    gateway = MockGateway.from_script(["X", "Y"])
    assert gateway.complete("a") == "X"
    assert gateway.complete("b") == "Y"


def test_mock_fifo_exhausts():
    gateway = MockGateway.from_script(["X", "Y"])
    gateway.complete("a")
    gateway.complete("b")
    with pytest.raises(GatewayError, match="no scripted response left for this prompt"):
        gateway.complete("c")


def test_mock_when_rules_match_substring():
    gateway = MockGateway.from_script(
        [{"when": "settings", "response": "S"}, {"response": "D"}]
    )
    assert gateway.complete("open the settings page") == "S"
    assert gateway.complete("anything else") == "D"
    assert gateway.complete("settings again") == "S"


@pytest.mark.parametrize(
    "entry",
    [{"when": "Screen"}, {"response": 5}, {"response": "x", "times": "2"}, {"response": "x", "times": True},
     {"response": "x", "error": "boom"}, {"response": "x", "when_sha256": "00"}, 5, None, ["x"]],
)
def test_mock_script_rejects_an_entry_of_another_form(entry):
    with pytest.raises(ValueError):
        MockGateway.from_script([entry])


@given(st.lists(json_values(["response", "when", "times", "error"], ["a", "b"]), max_size=4), st.sampled_from(["a", "ab"]))
def test_any_json_mock_script_loads_or_raises_value_error(tmp_path_factory, lines, prompt):
    """Every line either loads or is rejected, and a loaded script answers with a string or a gateway error."""
    path = tmp_path_factory.getbasetemp() / "any_json_mock_script.jsonl"  # one file, rewritten per example
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    try:
        gateway = MockGateway.from_script_file(path)
    except ValueError:
        return
    for _ in range(len(lines) + 1):
        try:
            assert isinstance(gateway.complete(prompt), str)
        except GatewayError:
            pass


def test_mock_scripted_error_raises_transport():
    gateway = MockGateway.from_script([{"error": "boom", "times": 1}, {"response": "ok"}])
    with pytest.raises(TransportError):
        gateway.complete("a")
    assert gateway.complete("b") == "ok"


def test_mock_script_file_round_trip(tmp_path):
    path = tmp_path / "script.jsonl"
    path.write_text('{"when": "x", "response": "A"}\n"B"\n# comment\n', encoding="utf-8")
    gateway = MockGateway.from_script_file(path)
    assert gateway.complete("has x inside") == "A"
    assert gateway.complete("plain") == "B"


def test_mock_exchange_log_deterministic(tmp_path):
    path = tmp_path / "script.jsonl"
    path.write_text('{"response": "[{\\"action\\": \\"back\\"}]"}\n', encoding="utf-8")

    def run_once():
        gateway = MockGateway.from_script_file(path)
        commands = [gateway.request_actions("prompt one"), gateway.request_actions("prompt two")]
        return commands, [(e.prompt, e.raw_response, e.latency) for e in gateway.exchanges]

    assert run_once() == run_once()


# -- retry / deadline ----------------------------------------------------------


class FlakyGateway(LlmGateway):
    def __init__(self, config, fail_times, delay=0.0):
        super().__init__(config)
        self.fail_times = fail_times
        self.delay = delay
        self.attempts = 0

    def _complete_once(self, prompt):
        self.attempts += 1
        time.sleep(self.delay)
        if self.attempts <= self.fail_times:
            raise TransportError("flaky")
        return "ok", 0.0


def test_retry_recovers_within_budget():
    gateway = FlakyGateway(LlmConfig(endpoint="x", model_name="m", max_retries=2), fail_times=2)
    assert gateway.complete("p") == "ok"
    assert gateway.attempts == 3


def test_retry_exhaustion_raises_after_max_retries_plus_one():
    gateway = FlakyGateway(LlmConfig(endpoint="x", model_name="m", max_retries=2), fail_times=99)
    with pytest.raises(TransportError):
        gateway.complete("p")
    assert gateway.attempts == 3


def test_deadline_checked_before_every_retry():
    gateway = FlakyGateway(LlmConfig(endpoint="x", model_name="m", max_retries=2), fail_times=99, delay=0.05)
    with pytest.raises(BudgetExceeded):
        gateway.complete("p", deadline=time.monotonic() + 0.02)
    assert gateway.attempts == 1


def test_http_gateway_unreachable_endpoint(monkeypatch):
    monkeypatch.setattr("crashreplay.gateway.REQUEST_TIMEOUT_S", 0.5)
    config = LlmConfig(endpoint="http://127.0.0.1:9/v1", model_name="m", max_retries=1)
    with pytest.raises(TransportError):
        HttpGateway(config).complete("p")


def test_deadline_already_passed_raises_budget_exceeded():
    gateway = MockGateway.from_script(["X"])
    with pytest.raises(BudgetExceeded):
        gateway.complete("p", deadline=time.monotonic() - 1.0)


def test_empty_prompt_rejected():
    gateway = MockGateway.from_script(["X"])
    with pytest.raises(ValueError):
        gateway.complete("")


# -- request_actions (repair flow) ----------------------------------------------


def test_request_actions_parses_direct_reply():
    gateway = MockGateway.from_script([TABLE_SINGLE])
    commands = gateway.request_actions("do it")
    assert commands == [ActionCommand(action="click", feature="REFRESH")]


def test_request_actions_repairs_once():
    gateway = MockGateway.from_script(["no json here", TABLE_SINGLE])
    commands = gateway.request_actions("do it")
    assert commands == [ActionCommand(action="click", feature="REFRESH")]
    assert len(gateway.exchanges) == 2
    assert "JSON" in gateway.exchanges[1].prompt


def test_request_actions_gives_up_after_repair():
    gateway = MockGateway.from_script(["no json", "still no json"])
    with pytest.raises(GatewayError, match="no JSON action array, even after a repair attempt"):
        gateway.request_actions("do it")


def test_request_actions_malformed_commands_surface_as_no_actionable():
    gateway = MockGateway.from_script(['[{"action": "set_text", "feature": "URL"}]'])
    with pytest.raises(GatewayError, match="^action array failed validation: command 0: set_text requires input_text$"):
        gateway.request_actions("do it")


def test_request_actions_rejects_text_with_a_control_character():
    reply = json.dumps([{"action": "set_text", "feature": "URL", "input_text": "a\nb"}])
    gateway = MockGateway.from_script([reply])
    with pytest.raises(GatewayError, match=r"command 0: input_text holds the control character '\\n'"):
        gateway.request_actions("do it")


def test_a_reply_holding_a_lone_surrogate_is_a_bad_payload():
    gateway = MockGateway.from_script(['[{"action": "click", "feature": "x\ud800"}]', '[{"action": "click", "feature": "é"}]'])
    with pytest.raises(TransportError, match=r"bad completion payload: the lone surrogate '\\ud800'"):
        gateway.request_actions("do it")
    assert gateway.exchanges == []
    assert gateway.request_actions("do it") == [ActionCommand(action="click", feature="é")]


def test_llm_config_validation():
    with pytest.raises(ValueError):
        LlmConfig(endpoint="x", model_name="m", max_retries=-1)


class _ChatHandler(BaseHTTPRequestHandler):
    """A chat-completions endpoint that always replies with one ``back`` action."""

    content = '[{"action": "back"}]'

    def body(self) -> bytes:
        return json.dumps({"choices": [{"message": {"content": self.content}}]}).encode()

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        request = json.loads(self.rfile.read(length))
        assert request["model"] == "test-model"
        assert request["temperature"] == 0.0
        body = self.body()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class _NullChatHandler(_ChatHandler):
    """A chat-completions endpoint whose completion is null; its server's ``posts`` counts the requests."""

    content = None

    def do_POST(self):
        self.server.posts = getattr(self.server, "posts", 0) + 1
        super().do_POST()


class _TextChatHandler(_ChatHandler):
    """An endpoint that replies in the plain ``{"text": ...}`` completion form."""

    content = '[{"action": "click", "feature": "OK"}]'

    def body(self) -> bytes:
        return json.dumps({"text": self.content}).encode()


class _DeepChatHandler(_ChatHandler):
    """An endpoint whose whole reply is JSON nested too deeply to decode."""

    def body(self) -> bytes:
        return DEEP_JSON.encode()


class _Latin1ChatHandler(_ChatHandler):
    """An endpoint whose reply is not UTF-8."""

    def body(self) -> bytes:
        return '{"text": "café"}'.encode("latin-1")


def chat_config(server) -> LlmConfig:
    return LlmConfig(
        endpoint=f"http://127.0.0.1:{server.server_port}/v1/chat/completions",
        model_name="test-model",
        api_key="sk-test",
    )


def test_http_gateway_parses_chat_completion_reply():
    with counting_server(_ChatHandler) as server:
        gateway = HttpGateway(chat_config(server))
        commands = gateway.request_actions("go back")
        assert commands == [ActionCommand(action="back")]
        assert gateway.exchanges[0].latency > 0.0
        gateway.session.close()


def test_http_gateway_parses_a_plain_text_completion():
    with counting_server(_TextChatHandler) as server:
        gateway = HttpGateway(chat_config(server))
        assert gateway.request_actions("tap OK") == [ActionCommand(action="click", feature="OK")]
        gateway.session.close()


@pytest.mark.parametrize("handler", [_DeepChatHandler, _Latin1ChatHandler], ids=["nested too deeply", "not UTF-8"])
def test_http_gateway_treats_an_undecodable_reply_as_a_bad_payload(handler, url_crash_device):
    with counting_server(handler) as server:
        gateway = HttpGateway(chat_config(server))
        with pytest.raises(TransportError, match="^bad completion payload: "):
            gateway.complete("go back")
        result = run("The app crashes.", S2RScript(steps=()), url_crash_device, gateway, 10.0, explore_enabled=False)
        assert result.outcome == Outcome.NO_ACTIONABLE_OUTPUT
        gateway.session.close()


def test_http_gateway_reuses_one_connection_for_every_call():
    with counting_server(_ChatHandler) as server:
        gateway = HttpGateway(chat_config(server))
        for _ in range(3):
            assert gateway.complete("go back") == '[{"action": "back"}]'
        assert server.connections == 1
        gateway.session.close()


def test_http_gateway_treats_a_null_completion_as_a_bad_payload():
    with counting_server(_NullChatHandler) as server:
        gateway = HttpGateway(chat_config(server))
        with pytest.raises(TransportError, match="bad completion payload"):
            gateway.complete("describe the screen")
        assert server.posts == gateway.config.max_retries + 1
        home = UiState("Home", UiElement(element_id="root", class_name="FrameLayout"))
        graph = UtgGraph(origin=home.state_id, nodes={home.state_id: home}, edges=[])
        assert synthesize_ui_functions(graph, gateway) == ["- Home: (description unavailable)"]
        gateway.session.close()
