"""Language-model gateway: request contract, JSON-array filtering, mocks.

Every model call in the pipeline goes through a gateway.  Replies are
filtered down to a strict JSON action array (models pad their answers with
prose); a scriptable mock makes the whole pipeline deterministic offline.
"""

from __future__ import annotations

import functools
import heapq
import json
import os
import re
import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .grammar import ACTION_NAMES, VERB_SPECS, VOCABULARY, normalize_verb


class GatewayError(Exception):
    """Base error for gateway failures."""


class TransportError(GatewayError):
    pass


class BudgetExceeded(GatewayError):
    """The caller-supplied deadline passed before the call could be made."""


ENV_ENDPOINT = "CRASHREPLAY_LLM_ENDPOINT"
ENV_MODEL = "CRASHREPLAY_LLM_MODEL"
ENV_API_KEY = "CRASHREPLAY_LLM_API_KEY"
#: Seconds one HTTP completion request may take before it fails as a transport error.
REQUEST_TIMEOUT_S = 30.0


@functools.cache
def load_template(name: str) -> str:
    return resources.files("crashreplay").joinpath("templates", name).read_text(encoding="utf-8")


@dataclass
class LlmConfig:
    endpoint: str
    model_name: str
    max_retries: int = 2
    api_key: str | None = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    @classmethod
    def from_env(cls) -> "LlmConfig":
        endpoint = os.environ.get(ENV_ENDPOINT)
        model = os.environ.get(ENV_MODEL)
        if not endpoint or not model:
            raise GatewayError(
                f"live mode needs {ENV_ENDPOINT} and {ENV_MODEL} set in the environment"
            )
        return cls(
            endpoint=endpoint,
            model_name=model,
            api_key=os.environ.get(ENV_API_KEY),
        )


class ActionCommand(NamedTuple):
    """One executable device action in the JSON protocol; an immutable named tuple."""

    action: str
    feature: str | None = None
    input_text: str | None = None
    direction: str | None = None

    def to_dict(self) -> dict:
        out: dict = {"action": self.action}
        if self.feature is not None:
            out["feature"] = self.feature
        if self.input_text is not None:
            out["input_text"] = self.input_text
        if self.direction is not None:
            out["direction"] = self.direction
        return out

    def problems(self) -> list[str]:
        """What the verb requires and lacks, an empty feature, text it cannot type, and text UTF-8 cannot encode."""
        spec = VERB_SPECS.get(self.action)
        if spec is None:
            return [f"unknown action {self.action!r}"]
        issues = []
        if spec.component and not self.feature:
            issues.append(f"{self.action} requires a feature")
        elif self.feature == "":  # an empty feature names no element, whatever the verb
            issues.append("feature is empty")
        if spec.value_required and self.input_text is None:
            issues.append(f"{self.action} requires input_text")
        if self.direction is None and spec.direction_required:
            issues.append(f"{self.action} requires a direction")
        if self.direction is not None and spec.directions and self.direction not in {d.value for d in spec.directions}:
            issues.append(f"bad {self.action} direction {self.direction!r}")
        control = _CONTROL.search(self.input_text or "")  # what `input text` cannot type
        if control:
            issues.append(f"input_text holds the control character {control.group()!r}")
        for name in ("feature", "input_text", "direction"):  # UTF-8 cannot encode a lone surrogate, nor a trace log it
            value = getattr(self, name)
            if value and not value.isascii() and _SURROGATE.search(value):
                issues.append(f"{name} holds a lone surrogate code point")
        return issues


_DECODER = json.JSONDecoder()
_ENCODER = json.JSONEncoder(ensure_ascii=False, check_circular=False)
_C_ENCODER = json.encoder.c_make_encoder and json.encoder.c_make_encoder(  # None without the C module
    None, _ENCODER.default, json.encoder.encode_basestring, None, ": ", ", ", False, False, True
)
_CONTROL = re.compile(r"[\x00-\x1f\x7f]")
_SURROGATE = re.compile("[\ud800-\udfff]")
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
#: Longest reply and deepest bracket nesting the filter decodes.  Brackets inside strings can hide
#: nesting from the count, so no decode starts inside MAX_REPLY_NESTING earlier ones either: together
#: the decodes scan each character about MAX_REPLY_NESTING times at most.
MAX_REPLY_CHARS = 2**16
MAX_REPLY_NESTING = 64
_BRACKET = re.compile(r"[][{}]")


def encode_json(value) -> str:
    """``json.dumps(value, ensure_ascii=False)``, from a C encoder kept for the process, not built per call."""
    return "".join(_C_ENCODER(value, 0)) if _C_ENCODER else _ENCODER.encode(value)


def decode_json(text: str):
    """``json.loads(text)`` for JSON from outside the program: the one decoder that knows its input rules.

    Raises ValueError for text that is not JSON, for JSON nested too deeply to
    decode, and when a decoded string holds a lone surrogate code point.  UTF-8
    decoded strictly holds none, so only a ``\\ud800``-``\\udfff`` escape can
    bring one in, and text without one is not searched further.
    """
    try:
        value = json.loads(text)
    except RecursionError as exc:
        raise ValueError(f"JSON nested too deeply to decode ({exc})") from exc
    if _SURROGATE_ESCAPE.search(text) and _SURROGATE.search(encode_json(value)):
        raise ValueError("a string holds a lone surrogate code point")
    return value


def filter_json_payload(text: str) -> str | None:
    """Extract the actionable JSON from free-form model output.

    Each ``[`` starts a candidate: the JSON value decoded from there, which
    qualifies when it is an array of objects each carrying an ``"action"``
    key.  The scan resumes after a qualifying array, so multiple qualifying
    arrays are concatenated in textual order.  Returns None when nothing
    qualifies, and for a reply over ``MAX_REPLY_CHARS``, or nested deeper than
    ``MAX_REPLY_NESTING`` by its bracket count or by its decodes.
    """
    if len(text) > MAX_REPLY_CHARS:
        return None
    if text.count("[") + text.count("{") > MAX_REPLY_NESTING:  # fewer openers cannot nest deeper
        depth = 0
        for bracket in _BRACKET.findall(text):  # brackets inside strings count too
            depth = depth + 1 if bracket in "[{" else max(depth - 1, 0)
            if depth > MAX_REPLY_NESTING:
                return None
    commands: list[dict] = []
    found = False
    covering: list[int] = []  # a heap of the ends of the earlier decodes that span ``i``
    i = text.find("[")
    while i != -1:
        while covering and covering[0] <= i:
            heapq.heappop(covering)
        if len(covering) == MAX_REPLY_NESTING:
            return None
        try:
            value, end = _DECODER.raw_decode(text, i)
        except ValueError as exc:  # an integer too long to convert has no position: it may cover the rest
            value, end = None, getattr(exc, "pos", len(text))
        except RecursionError:  # nested past the count, behind brackets inside strings
            return None
        if isinstance(value, list) and all(isinstance(o, dict) and "action" in o for o in value):
            commands.extend(value)
            found = True
            i = text.find("[", end)
            continue
        heapq.heappush(covering, end)
        i = text.find("[", i + 1)
    if not found:
        return None
    return encode_json(commands)


@functools.lru_cache(maxsize=256)
def _device_verb(name: str) -> str:
    """The device verb of a reply's action name: its grammar action's verb, else the name with ``_`` for spaces."""
    name = normalize_verb(name)
    action = ACTION_NAMES.get(name)
    return (action and VOCABULARY[action].device_verb) or name.replace(" ", "_")


def parse_action_sequence(json_text: str) -> list[ActionCommand]:
    """Map a JSON action array onto validated commands.

    Unknown keys are ignored; grammar action names map onto their device
    verbs, and ``target_direction`` stands for ``direction``.  Invariant
    violations raise one GatewayError naming each command's faults.
    """
    value = json.loads(json_text)
    if not isinstance(value, list):
        raise ValueError("expected a JSON array of action objects")
    commands: list[ActionCommand] = []
    issues: list[str] = []
    for index, raw in enumerate(value):
        if not isinstance(raw, dict):
            issues.append(f"command {index}: not an object")
            continue
        feature, input_text = raw.get("feature"), raw.get("input_text")
        direction = raw.get("direction", raw.get("target_direction"))
        cmd = ActionCommand(
            _device_verb(str(raw.get("action", ""))),
            None if feature is None else str(feature),
            None if input_text is None else str(input_text),
            None if direction is None else str(direction).strip().lower(),
        )
        problems = cmd.problems()
        if problems:
            issues.extend(f"command {index}: {problem}" for problem in problems)
            continue
        commands.append(cmd)
    if issues:
        raise GatewayError(f"action array failed validation: {'; '.join(issues)}")
    return commands


@dataclass(slots=True)
class LlmExchange:
    prompt: str
    raw_response: str
    latency: float = 0.0


class LlmGateway:
    """Base gateway: retries, deadline checks, exchange accounting."""

    def __init__(self, config: LlmConfig):
        self.config = config
        self.exchanges: list[LlmExchange] = []

    # -- transport ---------------------------------------------------------

    def _complete_once(self, prompt: str) -> tuple[str, float]:
        """Return (raw text, latency seconds); raise TransportError on failure."""
        raise NotImplementedError

    def complete(self, prompt: str, deadline: float | None = None) -> str:
        if not prompt:
            raise ValueError("prompt must be nonempty")
        last: Exception | None = None
        for _ in range(self.config.max_retries + 1):
            if deadline is not None and time.monotonic() >= deadline:
                raise BudgetExceeded("deadline passed before the gateway call")
            try:
                raw, latency = self._complete_once(prompt)
                if not raw.isascii() and (surrogate := _SURROGATE.search(raw)):  # UTF-8 cannot encode it
                    raise TransportError(f"bad completion payload: the lone surrogate {surrogate.group()!r}")
            except TransportError as exc:
                last = exc
                continue
            self.exchanges.append(LlmExchange(prompt=prompt, raw_response=raw, latency=latency))
            return raw
        assert last is not None
        raise last

    @property
    def total_llm_time(self) -> float:
        return sum(ex.latency for ex in self.exchanges)

    # -- action protocol ---------------------------------------------------

    def request_actions(self, prompt: str, deadline: float | None = None) -> list[ActionCommand]:
        """Ask for a JSON action array, repairing a non-JSON reply once."""
        raw = self.complete(prompt, deadline)
        payload = filter_json_payload(raw)
        if payload is None:
            repair = f"{prompt}\n\n{load_template('repair.txt').strip()}"
            raw = self.complete(repair, deadline)
            payload = filter_json_payload(raw)
            if payload is None:
                raise GatewayError("no JSON action array, even after a repair attempt")
        return parse_action_sequence(payload)


@dataclass
class MockEntry:
    """One scripted mock behaviour.

    Bare-string script lines become one-shot FIFO entries.  Object lines hold
    exactly one of a ``response`` or a scripted ``error``, and may carry a
    ``when`` substring of the prompt and a ``times`` budget (default unlimited).
    """

    response: str | None = None
    when: str | None = None
    times: int | None = None
    error: str | None = None
    used: int = field(default=0, compare=False)

    def matches(self, prompt: str) -> bool:
        if self.times is not None and self.used >= self.times:
            return False
        return self.when is None or self.when in prompt


#: The type of each key a mock-script object may carry; null stands for an absent key.
_ENTRY_KEYS = {"response": str, "when": str, "times": int, "error": str}


def _entry_from_value(value) -> MockEntry:
    """The entry one script value describes; raises ValueError for any other value."""
    if isinstance(value, str):
        return MockEntry(response=value, times=1)
    if not (
        isinstance(value, dict)
        and all(key in _ENTRY_KEYS and (item is None or type(item) is _ENTRY_KEYS[key]) for key, item in value.items())
        and (value.get("response") is None) != (value.get("error") is None)
    ):
        raise ValueError(f"bad mock entry: {value!r}")
    return MockEntry(**value)


class MockGateway(LlmGateway):
    """Deterministic scripted gateway; latency is always reported as zero."""

    def __init__(self, entries: list[MockEntry]):
        super().__init__(LlmConfig(endpoint="mock", model_name="scripted", max_retries=0))
        self.entries = entries

    @classmethod
    def from_script(cls, responses: list) -> "MockGateway":
        return cls([_entry_from_value(v) for v in responses])

    @classmethod
    def from_script_file(cls, path: str | Path) -> "MockGateway":
        entries = []
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            try:
                value = decode_json(line)
            except json.JSONDecodeError:
                value = line  # a raw response line, consumed once
            entries.append(_entry_from_value(value))
        return cls(entries)

    def _complete_once(self, prompt: str) -> tuple[str, float]:
        for entry in self.entries:
            if entry.matches(prompt):
                entry.used += 1
                if entry.error is not None:
                    raise TransportError(f"scripted failure: {entry.error}")
                return entry.response, 0.0
        raise GatewayError("no scripted response left for this prompt")


class HttpGateway(LlmGateway):
    """Chat-completions style HTTP gateway."""

    def __init__(self, config: LlmConfig):
        import requests

        super().__init__(config)
        self.session = requests.Session()  # one kept-alive connection for every model call

    def _complete_once(self, prompt: str) -> tuple[str, float]:
        import requests

        headers = {}
        if self.config.api_key:
            headers["Authorization"] = f"Bearer {self.config.api_key}"
        body = {
            "model": self.config.model_name,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": 0.0,
        }
        start = time.monotonic()
        try:
            resp = self.session.post(self.config.endpoint, json=body, headers=headers, timeout=REQUEST_TIMEOUT_S)
            resp.raise_for_status()
        except requests.RequestException as exc:
            raise TransportError(str(exc)) from exc
        latency = time.monotonic() - start
        try:
            payload = decode_json(resp.content.decode("utf-8"))  # RFC 8259: JSON is UTF-8
            if "choices" in payload:
                text = payload["choices"][0]["message"]["content"]
            else:
                text = payload["text"]
            if not isinstance(text, str):
                raise TypeError(f"the completion is {text!r}, not a string")
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"bad completion payload: {exc}") from exc
        return text, latency
