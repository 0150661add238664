"""Model stand-in: a gateway that answers from what the prompt shows.

It reads the numbered report sentences of an extraction prompt, the
``Screen:`` line of a replay prompt, the learned-knowledge section, the
summary templates and the repair suffix, and looks the answer up in tables
the generators built.  Every lookup is a dictionary access or a scan of the
current prompt, so the cost of an answer does not grow with the number of
answers given before it (``MockGateway`` scans every script entry on every
call).  Replies are padded with prose, as real models pad them.
"""

from __future__ import annotations

import json

from crashreplay.gateway import LlmConfig, LlmGateway, load_template

PROSE_HEAD = (
    "Sure. I looked at the current screen and at the steps extracted from the bug "
    "report, and I compared them with the elements that are visible right now. "
    "The next action below follows the report as closely as the screen allows "
    "(see [1] for the notation).\n"
)
PROSE_TAIL = (
    "\nAfter this action the screen should change. If it does not, I will try a "
    "different element next time, based on the feedback you send back.\n"
)
NO_JSON_REPLY = (
    "I am not sure which element the report refers to on this screen. The layout "
    "looks different from the one described in the report, so I would first like "
    "to study the screen more carefully before I commit to an action.\n"
)

_DISPLAY = {
    "tap": "Tap",
    "input": "Input",
    "scroll": "Scroll",
    "swipe": "Swipe",
    "rotate": "Rotate",
    "delete": "Delete",
    "double_tap": "Double-tap",
    "long_tap": "Long-tap",
    "restart": "Restart",
    "back": "Back",
}

EXTRACTION_HEADER = "Here are the sentences in current bug report:\n"
SCREEN_HEADER = "## Current screen\n\n"
KNOWLEDGE_HEADER = "## Learned app knowledge\n\n"
FUNCTIONALITY_MARK = 'Interacting with "'
STATE_SUMMARY_MARK = "Describe in one or two sentences the function"


def bracket_notation(label: dict) -> str:
    """A corpus label written the way the extraction prompt asks for it."""
    parts = [_DISPLAY[label["action"]]]
    for key in ("component", "value"):
        if label.get(key) is not None:
            parts.append(label[key])
    if label.get("direction") is not None:
        parts.append(label["direction"].capitalize())
    return " ".join(f"[{p}]" for p in parts)


def _screen_line(text: str, start: int) -> str:
    """The activity named by the first ``Screen:`` line at or after ``start``."""
    begin = text.index("Screen: ", start) + len("Screen: ")
    end = text.find("\n", begin)
    return text[begin : end if end >= 0 else len(text)]


class StandInModel(LlmGateway):
    """Deterministic stand-in for a live model; latency is reported as zero.

    ``truth`` maps report sentences to their labels (extraction); ``plan``
    maps a screen's activity to the commands to send on it (replay).
    """

    def __init__(self, truth: dict[str, tuple[dict, ...]] | None = None, plan: dict[str, dict] | None = None):
        super().__init__(LlmConfig(endpoint="stand-in", model_name="stand-in", max_retries=0))
        self.truth = truth or {}
        self.plan = plan or {}
        self.repair_suffix = load_template("repair.txt").strip()

    def _complete_once(self, prompt: str) -> tuple[str, float]:
        return self.answer(prompt), 0.0

    def answer(self, prompt: str) -> str:
        if prompt.startswith("Available actions:"):
            return self._extraction(prompt)
        if prompt.startswith("You are summarizing"):
            return self._functionality(prompt)
        if prompt.startswith(STATE_SUMMARY_MARK):
            name = _screen_line(prompt, 0)
            return f"The {name} screen lists a title and a few buttons that open further pages.\n"
        repaired = prompt.endswith(self.repair_suffix)
        entry = self.plan.get(_screen_line(prompt, prompt.index(SCREEN_HEADER)))
        if entry is None or (entry.get("repair") and not repaired):
            return NO_JSON_REPLY  # a page off the planned path gets no action
        commands = entry["commands"]
        target = entry.get("knowledge_target")
        knowledge_at = prompt.find(KNOWLEDGE_HEADER)
        if target and knowledge_at >= 0:
            feature = self._feature_leading_to(prompt, knowledge_at, target)
            if feature is None:
                return NO_JSON_REPLY
            commands = [{"action": "click", "feature": feature}]
        payload = json.dumps(commands)
        if repaired:
            return payload
        return PROSE_HEAD + payload + PROSE_TAIL

    def _extraction(self, prompt: str) -> str:
        body = prompt[prompt.index(EXTRACTION_HEADER) + len(EXTRACTION_HEADER) :]
        lines = ["Here are the steps to reproduce that I extracted from the report."]
        for line in body.splitlines():
            number, _, sentence = line.partition(". ")
            labels = self.truth.get(sentence, ())
            if not labels:
                continue
            lines.append(f"Sentence {number}:")
            lines += [f"{i}. {bracket_notation(label)}" for i, label in enumerate(labels, start=1)]
        lines.append("Each step uses one of the available actions.")
        return "\n".join(lines) + "\n"

    def _functionality(self, prompt: str) -> str:
        start = prompt.index(FUNCTIONALITY_MARK) + len(FUNCTIONALITY_MARK)
        feature = prompt[start : prompt.index('"', start)]
        name = _screen_line(prompt, start)
        return (
            f"Selecting {feature} opens the {name} screen. That screen offers its own "
            f"buttons, and each of them leads one level deeper into the app.\n"
        )

    @staticmethod
    def _feature_leading_to(prompt: str, start: int, activity: str) -> str | None:
        """The origin element whose learned summary says it opens ``activity``."""
        needle = f"opens the {activity} screen"
        for line in prompt[start:].splitlines():
            if line.startswith('- "') and needle in line:
                return line[3 : line.index('"', 3)]
        return None
