"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of the seed.  Sizes are constants, and
every generated word has the same length, so the seed changes the content
of the inputs but not the amount of work they cause.  The program only ever
sees the files written from these structures (corpus, report, app spec);
the structures themselves are what the oracles and the model stand-in read.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

#: Five-letter words, so generated text has a seed-independent length.
WORDS = (
    "amber badge cabin cedar chord civic cloud coral crane delta draft eagle "
    "ember fable fiber flint frost gamma globe grain heart helix honey ivory "
    "jewel kiosk lemon lilac lunar maple medal metro noble north oasis olive "
    "orbit panel pearl pilot plaza prism quartz radar raven ridge rover salsa "
    "shade shelf sigma slate solar spark spice stone storm sugar swift table "
    "tiger topaz torch tulip umbra unity urban vapor vault velvet vigor vista "
    "watch wheat whale yacht zebra acorn"
).split()
WORDS = tuple(w for w in WORDS if len(w) == 5)

VALUE_CHARS = "abcdefghjkmnpqrstuvwxyz23456789"

# ---------------------------------------------------------------------------
# Extraction: labeled corpus and reports

#: Sentence templates: (text, labels).  ``{a}``/``{b}`` are two-word
#: components, ``{v}`` a six-character value, ``{d}`` a scroll direction.
TEMPLATES = (
    ("Tap the {a} on the main screen.", [("tap", "a")]),
    ("Click on {a} and then press {b}.", [("tap", "a"), ("tap", "b")]),
    ("Long press on the {a} entry.", [("long_tap", "a")]),
    ("Enter {v} as the {a}.", [("input", "a", "v")]),
    ("Type a new {a} into the form.", [("input", "a")]),
    ("Scroll {d} past the {a} section.", [("scroll", "d")]),
    ("Rotate the phone while the {a} is open.", [("rotate", "landscape")]),
    ("Double tap the {a} icon.", [("double_tap", "a")]),
    ("Delete the {a} from the list.", [("delete", "a")]),
    ("Go back from the {a} screen.", [("back",)]),
    ("The app freezes and then crashes with the {a} open.", []),
    ("Open the {a} menu, then choose {b}.", [("tap", "a"), ("tap", "b")]),
)
DIRECTIONS = ("up", "down", "left", "right")

CORPUS_REPORTS = 400
SENTENCES_PER_CORPUS_REPORT = 6
#: Share of corpus sentences that are re-used verbatim in another report,
#: with differently worded labels; identical text gives identical scores,
#: so these exercise the record-id tie rule.
DUPLICATE_EVERY = 16
REPORTS_PER_ROUND = 8
REPORT_STEPS = 5  # numbered step sentences; the title line makes six sentences
RETRIEVAL_K = 2


@dataclass(frozen=True)
class GenSentence:
    text: str
    labels: tuple[dict, ...]
    template: int = -1


@dataclass(frozen=True)
class GenReport:
    report_id: str
    text: str
    sentences: tuple[GenSentence, ...]

    def gold_dict(self) -> dict:
        steps = []
        for index, sentence in enumerate(self.sentences, start=1):
            for label in sentence.labels:
                steps.append({**label, "sentence_index": index})
        return {"source_report": "", "steps": steps}


@dataclass
class ExtractInputs:
    corpus: list[dict]  # corpus file lines (report objects)
    reports: list[GenReport]

    @property
    def truth(self) -> dict[str, tuple[dict, ...]]:
        """Labels of every report sentence, keyed by its text."""
        return {s.text: s.labels for r in self.reports for s in r.sentences}


def _component(rng: random.Random) -> str:
    return f"{rng.choice(WORDS)} {rng.choice(WORDS)}"


def _value(rng: random.Random) -> str:
    return "".join(rng.choice(VALUE_CHARS) for _ in range(6))


def _fill(template_index: int, rng: random.Random) -> GenSentence:
    text, shape = TEMPLATES[template_index]
    slots = {"a": _component(rng), "b": _component(rng), "v": _value(rng), "d": rng.choice(DIRECTIONS)}
    labels = []
    for entry in shape:
        action = entry[0]
        label: dict = {"action": action}
        if action in ("tap", "long_tap", "double_tap", "delete", "input"):
            label["component"] = slots[entry[1]]
            if len(entry) > 2:
                label["value"] = slots[entry[2]]
        elif action == "scroll":
            label["direction"] = slots["d"]
        elif action == "rotate":
            label["direction"] = entry[1]
        labels.append(label)
    return GenSentence(text.format(**slots), tuple(labels), template_index)


def _relabel(sentence: GenSentence) -> tuple[dict, ...]:
    """Differently worded labels for a verbatim duplicate sentence."""
    out = []
    for label in sentence.labels:
        label = dict(label)
        if "component" in label:
            label["component"] = "the " + label["component"]
        out.append(label)
    if out == list(sentence.labels):
        out.append({"action": "back"})
    return tuple(out)


def generate_extract(seed: int) -> ExtractInputs:
    rng = random.Random(f"extract:{seed}")
    n_sentences = CORPUS_REPORTS * SENTENCES_PER_CORPUS_REPORT
    seen: set[str] = set()
    flat: list[GenSentence] = []
    while len(flat) < n_sentences:
        candidate = _fill(len(flat) % len(TEMPLATES), rng)
        if candidate.text not in seen:
            seen.add(candidate.text)
            flat.append(candidate)
    # Every DUPLICATE_EVERY-th slot takes a verbatim copy of another
    # sentence; the copy may land before or after the original in id order.
    duplicated: list[GenSentence] = []
    slots = list(range(0, n_sentences, DUPLICATE_EVERY))
    for slot in slots:
        source = flat[rng.randrange(n_sentences)]
        while source in duplicated or flat.index(source) in slots:
            source = flat[rng.randrange(n_sentences)]
        duplicated.append(source)
        flat[slot] = GenSentence(source.text, _relabel(source), source.template)
    corpus = []
    for r in range(CORPUS_REPORTS):
        chunk = flat[r * SENTENCES_PER_CORPUS_REPORT : (r + 1) * SENTENCES_PER_CORPUS_REPORT]
        corpus.append(
            {
                "report_id": f"c{r:04d}",
                "app_id": "org.bench.corpus",
                "sentences": [{"text": s.text, "labels": list(s.labels)} for s in chunk],
            }
        )

    by_template: dict[int, list[GenSentence]] = {}
    originals = [s for i, s in enumerate(flat) if i % DUPLICATE_EVERY]
    for s in originals:
        by_template.setdefault(s.template, []).append(s)
    reports = []
    for r in range(REPORTS_PER_ROUND):
        title = GenSentence(f"Crash in the {_component(rng)} screen", ())
        chosen: list[GenSentence] = []
        for step in range(REPORT_STEPS):
            template = (r + step * 5) % len(TEMPLATES)
            if step == 0:
                # one sentence whose text has a relabeled verbatim duplicate
                pick = rng.choice(duplicated)
            elif step % 2:
                pick = rng.choice(by_template[template])
            else:
                pick = _fill(template, rng)
                while pick.text in seen:
                    pick = _fill(template, rng)
            if any(pick.text == c.text for c in chosen):
                pick = _fill(template, rng)
                while pick.text in seen:
                    pick = _fill(template, rng)
            chosen.append(pick)
        lines = [title.text]
        lines += [f"{i}. {s.text}" for i, s in enumerate(chosen, start=1)]
        reports.append(GenReport(f"q{r:02d}", "\n".join(lines) + "\n", (title, *chosen)))
    return ExtractInputs(corpus, reports)


def write_corpus(corpus: list[dict], path: Path) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in corpus), encoding="utf-8")


# ---------------------------------------------------------------------------
# Apps in the simulator spec format

PACKAGE = "org.bench.app"
BUTTON = "android.widget.Button"
TEXT = "android.widget.TextView"
EDIT = "android.widget.EditText"
CRASH_TYPES = (
    "java.lang.IllegalStateException",
    "java.lang.NullPointerException",
    "java.lang.IndexOutOfBoundsException",
    "java.lang.ArithmeticException",
)


def _bounds(row: int) -> list[int]:
    top = 200 + row * 150
    return [40, top, 1040, top + 120]


def _title(text: str) -> dict:
    return {"id": "title", "class": TEXT, "text": text, "bounds": [40, 60, 1040, 160]}


def _button(eid: str, text: str, row: int) -> dict:
    return {
        "id": eid,
        "class": BUTTON,
        "text": text,
        "resource_id": f"{PACKAGE}:id/{eid}",
        "bounds": _bounds(row),
        "clickable": True,
    }


def _labels(rng: random.Random, n: int) -> list[str]:
    """``n`` distinct two-word button labels."""
    out: list[str] = []
    while len(out) < n:
        label = f"{rng.choice(WORDS).capitalize()} {rng.choice(WORDS)}"
        if label not in out:
            out.append(label)
    return out


@dataclass(frozen=True)
class PlantedCrash:
    state: str
    feature: str
    exception_type: str
    message: str


@dataclass
class AppInputs:
    """A generated app plus what the oracles and the model stand-in know of it."""

    spec: dict
    crash: PlantedCrash
    #: activity name -> replies the stand-in gives on that screen
    plan: dict[str, dict] = field(default_factory=dict)
    #: activities visited by the planted path, crash page last
    walk: list[str] = field(default_factory=list)
    report: str = ""
    script: dict = field(default_factory=dict)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.spec, indent=1) + "\n", encoding="utf-8")


def _report_text(rng: random.Random, lines: list[str]) -> str:
    title = f"The app crashes in the {_component(rng)} flow"
    return title + "\n" + "".join(f"{i}. {line}\n" for i, line in enumerate(lines, start=1))


LONG_SCREENS = 1000
LONG_BUTTONS = 8
LONG_PATH = 300
#: Every REPAIR_EVERY-th screen of the path first gets a reply without a
#: JSON array, so that share of iterations needs one repair exchange.
REPAIR_EVERY = 5


def generate_long_app(seed: int) -> AppInputs:
    """About a thousand screens; the crash ends a planted path LONG_PATH steps long."""
    rng = random.Random(f"long:{seed}")
    names = [f"s{i:04d}" for i in range(LONG_SCREENS)]
    activities = {n: f"Screen{rng.randrange(10**6):06d}{i:04d}Activity" for i, n in enumerate(names)}
    states: dict[str, dict] = {}
    labels: dict[str, list[str]] = {}
    for name in names:
        labels[name] = _labels(rng, LONG_BUTTONS)
        elements = [_title(f"{rng.choice(WORDS).capitalize()} {rng.choice(WORDS)} page")]
        elements += [_button(f"b{j}", text, j) for j, text in enumerate(labels[name])]
        states[name] = {"activity": activities[name], "elements": elements}
    # The path visits a fixed, evenly spread set of screens in a seeded order:
    # the simulator scans its transitions linearly, so where the path's
    # screens sit in the spec sets the cost, and it must not vary with the seed.
    path = [names[0]] + rng.sample(names[1 :: (LONG_SCREENS - 1) // LONG_PATH][:LONG_PATH], LONG_PATH)
    on_path = {state: i for i, state in enumerate(path)}
    transitions = []
    plan: dict[str, dict] = {}
    for name in names:
        for j in range(LONG_BUTTONS):
            if name in on_path and on_path[name] < LONG_PATH and j == 0:
                target = path[on_path[name] + 1]
            else:
                target = rng.choice(names)
            transitions.append({"from": name, "verb": "click", "feature": f"b{j}", "to": target})
    for i, state in enumerate(path[:-1]):
        plan[activities[state]] = {
            "commands": [{"action": "click", "feature": labels[state][0]}],
            "repair": i % REPAIR_EVERY == REPAIR_EVERY - 1,
        }
    last = path[-1]
    crash = PlantedCrash(last, labels[last][1], rng.choice(CRASH_TYPES), f"Form {_value(rng)} lost its draft")
    plan[activities[last]] = {"commands": [{"action": "click", "feature": crash.feature}], "repair": False}
    spec = {
        "app_id": PACKAGE,
        "initial_state": names[0],
        "states": states,
        "transitions": transitions,
        "crash_rules": [
            {
                "state": last,
                "verb": "click",
                "feature": "b1",
                "crash": {"exception_type": crash.exception_type, "message": crash.message},
            }
        ],
    }
    script_steps = [
        {"action": "tap", "component": labels[path[i]][0], "sentence_index": i + 1} for i in range(4)
    ]
    script_steps.append({"action": "tap", "component": crash.feature, "sentence_index": 5})
    report = _report_text(
        rng,
        [f"Tap {labels[path[i]][0]}." for i in range(4)]
        + [f"Keep going for a few hundred screens and tap {crash.feature}."],
    )
    return AppInputs(
        spec,
        crash,
        plan,
        [activities[s] for s in path],
        report,
        {"source_report": "", "steps": script_steps},
    )


WIDE_ORIGIN = 12
WIDE_CHILD_LINKS = 6  # buttons of a child page that open grand-children


def generate_wide_app(seed: int) -> AppInputs:
    """A wide origin page whose crash trigger sits behind one origin element.

    The report names a page the origin does not show, so the replay loop
    misses twice, gets stuck and explores the origin to depth 2.
    """
    rng = random.Random(f"wide:{seed}")
    words = iter(rng.sample(WORDS, len(WORDS)))
    missing = f"{next(words).capitalize()} {next(words)}"
    origin_labels: list[str] = []
    while len(origin_labels) < WIDE_ORIGIN:  # no origin label may resolve the missing feature
        label = _labels(rng, 1)[0]
        if missing.split()[0] not in label and label not in origin_labels:
            origin_labels.append(label)
    target = rng.randrange(WIDE_ORIGIN)
    states: dict[str, dict] = {}
    transitions = []

    def activity(name: str) -> str:
        return f"{name.capitalize()}{rng.randrange(10**4):04d}Activity"

    states["home"] = {
        "activity": activity("home"),
        "elements": [_title("Main page")] + [_button(f"o{i}", t, i) for i, t in enumerate(origin_labels)],
    }
    crash = None
    for i in range(WIDE_ORIGIN):
        child = f"child{i:02d}"
        transitions.append({"from": "home", "verb": "click", "feature": f"o{i}", "to": child})
        texts = _labels(rng, WIDE_CHILD_LINKS + 2)
        elements = [_title(f"Section {origin_labels[i]}")]
        elements += [_button(f"l{j}", texts[j], j) for j in range(WIDE_CHILD_LINKS)]
        elements.append(_button("home", texts[WIDE_CHILD_LINKS], WIDE_CHILD_LINKS))
        elements.append(_button("extra", texts[WIDE_CHILD_LINKS + 1], WIDE_CHILD_LINKS + 1))
        states[child] = {"activity": activity(child), "elements": elements}
        transitions.append({"from": child, "verb": "click", "feature": "home", "to": "home"})
        for j in range(WIDE_CHILD_LINKS):
            leaf = f"leaf{i:02d}{j}"
            leaf_texts = _labels(rng, 2)
            states[leaf] = {
                "activity": activity(leaf),
                "elements": [_title(f"Detail {texts[j]}")]
                + [_button(f"x{k}", t, k) for k, t in enumerate(leaf_texts)],
            }
            transitions.append({"from": child, "verb": "click", "feature": f"l{j}", "to": leaf})
            transitions.append({"from": leaf, "verb": "click", "feature": "x0", "to": child})
        if i == target:
            crash = PlantedCrash(child, texts[WIDE_CHILD_LINKS + 1], rng.choice(CRASH_TYPES),
                                 f"Report {_value(rng)} has no owner")
    assert crash is not None
    spec = {
        "app_id": PACKAGE,
        "initial_state": "home",
        "states": states,
        "transitions": transitions,
        "crash_rules": [
            {
                "state": crash.state,
                "verb": "click",
                "feature": "extra",
                "crash": {"exception_type": crash.exception_type, "message": crash.message},
            }
        ],
    }
    home = states["home"]["activity"]
    child_activity = states[crash.state]["activity"]
    plan = {
        home: {
            "commands": [{"action": "click", "feature": missing}],
            "repair": False,
            "knowledge_target": child_activity,
        },
        child_activity: {"commands": [{"action": "click", "feature": crash.feature}], "repair": False},
    }
    report = _report_text(rng, [f"Open {missing}.", f"Tap {crash.feature}."])
    script = {
        "source_report": "",
        "steps": [
            {"action": "tap", "component": missing, "sentence_index": 1},
            {"action": "tap", "component": crash.feature, "sentence_index": 2},
        ],
    }
    return AppInputs(spec, crash, plan, [home, home, home, child_activity], report, script)


def generate_adb_app(seed: int) -> AppInputs:
    """A login page and a home page; syncing after signing in as one user crashes."""
    rng = random.Random(f"adb:{seed}")
    user = _value(rng)
    sign_in, sync, other = _labels(rng, 3)
    states = {
        "login": {
            "activity": "LoginActivity",
            "elements": [
                _title("Welcome back"),
                {
                    "id": "username",
                    "class": EDIT,
                    "content_desc": "User name",
                    "resource_id": f"{PACKAGE}:id/username",
                    "bounds": _bounds(0),
                    "clickable": True,
                    "editable": True,
                },
                _button("sign_in", sign_in, 1),
            ],
        },
        "home": {
            "activity": "HomeActivity",
            "elements": [_title("Inbox"), _button("sync", sync, 0), _button("other", other, 1)],
        },
    }
    crash = PlantedCrash("home", sync, rng.choice(CRASH_TYPES), f"Account {user} has no token")
    spec = {
        "app_id": PACKAGE,
        "initial_state": "login",
        "states": states,
        "transitions": [
            {"from": "login", "verb": "click", "feature": "sign_in", "to": "home"},
            {"from": "home", "verb": "back", "to": "login"},
        ],
        "crash_rules": [
            {
                "state": "home",
                "verb": "click",
                "feature": "sync",
                "requires_field": {"element": "username", "op": "equals", "value": user},
                "crash": {"exception_type": crash.exception_type, "message": crash.message},
            }
        ],
    }
    plan = {
        "LoginActivity": {
            "commands": [
                {"action": "set_text", "feature": "User name", "input_text": user},
                {"action": "click", "feature": sign_in},
            ],
            "repair": False,
        },
        "HomeActivity": {"commands": [{"action": "click", "feature": sync}], "repair": False},
    }
    report = _report_text(rng, [f"Sign in as {user}.", f"Tap {sync}."])
    script = {
        "source_report": "",
        "steps": [
            {"action": "input", "component": "User name", "value": user, "sentence_index": 1},
            {"action": "tap", "component": sign_in, "sentence_index": 1},
            {"action": "tap", "component": sync, "sentence_index": 2},
        ],
    }
    return AppInputs(spec, crash, plan, ["LoginActivity", "HomeActivity"], report, script)
