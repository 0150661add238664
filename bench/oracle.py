"""Expected outputs, computed apart from the program.

Nothing here calls ``crashreplay``.  Each function re-derives what an
output must be from the generator's own data and from the documented
definitions (README of the package): the hashed-trigram embedding, the
exact-score ranking with its record-id tie rule, the extraction prompt's
example block, and the explorer's depth-limited probe of the app.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter, deque

import numpy as np

from standin import bracket_notation

DIMENSION = 384
#: The float dot product used as a pre-filter differs from the exact score
#: by at most D * 2**-53 (about 4e-14 for D = 384); this margin is far wider.
PREFILTER_MARGIN = 1e-9


def trigram_embedding(text: str) -> dict[int, float]:
    """Sparse unit vector of the hashed-character-trigram embedder.

    Lowercase, take every character trigram (the whole text if shorter),
    hash each with an 8-byte blake2b read big-endian, count per bucket
    modulo ``DIMENSION``, divide by the Euclidean norm.  The counts are
    integers, so the norm is the correctly rounded square root of an exact
    sum, bit-identical to any other correct implementation.
    """
    lowered = text.lower()
    grams = [lowered[i : i + 3] for i in range(len(lowered) - 2)] or [lowered]
    counts = Counter(
        int.from_bytes(hashlib.blake2b(g.encode("utf-8"), digest_size=8).digest(), "big") % DIMENSION
        for g in grams
    )
    norm = math.sqrt(sum(c * c for c in counts.values()))
    return {bucket: c / norm for bucket, c in counts.items()}


class RankingOracle:
    """Exact top-k over the corpus: ``math.fsum`` scores, ties by record id."""

    def __init__(self, corpus: list[dict]):
        self.records: list[tuple[str, str, list[dict]]] = []
        vectors = []
        for report in corpus:
            for ordinal, sentence in enumerate(report["sentences"], start=1):
                self.records.append((f"{report['report_id']}:{ordinal:04d}", sentence["text"], sentence["labels"]))
                vectors.append(trigram_embedding(sentence["text"]))
        self.sparse = vectors
        self.matrix = np.zeros((len(vectors), DIMENSION))
        for row, vec in enumerate(vectors):
            for bucket, value in vec.items():
                self.matrix[row, bucket] = value

    def top_k(self, query: str, k: int) -> list[tuple[str, str, list[dict]]]:
        q = trigram_embedding(query)
        dense = np.zeros(DIMENSION)
        for bucket, value in q.items():
            dense[bucket] = value
        approx = self.matrix @ dense
        cutoff = np.sort(approx)[-k] - PREFILTER_MARGIN
        candidates = np.nonzero(approx >= cutoff)[0]
        scored = []
        for row in candidates.tolist():
            vec = self.sparse[row]
            score = math.fsum(vec[b] * value for b, value in q.items() if b in vec)
            scored.append((-score, self.records[row][0], row))
        scored.sort()
        return [self.records[row] for _, _, row in scored[:k]]


def example_block(hits: list[tuple[str, str, list[dict]]]) -> str:
    """The retrieved-examples lines the extraction prompt must contain."""
    lines = []
    for _, sentence, labels in hits:
        noun = "entity is" if len(labels) == 1 else "entities are"
        lines.append(f'The sentence is "{sentence}", the extracted S2R {noun}:')
        for i, label in enumerate(labels, start=1):
            terminal = "." if i == len(labels) else ""
            lines.append(f"{i}. {bracket_notation(label)}{terminal}")
    return "\n".join(lines)


def probed_graph(spec: dict, origin: str, depth: int) -> tuple[set[str], set[tuple[str, str, str]]]:
    """Pages and (page, clicked text, page) edges a depth-limited probe finds.

    Breadth-first over the spec's click transitions from ``origin``: the
    pages at distance < ``depth`` are probed, every element that has a
    transition gives an edge, and a crash-rule trigger gives none (it
    matches first and the probe ends in a crash).  Pages are named by their
    activity.
    """
    crash_triggers = {(r["state"], r["feature"]) for r in spec.get("crash_rules", [])}
    out: dict[str, list[tuple[str, str]]] = {}
    for t in spec["transitions"]:
        if t["verb"] == "click" and (t["from"], t["feature"]) not in crash_triggers:
            out.setdefault(t["from"], []).append((t["feature"], t["to"]))

    def text_of(state: str, element_id: str) -> str:
        return next(e["text"] for e in spec["states"][state]["elements"] if e["id"] == element_id)

    def activity(state: str) -> str:
        return spec["states"][state]["activity"]

    nodes = {activity(origin)}
    edges: set[tuple[str, str, str]] = set()
    seen = {origin}
    queue = deque([(origin, 0)])
    while queue:
        state, level = queue.popleft()
        if level >= depth:
            continue
        for element_id, dest in out.get(state, []):
            nodes.add(activity(dest))
            edges.add((activity(state), text_of(state, element_id), activity(dest)))
            if dest not in seen:
                seen.add(dest)
                queue.append((dest, level + 1))
    return nodes, edges


def summary_calls(nodes: set[str], edges: set[tuple[str, str, str]], origin_activity: str) -> int:
    """Model calls knowledge synthesis makes on a probed graph: one per
    origin element with an edge, plus one per page."""
    origin_elements = {text for src, text, _ in edges if src == origin_activity}
    return len(origin_elements) + len(nodes)
