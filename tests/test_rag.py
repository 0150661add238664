from __future__ import annotations

import hashlib
import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from crashreplay.grammar import ActionType
from crashreplay.rag import (
    DimensionMismatch,
    EmbeddingProvider,
    EmptyCorpus,
    EmptyIndex,
    EmptyText,
    HashedTrigramProvider,
    HttpEmbeddingProvider,
    IndexFormatError,
    LabeledReport,
    LabeledSentence,
    ProviderMismatch,
    ProviderUnavailable,
    RagIndex,
    build_index,
    embed,
    load_index,
    retrieve,
    save_index,
    script_from_report,
    segment_report,
)

def make_report(report_id: str, texts: list[str]) -> LabeledReport:
    return LabeledReport(
        report_id=report_id,
        app_id="test.app",
        sentences=tuple(LabeledSentence(text=t, labels=()) for t in texts),
    )


def random_sentence(rng: random.Random) -> str:
    # High-entropy words: distinct sentences then differ in cosine by far
    # more than summation-order rounding, so the oracle comparison is exact.
    words = [
        "".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=rng.randint(3, 10)))
        for _ in range(rng.randint(3, 9))
    ]
    return " ".join(words)


def random_corpus(rng: random.Random, reports: int, sentences_per_report: int) -> list[LabeledReport]:
    """Random corpus with verbatim duplicates injected to exercise the tie rule."""
    texts: list[str] = []
    corpus = []
    for i in range(reports):
        batch = []
        for _ in range(sentences_per_report):
            if texts and rng.random() < 0.15:
                batch.append(rng.choice(texts))
            else:
                batch.append(random_sentence(rng))
        texts.extend(batch)
        corpus.append(make_report(f"r{i}", batch))
    return corpus


class StubProvider(EmbeddingProvider):
    """Embeds each text as the vector it is mapped to."""

    provider_id = "stub"

    def __init__(self, vectors: dict[str, np.ndarray]):
        self.vectors = vectors
        self.dimension = len(vectors["query"])

    def embed_raw(self, text: str) -> np.ndarray:
        return self.vectors[text]



# -- segmentation -------------------------------------------------------------


def test_segment_numbered_single_item():
    assert segment_report("1. Crash application when search.") == ["Crash application when search."]


def test_segment_empty():
    assert segment_report("") == []


def test_segment_terminal_punctuation():
    assert segment_report("Tap A. Then tap B!") == ["Tap A.", "Then tap B!"]


def test_segment_keeps_parenthesized_aside_attached():
    text = (
        "1. Long hold on any video and press add to playlist.\n"
        "(Alternatively, select the add to playlist option under any video when watching).\n"
        "2. Rotate the screen while auto-rotate feature is on."
    )
    assert segment_report(text) == [
        "Long hold on any video and press add to playlist. "
        "(Alternatively, select the add to playlist option under any video when watching).",
        "Rotate the screen while auto-rotate feature is on.",
    ]


def test_segment_drops_whitespace_fragments():
    assert segment_report("\n\n  \nTap OK.\n\n") == ["Tap OK."]


def test_segment_numbered_lines_split_first():
    assert segment_report("1. Tap the icon\n2. Rotate the phone.") == [
        "Tap the icon",
        "Rotate the phone.",
    ]


# -- embedding ----------------------------------------------------------------


def test_embed_unit_norm(provider):
    for text in ("tap button", "a", "Long hold on any video."):
        assert abs(np.linalg.norm(embed(text, provider)) - 1.0) <= 1e-6


def test_embed_deterministic(provider):
    a = embed("tap the button", provider)
    b = embed("tap the button", provider)
    assert np.array_equal(a, b)


def test_embed_rejects_empty(provider):
    with pytest.raises(EmptyText):
        embed("   ", provider)


def test_embed_rejects_non_finite_vector():
    with pytest.raises(ProviderUnavailable):
        embed("query", StubProvider({"query": np.array([1.0, np.nan])}))


@pytest.mark.parametrize(
    "raw, expected",
    [([5.5e-248, 0.0], [1.0, 0.0]), ([1e-160, 0.0], [1.0, 0.0]), ([1e200, 1e200], [0.5**0.5, 0.5**0.5])],
)
def test_embed_normalizes_vectors_whose_plain_norm_underflows_or_overflows(raw, expected):
    vec = embed("query", StubProvider({"query": np.array(raw)}))
    assert np.allclose(vec, expected, rtol=1e-15, atol=0.0)
    assert abs(np.linalg.norm(vec) - 1.0) <= 1e-15


@pytest.mark.parametrize("raw", [[0.0, 0.0], [np.inf, 1.0], [1e200, np.nan]])
def test_embed_rejects_zero_and_non_finite_vectors(raw):
    with pytest.raises(ProviderUnavailable):
        embed("query", StubProvider({"query": np.array(raw)}))


def test_embed_keeps_the_bytes_of_ordinary_vectors(provider):
    raw = np.asarray(provider.embed_raw("tap the button"), dtype=np.float64)
    assert embed("tap the button", provider).tobytes() == (raw / np.linalg.norm(raw)).tobytes()


def test_embed_similarity_ordering(provider):
    base = embed("tap button", provider)
    near = embed("tap the button", provider)
    far = embed("rotate phone", provider)
    assert base @ near > base @ far  # embed returns unit vectors


# -- index build ----------------------------------------------------------------


def test_build_counts_records(provider):
    corpus = [
        make_report("r1", ["One sentence.", "Two sentences.", "Three sentences."]),
        make_report("r2", ["Four.", "Five."]),
    ]
    index = build_index(corpus, provider)
    assert len(index) == 5


def test_build_rejects_empty_corpus(provider):
    with pytest.raises(EmptyCorpus):
        build_index([], provider)


def test_duplicate_sentences_kept_as_distinct_records(provider):
    corpus = [make_report("r1", ["Tap OK.", "Tap OK."])]
    index = build_index(corpus, provider)
    assert len(index) == 2
    assert index.records[0].record_id != index.records[1].record_id


def test_mini_corpus_builds_unit_norm_records(mini_corpus, provider):
    index = build_index(mini_corpus, provider)
    assert len(index) == 20
    for record in index.records:
        assert abs(np.linalg.norm(record.embedding) - 1.0) <= 1e-6


# -- retrieval ------------------------------------------------------------------


def brute_force_ranking(index: RagIndex, query: np.ndarray) -> list[str]:
    scored = []
    for record in index.records:
        score = math.fsum(float(q) * float(e) for q, e in zip(query, record.embedding))
        scored.append((record.record_id, score))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return [record_id for record_id, _ in scored]


def test_self_query_ranks_first(mini_corpus, provider):
    index = build_index(mini_corpus, provider)
    hits = retrieve(index, "Crash application when search.", 1, provider)
    assert hits[0].record.sentence == "Crash application when search."
    assert abs(hits[0].score - 1.0) <= 1e-6


def test_retrieve_matches_brute_force_on_random_corpora(provider):
    rng = random.Random(11)
    corpus = random_corpus(rng, reports=10, sentences_per_report=5)
    index = build_index(corpus, provider)
    queries = [random_sentence(rng) for _ in range(8)] + [corpus[0].sentences[0].text]
    for query in queries:
        expected = brute_force_ranking(index, embed(query, provider))
        got = [h.record.record_id for h in retrieve(index, query, len(index), provider)]
        assert got == expected


@st.composite
def near_tie_vectors(draw):
    """Vectors with exact duplicates and copies a few ulps apart, plus a query."""
    dimension = draw(st.sampled_from([2, 5, 384]))
    component = st.integers(-2, 2).map(float) | st.floats(-1.0, 1.0, allow_subnormal=False)
    vector = arrays(np.float64, dimension, elements=component, fill=st.just(0.0)).filter(np.any)
    vectors = []
    for base in draw(st.lists(vector, min_size=1, max_size=4)):
        vectors.append(base)
        for _ in range(draw(st.integers(0, 3))):
            copy = base.copy()
            if draw(st.booleans()):
                j = draw(st.integers(0, dimension - 1))
                toward = draw(st.sampled_from([-np.inf, np.inf]))
                for _ in range(draw(st.integers(1, 4))):
                    copy[j] = np.nextafter(copy[j], toward)
            vectors.append(copy)
    query = draw(st.sampled_from(vectors) | vector)
    return vectors, query


@settings(max_examples=200)
@given(near_tie_vectors(), st.randoms())
@example(([np.array([5.5e-248, 0.0])] * 2, np.array([5.5e-248, 0.0])), random.Random(0))
@example(([np.array([1e200, 1e200]), np.array([1e200, 0.0])], np.array([1e200, 1e200])), random.Random(0))
def test_retrieve_matches_brute_force_on_near_ties(case, rng):
    vectors, raw_query = case
    provider = StubProvider({"query": raw_query, **{f"v{i}": v for i, v in enumerate(vectors)}})
    # Report ids are shuffled so that the record-id tie rule differs from row order.
    report_ids = rng.sample(range(len(vectors)), len(vectors))
    corpus = [make_report(f"r{report_ids[i]:02d}", [f"v{i}"]) for i in range(len(vectors))]
    index = build_index(corpus, provider)
    assert not index.matrix.flags.writeable
    assert all(np.shares_memory(r.embedding, index.matrix) for r in index.records)
    query = embed("query", provider)
    expected = brute_force_ranking(index, query)
    for k in (1, 2, len(index)):
        hits = retrieve(index, "query", k, provider)
        assert [h.record.record_id for h in hits] == expected[:k]
        for hit in hits:
            assert hit.score == math.fsum(float(q) * float(e) for q, e in zip(query, hit.record.embedding))


def test_retrieve_breaks_exact_ties_by_record_id(provider):
    corpus = [make_report("a", ["Tap OK."]), make_report("b", ["Tap OK."])]
    index = build_index(corpus, provider)
    hits = retrieve(index, "Tap OK.", 2, provider)
    assert [h.record.record_id for h in hits] == ["a:0001", "b:0001"]
    assert hits[0].score == hits[1].score


def test_retrieve_k_clamps_to_record_count(mini_corpus, provider):
    index = build_index(mini_corpus, provider)
    hits = retrieve(index, "Tap OK.", 500, provider)
    assert len(hits) == 20
    assert sorted(h.record.record_id for h in hits) == sorted(r.record_id for r in index.records)


def test_retrieve_rejects_provider_mismatch(mini_corpus, provider):
    index = build_index(mini_corpus, provider)
    with pytest.raises(ProviderMismatch):
        retrieve(index, "Tap OK.", 1, HashedTrigramProvider(dimension=128))


def test_retrieve_rejects_empty_index(provider):
    index = RagIndex(provider.provider_id, provider.dimension, ())
    with pytest.raises(EmptyIndex):
        retrieve(index, "Tap OK.", 1, provider)


def test_retrieve_is_pure(mini_corpus, provider):
    index = build_index(mini_corpus, provider)
    first = retrieve(index, "Rotate the phone.", 5, provider)
    second = retrieve(index, "Rotate the phone.", 5, provider)
    assert [(h.record.record_id, h.score) for h in first] == [
        (h.record.record_id, h.score) for h in second
    ]


def test_queries_do_not_mutate_index(mini_corpus, provider, tmp_path):
    index = build_index(mini_corpus, provider)
    path = tmp_path / "index.json"
    save_index(index, path)
    before = hashlib.sha256(path.read_bytes()).hexdigest()
    for query in ("Tap OK.", "Rotate the phone.", "Crash application when search."):
        retrieve(index, query, 3, provider)
    save_index(index, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == before


# -- persistence ------------------------------------------------------------------


def test_index_save_load_round_trip(mini_corpus, provider, tmp_path):
    index = build_index(mini_corpus, provider)
    path = tmp_path / "index.json"
    save_index(index, path)
    loaded = load_index(path)
    assert loaded.provider_id == index.provider_id
    assert loaded.dimension == index.dimension
    assert [r.record_id for r in loaded.records] == [r.record_id for r in index.records]
    for a, b in zip(loaded.records, index.records):
        assert np.array_equal(a.embedding, b.embedding)
        assert a.labels == b.labels


def test_load_rejects_non_unit_norm(tmp_path, provider, mini_corpus):
    index = build_index(mini_corpus, provider)
    path = tmp_path / "index.json"
    save_index(index, path)
    payload = json.loads(path.read_text())
    payload["records"][0]["embedding"][0] += 0.5
    path.write_text(json.dumps(payload))
    with pytest.raises(IndexFormatError):
        load_index(path)


def test_load_names_first_record_off_unit_norm(tmp_path, provider, mini_corpus):
    index = build_index(mini_corpus, provider)
    path = tmp_path / "index.json"
    save_index(index, path)
    payload = json.loads(path.read_text())
    payload["records"][3]["embedding"][0] = float("nan")
    payload["records"][7]["embedding"][0] += 0.5
    path.write_text(json.dumps(payload))
    with pytest.raises(IndexFormatError, match=f"record {index.records[3].record_id} is not unit-norm"):
        load_index(path)


def test_script_from_report(mini_corpus):
    report = next(r for r in mini_corpus if r.report_id == "moneytracker-77")
    script = script_from_report(report)
    assert [s.sentence_index for s in script.steps] == [1, 1, 3]
    assert script.steps[0].entity.action == ActionType.TAP


# -- HTTP provider ------------------------------------------------------------------


def test_http_provider_round_trip(embed_server):
    provider = HttpEmbeddingProvider(embed_server, dimension=8)
    vector = embed("tap button", provider)
    assert vector.shape == (8,)
    assert abs(np.linalg.norm(vector) - 1.0) <= 1e-6


def test_http_provider_dimension_check(embed_server):
    provider = HttpEmbeddingProvider(embed_server, dimension=16)
    with pytest.raises(DimensionMismatch):
        embed("tap button", provider)


def test_http_provider_unreachable():
    provider = HttpEmbeddingProvider("http://127.0.0.1:9/embed", dimension=8, timeout=0.5)
    with pytest.raises(ProviderUnavailable):
        embed("tap button", provider)


def test_retrieve_rejects_k_below_one(mini_corpus, provider):
    index = build_index(mini_corpus, provider)
    with pytest.raises(ValueError):
        retrieve(index, "Tap OK.", 0, provider)
