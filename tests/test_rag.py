from __future__ import annotations

import hashlib
import json
import math
import random
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import DEEP_JSON, _EmbedHandler, counting_server, script_from_report
from crashreplay import rag
from crashreplay.grammar import ActionType, S2REntity
from crashreplay.rag import (
    EMBED_CHUNK,
    EmbeddingProvider,
    HashedTrigramProvider,
    HttpEmbeddingProvider,
    LabeledReport,
    LabeledSentence,
    RagError,
    RagIndex,
    build_index,
    embed,
    load_index,
    retrieve,
    save_index,
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


def reference_trigram_embedding(text: str, dimension: int) -> np.ndarray:
    """The per-trigram blake2b loop that ``HashedTrigramProvider.embed_raw`` replaced, kept as its oracle."""
    lowered = text.lower()
    grams = [lowered[i : i + 3] for i in range(len(lowered) - 2)] or [lowered]
    vec = np.zeros(dimension, dtype=np.float64)
    for gram in grams:
        digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
        vec[int.from_bytes(digest, "big") % dimension] += 1.0
    return vec


def split_index_file(path) -> tuple[bytes, np.ndarray]:
    """The header line of a saved index, and a writable copy of its embedding block."""
    data = path.read_bytes()
    end = data.index(b"\n") + 1
    return data[:end], np.frombuffer(data, dtype="<f8", offset=end).copy()


def reference_index_bytes(index: RagIndex) -> bytes:
    """The bytes ``save_index`` writes, from ``json.dumps``: the header padded to 8 bytes, then the column block."""
    records = [{"record_id": r.record_id, "sentence": r.sentence, "labels": [e.to_label() for e in r.labels]}
               for r in index.records]
    header = {"provider_id": index.provider_id, "dimension": index.dimension, "layout": "columns", "records": records}
    line = json.dumps(header, ensure_ascii=False).encode("utf-8")
    return line + b" " * (-(len(line) + 1) % 8) + b"\n" + index.columns.astype("<f8").tobytes()



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


def reference_split_terminal(text: str) -> list[str]:
    """The per-character scan that ``rag._split_terminal`` replaced, kept as its oracle."""
    out, depth, start, i, n = [], 0, 0, 0, len(text)
    while i < n:
        c = text[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth = max(0, depth - 1)
        elif c in ".!?" and depth == 0:
            j = i
            while j + 1 < n and text[j + 1] in ".!?":
                j += 1
            k = j + 1
            while k < n and text[k].isspace():
                k += 1
            if k < n and text[k] != "(":
                out.append(text[start : j + 1].strip())
                start = k
            i = j
        i += 1
    return out + [tail] if (tail := text[start:].strip()) else out


# Terminal marks, parentheses and every kind of space that str.isspace accepts.
_SPLIT_ALPHABET = "ab.!?() é😀" + "".join(c for c in map(chr, range(0x3001)) if c.isspace())


@settings(max_examples=500)
@given(st.text(alphabet=_SPLIT_ALPHABET, max_size=24))
@example("e.g. (see above). Then tap OK!? (x) y")
@example("a)) . (b. c) d.\u2003\x1cz")
def test_split_terminal_matches_a_character_scan(text):
    assert rag._split_terminal(text) == reference_split_terminal(text)


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
    with pytest.raises(RagError, match="^cannot embed empty text$"):
        embed("   ", provider)


def test_embed_rejects_non_finite_vector():
    with pytest.raises(RagError, match="returned a non-finite vector$"):
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
    with pytest.raises(RagError, match="returned a (zero|non-finite) vector$"):
        embed("query", StubProvider({"query": np.array(raw)}))


def test_embed_keeps_the_bytes_of_ordinary_vectors(provider):
    raw = np.asarray(provider.embed_raw("tap the button"), dtype=np.float64)
    assert embed("tap the button", provider).tobytes() == (raw / np.linalg.norm(raw)).tobytes()


@settings(max_examples=300)
@given(
    st.lists(
        st.text(max_size=2) | st.text(max_size=40) | st.text(alphabet="abcİßΣ ", max_size=12), min_size=1, max_size=6
    )
)
@example(["İ"])
@example([""])
@example(["😀ab", "a", "ab", "😀", "Σς"])
# Longer than a chunk, with texts of 0 to 8 characters.
@example(["tap İß Σ 😀 ok"[: i % 9] for i in range(EMBED_CHUNK + 40)])
def test_trigram_embedding_matches_reference(texts):
    # Two dimensions per text: a memo keyed on the trigram alone would serve one's buckets to the other.
    for dimension in (384, 97):
        provider = HashedTrigramProvider(dimension)
        block = provider.embed_raw_batch(texts)
        assert block.dtype == np.float64 and block.shape == (dimension, len(texts))
        for j, text in enumerate(texts):
            expected = reference_trigram_embedding(text, dimension).tobytes()
            assert provider.embed_raw(text).tobytes() == expected
            assert block[:, j].tobytes() == expected


_EMBED_TEXTS = st.text(max_size=2) | st.text(max_size=40) | st.text(alphabet="abİßΣς😀 .", max_size=12)


@settings(max_examples=150)
@given(
    st.lists(_EMBED_TEXTS.filter(str.strip), min_size=1, max_size=12),
    st.integers(1, 700),
    st.integers(1, 9),
)
@example(["İ", "a", "ab", "😀", "x😀İ", "İİİ Σ"], 384, 2)
def test_embed_equals_the_build_index_row_of_its_text(texts, dimension, chunk):
    provider = HashedTrigramProvider(dimension)
    with mock.patch.object(rag, "EMBED_CHUNK", chunk):
        index = build_index([make_report("r", texts)], provider)
    assert len(index) == len(texts)
    for i, text in enumerate(texts):
        assert embed(text, provider).tobytes() == index.columns[:, i].tobytes()


@settings(max_examples=100)
@given(st.integers(1, 300), st.integers(1, 9), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_embed_equals_the_build_index_row_of_any_float_vector(dimension, chunk, count, seed):
    # Float components, unlike trigram counts, make the sum of squares depend on its summation order.
    rng = np.random.default_rng(seed)
    vectors = {f"v{i}": rng.standard_normal(dimension) * 10.0 ** rng.integers(-5, 5) for i in range(count)}
    provider = StubProvider({"query": vectors["v0"], **vectors})
    with mock.patch.object(rag, "EMBED_CHUNK", chunk):
        index = build_index([make_report("r", list(vectors))], provider)
    for i, record in enumerate(index.records):
        assert embed(record.sentence, provider).tobytes() == index.columns[:, i].tobytes()


def test_bucket_table_stays_bounded_and_keeps_the_buckets():
    dimension = 389  # a table of its own, apart from the other tests' dimensions
    provider = HashedTrigramProvider(dimension)
    table = rag._BUCKETS[dimension]
    probes = ["tap the OK button", "İ", "ab"]
    before = [embed(text, provider).tobytes() for text in probes]
    # 700 texts of 100 distinct trigrams each: 70,000 in all, more than the table holds.
    for t in range(700):
        text = "".join(chr(0x20000 + t * 102 + i) for i in range(102))  # past the surrogates
        assert provider.embed_raw(text).tobytes() == reference_trigram_embedding(text, dimension).tobytes()
        assert len(table) <= 2**16 + 100
    assert len(table) < 70_000  # emptied at least once
    assert [embed(text, provider).tobytes() for text in probes] == before
    batch = provider.embed_raw_batch(probes)
    for j, text in enumerate(probes):
        assert batch[:, j].tobytes() == reference_trigram_embedding(text, dimension).tobytes()


def test_bucket_tables_are_bounded_in_number_and_keep_every_vector():
    texts = ["tap the OK button", "İ", "ab", "Scroll down to Settings"]
    for dimension in range(500, 540):  # 40 dimensions, each a table of its own
        provider = HashedTrigramProvider(dimension)
        assert len(rag._BUCKETS) <= rag._TABLE_CAP
        batch = provider.embed_raw_batch(texts)
        for j, text in enumerate(texts):
            expected = reference_trigram_embedding(text, dimension).tobytes()
            assert provider.embed_raw(text).tobytes() == batch[:, j].tobytes() == expected
    assert len(rag._BUCKETS) <= rag._TABLE_CAP
    early = HashedTrigramProvider(500)  # its table is no longer kept, so this provider starts a new one
    assert early.embed_raw(texts[0]).tobytes() == reference_trigram_embedding(texts[0], 500).tobytes()


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
    with pytest.raises(RagError, match="^corpus has no reports$"):
        build_index([], provider)


def test_duplicate_sentences_kept_as_distinct_records(provider):
    corpus = [make_report("r1", ["Tap OK.", "Tap OK."])]
    index = build_index(corpus, provider)
    assert len(index) == 2
    assert index.records[0].record_id != index.records[1].record_id


def test_mini_corpus_builds_unit_norm_records(mini_corpus, provider, tmp_path):
    index = build_index(mini_corpus, provider)
    assert len(index) == 20
    for i in range(len(index)):
        assert abs(np.linalg.norm(index.columns[:, i]) - 1.0) <= 1e-6
    save_index(index, tmp_path / "index.bin")
    digest = hashlib.sha256((tmp_path / "index.bin").read_bytes()).hexdigest()
    assert digest == "3ed36ddd181e332ecc7f096063f6d72002384686aaed1fda7b61ba2427358199"


def test_build_index_records_equal_embed_across_chunks():
    rng = np.random.default_rng(5)
    vectors = {f"v{i}": rng.standard_normal(2) * 10.0 ** rng.integers(-8, 8) for i in range(EMBED_CHUNK + 60)}
    # Rows whose plain norm underflows or overflows, on both sides of the chunk boundary.
    rescued = ([5.5e-248, 0.0], [1e-160, 0.0], [1e200, 1e200], [-1e-160, 1e-170])
    for i, raw in zip((3, EMBED_CHUNK - 1, EMBED_CHUNK, EMBED_CHUNK + 7), rescued):
        vectors[f"v{i}"] = np.array(raw)
    provider = StubProvider({"query": vectors["v0"], **vectors})
    texts = list(vectors)
    index = build_index([make_report("a", texts[:100]), make_report("b", texts[100:])], provider)
    assert [record.sentence for record in index.records] == texts
    for i, record in enumerate(index.records):
        assert index.columns[:, i].tobytes() == embed(record.sentence, provider).tobytes()
    for bad in ([0.0, 0.0], [np.inf, 1.0], [1e200, np.nan]):
        stub = StubProvider({**provider.vectors, texts[EMBED_CHUNK + 3]: np.array(bad)})
        with pytest.raises(RagError, match="returned a (zero|non-finite) vector$"):
            build_index([make_report("a", texts)], stub)


# -- retrieval ------------------------------------------------------------------


def brute_force_ranking(index: RagIndex, query: np.ndarray) -> list[tuple[str, float]]:
    """Every record with its D-term ``fsum`` score, best first: the full scan that ``retrieve``'s
    first k hits must equal, ids and score bits alike."""
    scored = []
    for i, record in enumerate(index.records):
        score = math.fsum(float(q) * float(e) for q, e in zip(query, index.columns[:, i]))
        scored.append((record.record_id, score))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored


def score_bits(hits) -> list[tuple[str, bytes]]:
    return [(record_id, struct.pack("<d", score)) for record_id, score in hits]


@st.composite
def sparse_and_dense_cases(draw):
    """Record vectors and a query, each mostly signed zeros or fully dense, with negative components."""
    dimension = draw(st.sampled_from([1, 3, 16, 384]))
    zero = st.sampled_from([0.0, -0.0])
    component = zero | st.integers(-3, 3).map(float) | st.floats(-1.0, 1.0, allow_subnormal=False)
    sparse = arrays(np.float64, dimension, elements=component, fill=zero)
    dense = arrays(np.float64, dimension, elements=st.floats(-1.0, 1.0, allow_subnormal=False).filter(bool), fill=st.nothing())
    vector = (sparse | dense).filter(np.any)
    vectors = draw(st.lists(vector, min_size=1, max_size=6))
    return vectors + [v.copy() for v in vectors if draw(st.booleans())], draw(vector)


@settings(max_examples=100)
@given(sparse_and_dense_cases())
@example(([np.array([0.0, -1.0, 0.0]), np.array([-0.0, 0.0, 2.0])], np.array([1.0, 0.0, 0.0])))
@example(([np.array([-0.0, 3.0]), np.array([0.5, -0.5])], np.array([2.0, -0.0])))
def test_retrieve_returns_the_full_scans_ids_and_score_bits(tmp_path_factory, case):
    vectors, raw_query = case
    provider = StubProvider({"query": raw_query, **{f"v{i}": v for i, v in enumerate(vectors)}})
    built = build_index([make_report(f"r{i:02d}", [f"v{i}"]) for i in range(len(vectors))], provider)
    path = tmp_path_factory.getbasetemp() / "full_scan_index.bin"  # one file, rewritten per example
    save_index(built, path)
    for index in (built, load_index(path)):
        expected = brute_force_ranking(index, embed("query", provider))
        for k in (1, 2, len(index)):
            got = [(h.record.record_id, h.score) for h in retrieve(index, "query", k, provider)]
            assert score_bits(got) == score_bits(expected[:k])


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
        assert np.count_nonzero(embed(query, provider)) < provider.dimension  # a sparse trigram query
        got = [(h.record.record_id, h.score) for h in retrieve(index, query, len(index), provider)]
        assert score_bits(got) == score_bits(brute_force_ranking(index, embed(query, provider)))


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
    assert not index.columns.flags.writeable
    assert index.columns.flags.c_contiguous and index.columns.shape == (index.dimension, len(index))
    query = embed("query", provider)
    expected = brute_force_ranking(index, query)
    for k in (1, 2, len(index)):
        got = [(h.record.record_id, h.score) for h in retrieve(index, "query", k, provider)]
        assert score_bits(got) == score_bits(expected[:k])


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
    with pytest.raises(RagError, match="^index built with .*, queried with 'hashed-trigram-128'$"):
        retrieve(index, "Tap OK.", 1, HashedTrigramProvider(dimension=128))


def test_retrieve_rejects_empty_index(provider):
    index = RagIndex(provider.provider_id, np.empty((provider.dimension, 0)), [])
    with pytest.raises(RagError, match="^index has no records$"):
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
    assert np.array_equal(loaded.columns, index.columns)
    for a, b in zip(loaded.records, index.records):
        assert a.labels == b.labels


def test_load_rejects_non_unit_norm(tmp_path, provider, mini_corpus):
    index = build_index(mini_corpus, provider)
    path = tmp_path / "index.bin"
    save_index(index, path)
    header, block = split_index_file(path)
    block[0] += 0.5
    path.write_bytes(header + block.tobytes())
    with pytest.raises(RagError, match="record .* is not unit-norm$"):
        load_index(path)


def test_load_names_first_record_off_unit_norm(tmp_path, provider, mini_corpus):
    index = build_index(mini_corpus, provider)
    path = tmp_path / "index.bin"
    save_index(index, path)
    header, block = split_index_file(path)
    columns = block.reshape(index.dimension, len(index))
    columns[0, 3] = float("nan")
    columns[0, 7] += 0.5
    path.write_bytes(header + block.tobytes())
    with pytest.raises(RagError, match=f"record {index.records[3].record_id} is not unit-norm"):
        load_index(path)


@pytest.mark.parametrize(
    "damage",
    [
        pytest.param(lambda data, row: data[:-1], id="truncated-byte"),
        pytest.param(lambda data, row: data[:-row], id="truncated-row"),
        pytest.param(lambda data, row: data + b"\0", id="trailing-byte"),
    ],
)
def test_load_rejects_a_block_of_the_wrong_size(tmp_path, provider, mini_corpus, damage):
    index = build_index(mini_corpus, provider)
    path = tmp_path / "index.bin"
    save_index(index, path)
    path.write_bytes(damage(path.read_bytes(), 8 * index.dimension))
    with pytest.raises(RagError, match="embedding block is .* bytes"):
        load_index(path)


def test_load_aligns_the_block_after_an_unpadded_header(tmp_path, provider, mini_corpus):
    index = build_index(mini_corpus, provider)
    path = tmp_path / "index.bin"
    save_index(index, path)
    header, block = split_index_file(path)
    line = header.rstrip()
    if (len(line) + 1) % 8 == 0:
        line += b" "
    path.write_bytes(line + b"\n" + block.tobytes())
    loaded = load_index(path)
    assert loaded.columns.flags.aligned and not loaded.columns.flags.writeable
    assert loaded.columns.tobytes() == index.columns.tobytes()


def test_load_rejects_a_header_escaping_a_lone_surrogate(tmp_path, provider, mini_corpus):
    # The escape is ASCII, so the header reads as UTF-8; the decoded sentence could never be written out again.
    path = tmp_path / "index.bin"
    save_index(build_index(mini_corpus, provider), path)
    data = path.read_bytes()
    end = data.index(b"\n")
    header = json.loads(data[:end])
    header["records"][0]["sentence"] += "\ud800"
    path.write_bytes(json.dumps(header).encode("ascii") + data[end:])
    with pytest.raises(RagError, match="no binary index header .*lone surrogate.*; rebuild it with build-index$"):
        load_index(path)


def old_json_index(index: RagIndex, one_record_per_line: bool) -> str:
    """An index in the all-JSON format, embeddings as decimal arrays."""
    records = [
        {
            "record_id": r.record_id,
            "sentence": r.sentence,
            "embedding": index.columns[:, i].tolist(),
            "labels": [e.to_label() for e in r.labels],
            "source_report": r.record_id.rpartition(":")[0],
        }
        for i, r in enumerate(index.records)
    ]
    if not one_record_per_line:
        return json.dumps({"provider_id": index.provider_id, "dimension": index.dimension, "records": records})
    lines = ",\n".join(json.dumps(r) for r in records)
    return f'{{"provider_id": "{index.provider_id}", "dimension": {index.dimension}, "records": [\n{lines}\n]}}\n'


def write_row_major_index(index: RagIndex, path) -> None:
    """An index in the format before the column block: no layout, a source_report per record, the block row by row."""
    records = [
        {"record_id": r.record_id, "sentence": r.sentence, "labels": [], "source_report": r.record_id.rpartition(":")[0]}
        for r in index.records
    ]
    line = json.dumps({"provider_id": index.provider_id, "dimension": index.dimension, "records": records}).encode()
    path.write_bytes(line + b" " * (-(len(line) + 1) % 8) + b"\n" + np.ascontiguousarray(index.columns.T).tobytes())


def test_load_rejects_the_row_major_block_and_names_build_index(tmp_path, provider, mini_corpus):
    index = build_index(mini_corpus, provider)
    path = tmp_path / "index.bin"
    write_row_major_index(index, path)
    with pytest.raises(RagError, match="layout None is not 'columns'; rebuild it with build-index"):
        load_index(path)


def test_saved_block_holds_one_row_per_dimension(tmp_path, provider, mini_corpus):
    index = build_index(mini_corpus, provider)
    path = tmp_path / "index.bin"
    save_index(index, path)
    header, block = split_index_file(path)
    assert json.loads(header)["layout"] == "columns"
    assert np.array_equal(block.reshape(index.dimension, len(index)), index.columns)
    assert index.columns.flags.c_contiguous and load_index(path).columns.flags.c_contiguous


@pytest.mark.parametrize("one_record_per_line", [True, False])
def test_load_rejects_the_old_json_format_and_names_build_index(tmp_path, provider, mini_corpus, one_record_per_line):
    path = tmp_path / "index.json"
    path.write_text(old_json_index(build_index(mini_corpus, provider), one_record_per_line), encoding="utf-8")
    with pytest.raises(RagError, match="build-index"):
        load_index(path)


LABELS = [
    S2REntity.from_label(raw)
    for raw in (
        {"action": "tap", "component": "OK"},
        {"action": "input", "component": "Name", "value": "Zoë"},
        {"action": "scroll", "direction": "down"},
        {"action": "back"},
    )
]


@st.composite
def indexes(draw):
    """Small indexes with arbitrary text fields and unit-norm columns of any magnitude."""
    dimension = draw(st.integers(1, 6))
    vector = arrays(np.float64, dimension, elements=st.floats(-1e300, 1e300)).filter(np.any)
    vectors = draw(st.lists(vector, max_size=5))
    rows = np.array([embed("query", StubProvider({"query": v})) for v in vectors]).reshape(len(vectors), dimension)
    columns = np.ascontiguousarray(rows.T)
    entries = [
        (draw(st.text()), draw(st.text()), tuple(draw(st.lists(st.sampled_from(LABELS), max_size=3))))
        for _ in vectors
    ]
    return RagIndex(draw(st.text()), columns, entries)


@settings(max_examples=100)
@given(indexes())
@example(RagIndex("hashed-trigram-2", np.array([[0.6], [0.8]]), [("r:0001", "Tippe auf »Öffnen«\n\u2028", ())]))
def test_save_load_round_trip_is_exact(tmp_path_factory, index):
    path = tmp_path_factory.getbasetemp() / "round_trip_index.bin"  # one file, rewritten per example
    save_index(index, path)
    assert path.read_bytes() == reference_index_bytes(index)
    loaded = load_index(path)
    assert (loaded.provider_id, loaded.dimension) == (index.provider_id, index.dimension)
    assert loaded.columns.tobytes() == index.columns.tobytes()
    assert not loaded.columns.flags.writeable
    assert loaded.columns.flags.aligned and (path.read_bytes().index(b"\n") + 1) % 8 == 0
    assert loaded.columns.flags.c_contiguous and loaded.columns.shape == (loaded.dimension, len(loaded))
    fields = [(r.record_id, r.sentence, r.labels) for r in loaded.records]
    assert fields == [(r.record_id, r.sentence, r.labels) for r in index.records]
    assert b"source_report" not in path.read_bytes()


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


def test_http_provider_dimension_check(embed_server, mini_corpus):
    provider = HttpEmbeddingProvider(embed_server, dimension=16)
    with pytest.raises(RagError, match=r"^endpoint returned dimension \d+, expected 16$"):
        embed("tap button", provider)
    with pytest.raises(RagError, match=r"^endpoint returned dimension \d+, expected 16$"):
        build_index(mini_corpus, provider)


class _OneShortHandler(_EmbedHandler):
    def embeddings(self, texts):
        return super().embeddings(texts)[:-1]


def test_http_provider_reuses_one_connection_for_every_post(mini_corpus):
    posts = []

    class CountingHandler(_EmbedHandler):
        def embeddings(self, texts):
            posts.append(len(texts))
            return super().embeddings(texts)

    with counting_server(CountingHandler) as server:
        provider = HttpEmbeddingProvider(f"http://127.0.0.1:{server.server_port}/embed", dimension=8)
        index = build_index(mini_corpus, provider)
        assert len(index) == 20 and posts == [20]  # the whole corpus is one chunk
        for i, record in enumerate(index.records):
            assert index.columns[:, i].tobytes() == embed(record.sentence, provider).tobytes()
        assert server.connections == 1
        provider.session.close()
    with counting_server(_OneShortHandler) as server:
        provider = HttpEmbeddingProvider(f"http://127.0.0.1:{server.server_port}/embed", dimension=8)
        with pytest.raises(RagError, match="^endpoint returned embeddings of shape"):
            build_index(mini_corpus, provider)
        provider.session.close()


class _DeepHandler(_EmbedHandler):
    def body(self, texts):
        return DEEP_JSON.encode()


class _Latin1Handler(_EmbedHandler):
    def body(self, texts):
        return b'{"embeddings": [[1.0]], "note": "caf\xe9"}'


@pytest.mark.parametrize("handler", [_DeepHandler, _Latin1Handler], ids=["nested too deeply", "not UTF-8"])
def test_http_provider_treats_an_undecodable_reply_as_a_bad_payload(handler):
    with counting_server(handler) as server:
        provider = HttpEmbeddingProvider(f"http://127.0.0.1:{server.server_port}/embed", dimension=1)
        with pytest.raises(RagError, match="^bad embedding payload: "):
            provider.embed_raw("tap button")
        provider.session.close()


def test_http_provider_unreachable(monkeypatch):
    monkeypatch.setattr("crashreplay.rag.EMBED_TIMEOUT_S", 0.5)
    provider = HttpEmbeddingProvider("http://127.0.0.1:9/embed", dimension=8)
    with pytest.raises(RagError, match="^embedding endpoint failed: "):
        embed("tap button", provider)


def test_retrieve_rejects_k_below_one(mini_corpus, provider):
    index = build_index(mini_corpus, provider)
    with pytest.raises(ValueError):
        retrieve(index, "Tap OK.", 0, provider)
