"""Vector store of labeled bug-report sentences.

Labeled reports are segmented into sentences, embedded, and kept in an
immutable index.  At extraction time the most similar corpus sentences
(cosine similarity) are retrieved to ground the language model.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gateway import decode_json
from .grammar import S2REntity

NORM_TOLERANCE = 1e-6
#: Seconds one embedding request may take before the endpoint counts as unavailable.
EMBED_TIMEOUT_S = 30.0
#: Below this 2-norm the sum of squares nears the subnormal range and loses precision.
_TINY_NORM = 1e-150
_UNIT_ROUNDOFF = 2.0**-53
EMBED_CHUNK = 256  #: Sentences per ``embed_raw_batch`` call in ``build_index``; it bounds the batch's temporaries.
_LAYOUT = "columns"  #: The index file's ``layout``: its embedding block holds one row per dimension.
_BUCKET_CAP = 2**16  #: Trigrams a bucket table holds before it is emptied.
_TABLE_CAP = 4  #: Bucket tables, one per embedding dimension, kept in ``_BUCKETS``.


class RagError(Exception):
    """Base error for corpus and index failures."""


# ---------------------------------------------------------------------------
# Sentence segmentation

_MARKER = re.compile(r"^\d+[.)]\s*")
_HAS_LETTER = re.compile(r"[A-Za-z]")
_TERMINAL_TOKEN = re.compile(r"[()]|[.!?]+\s*")  # a parenthesis, or a run of terminal marks and its spaces


def _split_terminal(text: str) -> list[str]:
    """Split on sentence-final ., ! or ? outside parentheses.

    A split point followed by an opening parenthesis is suppressed so that
    parenthesized asides stay attached to their sentence.
    """
    out: list[str] = []
    depth = start = 0
    for token in _TERMINAL_TOKEN.finditer(text):
        if (mark := token.group()) == "(":
            depth += 1
        elif mark == ")":
            depth = max(0, depth - 1)
        elif depth == 0 and (k := token.end()) < len(text) and text[k] != "(":
            out.append(text[start:k].strip())
            start = k
    tail = text[start:].strip()
    if tail:
        out.append(tail)
    return out


def segment_report(report_text: str) -> list[str]:
    """Split a bug report into sentences, in document order.

    Lines and numbered list items split first; a line opening with ``(``
    re-attaches to the previous line.  Terminal punctuation then splits
    within each unit, keeping parenthesized asides attached.  Empty and
    letterless fragments are dropped.
    """
    units: list[str] = []
    for raw in report_text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("(") and units:
            units[-1] = f"{units[-1]} {line}"
        else:
            units.append(line)

    sentences: list[str] = []
    for unit in units:
        unit = _MARKER.sub("", unit)
        for fragment in _split_terminal(unit):
            fragment = _MARKER.sub("", fragment).strip()
            if fragment and _HAS_LETTER.search(fragment):
                sentences.append(fragment)
    return sentences


# ---------------------------------------------------------------------------
# Embedding providers


class EmbeddingProvider:
    """Contract every embedder fulfils: a fixed dimension and a stable id."""

    provider_id: str
    dimension: int

    def embed_raw(self, text: str) -> np.ndarray:
        raise NotImplementedError

    def embed_raw_batch(self, texts: list[str]) -> np.ndarray:
        """The raw vectors of ``texts`` as the columns of one D x n block; by default one ``embed_raw`` each."""
        return np.stack([_raw_vector(text, self) for text in texts], axis=1)


class HashedTrigramProvider(EmbeddingProvider):
    """Deterministic offline embedder.

    Lowercases the text, extracts character trigrams, hashes each trigram
    into a fixed-size term-frequency vector.  Needs no network and no model
    weights, so every test can run against it.  Providers of one dimension
    share its bucket table; at most ``_TABLE_CAP`` tables are kept, and a
    provider of a new dimension past the cap empties them all.
    """

    def __init__(self, dimension: int = 384):
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        self.provider_id = f"hashed-trigram-{dimension}"
        if dimension not in _BUCKETS and len(_BUCKETS) >= _TABLE_CAP:
            _BUCKETS.clear()
        self._buckets = _BUCKETS.setdefault(dimension, _BucketTable(dimension))

    def embed_raw(self, text: str) -> np.ndarray:
        lowered = text.lower()
        grams = [lowered[i : i + 3] for i in range(len(lowered) - 2)] or [lowered]
        buckets = np.fromiter(map(self._buckets.__getitem__, grams), dtype=np.intp, count=len(grams))
        return np.bincount(buckets, minlength=self.dimension).astype(np.float64)

    def embed_raw_batch(self, texts: list[str]) -> np.ndarray:
        """``embed_raw`` of every text in one vectorized pass that hashes each distinct trigram once."""
        n, lowered = len(texts), [text.lower() for text in texts]
        joined = "".join(lowered)
        lengths = np.array([len(text) for text in lowered], dtype=np.int64)
        grams = np.maximum(lengths - 2, 0)
        skipped = lengths - grams  # the characters of each text that start no trigram
        # Each trigram's start in ``joined``; its three code points, 21 bits each, pack into one int64 key.
        starts = np.arange(grams.sum()) + np.repeat(np.cumsum(skipped) - skipped, grams)
        points = np.frombuffer(joined.encode("utf-32-le"), dtype="<u4").astype(np.int64)
        keys = points[starts] << 42 | points[starts + 1] << 21 | points[starts + 2]
        _, first, slot = np.unique(keys, return_index=True, return_inverse=True)
        buckets = [self._buckets[joined[i : i + 3]] for i in starts[first].tolist()]
        cells = np.asarray(buckets, dtype=np.int64)[slot] * n + np.repeat(np.arange(n), grams)
        # A text under three characters is its one gram.
        short = [self._buckets[lowered[j]] * n + j for j in np.flatnonzero(grams == 0).tolist()]
        cells = np.concatenate([cells, np.asarray(short, dtype=np.int64)])
        # Weights of ones count straight into float64, the type of ``embed_raw``'s counts.
        return np.bincount(cells, weights=np.ones(len(cells)), minlength=self.dimension * n).reshape(-1, n)


class _BucketTable(dict):
    """Each trigram's bucket in one dimension, hashed on its first lookup; emptied when it holds ``_BUCKET_CAP``."""

    def __init__(self, dimension: int):
        self.dimension = dimension

    def __missing__(self, gram: str) -> int:
        if len(self) >= _BUCKET_CAP:
            self.clear()
        digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
        self[gram] = bucket = int.from_bytes(digest, "big") % self.dimension
        return bucket


# Module-level because a provider is made per extraction (``cli.provider_for_index``).
_BUCKETS: dict[int, _BucketTable] = {}


class HttpEmbeddingProvider(EmbeddingProvider):
    """Remote embedder over a JSON POST endpoint.

    Request: ``{"texts": ["..."]}``; response: ``{"embeddings": [[...]]}``.
    """

    def __init__(self, endpoint: str, dimension: int):
        import requests

        self.endpoint = endpoint
        self.dimension = dimension
        self.provider_id = f"http:{endpoint}"
        self.session = requests.Session()  # one kept-alive connection for every POST

    def embed_raw(self, text: str) -> np.ndarray:
        return self.embed_raw_batch([text])[:, 0]

    def embed_raw_batch(self, texts: list[str]) -> np.ndarray:
        """One POST for all of ``texts``."""
        import requests

        try:
            resp = self.session.post(self.endpoint, json={"texts": texts}, timeout=EMBED_TIMEOUT_S)
            resp.raise_for_status()
        except requests.RequestException as exc:
            raise RagError(f"embedding endpoint failed: {exc}") from exc
        try:
            payload = decode_json(resp.content.decode("utf-8"))  # RFC 8259: JSON is UTF-8
            rows = np.asarray(payload["embeddings"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise RagError(f"bad embedding payload: {exc}") from exc
        if rows.ndim != 2 or len(rows) != len(texts):
            raise RagError(f"endpoint returned embeddings of shape {rows.shape} for {len(texts)} texts")
        if rows.shape[1] != self.dimension:
            raise RagError(f"endpoint returned dimension {rows.shape[1]}, expected {self.dimension}")
        return rows.T


def embed(text: str, provider: EmbeddingProvider) -> np.ndarray:
    """Embed ``text`` and L2-normalize the result, whatever the provider returned."""
    vec = _raw_vector(text, provider)
    if _TINY_NORM < (norm := math.sqrt(_square_sums(vec))) < math.inf:
        vec /= norm
    else:  # rescaled as a one-column block
        _normalize_columns(vec[:, None], provider.provider_id)
    return vec


def _raw_vector(text: str, provider: EmbeddingProvider) -> np.ndarray:
    """``provider``'s raw vector for ``text``, as a float64 array of its own."""
    if not text.strip():
        raise RagError("cannot embed empty text")
    vec = np.array(provider.embed_raw(text), dtype=np.float64)
    if vec.shape != (provider.dimension,):
        raise RagError(f"provider {provider.provider_id} returned shape {vec.shape}, expected ({provider.dimension},)")
    return vec


def _square_sums(rows: np.ndarray) -> np.ndarray:
    """Each row's squares summed pairwise along a contiguous copy, so a vector and a block column agree bitwise."""
    return np.square(rows, order="C").sum(axis=-1)


def _normalize_columns(block: np.ndarray, provider_id: str) -> None:
    """Scale each column of the D x n ``block`` to unit 2-norm in place, to the same bytes at any width n."""
    norms = np.sqrt(_square_sums(block.T))
    for j in [j for j, norm in enumerate(norms.tolist()) if not _TINY_NORM < norm < math.inf]:
        # The plain norm lost precision, overflowed or is NaN: rescale by the
        # largest component first.  Ordinary vectors skip this and keep their bytes.
        scale = float(np.max(np.abs(block[:, j])))
        if not math.isfinite(scale):
            raise RagError(f"provider {provider_id} returned a non-finite vector")
        if scale == 0.0:
            raise RagError(f"provider {provider_id} returned a zero vector")
        block[:, j] /= scale
        norms[j] = math.sqrt(np.square(block[:, j]).sum())
    block /= norms


# ---------------------------------------------------------------------------
# Corpus


@dataclass(frozen=True)
class LabeledSentence:
    text: str
    labels: tuple[S2REntity, ...]


@dataclass(frozen=True)
class LabeledReport:
    report_id: str
    app_id: str
    sentences: tuple[LabeledSentence, ...]

    def validate(self) -> None:
        if not isinstance(self.report_id, str) or not self.report_id:
            raise RagError("report_id must be a nonempty string")
        for i, sentence in enumerate(self.sentences):
            if not isinstance(sentence.text, str) or not sentence.text.strip():
                raise RagError(f"report {self.report_id}: sentence {i} is not a nonempty string")


def load_corpus(path: str | Path) -> list[LabeledReport]:
    """Read a line-delimited corpus file (one JSON report object per line)."""
    reports: list[LabeledReport] = []
    seen: set[str] = set()
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            raw = decode_json(line)
            sentences = tuple(
                LabeledSentence(
                    text=entry["text"],
                    labels=tuple(S2REntity.from_label(label) for label in entry.get("labels", [])),
                )
                for entry in raw["sentences"]
            )
            report = LabeledReport(
                report_id=raw["report_id"], app_id=raw.get("app_id", ""), sentences=sentences
            )
            report.validate()
        except Exception as exc:
            raise RagError(f"{path}:{line_no}: {exc}") from exc
        if report.report_id in seen:
            raise RagError(f"{path}:{line_no}: duplicate report_id {report.report_id!r}")
        seen.add(report.report_id)
        reports.append(report)
    return reports


# ---------------------------------------------------------------------------
# Index


@dataclass(frozen=True)
class RagRecord:
    record_id: str
    sentence: str
    labels: tuple[S2REntity, ...]


@dataclass(frozen=True)
class RetrievalHit:
    record: RagRecord
    score: float


class RagIndex:
    """Immutable index over embedded corpus sentences.

    The embeddings live in ``columns``, one contiguous, read-only float64
    block with one row per dimension and one column per record (D x N).
    ``entries`` gives each record's ``(record_id, sentence, labels)``, in
    column order.
    """

    def __init__(self, provider_id: str, columns: np.ndarray, entries: list[tuple]):
        columns.flags.writeable = False
        self.provider_id = provider_id
        self.dimension = columns.shape[0]
        self.columns = columns
        self.records = tuple(RagRecord(*entry) for entry in entries)

    def __len__(self) -> int:
        return len(self.records)


def build_index(corpus: list[LabeledReport], provider: EmbeddingProvider) -> RagIndex:
    """Embed every labeled sentence into one record; record order follows the corpus."""
    if not corpus:
        raise RagError("corpus has no reports")
    entries = []
    for report in corpus:
        report.validate()
        for ordinal, sentence in enumerate(report.sentences, start=1):
            entries.append((f"{report.report_id}:{ordinal:04d}", sentence.text, sentence.labels))
    columns = np.empty((provider.dimension, len(entries)))
    for lo in range(0, len(entries), EMBED_CHUNK):
        texts = [sentence for _, sentence, _ in entries[lo : lo + EMBED_CHUNK]]
        block = np.asarray(provider.embed_raw_batch(texts), dtype=np.float64)
        if block.shape != (provider.dimension, len(texts)):
            raise RagError(f"provider {provider.provider_id} returned {block.shape} for {len(texts)} texts")
        chunk = columns[:, lo : lo + len(texts)]
        chunk[...] = block
        _normalize_columns(chunk, provider.provider_id)
    return RagIndex(provider.provider_id, columns, entries)


def _score_margin(dimension: int) -> float:
    """How far below the k-th fast score a top-k record's fast score can lie.

    Let u = 2^-53 and gamma_n = n*u / (1 - n*u).  A record column e is
    unit-norm within NORM_TOLERANCE (``embed`` normalizes it and
    ``load_index`` checks it) and the query q within a few ulps, so
    |e|*|q| <= (1+tol)^2.  For each record:

    * the fast score fl(e.q) from the matrix product, in any summation order
      and with or without fused multiply-add, is within gamma_D*|e|*|q| of
      the real dot product (Higham, Accuracy and Stability of Numerical
      Algorithms, 2nd ed., section 3.1, and Cauchy-Schwarz).  Leaving out
      the exact zero terms where q_j = 0 gives a dot product of length m <= D
      in some summation order, so the same bound covers it;
    * the exact score fsum(fl(e_j*q_j)) rounds each product once and the sum
      once, so it is within (2u + u^2)*|e|*|q| of the real dot product;
    * so the two differ by at most
      delta = (gamma_D + gamma_2)*(1+tol)^2 <= gamma_(D+2)*(1+tol)^2
      (Higham, Lemma 3.3).

    If t is the k-th largest fast score, at least k records have exact
    scores >= t - delta.  A record whose exact score is below t - delta is
    strictly outranked by all of them and cannot be in the top k, so every
    top-k record has a fast score >= t - 2*delta.  One more 2u absorbs the
    rounding of t - margin (|t - margin| < 1.01).  Underflow adds at most
    D*2^-1022 per score, far below that slack.  For D = 384 the margin is
    about 9e-14.
    """
    n = dimension + 2
    gamma = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
    return 2.0 * (gamma * (1.0 + NORM_TOLERANCE) ** 2 + _UNIT_ROUNDOFF)


def retrieve(index: RagIndex, query_sentence: str, k: int, provider: EmbeddingProvider) -> list[RetrievalHit]:
    """Return the ``k`` most similar records, scores descending.

    Ties break by ascending record_id so repeated calls are identical.
    """
    if provider.provider_id != index.provider_id:
        raise RagError(f"index built with {index.provider_id!r}, queried with {provider.provider_id!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if not index.records:
        raise RagError("index has no records")
    query = embed(query_sentence, provider)
    # Pre-select with one product over the block rows where the query is nonzero: every
    # record that can be in the top k has a fast score within _score_margin of the k-th.
    nz = query.nonzero()[0]
    q, rows = query[nz], index.columns[nz]
    fast = q @ rows
    kth = len(fast) - min(k, len(fast))
    threshold = np.partition(fast, kth)[kth] - _score_margin(index.dimension)
    # Correctly-rounded exact dot products (fsum) of the candidates only, over
    # the nonzero terms (the rest are exact zeros): a score is a unique,
    # summation-order-independent double, so rankings and the record-id tie
    # rule are reproducible by any independent implementation.
    candidates = (fast >= threshold).nonzero()[0].tolist()
    hits = [RetrievalHit(index.records[row], math.fsum((rows[:, row] * q).tolist())) for row in candidates]
    return sorted(hits, key=lambda hit: (-hit.score, hit.record.record_id))[:k]


def save_index(index: RagIndex, path: str | Path) -> None:
    """Write one JSON header line with every record but its embedding, then the column block as raw ``<f8`` bytes."""
    records = [
        {"record_id": r.record_id, "sentence": r.sentence, "labels": [e.to_label() for e in r.labels]}
        for r in index.records
    ]
    header = {"provider_id": index.provider_id, "dimension": index.dimension, "layout": _LAYOUT, "records": records}
    line = json.dumps(header, ensure_ascii=False).encode("utf-8")
    with open(path, "wb") as out:
        # Trailing spaces start the block at a multiple of 8 bytes, so a view of it is aligned for BLAS.
        out.write(line + b" " * (-(len(line) + 1) % 8) + b"\n")
        out.write(np.ascontiguousarray(index.columns, dtype="<f8").data)  # no copy of a built or loaded block


def load_index(path: str | Path) -> RagIndex:
    """Load a persisted index, validating its header, layout, block size and unit norms.

    The block is a read-only view of the file's bytes, copied only if unaligned.
    """
    try:
        data = Path(path).read_bytes()
        end = data.index(b"\n")
        header = decode_json(data[:end].decode("utf-8"))  # no output could encode a lone surrogate
        provider_id = header["provider_id"]
        dimension = int(header["dimension"])
        raw_records = list(header["records"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise RagError(f"{path}: no binary index header ({exc}); rebuild it with build-index") from exc
    if (layout := header.get("layout")) != _LAYOUT:
        raise RagError(f"{path}: index layout {layout!r} is not {_LAYOUT!r}; rebuild it with build-index")
    entries = []
    for i, raw in enumerate(raw_records):
        try:
            labels = tuple(S2REntity.from_label(label) for label in raw.get("labels", []))
            entries.append((raw["record_id"], raw["sentence"], labels))
        except Exception as exc:
            raise RagError(f"{path}: record {i}: {exc}") from exc
    block, need = len(data) - end - 1, len(entries) * dimension * 8
    if dimension < 1 or block != need:
        raise RagError(f"{path}: embedding block is {block} bytes, not {need}; rebuild it with build-index")
    columns = np.frombuffer(data, dtype="<f8", offset=end + 1).reshape(dimension, len(entries))
    if not columns.flags.aligned:  # an unpadded header; products with an unaligned view run ~5x slower
        columns = columns.copy()
    index = RagIndex(provider_id, columns, entries)
    # Written as "not within" so that a NaN norm fails too; einsum sums the squares without a temporary block.
    norms = np.sqrt(np.einsum("ij,ij->j", columns, columns))
    off_norm = np.flatnonzero(~(np.abs(norms - 1.0) <= NORM_TOLERANCE))
    if off_norm.size:
        raise RagError(f"{path}: record {index.records[off_norm[0]].record_id} is not unit-norm")
    return index
