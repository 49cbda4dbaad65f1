"""k-nearest-neighbor classification of free text against a pre-classified
sample corpus.

A target text is reduced to a count vector over its own highest-frequency
terms (all of them, in first-occurrence order, when it has no more than the
feature count); the same projection is applied to every sample document, and
the majority label among the k samples at smallest Euclidean distance wins.

Classification scores against a ``CorpusIndex``: an inverted index from each
term to the documents containing it, grouped by the term's count s in them,
built once per batch. Every document starts at d² = Σ t_f² over the target's
features; for a feature f, each group adds s·(s − 2·t_f), computed once, to
every document position in it, and a group with s = 2·t_f (which adds 0) is
skipped. Only the k smallest (d², doc_id) are kept: ``heapq.nsmallest``
takes the k smallest d² values with no key function, and ``list.index`` finds
their positions; above ``SORT_ABOVE_K`` one stable sort of the positions by d²
does. Only those k get a square root. Counts are integers, so d²
is exact, and its square root equals the dense path's float sum of float
squares bit for bit. That holds while d² stays below 2**50, where integer d²
values are exact floats and distinct ones keep distinct, equally ordered
square roots; the index refuses targets that could reach it.

``classify_text`` calls ``CorpusIndex.vote``, which votes on the labels and
square roots of those k positions directly: the one path every command takes.
``CorpusIndex.nearest`` is the row view of the same ranking. No command calls
the dense ``distance_matrix`` (one row per sample) or ``knn_classify``, which
shares ``vote``'s voting rule; the tests compare the index against them.

``load_sample_corpus`` is the one reader of sample documents. It returns a
``SampleCorpus``: the ids, the labels and one flat run of terms and counts,
with no dict per document, so little is held while ``CorpusIndex.build``
reads it, and nothing once the index exists. ``SampleDocument`` is the view
of one document that the dense path and the tests take.
"""

from __future__ import annotations

import heapq
import math
from array import array
from collections import namedtuple
from collections.abc import Iterable, Sequence
from enum import Enum
from operator import itemgetter, mul
from pathlib import Path

from .errors import CorpusError, DimensionError, ParameterError
from .features import (  # noqa: F401 (perfbench/tracer.py wraps knn.term_frequency)
    count_vector,
    select_features,
    term_counts,
    term_frequency,
)
from .io_utils import json_lines, json_object
from .textprep import DEFAULT_STOPWORDS, prepare


class ClassLabel(str, Enum):
    """Closed set of personality class levels, plus the Unclassifiable
    sentinel for texts that are empty after preprocessing."""

    AGGRESSIVE = "Aggressive"
    HONEST = "Honest"
    ROMANTIC = "Romantic"
    SINCERE = "Sincere"
    DISHONEST = "Dishonest"
    FRIENDLY = "Friendly"
    EAGER_TO_LEARN = "Eager_to_Learn"
    CONSERVATIVE = "Conservative"
    EMOTIONAL = "Emotional"
    LAZY = "Lazy"
    UNCLASSIFIABLE = "Unclassifiable"


PERSONALITY_LABELS: tuple[ClassLabel, ...] = tuple(
    label for label in ClassLabel if label is not ClassLabel.UNCLASSIFIABLE
)


# A pre-classified sample: its id, its label and the term counts of its
# prepared text. Classification reads nothing else, so the text and its tokens
# are not kept. ``SampleCorpus`` builds this view of a document on demand.
SampleDocument = namedtuple("SampleDocument", "doc_id label counts")
DistanceRow = namedtuple("DistanceRow", "doc_id label distance")

DistanceMatrix = list[DistanceRow]


class SampleCorpus:
    """Sample documents kept flat, with no dict per document: their ids and
    labels, and one run of (term, count) pairs per document, in one list of
    terms, one ``array('I')`` of counts and one ``array('I')`` of the offset
    where each document's run ends. ``corpus[i]`` and iteration (through
    ``__getitem__``) give ``SampleDocument`` views, built on demand."""

    __slots__ = ("doc_ids", "labels", "terms", "counts", "ends")

    def __init__(
        self, doc_ids: list[str], labels: list[ClassLabel], terms: list[str], counts: array,
        ends: array,
    ) -> None:
        self.doc_ids, self.labels, self.terms, self.counts, self.ends = (
            doc_ids, labels, terms, counts, ends
        )

    @classmethod
    def of(cls, documents: Iterable[SampleDocument]) -> "SampleCorpus":
        """The corpus of ``documents``, in their order. A count outside
        ``[0, 2**32)`` is a DimensionError."""
        doc_ids, labels, terms, counts, ends = [], [], [], array("I"), array("I")
        for doc_id, label, doc_counts in documents:
            try:
                counts.extend(doc_counts.values())
            except OverflowError:
                raise _count_outside_array(doc_id, doc_counts) from None
            doc_ids.append(doc_id)
            labels.append(label)
            terms.extend(doc_counts)
            ends.append(len(terms))
        return cls(doc_ids, labels, terms, counts, ends)

    def __len__(self) -> int:
        return len(self.doc_ids)

    def __getitem__(self, i: int) -> SampleDocument:
        i = range(len(self.doc_ids))[i]  # a negative or out-of-range i, as a list takes it
        start, end = self.ends[i - 1] if i else 0, self.ends[i]
        counts = dict(zip(self.terms[start:end], self.counts[start:end]))
        return SampleDocument(self.doc_ids[i], self.labels[i], counts)


def _count_outside_array(doc_id: str, counts: dict[str, int]) -> DimensionError:
    """The error for a document whose counts an ``array('I')`` refused."""
    term, count = next((t, c) for t, c in counts.items() if not 0 <= c < 2**32)
    return DimensionError(f"{doc_id}: count {count} of {term!r} outside [0, 2**32)")


def distance_matrix(
    target_vec: Sequence[int],
    samples: Sequence[SampleDocument],
    features: Sequence[str],
) -> DistanceMatrix:
    """One row per sample document, in corpus order: its Euclidean distance
    from ``target_vec`` over ``features``, the square root of the float sum of
    float squared count differences."""
    if not samples:
        raise CorpusError("sample corpus is empty")
    if not features:
        raise DimensionError("feature set is empty")
    if len(target_vec) != len(features):
        raise DimensionError(f"vector lengths differ: {len(target_vec)} vs {len(features)}")
    rows = []
    for sample in samples:
        sample_vec = count_vector(features, sample.counts)
        distance = math.sqrt(sum([float(t - s) ** 2 for t, s in zip(target_vec, sample_vec)]))
        rows.append(DistanceRow(sample.doc_id, sample.label, distance))
    return rows


_DISTANCE_THEN_ID = itemgetter(2, 0)


def knn_classify(
    dm: DistanceMatrix, k: int
) -> tuple[ClassLabel, list[DistanceRow]]:
    """Majority vote among the k rows at smallest distance.

    Rows are ordered by (distance, doc_id) so equal distances resolve
    deterministically. Vote ties go to the label with the smaller summed
    distance over its voting rows, then to the smaller label string.
    Returns the winning label and the k rows that voted.
    """
    if not dm:
        raise CorpusError("distance matrix is empty")
    if k < 1 or k > len(dm):
        raise ParameterError(f"k={k} outside [1, {len(dm)}]")
    nearest = sorted(dm, key=_DISTANCE_THEN_ID)[:k]
    _, labels, distances = zip(*nearest)
    return _majority(labels, distances), nearest


def _majority(labels: Sequence[ClassLabel], distances: Sequence[float]) -> ClassLabel:
    """The vote of ``knn_classify`` and ``CorpusIndex.vote`` (see the former)
    over the k nearest in (distance, doc_id) order. Both pass that order, so
    each label's summed distance is the same float on both paths."""
    votes: dict[ClassLabel, int] = {}
    summed: dict[ClassLabel, float] = {}
    for label, distance in zip(labels, distances):
        votes[label] = votes.get(label, 0) + 1
        summed[label] = summed.get(label, 0.0) + distance
    top = max(votes.values())
    # Label values are distinct, so the member itself is never compared.
    _, _, winner = min(
        (summed[label], label._value_, label) for label, n in votes.items() if n == top
    )
    return winner


EXACT_LIMIT = 2**50
"""Bound on Σ t² plus the largest per-document Σ s², which bounds d²."""

SORT_ABOVE_K = 32
"""Above this k, ``_rank`` sorts every position by d² instead of finding the
positions of ``heapq.nsmallest``'s values, whose cost grows with k times the
corpus size when d² values are distinct. Per target on 6,000 sample documents
(Python 3.11, 2 vCPUs), the two cross near k = 32 for distinct d² values
(1.6 ms each) and near k = 64 for the ``large_corpus`` benchmark corpus; at
k = 6,000 the sort takes 3.1 ms where the search took 174 ms."""


class CorpusIndex:
    """The sample documents' ids and labels plus
    ``term -> ((count s, doc positions), ...)`` postings, one group per
    distinct count, ordered by s. ``build`` refuses an empty corpus.

    Documents are held in a stable doc-id order, so position order breaks
    distance ties the same way (distance, doc_id) does. The index keeps no
    per-document counts: once built, the corpus it was built from can go.
    """

    def __init__(
        self,
        doc_ids: list[str],
        labels: list[ClassLabel],
        postings: dict[str, tuple[tuple[int, array], ...]],
        max_norm: int,
    ):
        self.doc_ids = doc_ids
        self.labels = labels
        self.postings = postings
        self.max_norm = max_norm

    @classmethod
    def build(cls, corpus: Sequence[SampleDocument]) -> "CorpusIndex":
        """Index a ``SampleCorpus``; any other sequence of documents is
        made one first, which refuses a count outside ``[0, 2**32)``."""
        if not isinstance(corpus, SampleCorpus):
            corpus = SampleCorpus.of(corpus)
        if not corpus:
            raise CorpusError("sample corpus is empty")
        doc_ids, labels, terms, counts, ends = (
            corpus.doc_ids, corpus.labels, corpus.terms, corpus.counts, corpus.ends
        )
        order = sorted(range(len(doc_ids)), key=doc_ids.__getitem__)
        groups: dict[str, dict[int, array]] = {}
        max_norm = 0
        for position, i in enumerate(order):
            start, end = ends[i - 1] if i else 0, ends[i]
            norm = 0
            for term, count in zip(terms[start:end], counts[start:end]):
                by_count = groups.get(term)
                if by_count is None:
                    by_count = groups[term] = {}
                positions = by_count.get(count)
                if positions is None:
                    positions = by_count[count] = array("I")
                positions.append(position)
                norm += count * count
            max_norm = max(max_norm, norm)
        postings = {term: tuple(sorted(by_count.items())) for term, by_count in groups.items()}
        return cls([doc_ids[i] for i in order], [labels[i] for i in order], postings, max_norm)

    def check_k(self, k: int) -> None:
        if k < 1 or k > len(self.doc_ids):
            raise ParameterError(f"k={k} outside [1, {len(self.doc_ids)}]")

    def nearest(
        self, target_vec: Sequence[int], features: Sequence[str], k: int
    ) -> DistanceMatrix:
        """The k rows of ``distance_matrix(target_vec, docs, features)`` with
        smallest (distance, doc_id), in that order: the row view of the
        ranking that ``vote`` classifies on."""
        top, d2 = self._rank(target_vec, features, k)
        doc_ids, labels = self.doc_ids, self.labels
        return [DistanceRow(doc_ids[i], labels[i], math.sqrt(d2[i])) for i in top]

    def vote(self, target_vec: Sequence[int], features: Sequence[str], k: int) -> ClassLabel:
        """``knn_classify(self.nearest(target_vec, features, k), k)[0]``,
        with no row built and no second sort."""
        top, d2 = self._rank(target_vec, features, k)
        labels = self.labels
        return _majority([labels[i] for i in top], [math.sqrt(d2[i]) for i in top])

    def _rank(
        self, target_vec: Sequence[int], features: Sequence[str], k: int
    ) -> tuple[list[int], list[int]]:
        """The positions of the k smallest (d², position), in that order,
        and every position's d²."""
        if not features:
            raise DimensionError("feature set is empty")
        self.check_k(k)
        base = sum(map(mul, target_vec, target_vec))
        if base + self.max_norm >= EXACT_LIMIT:
            raise DimensionError(
                f"squared distances may reach 2**50 (target {base}, corpus {self.max_norm})"
            )
        d2 = [base] * len(self.doc_ids)
        postings = self.postings
        for term, t in zip(features, target_vec):
            groups = postings.get(term)
            if groups is None:
                continue
            two_t = 2 * t
            for s, positions in groups:
                delta = s * (s - two_t)
                if delta:
                    for position in positions:
                        d2[position] += delta
        if k > SORT_ABOVE_K:  # a stable sort keeps (d², position) order
            return sorted(range(len(d2)), key=d2.__getitem__)[:k], d2
        # The k smallest values, then each one's position: the first
        # position holding it, or for a repeat of the previous value the next
        # one after the last taken. That is exactly (d², position) order.
        top = []
        position = previous = -1
        for value in heapq.nsmallest(k, d2):
            position = d2.index(value, position + 1 if value == previous else 0)
            top.append(position)
            previous = value
        return top, d2


def classify_text(
    text: str,
    index: CorpusIndex,
    n_features: int,
    k: int,
    stopwords: frozenset[str] = DEFAULT_STOPWORDS,
) -> ClassLabel:
    """Full classification of one raw text against an indexed sample corpus:
    prepare, select features (every term when there are at most
    ``n_features``), then ``CorpusIndex.vote`` on the k nearest
    positions. Build the ``CorpusIndex`` once and classify every text
    against it."""
    if n_features < 1:
        raise ParameterError(f"n_features={n_features} must be >= 1")
    tokens = prepare(text, stopwords)
    if not tokens:
        return ClassLabel.UNCLASSIFIABLE
    target_counts = term_counts(tokens)
    if len(target_counts) <= n_features:
        # Every term is a feature. d² is an exact integer sum over the
        # features, so their order changes no distance and no label.
        features = list(target_counts)
        target_vec = list(target_counts.values())
    else:
        # Ranking the counts ranks the frequencies: they share one denominator.
        features = select_features(target_counts, n_features)
        target_vec = count_vector(features, target_counts)
    return index.vote(target_vec, features, k)


def load_sample_corpus(
    path: str | Path, stopwords: frozenset[str] = DEFAULT_STOPWORDS
) -> SampleCorpus:
    """Read a sample corpus file: JSON lines with id, label and text, read
    through ``io_utils.json_lines`` and decoded by ``io_utils.json_object``.

    Labels must belong to the closed enumeration (never Unclassifiable),
    texts must be non-empty and ids unique. The file is read one record at a
    time, so the first fault met in file order is the one reported, as a
    CorpusError naming ``path:line``; an unreadable file is a StorageError.

    Each document's terms and counts are appended to the flat arrays of a
    ``SampleCorpus``, and its count dict is dropped at once. ``prepare``
    returns a new string per token, so each document would hold its own copy
    of every term. Instead each term is stored as the first copy of it met
    in this call, kept in a vocabulary that is dropped when the call
    returns. The loop fills the arrays itself, not through
    ``SampleCorpus.of``: a Python call per document made a 6,000-document
    load about 2% slower.
    """
    label_by_id: dict[str, ClassLabel] = {}  # in file order; also the duplicate check
    terms: list[str] = []
    counts, ends = array("I"), array("I")
    add_terms, add_counts, add_end = terms.extend, counts.extend, ends.append
    vocabulary: dict[str, str] = {}
    share = vocabulary.setdefault
    for line_no, line in json_lines(path, "sample corpus "):
        try:
            record = json_object(line)
            if record.keys() != _RECORD_KEYS:
                raise ValueError("expected keys id, label, text")
            doc_id, label_text, text = record["id"], record["label"], record["text"]
            if not isinstance(doc_id, str) or not doc_id:
                raise ValueError("id must be a non-empty string")
            if doc_id in label_by_id:
                raise ValueError(f"duplicate document id {doc_id!r}")
            try:
                label = _LABELS[label_text]
            except (KeyError, TypeError):  # TypeError: an unhashable label
                raise ValueError(f"unknown class label {label_text!r}")
            if label is ClassLabel.UNCLASSIFIABLE:
                raise ValueError("sample documents cannot be Unclassifiable")
            if not isinstance(text, str) or not text.strip():
                raise ValueError("text must be non-empty")
        except ValueError as exc:
            raise CorpusError(f"{path}:{line_no}: {exc}") from exc
        doc_counts = term_counts(prepare(text, stopwords))
        try:
            add_counts(doc_counts.values())
        except OverflowError:  # a term met 2**32 times in one text
            raise _count_outside_array(doc_id, doc_counts) from None
        add_terms(map(share, doc_counts, doc_counts))
        add_end(len(terms))
        label_by_id[doc_id] = label
    return SampleCorpus(list(label_by_id), list(label_by_id.values()), terms, counts, ends)


_RECORD_KEYS = frozenset(("id", "label", "text"))
_LABELS = {label._value_: label for label in ClassLabel}
