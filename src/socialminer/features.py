"""Term counting, normalized term frequency and feature selection.

A document's counts are a plain ``term -> count`` dict; its token total is
the sum of the counts, so it is not stored. The feature vocabulary is always
selected from the *target* document's TF ranking; occurrence counts are then
projected onto that vocabulary for the target and for every sample document.
Distance computations use the raw occurrence counts, not the normalized
frequencies — normalization only ranks the features. All terms of a document
share one denominator, so ranking its raw counts selects the same features as
ranking its frequencies (distinct counts give distinct frequencies while the
total stays below 2**53), and the classifier ranks the counts without building
the frequencies.
"""

from __future__ import annotations

from collections import _count_elements
from typing import Iterable, Mapping, Sequence

from .errors import EmptyDocumentError


def term_counts(tokens: Iterable[str]) -> dict[str, int]:
    """Exact occurrence counts of a stopword-filtered token iterable, keyed in
    order of first occurrence. ``Counter.update``'s C loop counts them
    straight into a plain dict."""
    counts: dict[str, int] = {}
    _count_elements(counts, tokens)
    return counts


def term_frequency(counts: Mapping[str, int]) -> dict[str, float]:
    """Normalized term frequency: count of each term over the summed counts.

    Raises EmptyDocumentError when the document has no tokens (zero
    denominator); callers treat such documents as unclassifiable.
    """
    total = sum(counts.values())
    if total == 0:
        raise EmptyDocumentError("no terms left after preprocessing")
    return {term: n / total for term, n in counts.items()}


def select_features(tf: Mapping[str, float], n: int) -> list[str]:
    """The min(n, vocabulary) terms with highest frequency (or count),
    descending.

    Equal frequencies are broken lexicographically ascending so the selection
    is deterministic across runs and platforms: the terms are sorted first,
    and the stable descending sort by frequency keeps that order among ties.
    """
    if not tf:
        raise EmptyDocumentError("cannot select features from an empty document")
    ranked = sorted(tf)
    ranked.sort(key=tf.__getitem__, reverse=True)
    return ranked[:n]


def count_vector(features: Sequence[str], counts: Mapping[str, int]) -> list[int]:
    """Occurrence count of every feature term, 0 where absent, in feature order."""
    return [counts.get(term, 0) for term in features]
