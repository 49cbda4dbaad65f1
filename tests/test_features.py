import math
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import reference_paths
from socialminer.errors import EmptyDocumentError
from socialminer.features import (
    count_vector,
    select_features,
    term_counts,
    term_frequency,
)

tokens_strategy = st.lists(
    st.text(alphabet="abcdefg", min_size=1, max_size=3), min_size=1, max_size=40
)


class TestTermCounts:
    def test_hand_count(self):
        assert term_counts(["honest", "kind", "honest"]) == {"honest": 2, "kind": 1}

    def test_empty(self):
        assert term_counts([]) == {}

    def test_single(self):
        assert term_counts(["a"]) == {"a": 1}

    @given(tokens_strategy)
    def test_total_equals_length(self, tokens):
        assert sum(term_counts(tokens).values()) == len(tokens)

    @given(st.lists(st.text(alphabet="abcdefg", max_size=3), max_size=40))
    def test_equals_counter_in_first_occurrence_order(self, tokens):
        # any iterable of tokens, a list or an iterator
        for source in (tokens, map(str, tokens)):
            counts = term_counts(source)
            assert type(counts) is dict
            assert counts == dict(Counter(tokens))
            assert list(counts) == list(dict.fromkeys(tokens))


class TestTermFrequency:
    def test_hand_fractions(self):
        tf = term_frequency({"honest": 2, "kind": 1})
        assert tf == {"honest": 2 / 3, "kind": 1 / 3}

    def test_single_term_normalizes_to_one(self):
        tf = term_frequency({"a": 5})
        assert tf == {"a": 1.0}

    def test_zero_total_raises(self):
        with pytest.raises(EmptyDocumentError):
            term_frequency({})

    @given(tokens_strategy)
    def test_normalization(self, tokens):
        tf = term_frequency(term_counts(tokens))
        assert math.isclose(sum(tf.values()), 1.0, abs_tol=1e-9)
        assert all(0.0 < v <= 1.0 for v in tf.values())


class TestSelectFeatures:
    def test_hand_sort(self):
        assert select_features({"a": 0.5, "b": 0.3, "c": 0.2}, 2) == ["a", "b"]

    def test_tie_broken_lexicographically(self):
        assert select_features({"b": 0.5, "a": 0.5}, 1) == ["a"]

    def test_n_clamps_to_vocabulary(self):
        assert select_features({"a": 1.0}, 10) == ["a"]

    def test_empty_raises(self):
        with pytest.raises(EmptyDocumentError):
            select_features({}, 5)

    @given(tokens_strategy, st.integers(min_value=1, max_value=50))
    def test_deterministic_and_permutation_invariant(self, tokens, n):
        tf = term_frequency(term_counts(tokens))
        selected = select_features(tf, n)
        assert len(selected) == min(n, len(tf))
        assert len(set(selected)) == len(selected)
        # same mapping presented in reversed insertion order
        reversed_tf = dict(reversed(list(tf.items())))
        assert select_features(reversed_tf, n) == selected
        # descending tf, ties ascending lexicographically
        keys = [(-tf[t], t) for t in selected]
        assert keys == sorted(keys)


class TestRankingEquivalence:
    @given(
        st.dictionaries(
            st.text(alphabet="abcd", min_size=1, max_size=3),
            st.sampled_from([0.0, 0.1, 0.25, 1 / 3, 0.5, 1.0, 2.0]),
            min_size=1,
            max_size=30,
        ),
        st.integers(min_value=1, max_value=40),
    )
    def test_matches_negated_frequency_then_term_key(self, tf, n):
        assert select_features(tf, n) == reference_paths.select_features(tf, n)

    @given(tokens_strategy, st.integers(min_value=1, max_value=50))
    def test_ranking_counts_equals_ranking_frequencies(self, tokens, n):
        counts = term_counts(tokens)
        by_tf = select_features(term_frequency(counts), n)
        assert select_features(counts, n) == by_tf
        assert by_tf == reference_paths.select_features(term_frequency(counts), n)


class TestCountVector:
    def test_absent_term_is_zero(self):
        assert count_vector(["a", "b"], {"a": 2}) == [2, 0]

    def test_empty_features(self):
        assert count_vector([], {"a": 2}) == []

    def test_hand_projection(self):
        counts = {"honest": 2, "kind": 1, "other": 9}
        assert count_vector(["honest", "kind"], counts) == [2, 1]

    @given(tokens_strategy, tokens_strategy)
    def test_components_bounded_by_document_size(self, doc, other):
        tf = term_frequency(term_counts(doc))
        features = select_features(tf, 10)
        vec = count_vector(features, term_counts(other))
        assert all(v >= 0 for v in vec)
        assert sum(vec) <= len(other)
