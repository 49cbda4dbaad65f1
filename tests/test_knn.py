import heapq
import json
import math
import random
import re
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from socialminer.errors import CorpusError, DimensionError, ParameterError
from socialminer.features import count_vector, select_features, term_counts, term_frequency
from socialminer import knn
from socialminer.knn import (
    EXACT_LIMIT,
    ClassLabel,
    CorpusIndex,
    DistanceRow,
    SampleDocument,
    classify_text,
    distance_matrix,
    knn_classify,
    load_sample_corpus,
)
from socialminer.synth import make_corpus_records, write_jsonl
from socialminer.textprep import prepare

import reference_paths
from knn_oracle import brute_classify, brute_distance


def paired_vectors(count):
    return st.integers(min_value=1, max_value=8).flatmap(
        lambda dim: st.lists(
            st.lists(st.integers(min_value=0, max_value=100), min_size=dim, max_size=dim),
            min_size=count,
            max_size=count,
        )
    )


def doc(doc_id, text, label=ClassLabel.HONEST):
    return SampleDocument(doc_id, label, term_counts(prepare(text)))


def vector_doc(doc_id, features, vec):
    """A document whose counts over ``features`` are ``vec``."""
    return SampleDocument(doc_id, ClassLabel.HONEST, dict(zip(features, vec)))


class TestDistanceMatrix:
    def test_identical_sample_is_at_zero(self):
        samples = [doc("s1", "honest kind honest")]
        features = ["honest", "kind"]
        dm = distance_matrix([2, 1], samples, features)
        assert dm == [DistanceRow("s1", ClassLabel.HONEST, 0.0)]

    def test_row_per_sample_in_corpus_order(self):
        samples = [doc(f"s{i}", "kind words only") for i in range(7)]
        dm = distance_matrix([1, 1], samples, ["honest", "bold"])
        assert [r.doc_id for r in dm] == [f"s{i}" for i in range(7)]
        assert all(r.distance >= 0.0 for r in dm)

    def test_hand_distances(self):
        samples = [
            doc("s1", "honest kind honest"),
            doc("s2", "unrelated words", ClassLabel.LAZY),
        ]
        dm = distance_matrix([2, 1], samples, ["honest", "kind"])
        assert dm[0].distance == 0.0
        assert dm[1].distance == pytest.approx(math.sqrt(5), abs=1e-12)

    @pytest.mark.parametrize(
        "target_vec,sample_vec,distance",
        [([0, 0], [3, 4], 5.0), ([3, 0], [0, 4], 5.0), ([7, 1, 9], [7, 1, 9], 0.0),
         ([1, 1, 1], [2, 2, 2], math.sqrt(3))],
    )
    def test_hand_vectors(self, target_vec, sample_vec, distance):
        features = [f"f{i}" for i in range(len(target_vec))]
        dm = distance_matrix(target_vec, [vector_doc("s1", features, sample_vec)], features)
        assert dm[0].distance == distance

    def test_empty_corpus(self):
        with pytest.raises(CorpusError):
            distance_matrix([1], [], ["honest"])

    def test_empty_features(self):
        with pytest.raises(DimensionError):
            distance_matrix([], [doc("s1", "x")], [])

    @pytest.mark.parametrize("target_vec", [[1], [1, 2, 3], []])
    def test_length_mismatch(self, target_vec):
        with pytest.raises(DimensionError, match="vector lengths differ"):
            distance_matrix(target_vec, [doc("s1", "honest")], ["honest", "kind"])

    @given(paired_vectors(3), st.integers(min_value=0, max_value=50))
    def test_metric_axioms_and_brute_distance(self, triple, c):
        x, y, z = triple
        features = [f"f{i}" for i in range(len(x))]

        def d(a, b):
            return distance_matrix(a, [vector_doc("b", features, b)], features)[0].distance

        d_xy = d(x, y)
        assert d_xy >= 0.0
        assert d_xy == pytest.approx(brute_distance(x, y), abs=1e-12)
        assert d(y, x) == d_xy
        assert d(x, x) == 0.0
        assert d(x, z) <= d_xy + d(y, z) + 1e-9
        assert d([c * v for v in x], [c * v for v in y]) == pytest.approx(c * d_xy, abs=1e-9)


class TestKnnClassify:
    def test_k1_is_nearest_neighbor(self):
        dm = [
            DistanceRow("a", ClassLabel.LAZY, 3.0),
            DistanceRow("b", ClassLabel.HONEST, 1.0),
        ]
        label, evidence = knn_classify(dm, 1)
        assert label is ClassLabel.HONEST
        assert evidence == [DistanceRow("b", ClassLabel.HONEST, 1.0)]

    def test_strict_majority(self):
        dm = [
            DistanceRow("a", ClassLabel.HONEST, 1.0),
            DistanceRow("b", ClassLabel.HONEST, 2.0),
            DistanceRow("c", ClassLabel.LAZY, 3.0),
        ]
        label, evidence = knn_classify(dm, 3)
        assert label is ClassLabel.HONEST
        assert len(evidence) == 3

    def test_vote_tie_prefers_smaller_summed_distance(self):
        dm = [
            DistanceRow("a", ClassLabel.HONEST, 1.0),
            DistanceRow("b", ClassLabel.LAZY, 2.0),
        ]
        label, _ = knn_classify(dm, 2)
        assert label is ClassLabel.HONEST

    def test_full_tie_falls_back_to_label_order(self):
        dm = [
            DistanceRow("a", ClassLabel.LAZY, 1.0),
            DistanceRow("b", ClassLabel.EMOTIONAL, 1.0),
        ]
        label, _ = knn_classify(dm, 2)
        assert label is ClassLabel.EMOTIONAL

    def test_distance_tie_sorted_by_doc_id(self):
        dm = [
            DistanceRow("z", ClassLabel.LAZY, 1.0),
            DistanceRow("a", ClassLabel.HONEST, 1.0),
        ]
        label, evidence = knn_classify(dm, 1)
        assert label is ClassLabel.HONEST
        assert evidence[0].doc_id == "a"

    def test_k_larger_than_corpus(self):
        with pytest.raises(ParameterError):
            knn_classify([DistanceRow("a", ClassLabel.LAZY, 0.0)], 2)

    def test_k_zero(self):
        with pytest.raises(ParameterError):
            knn_classify([DistanceRow("a", ClassLabel.LAZY, 0.0)], 0)

    def test_empty_matrix(self):
        with pytest.raises(CorpusError):
            knn_classify([], 1)

    @given(st.data())
    @settings(max_examples=200)
    def test_matches_brute_force_and_ignores_corpus_order(self, data):
        labels = list(ClassLabel)[:4]
        t = data.draw(st.integers(min_value=1, max_value=12))
        rows = [
            DistanceRow(
                f"d{i:02d}",
                data.draw(st.sampled_from(labels)),
                float(data.draw(st.integers(min_value=0, max_value=6))),
            )
            for i in range(t)
        ]
        k = data.draw(st.integers(min_value=1, max_value=t))
        label, evidence = knn_classify(rows, k)
        assert len(evidence) == k
        expected = brute_classify(
            [(r.doc_id, r.label.value, r.distance) for r in rows], k
        )
        assert label.value == expected
        shuffled = list(rows)
        data.draw(st.randoms(use_true_random=False)).shuffle(shuffled)
        assert knn_classify(shuffled, k)[0] is label


def biased_records(rng, labels, docs_per_class=6):
    """(doc_id, text, label) of a corpus with disjoint per-class vocabularies."""
    records = []
    for label in labels:
        words = [f"{label.value.lower()}{i}" for i in range(6)]
        for d in range(docs_per_class):
            records.append((f"{label.value}-{d}", " ".join(rng.choices(words, k=12)), label))
    return records


def biased_corpus(rng, labels, docs_per_class=6):
    return [doc(doc_id, text, label) for doc_id, text, label in biased_records(rng, labels, docs_per_class)]


distance_rows = st.lists(
    st.builds(
        DistanceRow,
        st.sampled_from(["a", "b", "c", "d", "e", "f"]),
        st.sampled_from(list(ClassLabel)[:4]),
        st.sampled_from([0.0, 1.0, 1.5, 2.0, math.sqrt(2), 3.0]),
    ),
    min_size=1,
    max_size=12,
)


class TestVoteEquivalence:
    @given(distance_rows, st.integers(min_value=1, max_value=12))
    def test_matches_lambda_keyed_vote(self, dm, k):
        k = min(k, len(dm))
        assert knn_classify(dm, k) == reference_paths.knn_classify(dm, k)


class TestClassifyText:
    def test_exact_corpus_document_wins_at_k1(self):
        rng = random.Random(7)
        records = biased_records(rng, [ClassLabel.HONEST, ClassLabel.LAZY])
        index = CorpusIndex.build([doc(*record) for record in records])
        target = records[0][1]
        assert classify_text(target, index, n_features=50, k=1) is ClassLabel.HONEST

    def test_stopword_only_text_is_unclassifiable(self):
        index = CorpusIndex.build([doc("s1", "honest words")])
        label = classify_text("i am the and of to", index, 50, 1)
        assert label is ClassLabel.UNCLASSIFIABLE

    def test_empty_corpus(self, tmp_path):
        # a corpus file of blank lines loads as no documents; indexing it,
        # which classification needs, is the error
        p = tmp_path / "corpus.jsonl"
        p.write_text("\n  \n", encoding="utf-8")
        corpus = load_sample_corpus(p)
        assert corpus == []
        with pytest.raises(CorpusError):
            CorpusIndex.build(corpus)

    def test_disjoint_vocabulary_corpus_recovers_class(self):
        # oracle: with disjoint vocabularies the nearest neighbors are, by
        # construction, the documents sharing the target's words
        rng = random.Random(99)
        labels = [ClassLabel.AGGRESSIVE, ClassLabel.ROMANTIC, ClassLabel.SINCERE]
        index = CorpusIndex.build(biased_corpus(rng, labels))
        for label in labels:
            words = [f"{label.value.lower()}{i}" for i in range(6)]
            target = " ".join(rng.choices(words, k=10))
            assert classify_text(target, index, n_features=50, k=3) is label


TINY_VOCAB = ["ant", "bee", "cat"]


def target_projection(text, n_features):
    counts = term_counts(prepare(text))
    features = select_features(term_frequency(counts), n_features)
    return count_vector(features, counts), features


def assert_nearest_matches_dense(index, corpus, target_vec, features, k):
    dense = distance_matrix(target_vec, corpus, features)
    expected = sorted(dense, key=lambda r: (r.distance, r.doc_id))[:k]
    rows = index.nearest(target_vec, features, k)
    assert [r.doc_id for r in rows] == [r.doc_id for r in expected]
    assert [r.distance.hex() for r in rows] == [r.distance.hex() for r in expected]
    oracle_rows = [
        (d.doc_id, d.label.value, brute_distance(target_vec, count_vector(features, d.counts)))
        for d in corpus
    ]
    label = knn_classify(rows, k)[0]
    assert label.value == brute_classify(oracle_rows, k)
    assert index.vote(target_vec, features, k) is label


class TestCorpusIndex:
    @given(st.data())
    @settings(max_examples=300)
    def test_matches_dense_path_and_oracle(self, data):
        labels = list(ClassLabel)[:3]
        n_docs = data.draw(st.integers(min_value=1, max_value=8))
        # ids in an order unrelated to corpus order, so the doc-id tie-break shows
        ids = data.draw(st.permutations([f"d{i}" for i in range(n_docs)]))
        corpus = [
            doc(
                doc_id,
                " ".join(data.draw(st.lists(st.sampled_from(TINY_VOCAB), min_size=1, max_size=5))),
                data.draw(st.sampled_from(labels)),
            )
            for doc_id in ids
        ]
        # "eel" and "fox" never occur in the corpus: zero-overlap targets
        target = " ".join(
            data.draw(st.lists(st.sampled_from(TINY_VOCAB + ["eel", "fox"]), min_size=1, max_size=6))
        )
        n_features = data.draw(st.integers(min_value=1, max_value=5))
        k = data.draw(st.integers(min_value=1, max_value=n_docs))
        target_vec, features = target_projection(target, n_features)

        dense = distance_matrix(target_vec, corpus, features)
        expected = sorted(dense, key=lambda r: (r.distance, r.doc_id))[:k]
        index = CorpusIndex.build(corpus)
        rows = index.nearest(target_vec, features, k)
        assert [r.doc_id for r in rows] == [r.doc_id for r in expected]
        assert [r.distance.hex() for r in rows] == [r.distance.hex() for r in expected]

        label, _ = knn_classify(rows, k)
        assert label is knn_classify(dense, k)[0]
        oracle_rows = [
            (d.doc_id, d.label.value, brute_distance(target_vec, count_vector(features, d.counts)))
            for d in corpus
        ]
        assert label.value == brute_classify(oracle_rows, k)
        assert index.vote(target_vec, features, k) is label
        assert classify_text(target, index, n_features, k) is label

    def test_k_checked_against_corpus(self):
        index = CorpusIndex.build([doc("s1", "honest"), doc("s2", "kind")])
        assert len(index.docs) == 2
        for k in (0, 3):
            with pytest.raises(ParameterError):
                index.nearest([1], ["honest"], k)
            with pytest.raises(ParameterError):
                index.vote([1], ["honest"], k)
            with pytest.raises(ParameterError):
                classify_text("honest", index, 50, k)

    def test_empty_corpus(self):
        with pytest.raises(CorpusError):
            CorpusIndex.build([])

    def test_empty_features(self):
        index = CorpusIndex.build([doc("s1", "honest")])
        with pytest.raises(DimensionError):
            index.nearest([], [], 1)
        with pytest.raises(DimensionError):
            index.vote([], [], 1)

    def test_postings_hold_positions_and_counts(self):
        index = CorpusIndex.build([doc("s2", "kind kind honest"), doc("s1", "kind")])
        assert [d.doc_id for d in index.docs] == ["s1", "s2"]
        groups = [(s, list(positions)) for s, positions in index.postings["kind"]]
        assert groups == [(1, [0]), (2, [1])]
        assert index.max_norm == 5

    def test_groups_with_count_twice_the_target_add_nothing(self):
        corpus = [
            doc("s1", "kind kind kind kind honest honest"),
            doc("s2", "kind kind kind kind"),
            doc("s3", "honest honest", ClassLabel.LAZY),
            doc("s4", "kind kind honest", ClassLabel.LAZY),
            doc("s5", "calm", ClassLabel.LAZY),
        ]
        target_vec, features = target_projection("kind kind honest", 50)
        assert (features, target_vec) == (["kind", "honest"], [2, 1])
        # s = 2t for kind's group 4 and honest's group 2: delta 0, skipped
        index = CorpusIndex.build(corpus)
        assert [s for s, _ in index.postings["kind"]] == [2, 4]
        assert [s for s, _ in index.postings["honest"]] == [1, 2]
        for k in range(1, len(corpus) + 1):
            assert_nearest_matches_dense(index, corpus, target_vec, features, k)

    def test_position_tie_break_past_256_docs(self):
        rng = random.Random(5)
        labels = list(ClassLabel)[:4]
        # unpadded ids: doc-id order differs from both corpus and numeric order
        ids = [f"d{i}" for i in range(300)]
        rng.shuffle(ids)
        # every doc holds "ant" once, so that group spans all 300 positions
        corpus = [
            doc(
                doc_id,
                " ".join(["ant"] + rng.choices(["bee", "cat"], k=rng.randint(0, 3))),
                rng.choice(labels),
            )
            for doc_id in ids
        ]
        index = CorpusIndex.build(corpus)
        assert [len(positions) for _, positions in index.postings["ant"]] == [300]
        for target in ("ant ant bee", "cat", "ant bee cat cat"):
            target_vec, features = target_projection(target, 50)
            dense = distance_matrix(target_vec, corpus, features)
            assert len({row.distance for row in dense}) < 20  # many equal distances
            for k in (1, 5, 255, 256, 257, 300):
                # checks index.vote against the dense vote and the oracle too
                assert_nearest_matches_dense(index, corpus, target_vec, features, k)


class TestTopKOnTiedDistances:
    """``_rank`` takes the k smallest d² values with no key and then finds
    their positions, or above ``knn.SORT_ABOVE_K`` sorts the positions by
    d². Over two or three terms with counts up to 3, most d² values repeat,
    so each taken value has many positions to choose from. Corpora of 20 to
    200 documents put k on both sides of the default crossover; moved to 0
    or to the corpus size, it sends every k down one path."""

    @given(st.data())
    @settings(max_examples=12, deadline=None)
    def test_matches_dense_order_and_oracle_for_every_k(self, data):
        self.check_every_k(data, lambda corpus: knn.SORT_ABOVE_K)

    @pytest.mark.parametrize("crossover", [lambda corpus: 0, len], ids=["sort", "search"])
    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_each_path_alone_matches_for_every_k(self, crossover, data):
        self.check_every_k(data, crossover)

    def check_every_k(self, data, crossover):
        terms = TINY_VOCAB[: data.draw(st.integers(min_value=2, max_value=3))]
        counts = st.lists(st.integers(min_value=0, max_value=3), min_size=3, max_size=3)
        record = st.tuples(st.sampled_from(list(ClassLabel)[:3]), counts)
        n_docs = data.draw(st.integers(min_value=20, max_value=200))
        drawn = data.draw(st.lists(record, min_size=n_docs, max_size=n_docs))
        # ids in an order unrelated to corpus order, so the doc-id tie-break shows
        ids = data.draw(st.permutations([f"d{i}" for i in range(len(drawn))]))
        corpus = [
            SampleDocument(doc_id, label, {t: c for t, c in zip(terms, doc_counts) if c})
            for doc_id, (label, doc_counts) in zip(ids, drawn)
        ]
        # "eel" never occurs in the corpus
        features = data.draw(st.permutations(terms + ["eel"]))[: data.draw(st.integers(1, 4))]
        target_vec = [data.draw(st.integers(min_value=1, max_value=3)) for _ in features]

        index = CorpusIndex.build(corpus)
        dense = distance_matrix(target_vec, corpus, features)
        ordered = sorted(dense, key=lambda r: (r.distance, r.doc_id))
        oracle_rows = [
            (d.doc_id, d.label.value, brute_distance(target_vec, count_vector(features, d.counts)))
            for d in corpus
        ]
        with mock.patch.object(knn, "SORT_ABOVE_K", crossover(corpus)):
            for k in range(1, len(corpus) + 1):
                rows = index.nearest(target_vec, features, k)
                assert [r.doc_id for r in rows] == [r.doc_id for r in ordered[:k]]
                assert [r.distance.hex() for r in rows] == [r.distance.hex() for r in ordered[:k]]
                assert index.vote(target_vec, features, k).value == brute_classify(oracle_rows, k)

    def test_search_serves_k_up_to_the_crossover_and_sort_above_it(self, monkeypatch):
        searched = []

        def nsmallest(k, d2):
            searched.append(k)
            return heapq.nsmallest(k, d2)

        monkeypatch.setattr(knn, "heapq", SimpleNamespace(nsmallest=nsmallest))
        rng = random.Random(7)
        n = knn.SORT_ABOVE_K + 10
        corpus = [SampleDocument(f"d{i}", rng.choice(list(ClassLabel)[:3]),
                                 {"ant": rng.randint(0, 9)}) for i in range(n)]
        index = CorpusIndex.build(corpus)
        oracle_rows = [(d.doc_id, d.label.value, brute_distance([2], [d.counts.get("ant", 0)]))
                       for d in corpus]
        for k in (1, 5, knn.SORT_ABOVE_K, knn.SORT_ABOVE_K + 1, n):
            searched.clear()
            assert index.vote([2], ["ant"], k).value == brute_classify(oracle_rows, k)
            assert searched == ([k] if k <= knn.SORT_ABOVE_K else [])


def ranked_projection(text, n_features):
    """The target's features and vector as the ranked branch builds them,
    from the reference selection (sort by count descending, then term)."""
    counts = term_counts(prepare(text))
    features = reference_paths.select_features(counts, n_features)
    return features, count_vector(features, counts)


class TestFeatureSelectionBranches:
    """``classify_text`` ranks a target's terms only when it has more than
    ``n_features`` distinct ones; otherwise every term is a feature, in
    first-occurrence order. Either way the label is the oracle's on the
    projection that ranking all terms and keeping the top ``n_features``
    gives."""

    VOCAB = [f"w{i}" for i in range(80)]

    def corpus(self, rng):
        labels = list(ClassLabel)[:4]
        return [
            SampleDocument(
                f"d{i}",
                rng.choice(labels),
                term_counts(rng.choices(self.VOCAB, k=rng.randint(5, 60))),
            )
            for i in range(60)
        ]

    def target(self, rng, distinct):
        """A text of ``distinct`` distinct terms, some repeated, so counts
        tie and the ranking's term-order tie-break shows."""
        terms = rng.sample(self.VOCAB + ["absent0", "absent1"], distinct)
        tokens = terms + rng.choices(terms, k=distinct // 2)
        rng.shuffle(tokens)
        return " ".join(tokens)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "n_features, distinct", [(50, 60), (50, 51), (50, 50), (50, 49), (50, 10), (5, 30), (1, 2)]
    )
    def test_label_matches_oracle_on_ranked_projection(
        self, monkeypatch, seed, n_features, distinct
    ):
        rng = random.Random(seed)
        corpus = self.corpus(rng)
        index = CorpusIndex.build(corpus)
        text = self.target(rng, distinct)
        features, target_vec = ranked_projection(text, n_features)
        assert len(features) == min(distinct, n_features)
        oracle_rows = [
            (d.doc_id, d.label.value, brute_distance(target_vec, count_vector(features, d.counts)))
            for d in corpus
        ]
        ranked = []

        def counted_select_features(*args):
            ranked.append(args)
            return select_features(*args)

        monkeypatch.setattr(knn, "select_features", counted_select_features)
        for k in (1, 3, 7, len(corpus)):
            assert classify_text(text, index, n_features, k).value == brute_classify(oracle_rows, k)
        assert bool(ranked) == (distinct > n_features)


def honest_doc(doc_id, count, label):
    """A document whose distance from the target [3] over ["honest"] is
    |3 - count|."""
    return SampleDocument(doc_id, label, {"honest": count})


class TestVote:
    """Fixed ``CorpusIndex.vote`` cases, one per tie-break, each built so
    that skipping the tie-break picks another label."""

    def assert_vote(self, corpus, k, expected):
        index = CorpusIndex.build(corpus)
        assert index.vote([3], ["honest"], k) is expected
        assert knn_classify(index.nearest([3], ["honest"], k), k)[0] is expected
        assert knn_classify(distance_matrix([3], corpus, ["honest"]), k)[0] is expected

    def test_count_tie_goes_to_smaller_summed_distance(self):
        # 2 votes each; Lazy holds the nearest row and the smaller label
        # string, Romantic the smaller sum (2 + 3 against 1 + 5)
        corpus = [
            honest_doc("a", 2, ClassLabel.LAZY),
            honest_doc("b", 8, ClassLabel.LAZY),
            honest_doc("c", 1, ClassLabel.ROMANTIC),
            honest_doc("d", 6, ClassLabel.ROMANTIC),
        ]
        self.assert_vote(corpus, 4, ClassLabel.ROMANTIC)

    def test_full_tie_goes_to_smaller_label_string(self):
        # 1 vote each at distance 1; Lazy comes first in doc-id order
        corpus = [honest_doc("a", 2, ClassLabel.LAZY), honest_doc("b", 4, ClassLabel.EMOTIONAL)]
        self.assert_vote(corpus, 2, ClassLabel.EMOTIONAL)

    def test_distance_tie_goes_to_smaller_doc_id(self):
        # both at distance 1; "z" comes first in corpus and label order
        corpus = [honest_doc("z", 2, ClassLabel.HONEST), honest_doc("a", 4, ClassLabel.LAZY)]
        self.assert_vote(corpus, 1, ClassLabel.LAZY)


def huge_doc(count):
    return SampleDocument("big", ClassLabel.HONEST, {"honest": count})


class TestExactnessGuard:
    def test_just_below_limit_matches_dense(self):
        big = huge_doc(2**25 - 1)  # Σ s² = 2**50 - 2**26 + 1
        index = CorpusIndex.build([big])
        assert 1 + index.max_norm < EXACT_LIMIT
        rows = index.nearest([1], ["honest"], 1)
        assert rows == distance_matrix([1], [big], ["honest"])
        assert classify_text("honest", index, 50, 1) is ClassLabel.HONEST

    def test_limit_raises(self):
        index = CorpusIndex.build([huge_doc(2**25)])  # Σ s² = 2**50
        with pytest.raises(DimensionError):
            index.nearest([1], ["honest"], 1)
        with pytest.raises(DimensionError):
            index.vote([1], ["honest"], 1)
        with pytest.raises(DimensionError):
            classify_text("honest", index, 50, 1)

    def test_count_outside_index_range(self):
        with pytest.raises(DimensionError):
            CorpusIndex.build([huge_doc(2**32)])


class TestLoadSampleCorpus:
    def test_round_trip_file(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        p.write_text(
            '{"id": "s1", "label": "Honest", "text": "honest and kind"}\n'
            '{"id": "s2", "label": "Lazy", "text": "naps all day"}\n',
            encoding="utf-8",
        )
        corpus = load_sample_corpus(p)
        assert [d.doc_id for d in corpus] == ["s1", "s2"]
        assert corpus[0].label is ClassLabel.HONEST
        assert corpus[0] == SampleDocument("s1", ClassLabel.HONEST, {"honest": 1, "kind": 1})

    def test_unknown_label_rejected(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        p.write_text('{"id": "s1", "label": "Bogus", "text": "x"}\n', encoding="utf-8")
        with pytest.raises(CorpusError):
            load_sample_corpus(p)

    @pytest.mark.parametrize("label", [["Honest"], {"Honest": 1}, 1, None, "honest"])
    def test_label_outside_the_enumeration_rejected(self, tmp_path, label):
        p = tmp_path / "corpus.jsonl"
        p.write_text(
            json.dumps({"id": "s1", "label": label, "text": "x"}) + "\n", encoding="utf-8"
        )
        with pytest.raises(CorpusError, match=f":1: unknown class label {re.escape(repr(label))}$"):
            load_sample_corpus(p)

    @pytest.mark.parametrize(
        "record",
        [{"id": "s1", "label": "Honest"}, {"id": "s1", "label": "Honest", "text": "x", "n": 1}],
    )
    def test_keys_other_than_id_label_text_rejected(self, tmp_path, record):
        p = tmp_path / "corpus.jsonl"
        p.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=":1: expected keys id, label, text$"):
            load_sample_corpus(p)

    def test_unclassifiable_label_rejected(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        p.write_text(
            '{"id": "s1", "label": "Unclassifiable", "text": "x"}\n', encoding="utf-8"
        )
        with pytest.raises(CorpusError):
            load_sample_corpus(p)

    def test_duplicate_id_rejected(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        p.write_text(
            '{"id": "s1", "label": "Honest", "text": "x"}\n'
            '{"id": "s1", "label": "Lazy", "text": "y"}\n',
            encoding="utf-8",
        )
        with pytest.raises(CorpusError):
            load_sample_corpus(p)

    def test_empty_text_rejected(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        p.write_text('{"id": "s1", "label": "Honest", "text": "  "}\n', encoding="utf-8")
        with pytest.raises(CorpusError):
            load_sample_corpus(p)

    def test_line_separator_characters_stay_inside_a_text(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        p.write_text(
            '{"id": "s1", "label": "Honest", "text": "honest\u2028kind\u2029calm\x85fair"}\r\n'
            '{"id": "s2", "label": "Lazy", "text": "naps"}\n',
            encoding="utf-8",
        )
        corpus = load_sample_corpus(p)
        assert [d.doc_id for d in corpus] == ["s1", "s2"]
        assert corpus[0].counts == {"honest": 1, "kind": 1, "calm": 1, "fair": 1}

    def test_loaded_corpus_keeps_only_what_classification_reads(self, tmp_path):
        # Each document keeps its id, label and counts, not its text and
        # tokens, and its counts share one string per term with every other
        # document: about 2.4x the file's bytes. A string per term and
        # document took 6.0x, and keeping texts and tokens as well 10.8x.
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, make_corpus_records(docs_per_class=60))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            corpus = load_sample_corpus(path)
            kept = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert len(corpus) == 600
        assert kept < 4 * size, (kept, size)

    def test_one_string_object_per_term_within_a_load(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, make_corpus_records(docs_per_class=60))
        corpus = load_sample_corpus(path)
        terms = [term for doc in corpus for term in doc.counts]
        assert len(terms) > 10 * len(set(terms))
        assert len({id(term) for term in terms}) == len(set(terms))
        # The vocabulary lives for one call: a second load makes new strings
        # (CPython caches only strings of one character).
        first = {term: term for term in terms}
        again = {term for doc in load_sample_corpus(path) for term in doc.counts}
        assert again == set(first)
        assert not any(first[term] is term for term in again if len(term) > 1)

    def test_escaped_lone_surrogate_is_corpus_error(self, tmp_path):
        # Valid JSON, but no UTF-8 file can hold the text it spells.
        p = tmp_path / "corpus.jsonl"
        p.write_text(
            '{"id": "s1", "label": "Honest", "text": "honest"}\n'
            '{"id": "s2", "label": "Lazy", "text": "naps \\ud800 all day"}\n',
            encoding="utf-8",
        )
        with pytest.raises(CorpusError) as info:
            load_sample_corpus(p)
        assert str(info.value) == f"{p}:2: text is not valid UTF-8: lone surrogate"

    def test_invalid_utf8_is_corpus_error(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        p.write_bytes(b'{"id": "s1", "label": "Honest", "text": "caf\xe9"}\n')
        with pytest.raises(CorpusError, match="UTF-8"):
            load_sample_corpus(p)
