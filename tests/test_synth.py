from socialminer.ingest import load_profiles, validate_and_filter
from socialminer.knn import PERSONALITY_LABELS, load_sample_corpus
from socialminer.synth import (
    CLASS_WORDS,
    SHARED_WORDS,
    make_corpus_records,
    make_profile_records,
    write_jsonl,
)
from socialminer.textprep import DEFAULT_STOPWORDS


class TestVocabularies:
    def test_class_words_exclusive(self):
        all_words = [w for words in CLASS_WORDS.values() for w in words]
        assert len(all_words) == len(set(all_words))

    def test_class_and_shared_disjoint(self):
        class_words = {w for words in CLASS_WORDS.values() for w in words}
        assert not class_words & set(SHARED_WORDS)

    def test_no_word_is_a_stopword(self):
        everything = set(SHARED_WORDS)
        for words in CLASS_WORDS.values():
            everything.update(words)
        assert not everything & DEFAULT_STOPWORDS

    def test_every_class_covered(self):
        assert set(CLASS_WORDS) == set(PERSONALITY_LABELS)


class TestCorpusRecords:
    def test_shape_and_determinism(self):
        records = make_corpus_records(docs_per_class=60)
        assert len(records) == 600
        assert len({r["id"] for r in records}) == 600
        per_label = {}
        for r in records:
            per_label[r["label"]] = per_label.get(r["label"], 0) + 1
        assert set(per_label.values()) == {60}
        assert records == make_corpus_records(docs_per_class=60)

    def test_loadable_as_sample_corpus(self, tmp_path):
        records = make_corpus_records(docs_per_class=2)
        write_jsonl(tmp_path / "corpus.jsonl", records)
        docs = load_sample_corpus(tmp_path / "corpus.jsonl")
        assert len(docs) == 20
        assert all(d.counts for d in docs)


class TestProfileRecords:
    def test_all_records_pass_validation(self, tmp_path):
        records = make_profile_records(150)
        write_jsonl(tmp_path / "profiles.jsonl", records)
        raws, issues = load_profiles(tmp_path / "profiles.jsonl")
        assert not issues
        accepted, report = validate_and_filter(raws)
        assert report.rejected == []
        assert len(accepted) == 150

    def test_deterministic(self):
        assert make_profile_records(25) == make_profile_records(25)

    def test_attribute_spread(self):
        records = make_profile_records(400)
        genders = {r.get("gender", "").lower() for r in records}
        assert "male" in genders and "female" in genders
        assert any("birthday" not in r for r in records)
        assert any(r["wall_count"] > 200 for r in records)
        assert any(r["music_count"] > 15 for r in records)
