import string
import sys

import pytest
from hypothesis import given, strategies as st

import reference_paths
from socialminer.errors import StorageError
from socialminer.textprep import (
    _TOKEN,
    DEFAULT_STOPWORDS,
    load_stopwords,
    normalize_text,
    prepare,
    remove_stopwords,
    tokenize,
)

# Characters around which lowercasing or the token class is easy to get wrong:
# underscore, digits of other scripts, superscripts, combining marks, letters
# whose lowercase form is longer, separators that str.split() knows.
TRICKY = "_-'’ \t\n\x1c\x85\xa0\u2028\u3000²½Ⅻ٣߀İẞßΣσςǅ\u0301\u0345\u200b\ufeffa1Z"
tricky_text = st.text(alphabet=st.sampled_from(TRICKY), max_size=60)
any_text = st.one_of(st.text(max_size=200), tricky_text)


class TestNormalizeText:
    def test_empty(self):
        assert normalize_text("") == ""

    def test_lowercase_and_punctuation(self):
        # hand application of the normalization rules
        assert normalize_text("I am HONEST!!") == "i am honest"

    def test_hyphens_become_spaces(self):
        assert normalize_text("rock-n-roll  fan") == "rock n roll fan"

    def test_digits_survive(self):
        assert normalize_text("born in 1990.") == "born in 1990"

    def test_whitespace_only(self):
        assert normalize_text(" \t\n ") == ""

    @given(st.text(max_size=200))
    def test_idempotent(self, raw):
        once = normalize_text(raw)
        assert normalize_text(once) == once

    @given(st.text(max_size=200))
    def test_output_alphabet(self, raw):
        out = normalize_text(raw)
        assert out == out.strip()
        assert "  " not in out
        assert all(ch.isalnum() or ch == " " for ch in out)


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == []

    def test_split(self):
        assert tokenize("i am honest") == ["i", "am", "honest"]

    def test_duplicates_preserved(self):
        # occurrence counts are needed downstream
        assert tokenize("a a b") == ["a", "a", "b"]


class TestRemoveStopwords:
    def test_against_default_list(self):
        assert remove_stopwords(["i", "am", "honest"]) == ["honest"]

    def test_empty_input(self):
        assert remove_stopwords([], DEFAULT_STOPWORDS) == []

    def test_no_stopwords_is_identity(self):
        assert remove_stopwords(["honest", "honest"], frozenset()) == [
            "honest",
            "honest",
        ]

    @given(st.lists(st.sampled_from(["i", "am", "a", "honest", "kind", "lazy"])))
    def test_subsequence_and_clean(self, tokens):
        out = remove_stopwords(tokens, DEFAULT_STOPWORDS)
        assert not set(out) & DEFAULT_STOPWORDS
        # survivors keep their relative order
        it = iter(tokens)
        assert all(any(t == kept for t in it) for kept in out)


class TestDefaultStopwords:
    def test_shape(self):
        assert len(DEFAULT_STOPWORDS) > 100
        assert all(w == w.lower() for w in DEFAULT_STOPWORDS)
        assert "i" in DEFAULT_STOPWORDS and "the" in DEFAULT_STOPWORDS

    def test_words_match_token_grammar(self):
        for w in DEFAULT_STOPWORDS:
            assert w and all(ch not in string.punctuation for ch in w)


class TestTokenGrammar:
    def test_token_class_is_isalnum_on_every_code_point(self):
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert "".join(_TOKEN.findall(every)) == "".join(ch for ch in every if ch.isalnum())

    def test_no_alphanumeric_character_is_whitespace(self):
        # The per-character definition split on whitespace after mapping
        # non-alphanumerics to spaces; that equals splitting on them only if
        # no alphanumeric character is whitespace.
        assert not any(chr(c).isalnum() and chr(c).isspace() for c in range(sys.maxunicode + 1))

    @given(any_text)
    def test_normalize_matches_per_character_definition(self, raw):
        assert normalize_text(raw) == reference_paths.normalize_text(raw)

    @given(any_text, st.frozensets(st.sampled_from(["a1", "ss", "σ", "the", "i"])))
    def test_prepare_matches_per_character_definition(self, raw, stops):
        assert prepare(raw) == reference_paths.prepare(raw)
        assert prepare(raw, stops) == reference_paths.prepare(raw, stops)

    @given(any_text)
    def test_prepare_composes_the_public_stages(self, raw):
        assert prepare(raw) == remove_stopwords(tokenize(normalize_text(raw)))


class TestLoadStopwords:
    def test_file_with_comments(self, tmp_path):
        p = tmp_path / "stops.txt"
        p.write_text("# comment line\nthe\nAND\n\n  of  \n", encoding="utf-8")
        assert load_stopwords(p) == frozenset({"the", "and", "of"})

    def test_missing_file_is_storage_error(self, tmp_path):
        with pytest.raises(StorageError, match="nope.txt"):
            load_stopwords(tmp_path / "nope.txt")

    def test_directory_is_storage_error(self, tmp_path):
        with pytest.raises(StorageError):
            load_stopwords(tmp_path)

    def test_invalid_utf8_is_storage_error(self, tmp_path):
        p = tmp_path / "stops.txt"
        p.write_bytes(b"the\n\xff\xfe\n")
        with pytest.raises(StorageError, match="stops.txt"):
            load_stopwords(p)
        with pytest.raises(StorageError) as caught:
            load_stopwords(p)
        assert str(caught.value) == f"cannot read stopwords {p}: line 2 is not valid UTF-8"

    def test_lines_end_only_at_line_feed_and_carriage_return(self, tmp_path):
        # A raw U+2028 (or U+0085, form feed) stays inside its entry, as in
        # every other file the pipeline reads.
        p = tmp_path / "stops.txt"
        p.write_text("alpha\u2028Beta\r\ngamma\x85delta\rx\x0cy\n", encoding="utf-8")
        assert load_stopwords(p) == frozenset({"alpha\u2028beta", "gamma\x85delta", "x\x0cy"})


def test_prepare_composes_all_stages():
    assert prepare("I am VERY honest, honest!") == ["honest", "honest"]
