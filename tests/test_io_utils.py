"""The record codec: ``io_utils.json_object`` and ``ingest._encode_record``
against the ``json.loads`` and ``JSONEncoder.encode`` references in
``reference_paths``, value for value and message for message."""

import json
import os
import re
import sys

import pytest
from hypothesis import given, strategies as st

from reference_paths import encode_record_reference, json_object_reference
from socialminer.errors import StorageError
from socialminer.ingest import _encode_record, check_stage_record, load_corpus
from socialminer import io_utils
from socialminer.io_utils import atomic_write_text, json_object

STAGE_KEYS = (
    "id", "birthday", "about_me", "activities", "gender", "interests", "wall_count",
    "political", "music_count", "activity_interest_count", "about_me_class",
    "age_range", "wall_count_class", "music_share_class", "activity_interest_class",
)

# Quotes, backslashes, control characters, line and paragraph separators,
# non-BMP characters and lone surrogates, beside any other text.
tricky_text = st.text(
    st.sampled_from('"\\\x00\x08\t\n\r\x1f\x7f\x85\u2028\u2029\ufeff\U000103ff\U0001f600\U0010ffff')
    | st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF)
    | st.characters(),
)

records = st.dictionaries(
    st.sampled_from(STAGE_KEYS),
    tricky_text | st.integers(-10**100, 10**100),
    max_size=len(STAGE_KEYS),
)


def outcome(decode, line):
    """What ``decode`` makes of ``line``: its value, or its exception's type
    and message. ``repr`` keeps key order and lets NaN equal NaN."""
    try:
        return "value", repr(decode(line))
    except Exception as exc:
        return type(exc), str(exc)


def assert_decodes_like_reference(line):
    assert outcome(json_object, line) == outcome(json_object_reference, line)


@st.composite
def lines(draw, records=records):
    """A line built from encoded records, as a file could hold it or broken."""
    line = encode_record_reference(draw(records))
    shape = draw(st.sampled_from(
        ["as is", "newline", "bom", "leading space", "trailing blanks", "truncated",
         "bracket", "second object", "any text"]
    ))
    if shape == "newline":
        return line + "\n"
    if shape == "bom":
        return "\ufeff" + line
    if shape == "leading space":
        return " " + line
    if shape == "trailing blanks":
        return line + draw(st.text(" \t", min_size=1)) + draw(st.sampled_from(["", "\n"]))
    if shape == "truncated":
        return line[:draw(st.integers(0, len(line) - 1))]
    if shape == "bracket":
        return line + "]"
    if shape == "second object":
        return line + encode_record_reference(draw(records)) + draw(st.sampled_from(["", "\n"]))
    if shape == "any text":
        return draw(st.text())
    return line


class TestEncodeRecord:
    @given(records)
    def test_matches_json_encoder(self, record):
        assert _encode_record(record) == encode_record_reference(record)


class TestJsonObject:
    @given(lines())
    def test_matches_json_loads(self, line):
        assert_decodes_like_reference(line)

    @pytest.mark.parametrize("end", ["", "\n"])
    @pytest.mark.parametrize(
        "line",
        [
            '\ufeff{"a": 1}',
            '{"a": NaN}',
            '{"a": Infinity, "b": -Infinity}',
            '{"a": ' + "7" * 5000 + "}",
            "[" * 100_000,
            "[1, 2]",
            '{"a": 1, "b": 2, "a": 3}',
            '{"a": "x\x01y"}',
            '{"a": "x \\ud800"}',
            '{"a": 1,}',
            '{"a": 1}{"b": 2}',
        ],
        ids=["bom", "nan", "infinity", "5000 digits", "deep nesting", "array",
             "duplicate key", "raw control character", "lone surrogate escape",
             "trailing comma", "two objects"],
    )
    def test_hostile_line_matches_json_loads(self, line, end):
        assert_decodes_like_reference(line + end)

    def test_whole_object_line_does_not_reach_json_loads(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("json.loads called")

        monkeypatch.setattr(json, "loads", refuse)
        assert json_object('{"id": "u1", "wall_count": 3}\n') == {"id": "u1", "wall_count": 3}
        with pytest.raises(AssertionError, match="json.loads called"):
            json_object(' {"id": "u1"}')

    @pytest.mark.parametrize("end", ["", "\n"])
    @pytest.mark.parametrize(
        "line,refusal",
        [
            ('{"a": 1,}', "not valid JSON"),
            ('\ufeff{"a": 1}', "not valid JSON"),
            ('{"a": 1}{"b": 2}', "not valid JSON"),
            ('{"a": "x\x01y"}', "not valid JSON"),
            ("[" * 100_000, "not valid JSON: nested too deeply"),
            pytest.param(
                '{"a": ' + "7" * 5000 + "}", "not valid JSON: a number has too many digits",
                marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                         reason="no integer digit limit"),
            ),
        ],
        ids=["trailing comma", "bom", "two objects", "raw control character", "deep nesting",
             "5000 digits"],
    )
    def test_refusal_text_depends_only_on_the_line(self, line, refusal, end):
        with pytest.raises(ValueError) as caught:
            json_object(line + end)
        assert str(caught.value) == refusal


def scanner_takes_whole(line: str) -> bool:
    """Whether the C scanner decodes ``line`` as one object up to its end or
    its final "\n", as ``json_object`` asks it to."""
    try:
        record, end = json.JSONDecoder().scan_once(line, 0)
    except (StopIteration, ValueError, RecursionError):
        return False
    return isinstance(record, dict) and line[end:] in ("", "\n")


# A stage-file record every stage reader takes, encoded, and records like it
# whose texts a UTF-8 file can hold (no lone surrogate).
STAGE_LINE = '{"id": "u1", "about_me": "x", "gender": "Male", "wall_count": 1, "music_count": 2, ' \
    '"activity_interest_count": 0}'
stage_records = st.text(
    st.sampled_from('"\\\x00\x08\t\n\r\x1f\x7f\x85\u2028\u2029\ufeff\U0001f600') | st.characters()
).map(lambda text: {**json.loads(STAGE_LINE), "id": "u2", "about_me": "x" + text})


@pytest.fixture(scope="module")
def stage_file(tmp_path_factory):
    return tmp_path_factory.mktemp("object_alone") / "binned.jsonl"


def stage_outcome(path, line):
    """What ``load_corpus`` makes of a stage file whose line 2 is ``line``."""
    path.write_text(STAGE_LINE + "\n" + line, encoding="utf-8", newline="")
    return outcome(lambda given: list(load_corpus(given)), path)


class TestObjectAlone:
    """Every stage reader takes a line only when it holds the object alone,
    from "{" to "}" and at most "\n". For a line that ``json_object`` decodes
    and ``check_stage_record`` passes, that is exactly a line the C scanner
    takes whole; any other such line is refused with "blanks outside the
    object"."""

    @given(lines(stage_records))
    def test_accepted_exactly_when_the_scanner_takes_the_line_whole(self, stage_file, line):
        if "\r" in line or "\n" in line[:-1] or not line.strip():
            return  # more than one line of a file
        try:
            check_stage_record(json_object(line))
        except (KeyError, TypeError, ValueError):
            return
        got = stage_outcome(stage_file, line)
        if scanner_takes_whole(line):
            assert got[0] == "value"
        else:
            assert got == (StorageError, f"corrupt corpus {stage_file}:2: blanks outside the object")

    @pytest.mark.parametrize(
        "line,alone",
        [
            (STAGE_LINE, True),
            (STAGE_LINE + "\n", True),
            (STAGE_LINE.replace('"wall_count": 1', '"wall_count": -0') + "\n", True),
            (" " + STAGE_LINE + "\n", False),
            ("\t" + STAGE_LINE, False),
            (STAGE_LINE + " \n", False),
            (STAGE_LINE + "\t", False),
        ],
    )
    def test_lines_a_stage_file_may_hold(self, stage_file, line, alone):
        assert json_object(line) == json.loads(line)
        assert scanner_takes_whole(line) == alone
        assert (stage_outcome(stage_file, line)[0] == "value") == alone


def draw_names(monkeypatch, *draws: bytes) -> list:
    """Make ``atomic_write_text`` draw ``draws`` in turn as the random part
    of its temp file names, the last one from then on; returns the list of
    draws it took."""
    taken = []

    def urandom(n):
        taken.append(draws[min(len(taken), len(draws) - 1)])
        return taken[-1]

    monkeypatch.setattr(io_utils.os, "urandom", urandom)
    return taken


class TestAtomicWriteTempFile:
    """``atomic_write_text`` creates its temp file with O_EXCL under a new
    random name, ``<name>.<8 hex digits>.tmp`` (``TestFileMode`` in
    ``test_pipeline.py`` checks its mode)."""

    FIRST = "out.txt.00000000.tmp"

    @pytest.mark.parametrize("taken_by", ["file", "symlink", "dangling symlink"])
    def test_an_existing_name_is_neither_overwritten_nor_followed(
        self, tmp_path, monkeypatch, taken_by
    ):
        first = tmp_path / self.FIRST
        if taken_by == "file":
            first.write_text("keep", encoding="utf-8")
        else:
            first.symlink_to(tmp_path / "victim.txt")
            if taken_by == "symlink":
                (tmp_path / "victim.txt").write_text("keep", encoding="utf-8")

        def tree():
            return {path.name: os.readlink(path) if path.is_symlink()
                    else path.read_text(encoding="utf-8") for path in tmp_path.iterdir()}

        before = tree()
        taken = draw_names(monkeypatch, b"\0" * 4, b"\1" * 4)
        atomic_write_text(tmp_path / "out.txt", "new")
        assert taken == [b"\0" * 4, b"\1" * 4]
        assert tree() == {**before, "out.txt": "new"}

    def test_running_out_of_names_is_a_storage_error(self, tmp_path, monkeypatch):
        (tmp_path / self.FIRST).write_text("keep", encoding="utf-8")
        monkeypatch.setattr(io_utils, "TEMP_NAME_TRIES", 3)
        taken = draw_names(monkeypatch, b"\0" * 4)
        target = tmp_path / "out.txt"
        message = f"^cannot write {re.escape(str(target))}: no free temp file name in 3 tries$"
        with pytest.raises(StorageError, match=message):
            atomic_write_text(target, "new")
        assert len(taken) == 3
        assert [p.name for p in tmp_path.iterdir()] == [self.FIRST]
