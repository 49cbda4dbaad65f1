"""The record codec: ``io_utils.json_object`` and ``ingest._encode_record``
against the ``json.loads`` and ``JSONEncoder.encode`` references in
``reference_paths``, value for value and message for message."""

import json
import sys

import pytest
from hypothesis import given, strategies as st

from reference_paths import encode_record_reference, json_object_reference
from socialminer.ingest import _encode_record
from socialminer.io_utils import json_object

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
def lines(draw):
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


class TestObjectAlone:
    """``ingest.StageFile`` keeps a line to write back as read when it holds
    the object alone, from "{" to "}" and at most "\n". For a line that
    ``json_object`` decodes, that is exactly a line the C scanner took whole,
    never one that needed ``json.loads``."""

    @staticmethod
    def alone(line):
        return line[0] == "{" and line.endswith(("}\n", "}"))

    @given(lines())
    def test_alone_exactly_when_the_scanner_takes_the_line_whole(self, line):
        try:
            json_object(line)
        except ValueError:
            return
        assert self.alone(line) == scanner_takes_whole(line)

    @pytest.mark.parametrize(
        "line,alone",
        [
            ('{"id": "u1"}', True),
            ('{"id": "u1"}\n', True),
            ('{"id":"u1","n":-0}\n', True),
            (' {"id": "u1"}\n', False),
            ('{"id": "u1"} \n', False),
            ('{"id": "u1"}\t', False),
            ('{"id": "u1"}\r\n', False),
            ('{"id": "u1"}\n\n', False),
        ],
    )
    def test_lines_a_stage_file_may_hold(self, line, alone):
        assert json_object(line) == json.loads(line)
        assert self.alone(line) == scanner_takes_whole(line) == alone
