import contextlib
import json
import tempfile
from datetime import date
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_paths
from socialminer.binning import AgeRange, ShareClass, WallCountClass
from socialminer import ingest
from socialminer.errors import DuplicateIdError, StorageError
from socialminer.ingest import (
    Gender,
    ParseIssue,
    REASON_BAD_BIRTHDAY,
    REASON_MISSING_NUMERIC,
    REASON_MISSING_TEXT,
    REASON_NEGATIVE_NUMERIC,
    check_stage_record,
    count_items,
    load_corpus,
    load_profiles,
    parse_birthday,
    persist_corpus,
    rejection_reason,
    validate_and_filter,
)
from socialminer.knn import ClassLabel


def line(**kwargs):
    return json.dumps(kwargs)


def full_record(record_id="u1", **overrides):
    record = {
        "id": record_id,
        "birthday": "1990-06-15",
        "about_me": "honest and kind",
        "activities": "reading, hiking",
        "gender": "male",
        "interests": "music",
        "wall_count": 12,
        "political": "none",
        "music_count": 3,
    }
    record.update(overrides)
    return record


def read_profiles(path):
    """``load_profiles`` read to the end: (list of profiles, issues)."""
    records, issues = load_profiles(path)
    return list(records), issues


def load_file(tmp_path, data):
    """``read_profiles`` on a file holding ``data``: bytes, or text as UTF-8."""
    path = tmp_path / "in.jsonl"
    path.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
    return read_profiles(path)


class TestLoadProfiles:
    def test_empty_stream(self, tmp_path):
        profiles, issues = load_file(tmp_path, "")
        assert profiles == [] and issues == []

    def test_three_lines_in_order(self, tmp_path):
        text = "\n".join(line(id=f"u{i}") for i in range(3))
        profiles, issues = load_file(tmp_path, text)
        assert [p["id"] for p in profiles] == ["u0", "u1", "u2"]
        assert issues == []

    def test_malformed_line_carries_line_number(self, tmp_path):
        text = line(id="u1") + "\nnot json at all\n" + line(id="u2")
        profiles, issues = load_file(tmp_path, text)
        assert [p["id"] for p in profiles] == ["u1", "u2"]
        assert len(issues) == 1
        assert issues[0].line_no == 2

    def test_blank_lines_skipped(self, tmp_path):
        text = "\n" + line(id="u1") + "\n\n"
        profiles, issues = load_file(tmp_path, text)
        assert len(profiles) == 1 and not issues

    def test_byte_order_mark_dropped_only_at_the_start_of_the_file(self, tmp_path):
        text = "\ufeff" + line(id="u1") + "\n\ufeff" + line(id="u2") + "\n" + line(id="u3")
        profiles, issues = load_file(tmp_path, text)
        assert [p["id"] for p in profiles] == ["u1", "u3"]
        assert issues == [ParseIssue(2, "not valid JSON")]

    def test_duplicate_id_raises(self, tmp_path):
        text = line(id="u1") + "\n" + line(id="u1")
        with pytest.raises(DuplicateIdError, match="'u1' at line 2"):
            load_file(tmp_path, text)

    def test_unknown_key_is_parse_error(self, tmp_path):
        profiles, issues = load_file(tmp_path, line(id="u1", surprise=1))
        assert not profiles and issues[0].line_no == 1

    def test_wrong_types_are_parse_errors(self, tmp_path):
        bad = [
            line(id=7),
            line(id="u1", wall_count="many"),
            line(id="u2", about_me=5),
            line(id="u3", wall_count=True),
            line(id=""),
            '["not", "an", "object"]',
        ]
        profiles, issues = load_file(tmp_path, "\n".join(bad))
        assert not profiles
        assert [i.line_no for i in issues] == [1, 2, 3, 4, 5, 6]

    def test_null_values_count_as_missing(self, tmp_path):
        profiles, _ = load_file(tmp_path, line(id="u1", birthday=None))
        assert profiles[0].get("birthday") is None

    def test_negative_counts_parse_and_flow_to_validation(self, tmp_path):
        profiles, issues = load_file(tmp_path, line(id="u1", wall_count=-4))
        assert profiles[0]["wall_count"] == -4 and not issues

    def test_reads_from_path(self, tmp_path):
        p = tmp_path / "in.jsonl"
        p.write_text(line(id="u1") + "\n", encoding="utf-8")
        profiles, _ = read_profiles(p)
        assert profiles[0]["id"] == "u1"

    def test_unreadable_source(self, tmp_path):
        with pytest.raises(StorageError):
            read_profiles(tmp_path / "missing.jsonl")

    def test_invalid_utf8_line_is_parse_issue(self, tmp_path):
        p = tmp_path / "in.jsonl"
        p.write_bytes(
            line(id="u1").encode()
            + b'\n{"id": "u2", "about_me": "caf\xe9"}\n'
            + b'{"id": "u3", "about_me": "\xed\xa0\x80"}\n'
            + b"\xff\n"
            + line(id="u4", about_me="café").encode()
            + b"\n"
        )
        profiles, issues = read_profiles(p)
        assert [r["id"] for r in profiles] == ["u1", "u4"]
        assert profiles[1]["about_me"] == "café"
        assert [(i.line_no, i.message) for i in issues] == [
            (2, "not valid UTF-8"), (3, "not valid UTF-8"), (4, "not valid UTF-8")
        ]

    def test_invalid_utf8_in_byte_stream(self, tmp_path):
        data = line(id="u1").encode() + b"\n\xc3(\n" + line(id="u2").encode()
        profiles, issues = load_file(tmp_path, data)
        assert [r["id"] for r in profiles] == ["u1", "u2"]
        assert [i.line_no for i in issues] == [2]

    def test_line_numbers_follow_every_line_break(self, tmp_path):
        # Lines end at "\n", "\r\n" and "\r" only: a raw U+2028, U+2029 or
        # U+0085 stays inside its text, records that only \x1c separates are
        # one malformed line, and invalid bytes keep their own line number.
        def raw(**kwargs):
            return json.dumps(kwargs, ensure_ascii=False).encode()

        u4 = raw(id="u4")
        p = tmp_path / "in.jsonl"
        p.write_bytes(
            b"\xff\n"
            + raw(id="u1", about_me="a\u2028b") + b"\r\n"
            + b"\xfe\r"
            + raw(id="u2", about_me="c\u2029d") + b"\n"
            + raw(id="u3", about_me="e\x85f") + b"\r"
            + u4 + b"\x1c" + raw(id="u5") + b"\n"
            + raw(id="u6")
        )
        profiles, issues = read_profiles(p)
        assert [(r["id"], r.get("about_me")) for r in profiles] == [
            ("u1", "a\u2028b"), ("u2", "c\u2029d"), ("u3", "e\x85f"), ("u6", None)
        ]
        assert [(i.line_no, i.message) for i in issues] == [
            (1, "not valid UTF-8"),
            (3, "not valid UTF-8"),
            (6, "not valid JSON"),
        ]

    def test_escaped_lone_surrogate_is_parse_issue(self, tmp_path):
        text = "\n".join([
            '{"id": "u1", "about_me": "\\ud800 alone"}',
            '{"id": "u2", "about_me": "pair \\ud83d\\ude00"}',
            '{"id": "\\udfff"}',
        ])
        profiles, issues = load_file(tmp_path, text)
        assert [p["id"] for p in profiles] == ["u2"]
        assert profiles[0]["about_me"] == "pair \U0001F600"
        assert [(i.line_no, i.message.split(" ")[0]) for i in issues] == [(1, "about_me"), (3, "id")]


# Empty, NUL, non-ASCII, astral and a lone surrogate, in short strings that
# repeat and are prefixes and suffixes of each other, beside any other text.
id_draws = st.lists(
    st.text(st.sampled_from("a\x00\xe9\U0001f600\ud800"), max_size=3) | st.text(), max_size=80
)


def seen_ids(keys):
    """What ``_parse_lines`` makes of lines whose ids are ``keys`` in turn: the
    ids it yields, or its DuplicateIdError's text. Each line is its id, so
    any string reaches the set of ids seen, even one no parsed line holds."""
    lines = list(enumerate(keys, 1))
    with mock.patch.object(ingest, "json_lines", lambda path: iter(lines)), \
            mock.patch.object(ingest, "_parse_record_line", lambda key: {"id": key}):
        try:
            return [record["id"] for record in ingest._parse_lines("lines", [])]
        except DuplicateIdError as exc:
            return str(exc)


def seen_by_a_set(keys):
    """The same answer from a Python ``set``."""
    seen = set()
    for line_no, key in enumerate(keys, 1):
        if key in seen:
            return f"duplicate record id {key!r} at line {line_no}"
        seen.add(key)
    return keys


def colliding():
    """Every string hashes alike in ``ingest``, so each id walks the whole
    probe chain and is told apart by its bytes alone."""
    return mock.patch.object(ingest, "hash", lambda key: 7, create=True)


class TestIdSet:
    """The ids ``_parse_lines`` has seen answer as a ``set`` does, whatever
    the strings and whatever their hashes."""

    @given(id_draws)
    @example(["", "\x00", "\x00\x00", "a\x00", "\x00a", "\ud800", "\U0001f600", "\ud83d\ude00"])
    def test_matches_a_set(self, keys):
        for keys in (keys, keys + keys[::3]):
            assert seen_ids(keys) == seen_by_a_set(keys)
            with colliding():
                assert seen_ids(keys) == seen_by_a_set(keys)

    @pytest.mark.parametrize("forced", [False, True])
    def test_sizes_across_each_growth(self, forced):
        # 16 slots to start, 4 times as many once half full: at 8, 32, 128, ...
        # ids. Past 32,768 a slot takes 4 bytes, not 2, which 65,536 ids need.
        # Colliding ids take quadratic time, so those stop past 512.
        growths = [8 * 4**i for i in range(4 if forced else 7)]
        sizes = [n + step for n in growths for step in (-1, 0, 1)] + ([] if forced else [2**16 + 1])
        with colliding() if forced else contextlib.nullcontext():
            for size in sizes:
                keys = [f"k{i}" for i in range(size)]
                assert seen_ids(keys + ["k"]) == keys + ["k"], size
                for i in (0, size // 2, size - 1):
                    assert seen_ids(keys + [keys[i]]) == f"duplicate record id 'k{i}' at line {size + 1}"

    def test_duplicate_found_under_colliding_hashes(self, tmp_path):
        text = "\n".join(line(id=f"u{i}") for i in [1, 2, 3, 2])
        with colliding(), pytest.raises(DuplicateIdError) as caught:
            load_file(tmp_path, text)
        assert str(caught.value) == "duplicate record id 'u2' at line 4"
        with colliding():
            profiles, issues = load_file(tmp_path, "\n".join(line(id=f"u{i}") for i in range(40)))
        assert [p["id"] for p in profiles] == [f"u{i}" for i in range(40)] and not issues

    def test_an_id_on_a_malformed_line_is_not_seen(self, tmp_path):
        profiles, issues = load_file(tmp_path, line(id="u1", surprise=1) + "\n" + line(id="u1"))
        assert [p["id"] for p in profiles] == ["u1"]
        assert [i.line_no for i in issues] == [1]


class TestValidateAndFilter:
    def test_valid_record_accepted(self):
        records = [full_record()]
        accepted, report = validate_and_filter(records)
        assert len(accepted) == 1
        assert report.rejected == []
        p = accepted[0]
        assert (p["gender"], type(p["gender"])) == (Gender.MALE.value, str)
        assert p["activity_interest_count"] == 3  # reading, hiking + music

    def test_missing_about_me_rejected(self):
        records = [full_record(about_me=None)]
        accepted, report = validate_and_filter(records)
        assert not accepted
        assert report.rejected == [("u1", REASON_MISSING_TEXT)]

    def test_blank_about_me_rejected(self):
        records = [full_record(about_me="   ")]
        _, report = validate_and_filter(records)
        assert report.rejected == [("u1", REASON_MISSING_TEXT)]

    def test_missing_numeric_rejected(self):
        for f in ("wall_count", "music_count"):
            records = [full_record(**{f: None})]
            _, report = validate_and_filter(records)
            assert report.rejected == [("u1", REASON_MISSING_NUMERIC)]

    def test_negative_numeric_rejected(self):
        records = [full_record(music_count=-1)]
        _, report = validate_and_filter(records)
        assert report.rejected == [("u1", REASON_NEGATIVE_NUMERIC)]

    def test_unparseable_birthday_rejected(self):
        for bad in ("15/06/1990", "1990-13-01", "1990-02-30", "yesterday"):
            records = [full_record(birthday=bad)]
            _, report = validate_and_filter(records)
            assert report.rejected == [("u1", REASON_BAD_BIRTHDAY)], bad

    def test_absent_birthday_accepted(self):
        records = [full_record(birthday=None)]
        accepted, report = validate_and_filter(records)
        assert len(accepted) == 1
        assert "birthday" not in accepted[0]

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("male", Gender.MALE),
            ("MALE", Gender.MALE),
            ("Female", Gender.FEMALE),
            ("other", Gender.UNSPECIFIED),
            ("", Gender.UNSPECIFIED),
            (None, Gender.UNSPECIFIED),
        ],
    )
    def test_gender_normalization(self, text, expected):
        records = [full_record(gender=text)]
        accepted, _ = validate_and_filter(records)
        gender = accepted[0]["gender"]
        assert (gender, type(gender)) == (expected.value, str)

    def test_totality(self):
        records = [
            full_record("u1"),
            full_record("u2", about_me=None),
            full_record("u3", wall_count=None),
        ]
        accepted, report = validate_and_filter(records)
        assert len(accepted) + len(report.rejected) == 3
        assert {p["id"] for p in accepted} | {r for r, _ in report.rejected} == {
            "u1",
            "u2",
            "u3",
        }


class TestCountItems:
    @pytest.mark.parametrize(
        "text,n",
        [
            (None, 0),
            ("", 0),
            (" , , ", 0),
            ("reading", 1),
            ("reading, hiking", 2),
            ("reading,,hiking,", 2),
        ],
    )
    def test_counts(self, text, n):
        assert count_items(text) == n


# Characters a date is written in or mistaken for: ASCII, Arabic-Indic and
# full-width digits, the separators of fromisoformat's other forms, and a
# line break.
_DATE_CHARS = "0123456789-WT:+. \n\u0661\u0662\uff11\uff12"


@st.composite
def _edited_date(draw):
    """A YYYY-MM-DD date with up to two characters replaced, inserted or
    deleted."""
    text = draw(st.dates()).isoformat()
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        char = draw(st.sampled_from(_DATE_CHARS))
        text = draw(st.sampled_from([
            text[:at] + char + text[at + 1:], text[:at] + char + text[at:], text[:at] + text[at + 1:],
        ]))
    return text


birthday_texts = st.one_of(_edited_date(), st.text(alphabet=_DATE_CHARS, max_size=12), st.text(max_size=12))


class TestParseBirthday:
    def test_valid(self):
        d = parse_birthday("1990-06-15")
        assert (d.year, d.month, d.day) == (1990, 6, 15)

    @pytest.mark.parametrize("bad", ["", "1990-6-15", "19900615", "1990-02-30", "x"])
    def test_invalid(self, bad):
        assert parse_birthday(bad) is None

    @settings(max_examples=500)
    @given(birthday_texts)
    @example("2015-02-30")
    @example("2015-W01-1")
    @example("20150101")
    @example("2015-01-01\n")
    @example("\u0662\u0660\u0661\u0665-\u0660\u0661-\u0660\u0661")
    @example("\uff12\uff10\uff11\uff15-01-01")
    def test_matches_the_regex_reference(self, text):
        assert parse_birthday(text) == reference_paths.parse_birthday(text)


class TestOneRecordRule:
    @settings(max_examples=200, deadline=None)
    @given(
        about_me=st.sampled_from(["honest kind", "", "   ", "\t\n", "\u2028", "x"]) | st.text(max_size=6),
        wall_count=st.integers(-2, 99),
        music_count=st.integers(-2, 9),
        birthday=st.none() | birthday_texts,
    )
    def test_profiles_and_stage_readers_give_the_same_reason(
        self, about_me, wall_count, music_count, birthday
    ):
        record = {"id": "u1", "about_me": about_me, "wall_count": wall_count,
                  "music_count": music_count}
        if birthday is not None:
            record["birthday"] = birthday
        with tempfile.TemporaryDirectory() as work:
            profiles_path, stage_path = Path(work) / "profiles.jsonl", Path(work) / "accepted.jsonl"
            profiles_path.write_text(json.dumps(record) + "\n", encoding="utf-8")
            records, issues = load_profiles(profiles_path)
            accepted, report = validate_and_filter(list(records))
            assert issues == [] and len(accepted) + len(report.rejected) == 1
            ingest_reason = report.rejected[0][1] if report.rejected else None

            stage_record = {**record, "gender": "Unspecified", "activity_interest_count": 0}
            stage_path.write_text(json.dumps(stage_record) + "\n", encoding="utf-8")
            try:
                assert len(list(load_corpus(stage_path))) == 1
                stage_reason = None
            except StorageError as exc:
                prefix = f"corrupt corpus {stage_path}:1: ingest would reject it: "
                assert str(exc).startswith(prefix), str(exc)
                stage_reason = str(exc)[len(prefix):]
        assert stage_reason == ingest_reason


def make_profile(i, **overrides):
    fields = dict(
        record_id=f"u{i}",
        about_me=f"text {i}",
        gender=Gender.FEMALE,
        wall_count=i,
        music_count=i,
        activity_interest_count=i,
        birthday="1990-06-15" if i % 2 else None,
        activities="a, b",
        interests=None,
        political=None,
    )
    fields.update(overrides)
    return reference_paths.stage_record(**fields)


class TestCorpusRoundTrip:
    def test_empty(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        persist_corpus([], p)
        assert list(load_corpus(p)) == []

    def test_five_profiles(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        profiles = [make_profile(i) for i in range(5)]
        persist_corpus(profiles, p)
        assert list(load_corpus(p)) == profiles

    def test_round_trip_with_derived_fields(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        enriched = make_profile(
            3,
            about_me_class=ClassLabel.HONEST,
            age_range=AgeRange.FROM_20_TO_32,
            wall_count_class=WallCountClass.VERY_LOW,
            music_share_class=ShareClass.LOW,
            activity_interest_class=ShareClass.LOW,
        )
        persist_corpus([enriched], p)
        assert list(load_corpus(p)) == [enriched]

    def test_missing_path(self, tmp_path):
        with pytest.raises(StorageError):
            list(load_corpus(tmp_path / "nope.jsonl"))

    def test_deterministic_bytes(self, tmp_path):
        profiles = [make_profile(i) for i in range(3)]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        persist_corpus(profiles, a)
        persist_corpus(profiles, b)
        assert a.read_bytes() == b.read_bytes()

    @given(st.integers(min_value=0, max_value=30))
    def test_round_trip_identity(self, n):
        import tempfile, os

        profiles = [make_profile(i) for i in range(n)]
        fd, name = tempfile.mkstemp(suffix=".jsonl")
        os.close(fd)
        try:
            persist_corpus(profiles, name)
            assert list(load_corpus(name)) == profiles
        finally:
            os.unlink(name)


ENUM_FIELDS = (
    ("gender", Gender),
    ("about_me_class", ClassLabel),
    ("age_range", AgeRange),
    ("wall_count_class", WallCountClass),
    ("music_share_class", ShareClass),
    ("activity_interest_class", ShareClass),
)


def optional(strategy):
    return st.one_of(st.none(), strategy)


# Beside any text, dates and non-blank texts, so that most profiles pass the
# record rule.
profiles_strategy = st.builds(
    reference_paths.stage_record,
    record_id=st.text(min_size=1, max_size=8),
    about_me=st.text(max_size=20) | st.text(min_size=1, max_size=20).map("x{}".format),
    gender=st.sampled_from(Gender),
    wall_count=st.integers(min_value=0, max_value=10**6),
    music_count=st.integers(min_value=0, max_value=10**6),
    activity_interest_count=st.integers(min_value=0, max_value=100),
    birthday=optional(st.text(max_size=10) | st.dates().map(date.isoformat)),
    activities=optional(st.text(max_size=10)),
    interests=optional(st.text(max_size=10)),
    political=optional(st.text(max_size=10)),
    about_me_class=optional(st.sampled_from(ClassLabel)),
    age_range=optional(st.sampled_from(AgeRange)),
    wall_count_class=optional(st.sampled_from(WallCountClass)),
    music_share_class=optional(st.sampled_from(ShareClass)),
    activity_interest_class=optional(st.sampled_from(ShareClass)),
)


class TestStageRecordCheck:
    @given(profiles_strategy)
    def test_round_trip_through_json(self, profile):
        record = json.loads(json.dumps(profile))
        reason = rejection_reason(record)
        if reason is not None:
            with pytest.raises(ValueError, match=f"^ingest would reject it: {reason}$"):
                check_stage_record(record)
            return
        check_stage_record(record)
        assert list(record.items()) == list(profile.items())
        for key, _ in ENUM_FIELDS:
            assert type(record.get(key, "")) is str

    @pytest.mark.parametrize("key,enum_type", ENUM_FIELDS)
    @pytest.mark.parametrize("value", [None, "Nope", "low", 3, True, [1], {"a": 1}])
    def test_bad_enum_value_raises_like_the_enum(self, key, enum_type, value):
        record = make_profile(1, about_me_class=ClassLabel.HONEST)
        record[key] = value
        with pytest.raises(Exception) as expected:
            enum_type(value)
        with pytest.raises(type(expected.value)) as got:
            check_stage_record(record)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize(
        "key,value",
        [("id", 7), ("about_me", None), ("wall_count", "1"), ("music_count", 1.0),
         ("activity_interest_count", True), ("birthday", 1990), ("political", ["x"])],
    )
    def test_mistyped_field_is_type_error(self, key, value):
        record = make_profile(1)
        record[key] = value
        with pytest.raises(TypeError, match=key):
            check_stage_record(record)

    def test_unknown_key_is_value_error(self):
        record = make_profile(1)
        record["bogus"] = 1
        with pytest.raises(ValueError, match=r"^unknown keys: \['bogus'\]$"):
            check_stage_record(record)

    @pytest.mark.parametrize(
        "change,expected",
        [({"wall_count": "1", "birthday": None},
          TypeError("wall_count must be an integer, got '1'")),
         ({"about_me": " ", "age_range": "Young"},
          ValueError("ingest would reject it: MISSING_TEXT")),
         ({"bogus": 1, "id": ...}, ValueError("unknown keys: ['bogus']")),
         ({"gender": ..., "about_me_class": "Nope"}, KeyError("gender"))],
        ids=["count_before_optional_text", "rule_before_enum", "unknown_key_before_missing",
             "missing_gender_before_class"],
    )
    def test_first_fault_is_reported(self, change, expected):
        # A line with two faults: the check's order, not the table's, picks
        # the one reported (``...`` deletes the key).
        record = make_profile(1, about_me_class=ClassLabel.HONEST)
        record.update(change)
        record = {key: value for key, value in record.items() if value is not ...}
        with pytest.raises(Exception) as got:
            check_stage_record(record)
        assert (type(got.value), got.value.args) == (type(expected), expected.args)

    @pytest.mark.parametrize("key", ["birthday", "activities", "interests", "political"])
    def test_null_optional_text_is_refused(self, tmp_path, key):
        # No stage writes a null: an absent text is an absent key.
        p = tmp_path / "classified.jsonl"
        record = make_profile(1, about_me_class=ClassLabel.HONEST)
        p.write_text(json.dumps({**record, key: None}) + "\n", encoding="utf-8")
        with pytest.raises(StorageError) as caught:
            list(load_corpus(p))
        assert str(caught.value) == f"corrupt corpus {p}:1: {key} must be a string, got None"


class TestLoadCorpusErrors:
    @pytest.mark.parametrize(
        "bad_line",
        ["[1, 2]", '"text"', "3", "null", "{not json", '{"id": "u9"}'],
    )
    def test_bad_line_names_path_and_line(self, tmp_path, bad_line):
        p = tmp_path / "classified.jsonl"
        persist_corpus([make_profile(1)], p)
        p.write_text(p.read_text(encoding="utf-8") + bad_line + "\n", encoding="utf-8")
        with pytest.raises(StorageError, match=r"classified\.jsonl:2"):
            list(load_corpus(p))

    def test_mistyped_field_names_path_and_line(self, tmp_path):
        p = tmp_path / "binned.jsonl"
        record = make_profile(1)
        record["wall_count"] = "1"
        p.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(StorageError, match=r"binned\.jsonl:1: wall_count"):
            list(load_corpus(p))

    @pytest.mark.parametrize(
        "change,message",
        [*(({key: None}, f"missing key {key!r}")
           for key in ("id", "about_me", "wall_count", "music_count", "activity_interest_count",
                       "gender")),
         ({"age_range": "Young"}, "'Young' is not a valid AgeRange")],
        ids=["missing_id", "missing_about_me", "missing_wall_count", "missing_music_count",
             "missing_activity_interest_count", "missing_gender", "age_range_outside_enum"],
    )
    def test_refusal_text(self, tmp_path, change, message):
        p = tmp_path / "binned.jsonl"
        record = make_profile(1, about_me_class=ClassLabel.HONEST, age_range=AgeRange.FROM_20_TO_32)
        record.update(change)
        p.write_text(json.dumps({k: v for k, v in record.items() if v is not None}) + "\n",
                     encoding="utf-8")
        with pytest.raises(StorageError) as caught:
            list(load_corpus(p))
        assert str(caught.value) == f"corrupt corpus {p}:1: {message}"

    def test_invalid_utf8_is_storage_error(self, tmp_path):
        p = tmp_path / "accepted.jsonl"
        persist_corpus([make_profile(1)], p)
        p.write_bytes(p.read_bytes().replace(b"text", b"t\xffxt"))
        with pytest.raises(StorageError, match="accepted.jsonl"):
            list(load_corpus(p))

