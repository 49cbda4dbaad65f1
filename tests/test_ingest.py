import json

import pytest
from hypothesis import given, strategies as st

import reference_paths
from socialminer.binning import AgeRange, ShareClass, WallCountClass
from socialminer.errors import DuplicateIdError, StorageError
from socialminer.ingest import (
    Gender,
    Profile,
    RawProfile,
    REASON_BAD_BIRTHDAY,
    REASON_MISSING_NUMERIC,
    REASON_MISSING_TEXT,
    REASON_NEGATIVE_NUMERIC,
    count_items,
    load_corpus,
    load_profiles,
    parse_birthday,
    persist_corpus,
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
    raws, issues = load_profiles(path)
    return list(raws), issues


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
        assert [p.record_id for p in profiles] == ["u0", "u1", "u2"]
        assert issues == []

    def test_malformed_line_carries_line_number(self, tmp_path):
        text = line(id="u1") + "\nnot json at all\n" + line(id="u2")
        profiles, issues = load_file(tmp_path, text)
        assert [p.record_id for p in profiles] == ["u1", "u2"]
        assert len(issues) == 1
        assert issues[0].line_no == 2

    def test_blank_lines_skipped(self, tmp_path):
        text = "\n" + line(id="u1") + "\n\n"
        profiles, issues = load_file(tmp_path, text)
        assert len(profiles) == 1 and not issues

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
        assert profiles[0].birthday is None

    def test_negative_counts_parse_and_flow_to_validation(self, tmp_path):
        profiles, issues = load_file(tmp_path, line(id="u1", wall_count=-4))
        assert profiles[0].wall_count == -4 and not issues

    def test_reads_from_path(self, tmp_path):
        p = tmp_path / "in.jsonl"
        p.write_text(line(id="u1") + "\n", encoding="utf-8")
        profiles, _ = read_profiles(p)
        assert profiles[0].record_id == "u1"

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
        assert [r.record_id for r in profiles] == ["u1", "u4"]
        assert profiles[1].about_me == "café"
        assert [(i.line_no, i.message) for i in issues] == [
            (2, "not valid UTF-8"), (3, "not valid UTF-8"), (4, "not valid UTF-8")
        ]

    def test_invalid_utf8_in_byte_stream(self, tmp_path):
        data = line(id="u1").encode() + b"\n\xc3(\n" + line(id="u2").encode()
        profiles, issues = load_file(tmp_path, data)
        assert [r.record_id for r in profiles] == ["u1", "u2"]
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
        assert [(r.record_id, r.about_me) for r in profiles] == [
            ("u1", "a\u2028b"), ("u2", "c\u2029d"), ("u3", "e\x85f"), ("u6", None)
        ]
        assert [(i.line_no, i.message) for i in issues] == [
            (1, "not valid UTF-8"),
            (3, "not valid UTF-8"),
            (6, f"not valid JSON: Extra data: line 1 column {len(u4) + 1} (char {len(u4)})"),
        ]

    def test_escaped_lone_surrogate_is_parse_issue(self, tmp_path):
        text = "\n".join([
            '{"id": "u1", "about_me": "\\ud800 alone"}',
            '{"id": "u2", "about_me": "pair \\ud83d\\ude00"}',
            '{"id": "\\udfff"}',
        ])
        profiles, issues = load_file(tmp_path, text)
        assert [p.record_id for p in profiles] == ["u2"]
        assert profiles[0].about_me == "pair \U0001F600"
        assert [(i.line_no, i.message.split(" ")[0]) for i in issues] == [(1, "about_me"), (3, "id")]


class TestValidateAndFilter:
    def test_valid_record_accepted(self):
        raws = [RawProfile(**_as_raw(full_record()))]
        accepted, report = validate_and_filter(raws)
        assert len(accepted) == 1
        assert report.accepted_count == 1 and report.rejected_count == 0
        p = accepted[0]
        assert p.gender is Gender.MALE
        assert p.activity_interest_count == 3  # reading, hiking + music

    def test_missing_about_me_rejected(self):
        raws = [RawProfile(**_as_raw(full_record(about_me=None)))]
        accepted, report = validate_and_filter(raws)
        assert not accepted
        assert report.rejected == [("u1", REASON_MISSING_TEXT)]

    def test_blank_about_me_rejected(self):
        raws = [RawProfile(**_as_raw(full_record(about_me="   ")))]
        _, report = validate_and_filter(raws)
        assert report.rejected == [("u1", REASON_MISSING_TEXT)]

    def test_missing_numeric_rejected(self):
        for f in ("wall_count", "music_count"):
            raws = [RawProfile(**_as_raw(full_record(**{f: None})))]
            _, report = validate_and_filter(raws)
            assert report.rejected == [("u1", REASON_MISSING_NUMERIC)]

    def test_negative_numeric_rejected(self):
        raws = [RawProfile(**_as_raw(full_record(music_count=-1)))]
        _, report = validate_and_filter(raws)
        assert report.rejected == [("u1", REASON_NEGATIVE_NUMERIC)]

    def test_unparseable_birthday_rejected(self):
        for bad in ("15/06/1990", "1990-13-01", "1990-02-30", "yesterday"):
            raws = [RawProfile(**_as_raw(full_record(birthday=bad)))]
            _, report = validate_and_filter(raws)
            assert report.rejected == [("u1", REASON_BAD_BIRTHDAY)], bad

    def test_absent_birthday_accepted(self):
        raws = [RawProfile(**_as_raw(full_record(birthday=None)))]
        accepted, report = validate_and_filter(raws)
        assert report.accepted_count == 1
        assert accepted[0].birthday is None

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
        raws = [RawProfile(**_as_raw(full_record(gender=text)))]
        accepted, _ = validate_and_filter(raws)
        assert accepted[0].gender is expected

    def test_totality(self):
        raws = [
            RawProfile(**_as_raw(full_record("u1"))),
            RawProfile(**_as_raw(full_record("u2", about_me=None))),
            RawProfile(**_as_raw(full_record("u3", wall_count=None))),
        ]
        accepted, report = validate_and_filter(raws)
        assert report.accepted_count + report.rejected_count == 3
        assert {p.record_id for p in accepted} | {r for r, _ in report.rejected} == {
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


class TestParseBirthday:
    def test_valid(self):
        d = parse_birthday("1990-06-15")
        assert (d.year, d.month, d.day) == (1990, 6, 15)

    @pytest.mark.parametrize("bad", ["", "1990-6-15", "19900615", "1990-02-30", "x"])
    def test_invalid(self, bad):
        assert parse_birthday(bad) is None


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
    return Profile(**fields)


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


profiles_strategy = st.builds(
    Profile,
    record_id=st.text(min_size=1, max_size=8),
    about_me=st.text(max_size=20),
    gender=st.sampled_from(Gender),
    wall_count=st.integers(min_value=0, max_value=10**6),
    music_count=st.integers(min_value=0, max_value=10**6),
    activity_interest_count=st.integers(min_value=0, max_value=100),
    birthday=optional(st.text(max_size=10)),
    activities=optional(st.text(max_size=10)),
    interests=optional(st.text(max_size=10)),
    political=optional(st.text(max_size=10)),
    about_me_class=optional(st.sampled_from(ClassLabel)),
    age_range=optional(st.sampled_from(AgeRange)),
    wall_count_class=optional(st.sampled_from(WallCountClass)),
    music_share_class=optional(st.sampled_from(ShareClass)),
    activity_interest_class=optional(st.sampled_from(ShareClass)),
)


class TestRecordCodec:
    @given(profiles_strategy)
    def test_to_record_matches_reference_keys_order_and_types(self, profile):
        record = profile.to_record()
        reference = reference_paths.profile_record(profile)
        assert list(record.items()) == list(reference.items())
        assert [type(v) for v in record.values()] == [type(v) for v in reference.values()]

    @given(profiles_strategy)
    def test_round_trip_through_json(self, profile):
        back = Profile.from_record(json.loads(json.dumps(profile.to_record())))
        assert back == profile
        for key, _ in ENUM_FIELDS:
            assert getattr(back, key) is getattr(profile, key)

    @pytest.mark.parametrize("key,enum_type", ENUM_FIELDS)
    @pytest.mark.parametrize("value", [None, "Nope", "low", 3, True, [1], {"a": 1}])
    def test_bad_enum_value_raises_like_the_enum(self, key, enum_type, value):
        record = make_profile(1, about_me_class=ClassLabel.HONEST).to_record()
        record[key] = value
        with pytest.raises(Exception) as expected:
            enum_type(value)
        with pytest.raises(type(expected.value)) as got:
            Profile.from_record(record)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize(
        "key,value",
        [("id", 7), ("about_me", None), ("wall_count", "1"), ("music_count", 1.0),
         ("activity_interest_count", True), ("birthday", 1990), ("political", ["x"])],
    )
    def test_mistyped_field_is_type_error(self, key, value):
        record = make_profile(1).to_record()
        record[key] = value
        with pytest.raises(TypeError, match=key):
            Profile.from_record(record)

    def test_unknown_key_is_value_error(self):
        record = make_profile(1).to_record()
        record["bogus"] = 1
        with pytest.raises(ValueError, match=r"^unknown keys: \['bogus'\]$"):
            Profile.from_record(record)


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
        record = make_profile(1).to_record()
        record["wall_count"] = "1"
        p.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(StorageError, match=r"binned\.jsonl:1: wall_count"):
            list(load_corpus(p))

    def test_invalid_utf8_is_storage_error(self, tmp_path):
        p = tmp_path / "accepted.jsonl"
        persist_corpus([make_profile(1)], p)
        p.write_bytes(p.read_bytes().replace(b"text", b"t\xffxt"))
        with pytest.raises(StorageError, match="accepted.jsonl"):
            list(load_corpus(p))


def _as_raw(record):
    mapped = dict(record)
    mapped["record_id"] = mapped.pop("id")
    return mapped
