"""``cli.main`` on hostile byte files in each reader's role: the profiles of
``run``, the stage file each of ``classify``, ``bin``, ``arff`` and ``report``
reads, and the sample corpus and ``--stopwords`` file of ``classify``. Every
file ends in exit code 0 or 1, never in an exception, and a FAILED marker
exists exactly when the exit code is 1."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from socialminer.binning import AgeRange, ShareClass, WallCountClass
from socialminer.cli import main
from socialminer.ingest import Gender, Profile, _encode_record
from socialminer.knn import ClassLabel
from socialminer.synth import make_corpus_records, write_jsonl

LONE = "\ud800"
# Written as the escape "\ud800": valid JSON that no UTF-8 file can hold.
texts = st.lists(
    st.sampled_from(["honest", "kind", "naps", "lazy", "é", " ", "\u2028", "\u2029", "\x85", LONE]),
    min_size=1, max_size=6,
).map("".join)
ids = st.sampled_from(["u1", "u2", "u3", LONE])


def escaped(line: str) -> bytes:
    return line.replace(LONE, "\\ud800").encode("utf-8")


profile_lines = st.fixed_dictionaries(
    {"id": ids, "about_me": texts, "wall_count": st.integers(0, 99), "music_count": st.integers(0, 9)},
    optional={"birthday": st.sampled_from(["1990-01-15", "2030-01-01", "1990-13-01"]),
              "gender": texts},
).map(lambda record: escaped(json.dumps(record, ensure_ascii=False)))
stage_lines = st.builds(
    Profile, record_id=ids, about_me=texts, gender=st.sampled_from(Gender),
    wall_count=st.integers(0, 99), music_count=st.integers(0, 9),
    activity_interest_count=st.integers(0, 9),
).map(lambda profile: escaped(_encode_record(profile.to_record())))
# A later stage file: the birthdays ingest accepts and those it rejects, and
# each class present or absent.
binned_lines = st.builds(
    Profile, record_id=ids, about_me=texts, gender=st.sampled_from(Gender),
    wall_count=st.integers(0, 99), music_count=st.integers(0, 9),
    activity_interest_count=st.integers(0, 9),
    birthday=st.none() | st.sampled_from(["1990-01-15", "2030-01-01", "2015-02-30", "not a date", ""]),
    about_me_class=st.none() | st.sampled_from(ClassLabel),
    age_range=st.none() | st.sampled_from(AgeRange),
    wall_count_class=st.none() | st.sampled_from(WallCountClass),
    music_share_class=st.none() | st.sampled_from(ShareClass),
    activity_interest_class=st.none() | st.sampled_from(ShareClass),
).map(lambda profile: escaped(_encode_record(profile.to_record())))
stopword_lines = st.one_of(texts, st.sampled_from(["# honest", "HONEST", "kind"])).map(escaped)
sample_lines = st.fixed_dictionaries(
    {"id": st.sampled_from(["s1", "s2", "s3", "s4", LONE]),
     "label": st.sampled_from([label.value for label in ClassLabel]), "text": texts},
).map(lambda record: escaped(json.dumps(record, ensure_ascii=False)))


def byte_files(records):
    """Files of records, junk and bytes that are not UTF-8, each piece ended
    by a line break or by a character that looks like one, or by nothing."""
    piece = st.one_of(records, st.sampled_from([
        b"", b" ", b"{", b"[1, 2]", b"null", b"{}", b'{"id": "\\udfff"}',
        b"\xff", b"\xc0\xaf", b"\xed\xa0\x80", b"\xe2\x80",
    ]))
    end = st.one_of(
        st.sampled_from([b"\n", b"\r\n", b"\r"]),
        st.sampled_from(["", "\x0b", "\x1c", "\x85", "\u2028", "\u2029"]).map(str.encode),
    )
    return st.lists(st.tuples(piece, end).map(b"".join), max_size=6).map(b"".join)


LONE_SURROGATE_STAGE_LINE = (
    b'{"id": "u1", "about_me": "honest \\ud800", "gender": "Male", "wall_count": 1,'
    b' "music_count": 1, "activity_interest_count": 0}\n'
)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    write_jsonl(base / "corpus.jsonl", make_corpus_records(docs_per_class=1))
    write_jsonl(base / "profiles.jsonl", [
        {"id": f"u{i}", "about_me": "honest kind", "wall_count": i, "music_count": 1}
        for i in range(3)
    ])
    assert main(["ingest", "--input", str(base / "profiles.jsonl"), "--out", str(base)]) == 0
    return base


def exit_code_and_marker_agree(argv_for, base, data):
    with tempfile.TemporaryDirectory(dir=base) as work:
        path, out = Path(work) / "input.jsonl", Path(work) / "out"
        path.write_bytes(data)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv_for(str(path), str(out)))
        assert code in (0, 1)
        assert (out / "FAILED").exists() == (code == 1)


@settings(max_examples=60, deadline=None)
@given(data=byte_files(profile_lines))
def test_profiles_of_run(base, data):
    exit_code_and_marker_agree(
        lambda path, out: ["run", "--input", path, "--corpus", str(base / "corpus.jsonl"),
                           "--ref-date", "2015-06-01", "--out", out],
        base, data,
    )


@settings(max_examples=60, deadline=None)
@given(data=byte_files(stage_lines))
@example(data=LONE_SURROGATE_STAGE_LINE)
def test_stage_file_of_classify(base, data):
    exit_code_and_marker_agree(
        lambda path, out: ["classify", "--input", path, "--corpus", str(base / "corpus.jsonl"),
                           "--out", out],
        base, data,
    )


@settings(max_examples=60, deadline=None)
@given(data=byte_files(sample_lines))
@example(data='{"id": "s1", "label": "Honest", "text": "honest\u2028kind"}\r\n'.encode())
def test_sample_corpus_of_classify(base, data):
    exit_code_and_marker_agree(
        lambda path, out: ["classify", "--input", str(base / "accepted.jsonl"), "--corpus", path,
                           "--k", "1", "--out", out],
        base, data,
    )


@settings(max_examples=60, deadline=None)
@given(data=byte_files(binned_lines))
def test_stage_file_of_bin(base, data):
    exit_code_and_marker_agree(
        lambda path, out: ["bin", "--input", path, "--ref-date", "2015-06-01", "--out", out],
        base, data,
    )


@pytest.mark.parametrize("command", ["arff", "report"])
@settings(max_examples=60, deadline=None)
@given(data=byte_files(binned_lines))
def test_stage_file_of_arff_and_report(base, command, data):
    exit_code_and_marker_agree(lambda path, out: [command, "--input", path, "--out", out], base, data)


@settings(max_examples=60, deadline=None)
@given(data=byte_files(stopword_lines))
def test_stopwords_of_classify(base, data):
    exit_code_and_marker_agree(
        lambda path, out: ["classify", "--input", str(base / "accepted.jsonl"),
                           "--corpus", str(base / "corpus.jsonl"), "--stopwords", path,
                           "--k", "1", "--out", out],
        base, data,
    )
