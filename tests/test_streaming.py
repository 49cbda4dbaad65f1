"""The streamed readers and writer of line-delimited files against their
whole-file references in ``reference_paths``: same records, same
ParseIssues, same error types and the same bytes, on arbitrary byte files.
Also bounds the memory a stage file costs to write and to read back, and the
memory each stage subcommand holds, and checks what a stage that fails
partway through its input leaves behind."""

import gc
import json
import os
import tracemalloc
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference_paths
from socialminer.binning import AgeRange, ShareClass, WallCountClass
from socialminer.cli import main
from socialminer.errors import CorpusError, StorageError
from socialminer import ingest
from socialminer.ingest import (
    Gender, _encode_record, load_corpus, load_profiles, persist_corpus, rejection_reason,
)
from socialminer.io_utils import BATCH_SIZE, atomic_write_text, batches, json_lines
from socialminer.knn import ClassLabel, load_sample_corpus
from socialminer.pipeline import RunConfig, stage_bin, stage_classify
from socialminer.synth import make_corpus_records, make_profile_records, write_jsonl
from socialminer.textprep import load_stopwords

# Every break str.splitlines knows (of which only "\n", "\r\n" and "\r" end
# a line), and bytes that are not UTF-8: lone continuation and invalid start
# bytes, an overlong form, an encoded surrogate, and sequences cut short (at
# the end of a file, truncated). The junk holds escaped lone surrogates.
BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
BAD_BYTES = [b"\xff", b"\x80", b"\xc0\xaf", b"\xed\xa0\x80", b"\xc3", b"\xe2\x80", b"\xf0\x9f\x98"]
JUNK = [
    "", " ", "\t", "{", "[1, 2]", '"text"', "null", "{}", "é",
    '{"id": "\\ud800"}', '{"about_me": "x \\udfff"}',
]

texts = st.text(
    alphabet=["a", "b", " ", "\t", "é", "\\", '"', *(c for c in BREAKS if len(c) == 1)], max_size=8
)


def optional(strategy):
    return st.one_of(st.none(), strategy)


# Beside any text, dates and non-blank texts, so that most records pass the
# record rule.
profiles_strategy = st.builds(
    reference_paths.stage_record,
    record_id=st.sampled_from(["u1", "u2", "u3", "u4", "u5", "u6"]),
    about_me=texts | texts.map("a{}".format),
    gender=st.sampled_from(Gender),
    wall_count=st.integers(min_value=0, max_value=10**6),
    music_count=st.integers(min_value=0, max_value=10**6),
    activity_interest_count=st.integers(min_value=0, max_value=100),
    birthday=optional(texts | st.dates().map(date.isoformat)),
    activities=optional(texts),
    interests=optional(texts),
    political=optional(texts),
    about_me_class=optional(st.sampled_from(ClassLabel)),
    age_range=optional(st.sampled_from(AgeRange)),
    wall_count_class=optional(st.sampled_from(WallCountClass)),
    music_share_class=optional(st.sampled_from(ShareClass)),
    activity_interest_class=optional(st.sampled_from(ShareClass)),
)

stage_lines = profiles_strategy.map(_encode_record)
profile_lines = profiles_strategy.map(
    lambda p: json.dumps(
        {"id": p["id"], "about_me": p["about_me"], "birthday": p.get("birthday"),
         "wall_count": p["wall_count"], "music_count": p["music_count"]},
        ensure_ascii=False,
    )
)
sample_lines = st.fixed_dictionaries(
    {
        "id": st.sampled_from(["s1", "s2", "s3", "s4"]),
        "label": st.sampled_from([label.value for label in ClassLabel] + ["Nope"]),
        "text": texts,
    }
).map(lambda record: json.dumps(record, ensure_ascii=False))


def byte_files(records):
    """Files of records, junk, line breaks and bytes that are not UTF-8, in
    any order, with or without a final newline."""
    text_piece = st.one_of(records, st.sampled_from(JUNK), st.sampled_from(BREAKS))
    piece = st.one_of(
        text_piece.map(lambda text: text.encode("utf-8")),
        st.sampled_from(BAD_BYTES),
        records.map(lambda text: text.encode("utf-8") + b"\n"),
    )
    return st.lists(piece, max_size=12).map(b"".join)


def read_profiles(path):
    """``load_profiles`` read to the end: (list of profiles, issues)."""
    raws, issues = load_profiles(path)
    return list(raws), issues


def read_corpus(path):
    return list(load_corpus(path))


def outcome(func, path):
    try:
        return ("ok", func(path))
    except Exception as exc:
        return ("error", type(exc), str(exc))


DATA = Path(__file__).parent.parent / "data"


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("streaming") / "file.jsonl"


class TestStreamedReaders:
    @settings(max_examples=300)
    @given(data=byte_files(profile_lines))
    def test_load_profiles_matches_whole_file_reference(self, scratch, data):
        scratch.write_bytes(data)
        assert outcome(read_profiles, scratch) == outcome(reference_paths.load_profiles, scratch)

    @settings(max_examples=300)
    @given(data=byte_files(stage_lines))
    def test_load_corpus_matches_whole_file_reference(self, scratch, data):
        scratch.write_bytes(data)
        assert outcome(read_corpus, scratch) == outcome(reference_paths.load_corpus, scratch)

    @settings(max_examples=300)
    @given(data=byte_files(sample_lines))
    def test_load_sample_corpus_matches_whole_file_reference(self, scratch, data):
        scratch.write_bytes(data)
        assert outcome(load_sample_corpus, scratch) == outcome(
            reference_paths.load_sample_corpus, scratch
        )

    def test_several_faults_report_the_first_one_met(self, tmp_path):
        # A bad line comes before invalid UTF-8 in a later read block (8 KiB)
        # of the file; both readers report the bad line, and a file whose
        # first fault is the invalid UTF-8 reports that line.
        path = tmp_path / "binned.jsonl"
        path.write_bytes(b"{not json\n" + b" \n" * 10_000 + b'{"id": "u\xff"}\n')
        message = f"corrupt corpus {path}:1: not valid JSON"
        for reader in (read_corpus, reference_paths.load_corpus):
            assert outcome(reader, path) == ("error", StorageError, message)
        path.write_bytes(b" \n" * 10_000 + b'{"id": "u\xff"}\n{not json\n')
        for reader in (read_corpus, reference_paths.load_corpus):
            assert outcome(reader, path) == (
                "error", StorageError, f"corrupt corpus {path}:10001: not valid UTF-8"
            )

    @pytest.mark.parametrize("sep", ["\n", "\r\n", "\r"])
    def test_records_across_read_blocks(self, tmp_path, sep):
        # Files of several 8 KiB blocks, shifted by 0-3 bytes of blank lines,
        # so that multi-byte characters and separators fall on block
        # boundaries.
        texts = ["é€😀\u2028 " * (i % 7) + "x" for i in range(300)]
        profiles = [reference_paths.stage_record(f"u{i}", text, Gender.MALE, i, i, 0)
                    for i, text in enumerate(texts)]
        files = (
            (lambda path: read_profiles(path)[0], lambda path: reference_paths.load_profiles(path)[0],
             [json.dumps({"id": p["id"], "about_me": p["about_me"],
                          "wall_count": 1, "music_count": 1}, ensure_ascii=False)
              for p in profiles]),
            (read_corpus, reference_paths.load_corpus,
             [_encode_record(p) for p in profiles]),
            (load_sample_corpus, reference_paths.load_sample_corpus,
             [json.dumps({"id": f"s{i}", "label": "Honest", "text": text}, ensure_ascii=False)
              for i, text in enumerate(texts)]),
        )
        path = tmp_path / "file.jsonl"
        for shift in range(4):
            for streamed, reference, lines in files:
                path.write_bytes(("\n" * shift + sep.join(lines) + sep).encode("utf-8"))
                result = outcome(streamed, path)
                assert result[0] == "ok" and len(result[1]) == 300
                assert result == outcome(reference, path)

    @pytest.mark.parametrize("name", ["missing.jsonl", "."])
    def test_unreadable_paths_fail_alike(self, tmp_path, name):
        path = tmp_path / name
        for streamed, reference in (
            (read_profiles, reference_paths.load_profiles),
            (read_corpus, reference_paths.load_corpus),
            (load_sample_corpus, reference_paths.load_sample_corpus),
        ):
            with pytest.raises(StorageError):
                streamed(path)
            with pytest.raises(StorageError):
                reference(path)

    @pytest.mark.parametrize("name,cause", [("missing.jsonl", FileNotFoundError), (".", IsADirectoryError)])
    @pytest.mark.parametrize(
        "reader,what",
        [(read_profiles, ""), (read_corpus, "corpus "), (load_sample_corpus, "sample corpus ")],
        ids=["profiles", "stage_file", "sample_corpus"],
    )
    def test_unreadable_path_message(self, tmp_path, reader, what, name, cause):
        path = tmp_path / name
        with pytest.raises(StorageError) as caught:
            reader(path)
        assert type(caught.value.__cause__) is cause
        assert str(caught.value) == f"cannot read {what}{path}: {caught.value.__cause__}"


class TestStageFileLines:
    def test_each_record_comes_with_the_line_it_was_read_from(self, tmp_path):
        lines = [canonical_line(i, about_me_class="Honest") for i in range(4)]
        # line 2 ends in "\r\n", blank lines come before line 3, and the
        # last line has no newline
        data = lines[0] + lines[1][:-1] + "\r\n" + "\n \t\n" + lines[2] + lines[3][:-1]
        path = tmp_path / "classified.jsonl"
        path.write_bytes(data.encode("utf-8"))
        stage_file = load_corpus(path)
        records, read = zip(*stage_file.lines())
        assert list(read) == [lines[0], lines[1], lines[2], lines[3][:-1]]
        assert list(records) == list(stage_file) == [json.loads(line) for line in lines]


class TestBlankLines:
    """A line is blank, and skipped, only when it holds nothing but spaces,
    tabs and its line break. A line holding another blank (U+00A0, a form
    feed) is not JSON, and each reader refuses it as such."""

    def test_only_spaces_and_tabs_make_a_blank_line(self, tmp_path):
        path = tmp_path / "file.jsonl"
        path.write_bytes("a\n \t\n\r\n\xa0\n\x0c\n\x0b \nb".encode("utf-8"))
        assert list(json_lines(path)) == [
            (1, "a\n"), (4, "\xa0\n"), (5, "\x0c\n"), (6, "\x0b \n"), (7, "b")
        ]

    def test_profiles_line_is_malformed(self, tmp_path, capsys):
        records = DATA.joinpath("profiles.jsonl").read_text(encoding="utf-8").splitlines(True)
        path = tmp_path / "profiles.jsonl"
        path.write_text("".join(records[:2]) + "\xa0\n\x0c\n" + records[2], encoding="utf-8")
        assert main(["ingest", "--input", str(path), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == "accepted: 3\nrejected: 0\nmalformed: 2\n"
        report = json.loads((tmp_path / "rejections.json").read_text(encoding="utf-8"))
        assert report["malformed_lines"] == [
            {"line_no": 3, "message": "not valid JSON"},
            {"line_no": 4, "message": "not valid JSON"},
        ]

    @pytest.mark.parametrize("blank", ["\xa0", "\x0c"])
    def test_stage_file_and_sample_corpus_line_is_refused(self, tmp_path, blank):
        path = tmp_path / "file.jsonl"
        path.write_text(canonical_line(0) + blank + "\n", encoding="utf-8")
        assert outcome(read_corpus, path) == (
            "error", StorageError, f"corrupt corpus {path}:2: not valid JSON")
        sample = DATA.joinpath("sample_corpus.jsonl").read_text(encoding="utf-8")
        path.write_text(sample.splitlines(True)[0] + blank + "\n", encoding="utf-8")
        assert outcome(load_sample_corpus, path) == ("error", CorpusError, f"{path}:2: not valid JSON")

    def test_stopwords_file_line_adds_no_word(self, tmp_path):
        path = tmp_path / "stopwords.txt"
        path.write_text("the\n\xa0\n\x0c\n#note\nAnd\n", encoding="utf-8")
        assert load_stopwords(path) == frozenset(["the", "and"])


class TestStreamedWriter:
    @given(st.lists(profiles_strategy, max_size=8))
    def test_persist_corpus_bytes_equal_reference(self, scratch, profiles):
        reference = scratch.with_name("reference.jsonl")
        persist_corpus(profiles, scratch)
        reference_paths.persist_corpus(profiles, reference)
        assert scratch.read_bytes() == reference.read_bytes()
        failing = [
            (line_no, reason)
            for line_no, reason in enumerate(map(rejection_reason, profiles), 1)
            if reason is not None
        ]
        if not failing:
            assert read_corpus(scratch) == profiles
        else:
            line_no, reason = failing[0]
            with pytest.raises(StorageError) as caught:
                read_corpus(scratch)
            assert str(caught.value) == (
                f"corrupt corpus {scratch}:{line_no}: ingest would reject it: {reason}"
            )

    def test_failed_stream_leaves_no_file(self, tmp_path):
        def records():
            yield "first\n"
            raise RuntimeError("stop")

        path = tmp_path / "out.jsonl"
        with pytest.raises(RuntimeError):
            atomic_write_text(path, records())
        assert list(tmp_path.iterdir()) == []


def test_stage_file_memory_stays_under_half_the_file(tmp_path):
    """Writing a stage file and reading it back each hold one record at a
    time, not the file's text or its list of lines."""
    about = "honest kind generous " * 10
    profiles = [
        reference_paths.stage_record(
            f"u{i}", about + str(i), Gender.FEMALE, i, i % 7, i % 5,
            birthday="1990-01-15", activities="reading, hiking",
            about_me_class=ClassLabel.HONEST, age_range=AgeRange.FROM_20_TO_32)
        for i in range(2000)
    ]
    path = tmp_path / "binned.jsonl"
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        persist_corpus(profiles, path)
        write_peak = tracemalloc.get_traced_memory()[1] - start

        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loaded = list(load_corpus(path))
        current, peak = tracemalloc.get_traced_memory()
        read_peak = peak - current  # above the profiles it keeps
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert loaded == profiles
    assert write_peak < size / 2, (write_peak, size)
    assert read_peak < size / 2, (read_peak, size)


def stage_steps(inputs, out):
    """The argv of each stage subcommand, in order, on ``inputs``' files."""
    return (
        ("ingest", ["--input", str(inputs / "profiles.jsonl")]),
        ("classify", ["--input", str(out / "accepted.jsonl"),
                      "--corpus", str(inputs / "corpus.jsonl")]),
        ("bin", ["--input", str(out / "classified.jsonl"), "--ref-date", "2015-06-01"]),
        ("arff", ["--input", str(out / "binned.jsonl")]),
        ("report", ["--input", str(out / "binned.jsonl")]),
    )


def write_inputs(inputs, profiles):
    inputs.mkdir()
    write_jsonl(inputs / "profiles.jsonl", profiles)
    write_jsonl(inputs / "corpus.jsonl", make_corpus_records(docs_per_class=1))


def stage_peaks(tmp_path, n):
    """The tracemalloc peak of each stage subcommand on ``n`` profiles,
    above what was allocated when it started."""
    inputs, out = tmp_path / f"in-{n}", tmp_path / f"out-{n}"
    write_inputs(inputs, make_profile_records(n, seed=3))
    peaks = {}
    tracemalloc.start()
    try:
        for command, argv in stage_steps(inputs, out):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert main([command, *argv, "--out", str(out)]) == 0, command
            peaks[command] = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return peaks


def test_stage_memory_does_not_grow_with_the_input(tmp_path):
    """Each streamed stage holds one batch of records, not the file: 3,000
    more records cost less than 128 bytes each, where holding them would
    cost about 1,000. What grows is the dict of ids ingest checks duplicates
    against (about 72 bytes a record at this size) and the report's tally,
    which has one key per combination of classes met."""
    small, large = stage_peaks(tmp_path, 1000), stage_peaks(tmp_path, 4000)
    for command in ("ingest", "classify", "bin", "arff", "report"):
        assert large[command] - small[command] < 3000 * 128, (command, small[command], large[command])


def open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.filterwarnings("error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning")
@pytest.mark.parametrize(
    "command,fault",
    [
        ("ingest", "duplicate id"), ("classify", "corrupt line"), ("bin", "corrupt line"),
        ("bin", "future birthday"), ("arff", "corrupt line"), ("report", "corrupt line"),
    ],
)
def test_failure_after_the_first_batch_leaves_no_temp_file_or_handle(tmp_path, command, fault):
    """A stage that fails partway through its input, in its reader or in its
    work on a later batch, removes its temp file and closes its input."""
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("counting open descriptors needs /proc/self/fd")
    profiles = make_profile_records(600, seed=4)
    if fault == "duplicate id":
        profiles[400]["id"] = profiles[3]["id"]
    if fault == "future birthday":
        profiles[400]["birthday"] = "2020-01-01"
    inputs, out = tmp_path / "in", tmp_path / "out"
    write_inputs(inputs, profiles)
    steps = dict(stage_steps(inputs, out))
    for step in ("ingest", "classify", "bin", "arff", "report"):
        if step == command:
            break
        assert main([step, *steps[step], "--out", str(out)]) == 0, step
    if fault == "corrupt line":
        stage_file = Path(steps[command][1])
        lines = stage_file.read_bytes().splitlines(keepends=True)
        lines[300] = b"{not json\n"
        stage_file.write_bytes(b"".join(lines))
    before = open_fds()
    assert main([command, *steps[command], "--out", str(out)]) == 1
    gc.collect()
    assert open_fds() == before
    assert (out / "FAILED").is_file()
    assert [p.name for p in out.rglob("*.tmp")] == []


@pytest.mark.parametrize("birthday_at,corrupt_at", [(260, 300), (300, 260)])
def test_stage_reports_the_first_fault_in_file_order(tmp_path, capsys, birthday_at, corrupt_at):
    """Within one batch as across batches, a record the stage cannot bin and
    a corrupt line are reported in the order the file holds them."""
    inputs, out = tmp_path / "in", tmp_path / "out"
    write_inputs(inputs, make_profile_records(600, seed=4))
    steps = dict(stage_steps(inputs, out))
    for step in ("ingest", "classify"):
        assert main([step, *steps[step], "--out", str(out)]) == 0, step
    stage_file = out / "classified.jsonl"
    lines = stage_file.read_bytes().split(b"\n")
    record = json.loads(lines[birthday_at - 1])
    record["birthday"] = "2020-01-01"
    lines[birthday_at - 1] = json.dumps(record).encode()
    lines[corrupt_at - 1] = b"{not json"
    stage_file.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert main(["bin", *steps["bin"], "--out", str(out)]) == 1
    error = capsys.readouterr().err
    if birthday_at < corrupt_at:
        assert "birthday 2020-01-01 is after reference date 2015-06-01" in error
    else:
        assert f"corrupt corpus {stage_file}:{corrupt_at}: not valid JSON" in error


def test_batches_yield_the_items_before_a_fault_first():
    def items():
        yield from range(BATCH_SIZE + 3)
        raise ValueError("fault")

    got = batches(items())
    assert next(got) == list(range(BATCH_SIZE))
    assert next(got) == [BATCH_SIZE, BATCH_SIZE + 1, BATCH_SIZE + 2]
    with pytest.raises(ValueError, match="^fault$"):
        next(got)


# The stages that write a record back as the line it was read from, and the
# file each writes.
WRITE_BACK = {"classify": (stage_classify, "classified.jsonl"), "bin": (stage_bin, "binned.jsonl")}
REF_DATE = "2015-06-01"


@pytest.fixture(scope="module")
def write_back_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("write_back")
    write_jsonl(directory / "corpus.jsonl", make_corpus_records(docs_per_class=1))
    return directory


def assert_written_like_the_full_encode(directory, data: bytes, command: str) -> None:
    """``command`` on a stage file holding ``data`` writes the bytes that
    ``reference_paths.persist_corpus`` writes for the same records, each
    encoded whole (what ``run``'s list of profiles gets)."""
    stage, name = WRITE_BACK[command]
    given = directory / "given.jsonl"
    given.write_bytes(data)
    config = RunConfig(input_path=given, output_dir=directory,
                       corpus_path=directory / "corpus.jsonl",
                       reference_date=date.fromisoformat(REF_DATE))
    records = reference_paths.load_corpus(given)
    stage(records, config, directory / "listed")
    reference_paths.persist_corpus(records, directory / "reference.jsonl")
    stage(load_corpus(given), config, directory / "read")
    assert (directory / "read" / name).read_bytes() == (directory / "reference.jsonl").read_bytes()


# Records every stage reads and bin can bin: no reason to reject, and no
# birthday after the reference date.
readable_profiles = profiles_strategy.filter(
    lambda p: rejection_reason(p) is None and p.get("birthday", "") <= REF_DATE
)


def canonical_line(i: int, **optional) -> str:
    return _encode_record(reference_paths.stage_record(
        f"u{i}", f"honest kind {i}", Gender.MALE, i, i % 9, i % 4, **optional)) + "\n"


# Lines that hold a key the stage adds, so that it must encode them whole,
# each with the stage it must be for.
FULL_ENCODE_LINES = {
    "about_me_class held": (("classify",), canonical_line(2, about_me_class="Lazy")),
    "age_range held": (("bin",), canonical_line(3, age_range="Over45")),
}
# Per stage, lines that each hold one or more of its keys.
HELD_KEY_LINES = {
    "classify": [canonical_line(1000 + i, about_me_class=label) for i, label in
                 enumerate(["Lazy", "Honest", "Unclassifiable", "Romantic", "Lazy"])],
    "bin": [canonical_line(1010, age_range="Over45"), canonical_line(1011, wall_count_class="High"),
            canonical_line(1012, music_share_class="Low"),
            canonical_line(1013, activity_interest_class="Medium"),
            canonical_line(1014, about_me_class="Honest", age_range="Hidden",
                           wall_count_class="VeryLow", music_share_class="High",
                           activity_interest_class="Low")],
}


class TestWriteBack:
    """classify and bin write a record back as the line it was read from
    plus the keys they add; for every line ``persist_corpus`` wrote, and for
    every line they must encode whole, the bytes are those of the whole
    encode."""

    @settings(max_examples=60, deadline=None)
    @given(records=st.lists(readable_profiles, max_size=6),
           command=st.sampled_from(sorted(WRITE_BACK)))
    def test_persisted_records_give_the_full_encode_bytes(self, write_back_dir, records, command):
        path = write_back_dir / "persisted.jsonl"
        persist_corpus(records, path)
        assert_written_like_the_full_encode(write_back_dir, path.read_bytes(), command)

    @pytest.mark.parametrize("command", sorted(WRITE_BACK))
    @pytest.mark.parametrize("case", sorted(FULL_ENCODE_LINES))
    def test_line_that_must_be_encoded_whole(self, write_back_dir, monkeypatch, command, case):
        commands, line = FULL_ENCODE_LINES[case]
        whole = count_whole_encodes(monkeypatch)
        data = canonical_line(0) + line + canonical_line(7)
        assert_written_like_the_full_encode(write_back_dir, data.encode(), command)
        # The reference stage encodes all three records whole; the read one
        # only the line in the middle, and only where the stage adds a key
        # that the line already holds.
        assert whole == [3, int(command in commands)]

    @pytest.mark.parametrize("command", sorted(WRITE_BACK))
    def test_last_line_without_a_newline(self, write_back_dir, command):
        data = canonical_line(0) + canonical_line(1)[:-1]
        assert_written_like_the_full_encode(write_back_dir, data.encode(), command)

    @pytest.mark.parametrize("command", sorted(WRITE_BACK))
    def test_batches_mixing_both_across_the_batch_boundary(
        self, write_back_dir, monkeypatch, command
    ):
        cases = HELD_KEY_LINES[command]
        lines = [canonical_line(i) for i in range(2 * BATCH_SIZE + 20)]
        at = [BATCH_SIZE - 2, BATCH_SIZE - 1, BATCH_SIZE, BATCH_SIZE + 1, 2 * BATCH_SIZE]
        assert len(cases) == len(at)
        for position, line in zip(at, cases):
            lines[position] = line
        whole = count_whole_encodes(monkeypatch)
        assert_written_like_the_full_encode(write_back_dir, "".join(lines).encode(), command)
        assert whole == [len(lines), len(cases)]


def count_whole_encodes(monkeypatch) -> list[int]:
    """Count, per ``persist_corpus`` call, the records ``ingest._encode_record``
    encodes whole (those with an id), as opposed to added keys alone."""
    counts: list[int] = []
    encode, persist = ingest._encode_record, ingest.persist_corpus

    def counting_encode(record):
        counts[-1] += "id" in record
        return encode(record)

    def counting_persist(*args, **kwargs):
        counts.append(0)
        return persist(*args, **kwargs)

    monkeypatch.setattr(ingest, "_encode_record", counting_encode)
    monkeypatch.setattr("socialminer.pipeline.persist_corpus", counting_persist)
    return counts
