"""Load raw profile records, validate them, and persist the accepted corpus.

Input is UTF-8 JSON lines, one flat object per line with the keys
id, birthday, about_me, activities, gender, interests, wall_count,
political, music_count. Absent keys (or JSON null) mean the attribute is
missing.

An accepted profile is a stage-file record: the ``dict`` that one line of
a stage file holds. ``STAGE_RECORD`` alone declares its keys, their order
and their kinds. The stages write it as it is, atomically, and read it back
through ``check_stage_record``; README ("Input formats") lists its keys.
"""

from __future__ import annotations

import json
from array import array
from collections import namedtuple
from collections.abc import Callable, Collection, Iterable, Iterator
from datetime import date
from enum import Enum
from itertools import repeat
from operator import itemgetter
from pathlib import Path

from .binning import AgeRange, ShareClass, WallCountClass
from .errors import DuplicateIdError, StorageError
from .io_utils import atomic_write_text, batches, json_lines, json_object
from .knn import ClassLabel


class Gender(str, Enum):
    MALE = "Male"
    FEMALE = "Female"
    UNSPECIFIED = "Unspecified"


REASON_MISSING_TEXT = "MISSING_TEXT"
REASON_MISSING_NUMERIC = "MISSING_NUMERIC"
REASON_NEGATIVE_NUMERIC = "NEGATIVE_NUMERIC"
REASON_BAD_BIRTHDAY = "BAD_BIRTHDAY"

_TEXT_KEYS = ("birthday", "about_me", "activities", "gender", "interests", "political")
_INT_KEYS = ("wall_count", "music_count")
_INPUT_KEY_SET = frozenset(("id", *_TEXT_KEYS, *_INT_KEYS))

# The stage-file record: the keys each stage adds, in stage-file order, with
# their kinds: "text", "text?" (optional), "count" or the enumeration of the
# values (``FIELD_ENUMS``, which ``arff`` and ``report`` read too).
STAGE_RECORD = {
    "ingest": {"id": "text", "birthday": "text?", "about_me": "text", "activities": "text?",
               "gender": Gender, "interests": "text?", "wall_count": "count",
               "political": "text?", "music_count": "count", "activity_interest_count": "count"},
    "classify": {"about_me_class": ClassLabel},
    "bin": {"age_range": AgeRange, "wall_count_class": WallCountClass,
            "music_share_class": ShareClass, "activity_interest_class": ShareClass},
}
_KINDS = {key: kind for keys in STAGE_RECORD.values() for key, kind in keys.items()}
_STAGE_KEYS = frozenset(_KINDS)
_COUNT_KEYS = tuple(key for key, kind in _KINDS.items() if kind == "count")
_OPTIONAL_TEXT_KEYS = tuple(key for key, kind in _KINDS.items() if kind == "text?")
FIELD_ENUMS = {key: kind for key, kind in _KINDS.items() if isinstance(kind, type)}
_CLASS_KEYS = tuple(key for key in FIELD_ENUMS if key not in STAGE_RECORD["ingest"])
# Each value maps to itself: the one string of it that records share.
_FIELD_VALUES = {key: {m.value: m.value for m in kind} for key, kind in FIELD_ENUMS.items()}


# One malformed input line, kept for reporting instead of being dropped.
ParseIssue = namedtuple("ParseIssue", "line_no message")


class RejectionReport:
    """The (id, reason) of each record ``validate_and_filter`` filtered out.
    Totality: with the profiles it accepted, they are all of its input."""

    def __init__(self) -> None:
        self.rejected: list[tuple[str, str]] = []


def _parse_record_line(line: str) -> dict:
    record = json_object(line)
    if not record.keys() <= _INPUT_KEY_SET:
        raise ValueError(f"unknown keys: {sorted(record.keys() - _INPUT_KEY_SET)}")

    get = record.get
    record_id = get("id")
    if not isinstance(record_id, str) or not record_id:
        raise ValueError("id must be a non-empty string")
    for key in _TEXT_KEYS:
        value = get(key)
        if value is not None and not isinstance(value, str):
            raise ValueError(f"{key} must be a string")
    for key in _INT_KEYS:
        value = get(key)
        if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
            raise ValueError(f"{key} must be an integer")
    return record


def load_profiles(path: str | Path) -> tuple[Iterator[dict], list[ParseIssue]]:
    """Parse a JSON-lines file of records, in input order, one line at a time
    through ``io_utils.json_lines``.

    Returns an iterator of the decoded records, type-checked and holding
    only the input keys, and the list of ParseIssues, which fills as the
    iterator is consumed: lines that ``io_utils.json_object``
    refuses, or that hold other keys or types, become ParseIssues with their
    line number. The file is opened by the first ``next``; there an
    unreadable path raises StorageError. A duplicate id anywhere in the file
    raises DuplicateIdError when its line is reached. The ids of the parsed
    lines are what grows with the file: ``_parse_lines`` keeps them in a set
    that holds no ``str`` of them (its comment gives the bytes per id).
    """
    issues: list[ParseIssue] = []
    return _parse_lines(path, issues), issues


def _parse_lines(path: str | Path, issues: list[ParseIssue]) -> Iterator[dict]:
    # The ids seen, an exact set that keeps no ``str``: each id's UTF-8 bytes
    # ("surrogatepass", so every id has them) go into ``data``, their end
    # offset and ``hash`` into ``ends`` and ``hashes`` at the id's 1-based
    # ordinal, and the ordinal into a linearly probed ``table`` (0 is empty)
    # that ``_grown`` makes 4 times larger once half full. An equal hash is
    # confirmed by comparing bytes, so a hash collision leaves the answer
    # exact. A 6-letter id costs 30 to 32 bytes at 1,000 to 20,000 ids, where
    # the keys of a dict took 76 to 81 (CPython 3.11). The probe is inline
    # because a call per id would add to the time of every read.
    data = bytearray()
    ends = array("Q", [0])  # the bytes of ordinal n are data[ends[n - 1]:ends[n]]
    hashes = array("q", [0])  # the hash of ordinal n is hashes[n]
    add_end, add_hash = ends.append, hashes.append
    table = _grown(hashes, 15)
    mask = 15
    count = 0
    for line_no, line in json_lines(path):
        try:
            record = _parse_record_line(line)
        except ValueError as exc:
            issues.append(ParseIssue(line_no, str(exc)))
            continue
        record_id = record["id"]
        id_hash = hash(record_id)
        raw = record_id.encode("utf-8", "surrogatepass")
        slot = id_hash & mask
        while ordinal := table[slot]:
            if hashes[ordinal] == id_hash and data[ends[ordinal - 1]:ends[ordinal]] == raw:
                raise DuplicateIdError(f"duplicate record id {record_id!r} at line {line_no}")
            slot = (slot + 1) & mask
        data += raw
        add_end(len(data))
        add_hash(id_hash)
        count += 1
        table[slot] = count
        if 2 * count > mask:
            mask = 4 * mask + 3
            table = _grown(hashes, mask)
        yield record


def _grown(hashes: array, mask: int) -> array:
    """The probe table of ``mask + 1`` slots for ordinals 1 on of ``hashes``."""
    # It is grown before an ordinal passes (mask + 1) / 2: the narrowest type
    # that holds that ordinal.
    table = array("H" if mask < 2**16 else "I" if mask < 2**32 else "Q", [0]) * (mask + 1)
    for ordinal in range(1, len(hashes)):
        slot = hashes[ordinal] & mask
        while table[slot]:
            slot = (slot + 1) & mask
        table[slot] = ordinal
    return table


def parse_birthday(text: str) -> date | None:
    """ISO-8601 calendar date (YYYY-MM-DD), or None when the text is not one."""
    # Enough to leave only YYYY-MM-DD: none of the other forms fromisoformat
    # takes (20150101, 2015-W01-1, ...) is 10 characters long with "-" at
    # positions 4 and 7, and it takes ASCII digits only.
    if len(text) != 10 or text[4] != "-" or text[7] != "-":
        return None
    try:
        return date.fromisoformat(text)
    except ValueError:
        return None


def count_items(text: str | None) -> int:
    """Number of comma-separated non-empty items."""
    if not text:
        return 0
    return sum(1 for item in text.split(",") if item.strip())


_GENDERS = {"male": Gender.MALE.value, "female": Gender.FEMALE.value}


def _normalize_gender(text: str | None) -> str:
    """Male or Female for those words in any case, else Unspecified."""
    return _GENDERS.get((text or "").strip().lower(), Gender.UNSPECIFIED.value)


def rejection_reason(record: dict) -> str | None:
    """The record rule, shared by the profiles and the stage-file reader:
    the ``rejections.json`` reason of a decoded, type-checked record, or
    None. A record needs a non-blank about_me, both counts, no negative
    count (``activity_interest_count`` is in stage files only) and, if it
    has a birthday, a YYYY-MM-DD date."""
    get = record.get
    about_me = get("about_me")
    if about_me is None or not about_me.strip():
        return REASON_MISSING_TEXT
    wall_count, music_count = get("wall_count"), get("music_count")
    if wall_count is None or music_count is None:
        return REASON_MISSING_NUMERIC
    if wall_count < 0 or music_count < 0 or get("activity_interest_count", 0) < 0:
        return REASON_NEGATIVE_NUMERIC
    birthday = get("birthday")
    if birthday is not None and parse_birthday(birthday) is None:
        return REASON_BAD_BIRTHDAY
    return None


def validate_and_filter(records: list[dict]) -> tuple[list[dict], RejectionReport]:
    """Filter out the records ``rejection_reason`` gives a reason for; total
    over its input. Each accepted record becomes a stage-file record: the
    keys of ``STAGE_RECORD["ingest"]`` in order, absent ones left out, gender
    normalized (``_normalize_gender``) and activity_interest_count added."""
    accepted: list[dict] = []
    report = RejectionReport()
    for record in records:
        reason = rejection_reason(record)
        if reason is not None:
            report.rejected.append((record["id"], reason))
            continue
        get = {**record, "gender": _normalize_gender(record.get("gender")),
               "activity_interest_count": count_items(record.get("activities"))
               + count_items(record.get("interests"))}.get
        accepted.append({k: v for k in STAGE_RECORD["ingest"] if (v := get(k)) is not None})
    return accepted, report


# One C encoder for every record (JSONEncoder.encode builds one per call), from
# JSONEncoder(ensure_ascii=False)'s arguments but markers=None: records are flat.
if json.encoder.c_make_encoder is None:  # no _json module
    _encode_record = json.JSONEncoder(ensure_ascii=False).encode
else:
    _encode_chunks = json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, json.encoder.encode_basestring, None,
        ": ", ", ", False, False, True)  # separators, sort_keys, skipkeys, allow_nan
    def _encode_record(record: dict) -> str:
        return "".join(_encode_chunks(record, 0))  # a list, or a tuple on 3.12+


def persist_corpus(
    profiles: Iterable[dict],
    path: str | Path,
    prepare: Callable[[dict], None] | None = None,
    adds: Collection[str] = (),
) -> int:
    r"""Write the stage-file records as JSON lines, each as it is, atomically,
    one batch of records (``io_utils.batches``) at a time as ``profiles``
    yields them: for each record of a batch, ``prepare`` (a stage's work on
    one record, when given, which sets each key of ``adds``) runs and the
    record is encoded; then the batch is written. Returns the number of
    records written.

    Given a ``StageFile`` and ``adds`` (as ``classify`` and ``bin`` are), a
    record whose line held none of ``adds`` is written as that line up to
    its closing "}", then ", ", the added keys encoded by ``_encode_record``,
    "}" and "\n"; a record that held one is encoded whole. For a line
    ``_encode_record`` wrote, both give the same bytes; a hand-edited line
    keeps its own spacing, escapes, ``-0`` and repeated keys."""
    written = 0
    suffixes: dict = {}
    if adds and isinstance(profiles, StageFile):
        pairs, values_of = profiles.lines(), itemgetter(*adds)
    else:
        pairs = zip(profiles, repeat(None))

    def chunks() -> Iterator[str]:
        nonlocal written
        for batch in batches(pairs):
            text = []
            for profile, line in batch:
                size = len(profile)
                if prepare is not None:
                    prepare(profile)
                # prepare set every key of adds: the record grew by all of
                # them only if its line held none of them.
                if line is None or len(profile) - size != len(adds):
                    text.append(_encode_record(profile) + "\n")
                    continue
                values = values_of(profile)
                suffix = suffixes.get(values)
                if suffix is None:
                    added = {key: profile[key] for key in adds}
                    suffix = suffixes[values] = ", " + _encode_record(added)[1:] + "\n"
                text.append(line[:line.rindex("}")] + suffix)
            written += len(batch)
            yield "".join(text)

    atomic_write_text(path, chunks())
    return written


def check_stage_record(record: dict) -> None:
    """Refuse a decoded stage-file line that ingest, classify and bin could
    not have written. The checks run in this order and the first fault is
    raised: a key they never write (ValueError); id or about_me missing
    (KeyError) or not a string (TypeError); an empty id (ValueError); a count
    missing (KeyError) or not an integer (TypeError); an optional text that
    is not a string, null included (TypeError); a record ingest would reject
    (``rejection_reason``, ValueError); gender missing (KeyError); then
    gender and each class present, where a value outside its enumeration,
    null included, raises the enumeration's own error. An enumeration value
    is replaced by the enumeration's own equal string, which records share."""
    if not _STAGE_KEYS.issuperset(record):
        raise ValueError(f"unknown keys: {sorted(record.keys() - _STAGE_KEYS)}")
    if type(record["id"]) is not str or type(record["about_me"]) is not str:
        raise TypeError("id and about_me must be strings")
    if not record["id"]:
        raise ValueError("id must be a non-empty string")
    for key in _COUNT_KEYS:
        value = record[key]
        if type(value) is not int:
            raise TypeError(f"{key} must be an integer, got {value!r}")
    for key in _OPTIONAL_TEXT_KEYS:
        value = record.get(key, "")
        if type(value) is not str:
            raise TypeError(f"{key} must be a string, got {value!r}")
    reason = rejection_reason(record)
    if reason is not None:
        raise ValueError(f"ingest would reject it: {reason}")
    record["gender"] = _member_value("gender", record["gender"])
    for key in _CLASS_KEYS:
        if key in record:
            record[key] = _member_value(key, record[key])


def _member_value(key: str, value) -> str:
    """The value of ``FIELD_ENUMS[key]`` equal to ``value``, as the one string
    records share; any other value goes to the enumeration for its error."""
    try:
        return _FIELD_VALUES[key][value]
    except (KeyError, TypeError):
        return FIELD_ENUMS[key](value)._value_


class StageFile:
    """The records of a stage file, as ``load_corpus`` describes them, read
    anew by each iteration."""

    def __init__(self, path: str | Path):
        self.path = path

    def __iter__(self) -> Iterator[dict]:
        return map(itemgetter(0), self.lines())

    def lines(self) -> Iterator[tuple[dict, str]]:
        """Each checked record, paired with the line it was read from."""
        path = self.path
        for line_no, line in json_lines(path, "corpus "):
            try:
                record = json_object(line)
                check_stage_record(record)
                if line[0] != "{" or not line.endswith(("}\n", "}")):
                    raise ValueError("blanks outside the object")
            except KeyError as exc:  # check_stage_record raises it for a missing key only
                raise StorageError(f"corrupt corpus {path}:{line_no}: missing key {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise StorageError(f"corrupt corpus {path}:{line_no}: {exc}") from exc
            yield record, line


def load_corpus(path: str | Path) -> StageFile:
    """Read back a stage file one record at a time, through
    ``io_utils.json_lines``, yielding each decoded record as its line holds
    it, keys in the line's order. The file is opened when iteration starts.

    An unreadable file raises StorageError, and so does a line that
    ``io_utils.json_object`` or ``check_stage_record`` refuses (another key,
    a missing one, a value of another type or outside its enumeration, an
    empty id or a record ingest would reject), or that holds a blank before
    the object's "{" or after its "}" (checked last); the message names the
    path and the line. The first fault met in file order is the one reported.
    ``persist_corpus`` reads a ``StageFile`` by its ``lines``, so that it
    can write a line back as it was read.
    """
    return StageFile(path)
