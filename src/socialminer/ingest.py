"""Load raw profile records, validate them, and persist the accepted corpus.

Input is UTF-8 JSON lines, one flat object per line with the keys
id, birthday, about_me, activities, gender, interests, wall_count,
political, music_count. Absent keys (or JSON null) mean the attribute is
missing. The persisted corpus uses the same notation plus the derived
fields, is written atomically, and holds no other key when read back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

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

# The keys of a stage-file record beside id, about_me and gender, in the
# order of Profile's fields.
_COUNT_KEYS = ("wall_count", "music_count", "activity_interest_count")
_OPTIONAL_TEXT_KEYS = ("birthday", "activities", "interests", "political")
_CLASS_KEYS = {"about_me_class": ClassLabel, "age_range": AgeRange, "wall_count_class": WallCountClass,
               "music_share_class": ShareClass, "activity_interest_class": ShareClass}
_STAGE_KEYS = frozenset(("id", "about_me", "gender", *_COUNT_KEYS, *_OPTIONAL_TEXT_KEYS, *_CLASS_KEYS))


@dataclass(frozen=True)
class ParseIssue:
    """One malformed input line, kept for reporting instead of being dropped."""

    line_no: int
    message: str


@dataclass
class Profile:
    """An accepted record plus the fields later stages fill in."""

    record_id: str
    about_me: str
    gender: Gender
    wall_count: int
    music_count: int
    activity_interest_count: int
    birthday: Optional[str] = None
    activities: Optional[str] = None
    interests: Optional[str] = None
    political: Optional[str] = None
    about_me_class: Optional[ClassLabel] = None
    age_range: Optional[AgeRange] = None
    wall_count_class: Optional[WallCountClass] = None
    music_share_class: Optional[ShareClass] = None
    activity_interest_class: Optional[ShareClass] = None

    def to_record(self) -> dict:
        """The persisted form, in a fixed key order. Absent optional fields are
        left out and enum members become their values (read from ``_value_``,
        which skips the ``value`` property's descriptor call)."""
        record = {"id": self.record_id}
        if self.birthday is not None:
            record["birthday"] = self.birthday
        record["about_me"] = self.about_me
        if self.activities is not None:
            record["activities"] = self.activities
        record["gender"] = self.gender._value_
        if self.interests is not None:
            record["interests"] = self.interests
        record["wall_count"] = self.wall_count
        if self.political is not None:
            record["political"] = self.political
        record["music_count"] = self.music_count
        record["activity_interest_count"] = self.activity_interest_count
        for key, member in (
            ("about_me_class", self.about_me_class),
            ("age_range", self.age_range),
            ("wall_count_class", self.wall_count_class),
            ("music_share_class", self.music_share_class),
            ("activity_interest_class", self.activity_interest_class),
        ):
            if member is not None:
                record[key] = member._value_
        return record

    @classmethod
    def from_record(cls, record: dict) -> "Profile":
        """Inverse of ``to_record``. A key ``to_record`` never writes raises
        ValueError, a missing key KeyError, a value of the wrong type
        TypeError, and a value outside its enumeration (null included), an
        empty id or a record ingest would reject (``rejection_reason``)
        ValueError."""
        if not _STAGE_KEYS.issuperset(record):
            raise ValueError(f"unknown keys: {sorted(record.keys() - _STAGE_KEYS)}")
        if type(record["id"]) is not str or type(record["about_me"]) is not str:
            raise TypeError("id and about_me must be strings")
        if not record["id"]:
            raise ValueError("id must be a non-empty string")
        fields = []  # the fields after gender, in order
        for key in _COUNT_KEYS:
            value = record[key]
            if type(value) is not int:
                raise TypeError(f"{key} must be an integer, got {value!r}")
            fields.append(value)
        get = record.get
        for key in _OPTIONAL_TEXT_KEYS:
            value = get(key)
            if value is not None and type(value) is not str:
                raise TypeError(f"{key} must be a string, got {value!r}")
            fields.append(value)
        reason = rejection_reason(record)
        if reason is not None:
            raise ValueError(f"ingest would reject it: {reason}")
        gender = _decode(Gender, record["gender"])
        for key, enum_type in _CLASS_KEYS.items():
            fields.append(_decode(enum_type, record[key]) if key in record else None)
        return cls(record["id"], record["about_me"], gender, *fields)


_MEMBERS = {
    enum_type: {member.value: member for member in enum_type}
    for enum_type in (Gender, ClassLabel, AgeRange, WallCountClass, ShareClass)
}


def _decode(enum_type, value):
    """``enum_type(value)``, looked up in a value table first; a miss (an
    unknown, null or unhashable value) goes to ``enum_type`` for its error."""
    try:
        return _MEMBERS[enum_type][value]
    except (KeyError, TypeError):
        return enum_type(value)


@dataclass
class RejectionReport:
    """The (id, reason) of each record ``validate_and_filter`` filtered out.
    Totality: with the profiles it accepted, they are all of its input."""

    rejected: list[tuple[str, str]] = field(default_factory=list)


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
    raises DuplicateIdError when its line is reached.
    """
    issues: list[ParseIssue] = []
    return _parse_lines(path, issues), issues


def _parse_lines(path: str | Path, issues: list[ParseIssue]) -> Iterator[dict]:
    seen: set[str] = set()
    for line_no, line in json_lines(path):
        try:
            record = _parse_record_line(line)
        except ValueError as exc:
            issues.append(ParseIssue(line_no, str(exc)))
            continue
        record_id = record["id"]
        if record_id in seen:
            raise DuplicateIdError(f"duplicate record id {record_id!r} at line {line_no}")
        seen.add(record_id)
        yield record


def parse_birthday(text: str) -> Optional[date]:
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


def count_items(text: Optional[str]) -> int:
    """Number of comma-separated non-empty items."""
    if not text:
        return 0
    return sum(1 for item in text.split(",") if item.strip())


def _normalize_gender(text: Optional[str]) -> Gender:
    lowered = (text or "").strip().lower()
    if lowered == "male":
        return Gender.MALE
    if lowered == "female":
        return Gender.FEMALE
    return Gender.UNSPECIFIED


def rejection_reason(record: dict) -> Optional[str]:
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


def validate_and_filter(records: list[dict]) -> tuple[list[Profile], RejectionReport]:
    """Filter out the records ``rejection_reason`` gives a reason for; total
    over its input. Gender is normalized case-insensitively; anything that
    is not male or female becomes Unspecified."""
    accepted: list[Profile] = []
    report = RejectionReport()
    for record in records:
        reason = rejection_reason(record)
        if reason is not None:
            report.rejected.append((record["id"], reason))
            continue
        get = record.get
        activities, interests = get("activities"), get("interests")
        accepted.append(
            Profile(
                record_id=record["id"],
                about_me=record["about_me"],
                gender=_normalize_gender(get("gender")),
                wall_count=record["wall_count"],
                music_count=record["music_count"],
                activity_interest_count=count_items(activities) + count_items(interests),
                birthday=get("birthday"),
                activities=activities,
                interests=interests,
                political=get("political"),
            )
        )
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
    profiles: Iterable[Profile],
    path: str | Path,
    prepare: Optional[Callable[[Profile], None]] = None,
) -> int:
    """Write the corpus as JSON lines, atomically, one batch of records
    (``io_utils.batches``) at a time as ``profiles`` yields them: a batch is
    read, then ``prepare`` (a stage's work on one record, when given) runs on
    each of its records, then the batch is encoded and written. Returns the
    number of records written."""
    written = 0

    def chunks() -> Iterator[str]:
        nonlocal written
        for batch in batches(profiles):
            if prepare is not None:
                for profile in batch:
                    prepare(profile)
            written += len(batch)
            yield "".join([_encode_record(profile.to_record()) + "\n" for profile in batch])

    atomic_write_text(path, chunks())
    return written


def load_corpus(path: str | Path) -> Iterator[Profile]:
    """Read back a persisted corpus one record at a time, through
    ``io_utils.json_lines``, reproducing the profiles exactly. The file is
    opened by the first ``next``.

    An unreadable file raises StorageError, and so does a line that
    ``io_utils.json_object`` refuses or that ``Profile.from_record`` refuses
    (another key, a missing one, a value of another type or outside its
    enumeration, an empty id or a record ingest would reject); the message
    names the path and the line. The first fault met in file order is the
    one reported.
    """
    for line_no, line in json_lines(path, "corpus "):
        try:
            profile = Profile.from_record(json_object(line))
        except (KeyError, TypeError, ValueError) as exc:
            raise StorageError(f"corrupt corpus {path}:{line_no}: {exc}") from exc
        yield profile
