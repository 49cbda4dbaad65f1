"""Load raw profile records, validate them, and persist the accepted corpus.

Input is UTF-8 JSON lines, one flat object per line with the keys
id, birthday, about_me, activities, gender, interests, wall_count,
political, music_count. Absent keys (or JSON null) mean the attribute is
missing. The persisted corpus uses the same notation plus the derived
fields, is written atomically, and holds no other key when read back.
"""

from __future__ import annotations

import json
import re
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
_ISO_DATE = re.compile(r"^\d{4}-\d{2}-\d{2}$")

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
class RawProfile:
    """One input record exactly as parsed; nothing validated beyond types."""

    record_id: str
    birthday: Optional[str] = None
    about_me: Optional[str] = None
    activities: Optional[str] = None
    gender: Optional[str] = None
    interests: Optional[str] = None
    wall_count: Optional[int] = None
    political: Optional[str] = None
    music_count: Optional[int] = None


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
        TypeError, and a value outside its enumeration (null included)
        ValueError."""
        if not _STAGE_KEYS.issuperset(record):
            raise ValueError(f"unknown keys: {sorted(record.keys() - _STAGE_KEYS)}")
        if type(record["id"]) is not str or type(record["about_me"]) is not str:
            raise TypeError("id and about_me must be strings")
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
    """Which records were filtered out and why. Totality: accepted plus
    rejected equals the number of input records."""

    rejected: list[tuple[str, str]] = field(default_factory=list)
    accepted_count: int = 0

    @property
    def rejected_count(self) -> int:
        return len(self.rejected)

    def to_record(self) -> dict:
        return {
            "accepted_count": self.accepted_count,
            "rejected_count": self.rejected_count,
            "rejected": [
                {"id": record_id, "reason": reason} for record_id, reason in self.rejected
            ],
        }


def _parse_record_line(line: str) -> RawProfile:
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
    record["record_id"] = record.pop("id")
    return RawProfile(**record)


def load_profiles(path: str | Path) -> tuple[Iterator[RawProfile], list[ParseIssue]]:
    """Parse a JSON-lines file of records into RawProfiles, in input order,
    one line at a time through ``io_utils.json_lines``.

    Returns an iterator of the profiles and the list of ParseIssues, which
    fills as the iterator is consumed: lines that ``io_utils.json_object``
    refuses, or that hold other keys or types, become ParseIssues with their
    line number. The file is opened by the first ``next``; there an
    unreadable path raises StorageError. A duplicate id anywhere in the file
    raises DuplicateIdError when its line is reached.
    """
    issues: list[ParseIssue] = []
    return _parse_lines(path, issues), issues


def _parse_lines(path: str | Path, issues: list[ParseIssue]) -> Iterator[RawProfile]:
    seen: set[str] = set()
    for line_no, line in json_lines(path):
        try:
            raw = _parse_record_line(line)
        except ValueError as exc:
            issues.append(ParseIssue(line_no, str(exc)))
            continue
        if raw.record_id in seen:
            raise DuplicateIdError(f"duplicate record id {raw.record_id!r} at line {line_no}")
        seen.add(raw.record_id)
        yield raw


def parse_birthday(text: str) -> Optional[date]:
    """ISO-8601 calendar date, or None when the text is not one."""
    if not _ISO_DATE.match(text):
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


def _rejection_reason(raw: RawProfile) -> Optional[str]:
    if raw.about_me is None or not raw.about_me.strip():
        return REASON_MISSING_TEXT
    if raw.wall_count is None or raw.music_count is None:
        return REASON_MISSING_NUMERIC
    if raw.wall_count < 0 or raw.music_count < 0:
        return REASON_NEGATIVE_NUMERIC
    if raw.birthday is not None and parse_birthday(raw.birthday) is None:
        return REASON_BAD_BIRTHDAY
    return None


def validate_and_filter(
    raws: list[RawProfile],
) -> tuple[list[Profile], RejectionReport]:
    """Filter out erroneous and missing records; total over its input.

    A record is accepted when it has a non-blank about_me, both numeric
    counts present and non-negative, and a parseable birthday if one was
    given at all. Gender is normalized case-insensitively; anything that is
    not male or female becomes Unspecified.
    """
    accepted: list[Profile] = []
    report = RejectionReport()
    for raw in raws:
        reason = _rejection_reason(raw)
        if reason is not None:
            report.rejected.append((raw.record_id, reason))
            continue
        accepted.append(
            Profile(
                record_id=raw.record_id,
                about_me=raw.about_me,
                gender=_normalize_gender(raw.gender),
                wall_count=raw.wall_count,
                music_count=raw.music_count,
                activity_interest_count=count_items(raw.activities)
                + count_items(raw.interests),
                birthday=raw.birthday,
                activities=raw.activities,
                interests=raw.interests,
                political=raw.political,
            )
        )
    report.accepted_count = len(accepted)
    return accepted, report


# One encoder for every record; json.dumps would build a new one per call.
_encode_record = json.JSONEncoder(ensure_ascii=False).encode


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
    (another key, a missing one, or a value of another type or outside its
    enumeration); the message names the path and the line. The first fault
    met in file order is the one reported.
    """
    for line_no, line in json_lines(path, "corpus "):
        try:
            profile = Profile.from_record(json_object(line))
        except (KeyError, TypeError, ValueError) as exc:
            raise StorageError(f"corrupt corpus {path}:{line_no}: {exc}") from exc
        yield profile
