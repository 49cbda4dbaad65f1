"""Map numeric profile attributes to named group classes and ages to ranges."""

from __future__ import annotations

from datetime import date
from enum import Enum

from .errors import DomainError


class WallCountClass(str, Enum):
    VERY_LOW = "VeryLow"
    LOW = "Low"
    MEDIUM = "Medium"
    HIGH = "High"
    VERY_HIGH = "VeryHigh"


class ShareClass(str, Enum):
    LOW = "Low"
    MEDIUM = "Medium"
    HIGH = "High"


class AgeRange(str, Enum):
    UP_TO_19 = "UpTo19"
    FROM_20_TO_32 = "From20To32"
    FROM_33_TO_45 = "From33To45"
    OVER_45 = "Over45"
    HIDDEN = "Hidden"


class GapPolicy(str, Enum):
    """Where the published share ranges leave the value 5 unassigned, this
    decides which neighboring bucket absorbs it."""

    FIVE_IS_LOW = "five_is_low"
    FIVE_IS_MEDIUM = "five_is_medium"


def _require_non_negative(n: int) -> None:
    if n < 0:
        raise DomainError(f"count must be >= 0, got {n}")


def bin_wall_count(n: int) -> WallCountClass:
    """<10 VeryLow, 10-50 Low, 51-100 Medium, 101-200 High, >200 VeryHigh."""
    _require_non_negative(n)
    if n < 10:
        return WallCountClass.VERY_LOW
    if n <= 50:
        return WallCountClass.LOW
    if n <= 100:
        return WallCountClass.MEDIUM
    if n <= 200:
        return WallCountClass.HIGH
    return WallCountClass.VERY_HIGH


def bin_music_share(n: int, policy: GapPolicy = GapPolicy.FIVE_IS_LOW) -> ShareClass:
    """<5 Low, 6-15 Medium, >15 High; the gap value 5 follows ``policy``."""
    _require_non_negative(n)
    if n < 5:
        return ShareClass.LOW
    if n == 5:
        return ShareClass.LOW if policy is GapPolicy.FIVE_IS_LOW else ShareClass.MEDIUM
    if n <= 15:
        return ShareClass.MEDIUM
    return ShareClass.HIGH


def bin_activities_interests(
    n: int, policy: GapPolicy = GapPolicy.FIVE_IS_LOW
) -> ShareClass:
    """Same published ranges as the music share classes."""
    return bin_music_share(n, policy)


def age_from_birthday(birthday: date | None, reference: date) -> int | None:
    """Completed years between birthday and reference; None stays None."""
    if birthday is None:
        return None
    if birthday > reference:
        raise DomainError(f"birthday {birthday} is after reference date {reference}")
    completed = reference.year - birthday.year
    if (reference.month, reference.day) < (birthday.month, birthday.day):
        completed -= 1
    return completed


def age_range(age: int | None) -> AgeRange:
    """<=19, 20-32, 33-45, >45, or Hidden when the age is unknown."""
    if age is None:
        return AgeRange.HIDDEN
    if age < 0:
        raise DomainError(f"age must be >= 0, got {age}")
    if age <= 19:
        return AgeRange.UP_TO_19
    if age <= 32:
        return AgeRange.FROM_20_TO_32
    if age <= 45:
        return AgeRange.FROM_33_TO_45
    return AgeRange.OVER_45
