"""Build, emit and parse ARFF datasets.

The emitter produces exactly one grammar: an @relation line, one @attribute
line per column (nominal domains in braces), @data, then one comma-separated
row per tuple with "?" for missing values. Values containing a comma, space,
quote or other reserved character are wrapped in single quotes with internal
quotes and backslashes escaped. Lines end with LF.

The parser accepts only that subset (plus '%' comment lines and blanks) and
exists so emitted files can be verified by round-trip.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .binning import AgeRange, ShareClass, WallCountClass
from .errors import ArffEncodeError, ArffParseError
from .ingest import Gender
from .knn import ClassLabel

NUMERIC = "numeric"
NOMINAL = "nominal"
STRING = "string"
DATE = "date"

_INT_PATTERN = re.compile(r"^[+-]?\d+$")
_QUOTE_TRIGGERS = set(",' \t{}%")


@dataclass(frozen=True)
class ArffAttribute:
    """One typed column. ``domain`` applies to nominal attributes only,
    ``date_format`` to date attributes only."""

    name: str
    kind: str
    domain: tuple[str, ...] = ()
    date_format: str = ""


@dataclass
class ArffDataset:
    relation: str
    attributes: list[ArffAttribute]
    rows: list[tuple] = field(default_factory=list)


def _needs_quoting(value: str) -> bool:
    return value == "" or value == "?" or any(c in _QUOTE_TRIGGERS for c in value)


def _format_field(value: str) -> str:
    if _needs_quoting(value):
        return "'" + value.replace("\\", "\\\\").replace("'", "\\'") + "'"
    return value


def _format_value(value, attr: ArffAttribute, row_no: int) -> str:
    if value is None:
        return "?"
    if attr.kind == NUMERIC:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _cell_error(attr, row_no, f"numeric value expected, got {value!r}")
        if isinstance(value, float):
            if not math.isfinite(value):
                raise _cell_error(attr, row_no, "non-finite numeric value")
            return repr(value)
        return str(value)
    if not isinstance(value, str):
        raise _cell_error(attr, row_no, f"expected text, got {value!r}")
    if attr.kind == NOMINAL and value not in attr.domain:
        raise _cell_error(attr, row_no, f"{value!r} not in nominal domain")
    return _format_field(value)


def _cell_error(attr: ArffAttribute, row_no: int, problem: str) -> ArffEncodeError:
    return ArffEncodeError(f"row {row_no}, column {attr.name!r}: {problem}")


def _attribute_line(attr: ArffAttribute) -> str:
    if not attr.name:
        raise ArffEncodeError("attribute name must be non-empty")
    if attr.kind == NUMERIC:
        kind = "numeric"
    elif attr.kind == STRING:
        kind = "string"
    elif attr.kind == DATE:
        kind = "date" + (f" {_format_field(attr.date_format)}" if attr.date_format else "")
    elif attr.kind == NOMINAL:
        if not attr.domain:
            raise ArffEncodeError(f"attribute {attr.name!r}: empty nominal domain")
        if len(set(attr.domain)) != len(attr.domain):
            raise ArffEncodeError(f"attribute {attr.name!r}: duplicate nominal values")
        kind = "{" + ",".join(_format_field(v) for v in attr.domain) + "}"
    else:
        raise ArffEncodeError(f"attribute {attr.name!r}: unknown kind {attr.kind!r}")
    return f"@attribute {_format_field(attr.name)} {kind}"


def emit_arff(ds: ArffDataset) -> str:
    """Serialize a dataset; raises ArffEncodeError when invariants fail.

    Each nominal domain value is formatted once per attribute; a text cell
    found in its attribute's table is emitted by lookup, and every other
    cell is checked and formatted by ``_format_value``.
    """
    if not ds.relation:
        raise ArffEncodeError("relation name must be non-empty")
    lines = [f"@relation {_format_field(ds.relation)}"]
    lines.extend(_attribute_line(attr) for attr in ds.attributes)
    lines.append("@data")
    columns = [
        (attr, {v: _format_field(v) for v in attr.domain} if attr.kind == NOMINAL else {})
        for attr in ds.attributes
    ]
    width = len(columns)
    for row_no, row in enumerate(ds.rows, start=1):
        if len(row) != width:
            raise ArffEncodeError(f"row {row_no}: {len(row)} values for {width} attributes")
        cells = []
        for value, (attr, formatted) in zip(row, columns):
            text = formatted.get(value) if type(value) is str else None
            cells.append(text if text is not None else _format_value(value, attr, row_no))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _scan_field(text: str, i: int, line_no: int, stops: str) -> tuple[str, int, bool]:
    """Read one field starting at ``i``: quoted with backslash escapes, or
    raw up to the next stop character. Returns (value, next index, quoted)."""
    if i < len(text) and text[i] == "'":
        out = []
        i += 1
        while i < len(text):
            ch = text[i]
            if ch == "\\":
                if i + 1 >= len(text):
                    raise ArffParseError(line_no, "dangling escape")
                out.append(text[i + 1])
                i += 2
                continue
            if ch == "'":
                return "".join(out), i + 1, True
            out.append(ch)
            i += 1
        raise ArffParseError(line_no, "unterminated quoted value")
    j = i
    while j < len(text) and text[j] not in stops:
        j += 1
    return text[i:j].strip(), j, False


def _typed_value(raw: str, quoted: bool, attr: ArffAttribute, line_no: int):
    if not quoted and raw == "?":
        return None
    if attr.kind == NUMERIC:
        if _INT_PATTERN.match(raw):
            return int(raw)
        try:
            return float(raw)
        except ValueError:
            raise ArffParseError(line_no, f"bad numeric value {raw!r}")
    if attr.kind == NOMINAL and raw not in attr.domain:
        raise ArffParseError(line_no, f"{raw!r} not in domain of {attr.name!r}")
    return raw


def _parse_attribute(rest: str, line_no: int) -> ArffAttribute:
    name, i, _ = _scan_field(rest, 0, line_no, " \t")
    while i < len(rest) and rest[i] in " \t":
        i += 1
    spec = rest[i:].strip()
    if not name:
        raise ArffParseError(line_no, "attribute name missing")
    if not spec:
        raise ArffParseError(line_no, "attribute type missing")
    if spec.startswith("{"):
        domain: list[str] = []
        j = 1
        while True:
            while j < len(spec) and spec[j] in " \t":
                j += 1
            value, j, _ = _scan_field(spec, j, line_no, ",}")
            domain.append(value)
            while j < len(spec) and spec[j] in " \t":
                j += 1
            if j >= len(spec):
                raise ArffParseError(line_no, "unterminated nominal domain")
            if spec[j] == "}":
                if spec[j + 1 :].strip():
                    raise ArffParseError(line_no, "trailing text after nominal domain")
                break
            j += 1
        if len(set(domain)) != len(domain):
            raise ArffParseError(line_no, "duplicate nominal values")
        return ArffAttribute(name, NOMINAL, tuple(domain))
    word, rest_i, _ = _scan_field(spec, 0, line_no, " \t")
    keyword = word.lower()
    tail = spec[rest_i:].strip()
    if keyword in ("numeric", "real", "integer"):
        if tail:
            raise ArffParseError(line_no, "unexpected text after numeric type")
        return ArffAttribute(name, NUMERIC)
    if keyword == "string":
        if tail:
            raise ArffParseError(line_no, "unexpected text after string type")
        return ArffAttribute(name, STRING)
    if keyword == "date":
        fmt = ""
        if tail:
            fmt, end, _ = _scan_field(tail, 0, line_no, " \t")
            if tail[end:].strip():
                raise ArffParseError(line_no, "unexpected text after date format")
        return ArffAttribute(name, DATE, date_format=fmt)
    raise ArffParseError(line_no, f"unknown attribute kind {word!r}")


def _parse_row(line: str, line_no: int, attributes: Sequence[ArffAttribute]) -> tuple:
    values = []
    i = 0
    for idx, attr in enumerate(attributes):
        if idx > 0:
            if i >= len(line) or line[i] != ",":
                raise ArffParseError(
                    line_no, f"{idx} values for {len(attributes)} attributes"
                )
            i += 1
        while i < len(line) and line[i] == " ":
            i += 1
        raw, i, quoted = _scan_field(line, i, line_no, ",")
        values.append(_typed_value(raw, quoted, attr, line_no))
        while i < len(line) and line[i] == " ":
            i += 1
    if i != len(line):
        raise ArffParseError(line_no, "more values than attributes")
    return tuple(values)


def parse_arff(text: str) -> ArffDataset:
    """Parse ARFF text produced by emit_arff (or hand-written in the same
    subset). Comment lines starting with '%' and blank lines are skipped."""
    relation: Optional[str] = None
    attributes: list[ArffAttribute] = []
    rows: list[tuple] = []
    in_data = False
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("%"):
            continue
        if in_data:
            rows.append(_parse_row(line.rstrip(), line_no, attributes))
            continue
        lowered = stripped.lower()
        if lowered.startswith("@relation"):
            if relation is not None:
                raise ArffParseError(line_no, "duplicate @relation")
            rest = stripped[len("@relation") :].strip()
            relation, end, _ = _scan_field(rest, 0, line_no, " \t")
            if not relation or rest[end:].strip():
                raise ArffParseError(line_no, "malformed @relation line")
        elif lowered.startswith("@attribute"):
            if relation is None:
                raise ArffParseError(line_no, "@attribute before @relation")
            attributes.append(
                _parse_attribute(stripped[len("@attribute") :].strip(), line_no)
            )
        elif lowered == "@data":
            if relation is None or not attributes:
                raise ArffParseError(line_no, "@data before a complete header")
            in_data = True
        else:
            raise ArffParseError(line_no, f"unexpected line {stripped[:40]!r}")
    if not in_data:
        raise ArffParseError(len(text.splitlines()) + 1, "missing @data section")
    return ArffDataset(relation, attributes, rows)


PROFILE_RELATION = "social_profiles"


def _profile_attributes() -> list[ArffAttribute]:
    share = tuple(v.value for v in ShareClass)
    return [
        ArffAttribute("age_range", NOMINAL, tuple(v.value for v in AgeRange)),
        ArffAttribute("gender", NOMINAL, tuple(v.value for v in Gender)),
        ArffAttribute("about_me_class", NOMINAL, tuple(v.value for v in ClassLabel)),
        ArffAttribute("wall_count", NUMERIC),
        ArffAttribute("wall_count_class", NOMINAL, tuple(v.value for v in WallCountClass)),
        ArffAttribute("music_count", NUMERIC),
        ArffAttribute("music_share_class", NOMINAL, share),
        ArffAttribute("activity_interest_count", NUMERIC),
        ArffAttribute("activity_interest_class", NOMINAL, share),
    ]


def build_dataset(profiles) -> ArffDataset:
    """Fixed 9-attribute dataset over classified, binned profiles, one row
    per profile in corpus order."""
    rows = []
    for profile in profiles:
        derived = (
            profile.age_range,
            profile.about_me_class,
            profile.wall_count_class,
            profile.music_share_class,
            profile.activity_interest_class,
        )
        if any(v is None for v in derived):
            raise ArffEncodeError(
                f"profile {profile.record_id!r} is not fully classified and binned"
            )
        # _value_ is the member's value without the value property's call.
        rows.append(
            (
                profile.age_range._value_,
                profile.gender._value_,
                profile.about_me_class._value_,
                profile.wall_count,
                profile.wall_count_class._value_,
                profile.music_count,
                profile.music_share_class._value_,
                profile.activity_interest_count,
                profile.activity_interest_class._value_,
            )
        )
    return ArffDataset(PROFILE_RELATION, _profile_attributes(), rows)
