"""Build and emit ARFF datasets.

The emitter produces exactly one grammar: an @relation line, one @attribute
line per column (nominal domains in braces), @data, then one comma-separated
row per tuple with "?" for missing values. Values containing a comma, space,
quote or other reserved character are wrapped in single quotes with internal
quotes and backslashes escaped. Lines end with LF.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import itemgetter

from .errors import ArffEncodeError
from .ingest import FIELD_ENUMS

NUMERIC = "numeric"
NOMINAL = "nominal"
STRING = "string"

_QUOTE_TRIGGERS = set(",' \t{}%")


# One typed column. ``domain`` applies to nominal attributes only.
ArffAttribute = namedtuple("ArffAttribute", "name kind domain", defaults=((),))


class ArffDataset:
    """A relation, its columns and its rows (a new empty list if not given)."""

    def __init__(self, relation: str, attributes: list[ArffAttribute],
                 rows: list[tuple] | None = None) -> None:
        self.relation, self.attributes = relation, attributes
        self.rows = [] if rows is None else rows

    def __eq__(self, other) -> bool:
        return vars(self) == vars(other) if type(other) is ArffDataset else NotImplemented


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
    elif attr.kind == NOMINAL:
        if not attr.domain:
            raise ArffEncodeError(f"attribute {attr.name!r}: empty nominal domain")
        if len(set(attr.domain)) != len(attr.domain):
            raise ArffEncodeError(f"attribute {attr.name!r}: duplicate nominal values")
        kind = "{" + ",".join(_format_field(v) for v in attr.domain) + "}"
    else:
        raise ArffEncodeError(f"attribute {attr.name!r}: unknown kind {attr.kind!r}")
    return f"@attribute {_format_field(attr.name)} {kind}"


def emit_arff(ds: ArffDataset, first_row: int = 1) -> str:
    """Serialize a dataset; raises ArffEncodeError when invariants fail.

    Rows are numbered from ``first_row``; only the text from row 1 starts
    with the header, so a file can be emitted one batch of rows at a time.

    Each nominal domain value is formatted once per attribute; a text cell
    found in its attribute's table is emitted by lookup, and every other
    cell is checked and formatted by ``_format_value``.
    """
    lines = []
    if first_row == 1:
        if not ds.relation:
            raise ArffEncodeError("relation name must be non-empty")
        lines.append(f"@relation {_format_field(ds.relation)}")
        lines.extend(_attribute_line(attr) for attr in ds.attributes)
        lines.append("@data")
    columns = [
        (attr, {v: _format_field(v) for v in attr.domain} if attr.kind == NOMINAL else {})
        for attr in ds.attributes
    ]
    width = len(columns)
    for row_no, row in enumerate(ds.rows, start=first_row):
        if len(row) != width:
            raise ArffEncodeError(f"row {row_no}: {len(row)} values for {width} attributes")
        cells = []
        for value, (attr, formatted) in zip(row, columns):
            text = formatted.get(value) if type(value) is str else None
            cells.append(text if text is not None else _format_value(value, attr, row_no))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n" if lines else ""


PROFILE_RELATION = "social_profiles"
# The columns of the profile dataset, in order; one whose kind in
# ``ingest.STAGE_RECORD`` is an enumeration is nominal over its values.
PROFILE_COLUMNS = (
    "age_range", "gender", "about_me_class", "wall_count", "wall_count_class", "music_count",
    "music_share_class", "activity_interest_count", "activity_interest_class",
)


def build_dataset(profiles) -> ArffDataset:
    """Fixed 9-attribute dataset over classified, binned profiles, one row
    per profile in corpus order."""
    values_of, rows = itemgetter(*PROFILE_COLUMNS), []
    for profile in profiles:
        try:
            rows.append(values_of(profile))
        except KeyError:
            raise ArffEncodeError(
                f"profile {profile['id']!r} is not fully classified and binned"
            ) from None
    attributes = [
        ArffAttribute(name, NOMINAL, tuple(member.value for member in FIELD_ENUMS[name]))
        if name in FIELD_ENUMS else ArffAttribute(name, NUMERIC)
        for name in PROFILE_COLUMNS
    ]
    return ArffDataset(PROFILE_RELATION, attributes, rows)
