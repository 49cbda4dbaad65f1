"""ARFF reader for the subset that ``socialminer.arff.emit_arff`` writes,
kept as the round-trip oracle: tests parse emitted text back and compare it
with the dataset it came from. The pipeline itself never reads ARFF.

It accepts only that grammar, plus '%' comment lines and blank lines.
"""

from __future__ import annotations

import re
from typing import Optional, Sequence

from socialminer.arff import NOMINAL, NUMERIC, STRING, ArffAttribute, ArffDataset
from socialminer.errors import SocialMinerError

_INT_PATTERN = re.compile(r"^[+-]?\d+$")


class ArffParseError(SocialMinerError):
    """ARFF text does not conform to the supported grammar subset."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


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
