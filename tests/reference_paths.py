"""The per-character, per-item and whole-file definitions that the package's
fast and streamed paths replaced, kept as test references. Each replacement
must agree with its reference here: same values, same bytes, same errors."""

from __future__ import annotations

import json
import math
import re
from datetime import date
from pathlib import Path
from typing import Optional

from socialminer.arff import NOMINAL, NUMERIC, ArffAttribute, ArffDataset, _attribute_line, _format_field
from socialminer.errors import ArffEncodeError, CorpusError, DuplicateIdError, StorageError
from socialminer.features import term_counts
from socialminer.ingest import ParseIssue, _parse_record_line, check_stage_record
from socialminer.io_utils import atomic_write_text
from socialminer.knn import ClassLabel, DistanceRow, SampleDocument
from socialminer.textprep import DEFAULT_STOPWORDS


def normalize_text(raw: str) -> str:
    lowered = raw.lower()
    cleaned = "".join(ch if ch.isalnum() else " " for ch in lowered)
    return " ".join(cleaned.split())


def prepare(raw: str, stops: frozenset[str] = DEFAULT_STOPWORDS) -> list[str]:
    return [t for t in normalize_text(raw).split() if t not in stops]


def select_features(tf, n: int) -> list[str]:
    ranked = sorted(tf.items(), key=lambda kv: (-kv[1], kv[0]))
    return [term for term, _ in ranked[:n]]


def knn_classify(dm: list[DistanceRow], k: int) -> tuple[ClassLabel, list[DistanceRow]]:
    nearest = sorted(dm, key=lambda r: (r.distance, r.doc_id))[:k]
    votes: dict[ClassLabel, int] = {}
    summed: dict[ClassLabel, float] = {}
    for row in nearest:
        votes[row.label] = votes.get(row.label, 0) + 1
        summed[row.label] = summed.get(row.label, 0.0) + row.distance
    top = max(votes.values())
    tied = [label for label, n in votes.items() if n == top]
    winner = min(tied, key=lambda label: (summed[label], label.value))
    return winner, nearest


_ISO_DATE = re.compile(r"^\d{4}-\d{2}-\d{2}$")


def parse_birthday(text: str) -> Optional[date]:
    """``ingest.parse_birthday``: a regex match, then ``date.fromisoformat``."""
    if not _ISO_DATE.match(text):
        return None
    try:
        return date.fromisoformat(text)
    except ValueError:
        return None


# Every key of a stage-file record, in the order ingest, classify and bin
# write them (README, "Input formats").
STAGE_KEY_ORDER = (
    "id", "birthday", "about_me", "activities", "gender", "interests", "wall_count", "political",
    "music_count", "activity_interest_count", "about_me_class", "age_range", "wall_count_class",
    "music_share_class", "activity_interest_class",
)


def stage_record(record_id, about_me, gender, wall_count, music_count, activity_interest_count,
                 **optional) -> dict:
    """A stage-file record as the stages write it: its keys in
    ``STAGE_KEY_ORDER``, those given as None left out, enum members as their
    values."""
    fields = {"id": record_id, "about_me": about_me, "gender": gender, "wall_count": wall_count,
              "music_count": music_count, "activity_interest_count": activity_interest_count,
              **optional}
    assert fields.keys() <= set(STAGE_KEY_ORDER), fields.keys() - set(STAGE_KEY_ORDER)
    return {key: getattr(fields[key], "value", fields[key])
            for key in STAGE_KEY_ORDER if fields.get(key) is not None}


def _format_value(value, attr: ArffAttribute, row_no: int) -> str:
    where = f"row {row_no}, column {attr.name!r}"
    if value is None:
        return "?"
    if attr.kind == NUMERIC:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ArffEncodeError(f"{where}: numeric value expected, got {value!r}")
        if isinstance(value, float):
            if not math.isfinite(value):
                raise ArffEncodeError(f"{where}: non-finite numeric value")
            return repr(value)
        return str(value)
    if not isinstance(value, str):
        raise ArffEncodeError(f"{where}: expected text, got {value!r}")
    if attr.kind == NOMINAL and value not in attr.domain:
        raise ArffEncodeError(f"{where}: {value!r} not in nominal domain")
    return _format_field(value)


def emit_arff(ds: ArffDataset) -> str:
    """Every cell formatted on its own."""
    if not ds.relation:
        raise ArffEncodeError("relation name must be non-empty")
    lines = [f"@relation {_format_field(ds.relation)}"]
    lines.extend(_attribute_line(attr) for attr in ds.attributes)
    lines.append("@data")
    for row_no, row in enumerate(ds.rows, start=1):
        if len(row) != len(ds.attributes):
            raise ArffEncodeError(
                f"row {row_no}: {len(row)} values for {len(ds.attributes)} attributes"
            )
        lines.append(
            ",".join(
                _format_value(value, attr, row_no)
                for value, attr in zip(row, ds.attributes)
            )
        )
    return "\n".join(lines) + "\n"


def _lines(path):
    """The whole file read, decoded with ``surrogateescape`` and without a
    leading byte-order mark, and split at "\r\n", "\r" or "\n", as
    numbered lines."""
    text = Path(path).read_bytes().decode("utf-8-sig", "surrogateescape")
    return enumerate(re.split(r"\r\n|\r|\n", text), start=1)


def load_profiles(path):
    """``ingest.load_profiles`` on a path, from the whole file's lines."""
    try:
        lines = _lines(path)
    except OSError as exc:
        raise StorageError(f"cannot read {path}: {exc}") from exc
    profiles, issues, seen = [], [], set()
    for line_no, line in lines:
        if not line.strip(" \t"):
            continue
        try:
            raw = _parse_record_line(line)
        except ValueError as exc:
            issues.append(ParseIssue(line_no, str(exc)))
            continue
        if raw["id"] in seen:
            raise DuplicateIdError(f"duplicate record id {raw['id']!r} at line {line_no}")
        seen.add(raw["id"])
        profiles.append(raw)
    return profiles, issues


_SURROGATE = re.compile("[\ud800-\udfff]")


def json_object_reference(line: str) -> dict:
    """``io_utils.json_object`` through ``json.loads`` alone, with its
    messages."""
    if _SURROGATE.search(line):
        raise ValueError("not valid UTF-8")
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        raise ValueError("not valid JSON")
    except ValueError:
        raise ValueError("not valid JSON: a number has too many digits")
    except RecursionError:
        raise ValueError("not valid JSON: nested too deeply")
    if not isinstance(record, dict):
        raise ValueError("line is not an object")
    if "\\" in line:
        for key, value in record.items():
            if isinstance(value, str) and _SURROGATE.search(value):
                raise ValueError(f"{key} is not valid UTF-8: lone surrogate")
    return record


# ``ingest._encode_record`` as ``JSONEncoder.encode`` runs it, one C encoder per call.
encode_record_reference = json.JSONEncoder(ensure_ascii=False).encode


def persist_corpus(profiles, path) -> None:
    """``ingest.persist_corpus``: every line joined into one text, then written."""
    atomic_write_text(
        path, "".join([encode_record_reference(p) + "\n" for p in profiles])
    )


def load_corpus(path):
    """``ingest.load_corpus``, from the whole file's lines, which hold no
    line break: a line must start with "{" and end with "}"."""
    try:
        lines = _lines(path)
    except OSError as exc:
        raise StorageError(f"cannot read corpus {path}: {exc}") from exc
    profiles = []
    for line_no, line in lines:
        if not line.strip(" \t"):
            continue
        try:
            record = json_object_reference(line)
            check_stage_record(record)
            if not (line.startswith("{") and line.endswith("}")):
                raise ValueError("blanks outside the object")
        except KeyError as exc:
            raise StorageError(f"corrupt corpus {path}:{line_no}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise StorageError(f"corrupt corpus {path}:{line_no}: {exc}") from exc
        profiles.append(record)
    return profiles


def load_sample_corpus(path, stopwords: frozenset[str] = DEFAULT_STOPWORDS):
    """``knn.load_sample_corpus``, from the whole file's lines."""
    try:
        lines = _lines(path)
    except OSError as exc:
        raise StorageError(f"cannot read sample corpus {path}: {exc}") from exc
    samples, seen = [], set()
    for line_no, line in lines:
        if not line.strip(" \t"):
            continue
        try:
            record = json_object_reference(line)
        except ValueError as exc:
            raise CorpusError(f"{path}:{line_no}: {exc}") from exc
        if set(record) != {"id", "label", "text"}:
            raise CorpusError(f"{path}:{line_no}: expected keys id, label, text")
        doc_id, label_text, text = record["id"], record["label"], record["text"]
        if not isinstance(doc_id, str) or not doc_id:
            raise CorpusError(f"{path}:{line_no}: id must be a non-empty string")
        if doc_id in seen:
            raise CorpusError(f"{path}:{line_no}: duplicate document id {doc_id!r}")
        seen.add(doc_id)
        try:
            label = ClassLabel(label_text)
        except ValueError:
            raise CorpusError(f"{path}:{line_no}: unknown class label {label_text!r}")
        if label is ClassLabel.UNCLASSIFIABLE:
            raise CorpusError(f"{path}:{line_no}: sample documents cannot be Unclassifiable")
        if not isinstance(text, str) or not text.strip():
            raise CorpusError(f"{path}:{line_no}: text must be non-empty")
        samples.append(SampleDocument(doc_id, label, term_counts(prepare(text, stopwords))))
    return samples
