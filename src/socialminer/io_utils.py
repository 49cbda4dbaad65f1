"""Small file helpers shared by the pipeline stages: the one loop and the
one line rule every JSON-lines input is read by, and the atomic writer."""

from __future__ import annotations

import json
import os
import re
import tempfile
from pathlib import Path
from typing import Iterable, Iterator, Union

from .errors import StorageError

_LONE_SURROGATE = re.compile("[\ud800-\udfff]")


def json_lines(path: str | Path, what: str = "") -> Iterator[tuple[int, str]]:
    r"""Yield ``(line_no, line)`` for every non-blank line of a JSON-lines
    file, numbered from 1. The file is read as UTF-8 with universal newlines,
    so lines end at "\n", "\r\n" or "\r" only and a raw U+2028, U+2029 or
    U+0085 stays inside its text; bytes that are not UTF-8 become lone
    surrogates (``surrogateescape``), which fail only their own line in
    ``json_object``. An unreadable file raises
    ``StorageError("cannot read {what}{path}: …")``."""
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as handle:
            for line_no, line in enumerate(handle, start=1):
                if line.strip():
                    yield line_no, line
    except OSError as exc:
        raise StorageError(f"cannot read {what}{path}: {exc}") from exc


def json_object(line: str) -> dict:
    r"""Decode one line into a JSON object, or raise ValueError with one of
    ``not valid UTF-8``, ``not valid JSON: …``, ``line is not an object`` or
    ``<key> is not valid UTF-8: lone surrogate`` (a top-level string that a
    ``\u`` escape made unwritable as UTF-8)."""
    if not line.isascii() and _LONE_SURROGATE.search(line):
        raise ValueError("not valid UTF-8")
    try:
        # Without its "\n", a line's JSON errors point into it.
        record = json.loads(line.rstrip("\n"))
    except (ValueError, RecursionError) as exc:  # too many digits, too deep nesting
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise ValueError("line is not an object")
    if "\\" in line:
        for key, value in record.items():
            if isinstance(value, str) and _LONE_SURROGATE.search(value):
                raise ValueError(f"{key} is not valid UTF-8: lone surrogate")
    return record


def make_output_dir(path: str | Path) -> None:
    """Create an output directory and its parents if they are missing. A path
    that names a file, or one that cannot be created, raises StorageError."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise StorageError(f"cannot create output directory {path}: {exc}") from exc


def atomic_write_text(path: str | Path, text: Union[str, Iterable[str]]) -> None:
    """Write a file atomically: temp file in the same directory, then rename.

    ``text`` is one string or an iterable of string chunks, written in order
    as they come, so a caller can stream a file it never holds whole.
    Readers never observe a half-written artifact.
    """
    target = Path(path)
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=target.name + ".", suffix=".tmp", dir=target.parent
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
                if isinstance(text, str):
                    handle.write(text)
                else:
                    handle.writelines(text)
            os.replace(tmp_name, target)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise StorageError(f"cannot write {target}: {exc}") from exc
