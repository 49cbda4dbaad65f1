"""Small file helpers shared by the pipeline stages: the one loop and the
one line rule every JSON-lines input is read by, the batches records are
streamed in, and the atomic writer."""

from __future__ import annotations

import json
import os
import re
from collections.abc import Iterable, Iterator
from itertools import islice
from pathlib import Path

from .errors import StorageError

_LONE_SURROGATE = re.compile("[\ud800-\udfff]")
# json.loads ends in this C scanner, after a copy of the line and two regex matches.
_scan_once = json.JSONDecoder().scan_once

# The records a stage subcommand holds at once. Each stage reads a batch,
# works on all of it, then encodes and writes it, before it reads the next.
# On 20,000 profiles (2 vCPUs, Python 3.11) one record at a time ran the five
# stage subcommands about 15% slower, and classifying or binning each record
# as it was read, with one write per batch, about 5% slower; 1,024 ran no
# faster than 256 and holds four times the records.
BATCH_SIZE = 256

# The temp file names atomic_write_text tries, each random, before it gives
# up; a name that exists, even as a symlink, fails O_EXCL and is passed over.
TEMP_NAME_TRIES = 100
_TEMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_CLOEXEC


def batches(items: Iterable) -> Iterator[list]:
    """Consecutive lists of ``BATCH_SIZE`` items (the last one shorter).
    When ``items`` raises, the items read before it come first as a shorter
    batch, so a consumer that works on each batch meets every fault, its own
    or the reader's, in the order of the items."""
    items = iter(items)
    while True:
        batch: list = []
        try:
            batch.extend(islice(items, BATCH_SIZE))
        except Exception:
            if batch:
                yield batch
            raise
        if not batch:
            return
        yield batch


def json_lines(path: str | Path, what: str = "") -> Iterator[tuple[int, str]]:
    r"""Yield ``(line_no, line)`` for every non-blank line of a JSON-lines
    file, numbered from 1. A blank line holds nothing but spaces, tabs and
    its line break (JSON's whitespace), so a line holding another blank, such
    as U+00A0 or a form feed, is yielded for its reader to refuse. The file
    is read as UTF-8 with universal newlines, so lines end at "\n", "\r\n"
    or "\r" only and a raw U+2028, U+2029 or U+0085 stays inside its text. A
    byte-order mark that starts the file is dropped; one anywhere else stays
    in its line. Bytes that are not UTF-8 become lone surrogates
    (``surrogateescape``), which fail only their own line in
    ``json_object``. An unreadable file raises
    ``StorageError("cannot read {what}{path}: …")``."""
    try:
        with open(path, encoding="utf-8-sig", errors="surrogateescape") as handle:
            for line_no, line in enumerate(handle, start=1):
                if line.lstrip(" \t\r\n"):
                    yield line_no, line
    except OSError as exc:
        raise StorageError(f"cannot read {what}{path}: {exc}") from exc


def check_utf8(line: str) -> None:
    """Raise ValueError("not valid UTF-8") for a line of ``json_lines`` that
    holds bytes that are not UTF-8 (as lone surrogates)."""
    if not line.isascii() and _LONE_SURROGATE.search(line):
        raise ValueError("not valid UTF-8")


def json_object(line: str) -> dict:
    r"""Decode one line into a JSON object, or raise ValueError with one of
    ``not valid UTF-8`` (from ``check_utf8``), ``not valid JSON`` (with
    ``: nested too deeply`` or ``: a number has too many digits`` where the
    decoder gave up on a deep array or object or on an integer longer than
    ``sys.get_int_max_str_digits()``), ``line is not an object`` or ``<key>
    is not valid UTF-8: lone surrogate`` (a top-level string that a ``\u``
    escape made unwritable as UTF-8). Each text depends only on the line,
    never on the interpreter's own message. The C scanner decodes first; a
    line it does not take whole, as one object up to the line's end or its
    final "\n", goes through ``json.loads``."""
    check_utf8(line)
    try:
        record, end = _scan_once(line, 0)
    except (StopIteration, ValueError, RecursionError):
        record = None
    if not isinstance(record, dict) or line[end:] not in ("", "\n"):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError("not valid JSON") from exc
        except ValueError as exc:  # an integer past the digit limit
            raise ValueError("not valid JSON: a number has too many digits") from exc
        except RecursionError as exc:
            raise ValueError("not valid JSON: nested too deeply") from exc
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


def atomic_write_text(path: str | Path, text: str | Iterable[str]) -> None:
    """Write a file atomically: temp file in the same directory, then rename.

    ``text`` is one string or an iterable of string chunks, written in order
    as they come, so a caller can stream a file it never holds whole.
    Readers never observe a half-written artifact. The temp file, named
    ``<name>.<8 random hex digits>.tmp``, is created anew with mode 0600
    (``_open_temp``), so the file written has that mode too.
    """
    target = Path(path)
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = _open_temp(target)
        try:
            try:
                handle = os.fdopen(fd, "w", encoding="utf-8", newline="\n")
            except BaseException:
                os.close(fd)
                raise
            with handle:
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


def _open_temp(target: Path) -> tuple[int, str]:
    """Create a new temp file beside ``target`` and open it for writing:
    ``(fd, name)``. FileExistsError once ``TEMP_NAME_TRIES`` names exist."""
    for _ in range(TEMP_NAME_TRIES):
        name = f"{target}.{os.urandom(4).hex()}.tmp"
        try:
            return os.open(name, _TEMP_FLAGS, 0o600), name
        except FileExistsError:
            pass
    raise FileExistsError(f"no free temp file name in {TEMP_NAME_TRIES} tries")
