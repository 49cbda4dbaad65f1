"""Small file helpers shared by the pipeline stages."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Iterable, Union

from .errors import StorageError


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
