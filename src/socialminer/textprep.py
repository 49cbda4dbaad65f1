"""Text preprocessing: the tokens of a text that are not stopwords.

``prepare`` is pure and total; the same preprocessing is applied to target
texts and to the pre-classified sample corpus, since distances are only
meaningful when both sides share one token grammar.

A token is a maximal run of alphanumeric characters (``str.isalnum``) of the
lowercased text; every other character separates tokens. Both routes to the
tokens run in C and yield the same tokens:

- An ASCII text is encoded and its bytes translated through one 256-byte
  table that lowercases A-Z, keeps a-z and 0-9 and maps every other byte to
  a space, then decoded and split on whitespace. No ASCII alphanumeric
  character is whitespace, so the split keeps exactly the runs.
- Any other text is lowercased and searched with one precompiled regular
  expression: the character class ``[^\\W_]`` matches exactly the
  characters for which ``isalnum`` is true. That includes a text whose
  lowercase form is ASCII, such as one holding U+212A KELVIN SIGN.
"""

from __future__ import annotations

import re
from itertools import filterfalse
from pathlib import Path

from .errors import StorageError
from .io_utils import check_utf8, json_lines

# Pinned default list of English function words. Determinism requires a fixed
# list shipped with the package; callers may override it with a file.
DEFAULT_STOPWORDS: frozenset[str] = frozenset(
    """
    a about above after again all am an and any are as at be because been
    before being below between both but by can could did do does doing down
    during each few for from further had has have having he her here hers
    herself him himself his how i if in into is it its itself just me more
    most my myself no nor not now of off on once only or other our ours
    ourselves out over own same she should so some such than that the their
    theirs them themselves then there these they this those through to too
    under until up very was we were what when where which while who whom why
    will with would you your yours yourself yourselves
    """.split()
)


_TOKEN = re.compile(r"[^\W_]+")
_ASCII_TABLE = bytes(
    ord(ch.lower()) if ch.isascii() and ch.isalnum() else ord(" ") for ch in map(chr, range(256))
)


def prepare(raw: str, stops: frozenset[str] = DEFAULT_STOPWORDS) -> list[str]:
    """The tokens of the lowercased ``raw`` that are not in ``stops``, in
    order, duplicates kept: every maximal run of alphanumeric characters is a
    token, and every other character separates tokens."""
    if raw.isascii():
        tokens = raw.encode().translate(_ASCII_TABLE).decode().split()
    else:
        tokens = _TOKEN.findall(raw.lower())
    return list(filterfalse(stops.__contains__, tokens))


def load_stopwords(path: str | Path) -> frozenset[str]:
    r"""Read a stopword file: UTF-8, one word per line, blank and '#' lines ignored.

    Lines are read by ``io_utils.json_lines``, so they end only at "\n",
    "\r\n" or "\r". Entries are lowercased so the list invariant holds
    regardless of how the file was authored. A missing or unreadable file,
    or a line that is not UTF-8, raises StorageError.
    """
    words: set[str] = set()
    for line_no, line in json_lines(path, "stopwords "):
        try:
            check_utf8(line)
        except ValueError as exc:
            raise StorageError(f"cannot read stopwords {path}: line {line_no} is {exc}") from exc
        word = line.strip()
        if word and not word.startswith("#"):
            words.add(word.lower())
    return frozenset(words)
