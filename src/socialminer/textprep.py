"""Text normalization, tokenization and stopword removal.

All functions are pure and total; the same preprocessing is applied to
target texts and to the pre-classified sample corpus, since distances are
only meaningful when both sides share one token grammar.

A token is a maximal run of alphanumeric characters (``str.isalnum``) of the
lowercased text; every other character separates tokens. The character class
``[^\\W_]`` matches exactly the characters for which ``isalnum`` is true, so
one precompiled regular expression finds the tokens in C.
"""

from __future__ import annotations

import re
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


def normalize_text(raw: str) -> str:
    """Lowercase and join the tokens with single spaces: every run of
    non-alphanumeric characters becomes one space, and the ends are
    stripped. Idempotent."""
    return " ".join(_TOKEN.findall(raw.lower()))


def tokenize(normalized: str) -> list[str]:
    """Split normalized text on spaces. Duplicates are preserved; counting
    happens downstream."""
    return normalized.split()


def remove_stopwords(
    tokens: list[str], stops: frozenset[str] = DEFAULT_STOPWORDS
) -> list[str]:
    """Drop every token that appears in ``stops``, keeping relative order."""
    return [t for t in tokens if t not in stops]


def prepare(raw: str, stops: frozenset[str] = DEFAULT_STOPWORDS) -> list[str]:
    """Full preprocessing: the tokens of ``raw`` that are not stopwords, in
    order. Equals ``remove_stopwords(tokenize(normalize_text(raw)), stops)``."""
    return [t for t in _TOKEN.findall(raw.lower()) if t not in stops]


def load_stopwords(path: str | Path) -> frozenset[str]:
    r"""Read a stopword file: UTF-8, one word per line, '#' lines ignored.

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
        if not word.startswith("#"):
            words.add(word.lower())
    return frozenset(words)
