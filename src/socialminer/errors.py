"""Exception hierarchy shared by all pipeline stages."""


class SocialMinerError(Exception):
    """Base class for every error this package raises on purpose."""


class DuplicateIdError(SocialMinerError):
    """Two input records carry the same id."""


class StorageError(SocialMinerError):
    """A persisted artifact could not be read or written."""


class EmptyDocumentError(SocialMinerError):
    """A document has no tokens left, so term frequency is undefined."""


class DimensionError(SocialMinerError):
    """Vector lengths disagree, or a vector is empty where it must not be."""


class CorpusError(SocialMinerError):
    """The sample corpus is empty or malformed."""


class ParameterError(SocialMinerError):
    """A tuning parameter is out of its legal range (e.g. k > corpus size)."""


class DomainError(SocialMinerError):
    """A value is outside the function's domain (negative count, future birthday)."""


class ArffEncodeError(SocialMinerError):
    """A dataset violates its own invariants during ARFF emission."""


class ReportError(SocialMinerError):
    """A profile lacks a report field (``tally``); an unknown group or measure (``aggregate``)."""


class ChartError(SocialMinerError):
    """A chart cannot be rendered from the given distribution."""
