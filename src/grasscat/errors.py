"""Exception hierarchy for grasscat."""


class GrasscatError(Exception):
    """Base class for all grasscat errors."""


class SchemaError(GrasscatError):
    """Invalid schema declaration, or a record/parameter shape that does not fit it."""


class InvalidStateError(GrasscatError):
    """A dummy bit vector violates the one-hot / left-flushed block constraints."""


class EnumerationCapError(GrasscatError):
    """A state enumeration would exceed the configured cap, or the cap
    setting itself is invalid."""


class ParameterError(GrasscatError):
    """A distribution parameter is singular, inconsistent, or otherwise unusable."""


class ConditioningError(GrasscatError):
    """Conditioning on an event of probability zero, or a degenerate pivot block."""


class DataError(GrasscatError):
    """Bad input data: unreadable rows, empty datasets, malformed files."""
