"""Shared exception types."""


class RangeError(ValueError):
    """Parameter outside the supported range."""


class SignatureMismatchError(ValueError):
    """Operands built over different metric signatures."""


class NonMonomialError(ValueError):
    """Scalar inversion is only defined for single-term elements."""


class DimensionMismatchError(ValueError):
    """Matrix or vector size does not match the target."""


class ExtractorUnavailableError(ValueError):
    """Coordinate extraction is not defined for this basis."""


class UnsupportedError(ValueError):
    """Construction not defined at the requested size or variant."""
