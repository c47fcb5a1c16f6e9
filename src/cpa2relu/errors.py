"""Exception types shared across the package."""

__all__ = [
    "CpaError", "SchemaError", "DanglingRefError", "InvalidInputError",
    "OnBoundaryError", "RetriesExhaustedError", "SamplingStalledError",
    "GeneralPositionError", "DuplicateDirectionError", "ContinuityError",
    "NoPieceFoundError", "MalformedFanError", "EmptyTermListError",
]


class CpaError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(CpaError):
    """Input document violates the file format (missing fields, bad literals)."""


class DanglingRefError(CpaError):
    """An id reference points at a vertex, edge or piece that does not exist."""


class InvalidInputError(CpaError):
    """An operation was called on an instance that fails validation."""


class OnBoundaryError(CpaError):
    """A membership query was made for a point lying on the piece boundary."""


class RetriesExhaustedError(CpaError):
    """A seeded generator ran out of attempts without a valid draw."""


class SamplingStalledError(CpaError):
    """Rejection sampling failed to find a general-position point."""


class GeneralPositionError(CpaError):
    """A query point sits on a cone ray or a boundary line where the
    requested predicate is undefined."""


class DuplicateDirectionError(CpaError):
    """Two directions in a CCW sort are positive multiples of each other."""


class ContinuityError(CpaError):
    """Affine components disagree where they are required to coincide."""


class NoPieceFoundError(CpaError):
    """A point belongs to no piece, or to several: the cover is broken."""


class MalformedFanError(CpaError):
    """Fan structure is broken: its rays are not in strict CCW order, so
    a three-sector fan has two sector angles of at least pi."""


class EmptyTermListError(CpaError):
    """A network build was requested for a term list with no terms."""
