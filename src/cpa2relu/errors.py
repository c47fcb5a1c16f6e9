"""Exception types shared across the package."""

__all__ = [
    "CpaError", "SchemaError", "DanglingRefError", "InvalidInputError",
    "OnBoundaryError", "RetriesExhaustedError", "SamplingStalledError",
    "GeneralPositionError", "DuplicateDirectionError", "ContinuityError",
    "NoPieceFoundError", "NoMergeablePairError", "NotCrossCaseError",
    "MalformedFanError", "EmptyTermListError",
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


class NoMergeablePairError(CpaError):
    """No adjacent sector pair of the fan spans an angle below pi."""


class NotCrossCaseError(CpaError):
    """A 4-sector fan was routed to the antipodal split but its rays do not
    form two opposite pairs."""


class MalformedFanError(CpaError):
    """Fan structure is broken: wrong sector count, or sector affines that
    do not agree on shared rays."""


class EmptyTermListError(CpaError):
    """A network build was requested for a term list with no terms."""
