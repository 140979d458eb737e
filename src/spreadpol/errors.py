"""Exception hierarchy shared by all spreadpol modules.

User-facing errors (bad arguments, malformed files, oversized inputs) derive
from :class:`SpreadpolError`.  Conditions that can only arise if one of the
library's own guarantees is broken derive from :class:`InvariantViolation`;
the CLI maps those to a distinct exit code.  The one exception is
:class:`WellDefinednessViolation`, which valid input reaches when no
collapse map exists.
"""


class SpreadpolError(Exception):
    """Base class for all errors raised by spreadpol."""


class AmbientMismatchError(SpreadpolError):
    """Binary operation on monomials living in different ambient rings."""


class ZeroIdealError(SpreadpolError):
    """An ideal was constructed from an empty generating set."""


class UnitGeneratorError(SpreadpolError):
    """The unit monomial appeared where a proper generator is required."""


class DegreeBoundError(SpreadpolError):
    """Polarization was requested with a degree bound below deg(u)."""


class BadParameterError(SpreadpolError):
    """A numeric parameter is outside the range an operation supports."""


class EmptySetError(SpreadpolError):
    """An operation on monomial sets received an empty set."""


class ShapeMismatchError(SpreadpolError):
    """A certificate does not have the shape required by the data."""


class BadAmbientError(SpreadpolError):
    """An operation restricted to a fixed ambient size got another one."""


class SupportOverlapError(SpreadpolError):
    """Monomial supports intersect where disjointness is required."""


class NotMinimalError(SpreadpolError):
    """Adjoining the given monomials would break minimality."""


class DegreeMismatchError(SpreadpolError):
    """A construction requires equal degrees and got mixed ones."""


class NotSmoothInputError(SpreadpolError):
    """A closure construction requires smoothly spreadable inputs."""


class TooLargeError(SpreadpolError):
    """Input exceeds a hard size cap of an exact oracle."""


class ExponentOverflowError(TooLargeError, OverflowError):
    """An exponent or a degree exceeds the monomial size guards.

    It is also an OverflowError, so handlers of the built-in catch it too.
    """


class IdealFileError(SpreadpolError):
    """Malformed ideal file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InvariantViolation(SpreadpolError):
    """A guarantee of the library itself failed; a bug, not bad input.

    Only the subclass WellDefinednessViolation can come from valid input.
    """


class WellDefinednessViolation(InvariantViolation):
    """Equal spread-side lcms mapped to different source-side lcms.

    The one InvariantViolation that valid input can reach: for some ideals
    spreading collapses the lcm-lattice and no collapse map exists (see
    lattices.build_delta).  The CLI answers it as a negative result, exit 1.
    """
