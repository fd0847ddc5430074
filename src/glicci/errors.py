"""Exception types shared across the toolkit.

Most also derive from the built-in type a caller would catch them as
(``ValueError``, ``KeyError``).  Every one prints its message exactly as
given, where ``KeyError`` alone would print it quoted, as a key.
"""


class GlicciError(Exception):
    """Base class for every error raised by this package."""

    __str__ = Exception.__str__


class RankMismatch(GlicciError, ValueError):
    """Divisor class length does not match the surface basis rank."""


class NonIntegralGenus(GlicciError, ValueError):
    """Adjunction gave an odd 2g-2; the class is not a curve class."""


class AbstractSurface(GlicciError, ValueError):
    """Operation needs a plane blow-up model, got an abstract one."""


class UnknownSurface(GlicciError, KeyError):
    """No surface registered under the requested name."""


class NotInTable(GlicciError, KeyError):
    """(d, g) pair outside the general-points table."""


class DegreeTooSmall(GlicciError, ValueError):
    """Degree below the valid range of the requested computation."""


class DegreeTooLarge(GlicciError, ValueError):
    """Degree above the enumeration guard."""


class InvalidHVector(GlicciError, ValueError):
    """Sequence violates the h-vector constraints."""


class InvalidMove(GlicciError, ValueError):
    """A chain step fails its admissibility conditions."""


class OutOfGuaranteedRange(GlicciError):
    """Input lies outside the range the reduction method is known to
    cover; the remaining cases are open questions, not failures."""


class SearchBudgetExceeded(GlicciError, ValueError):
    """Reachability search asked to exceed its budget."""
