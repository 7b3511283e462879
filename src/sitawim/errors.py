"""Shared exception types.

Everything raised on purpose by this package derives from :class:`SitawimError`,
so callers can distinguish deliberate mathematical/resource failures from bugs.
"""

from __future__ import annotations


class SitawimError(Exception):
    """Base class for all deliberate errors raised by this package."""


class ResourceCapExceeded(SitawimError):
    """A symbolic computation blew past its configured degree or term budget.

    Raised instead of letting a Groebner run eat the machine.  The offending
    quantity and its cap are recorded on the instance.
    """

    def __init__(self, what: str, value: int, cap: int) -> None:
        super().__init__(f"{what} {value} exceeds cap {cap}")
        self.what = what
        self.value = value
        self.cap = cap


class InconsistentIdealError(SitawimError):
    """A reduction produced a nonzero rational constant: the variety is empty."""


class PositiveDimensionalError(SitawimError):
    """A specialized system still has infinitely many solutions over the rationals."""


class SpectralError(SitawimError):
    """Eigendata could not be computed to the requested certified accuracy."""
