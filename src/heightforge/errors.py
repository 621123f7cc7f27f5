"""Exception types shared across the package."""
from __future__ import annotations


class HeightforgeError(Exception):
    """Base class for all package-specific errors."""


class SpecError(HeightforgeError):
    """Malformed family or cover specification (bad JSON, bad shape)."""


class DomainError(HeightforgeError):
    """Input outside an operation's domain (pole, zero denominator, d = e, ...)."""


class NormalizationUnavailable(DomainError):
    """No rational monic conjugate exists for this family."""


class PrecisionLoss(HeightforgeError):
    """No longer raised; kept for API stability.  p-adic arithmetic returns
    a value with fewer known digits, and the finite-place Green loop restarts
    with more digits on its own."""


class BudgetExceeded(HeightforgeError):
    """An iteration budget ran out before a certificate was reached.

    Carries the best certified enclosure obtained so far in ``best`` when one
    exists (a pair (lo, hi) of floats), else None.
    """

    def __init__(self, message: str, best=None, steps: int | None = None):
        super().__init__(message)
        self.best = best
        self.steps = steps
