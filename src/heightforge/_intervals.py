"""Certified real enclosures.

Float endpoint pairs with outward rounding, backed by `mpmath.libmp` at an
explicit binary precision for transcendental evaluations.  Every constructor
and operation keeps the true real inside [lo, hi].  In between, a real is a
libmp endpoint pair (lo, hi) of raw mpf tuples: each libmp call gets its
precision as an argument and rounds the lower endpoint by floor and the upper
by ceiling, so nothing reads or writes a process-global precision.  The final
conversion to float endpoints rounds each endpoint to 53 bits (to nearest)
and then pushes it one ulp outward.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from mpmath.libmp import (
    from_float,
    from_int,
    mpf_pos,
    mpi_div,
    mpi_log,
    mpi_mul,
    round_ceiling,
    round_floor,
    round_nearest,
    to_float,
)

# Working precision for interval evaluations.  53-bit floats are the output
# format, so 120 bits leaves a wide guard band; hot loops raise it locally.
DEFAULT_PREC = 120


@contextmanager
def iv_prec(prec: int):
    """Enter one attempt at binary precision `prec` and yield it.  Nothing is
    set: every libmp call takes its precision as an argument.  The archimedean
    Green loop enters each of its precision attempts here."""
    yield prec


def _down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


@dataclass(frozen=True)
class Interval:
    """Closed real interval with float endpoints, lo <= hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Interval":
        return Interval(0.0, 0.0)

    # -- arithmetic (1 ulp outward per float operation) --------------------

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(_down(self.lo + other.lo), _up(self.hi + other.hi))

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(_down(self.lo - other.hi), _up(self.hi - other.lo))

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def scale(self, r: Fraction | int) -> "Interval":
        """Multiply by an exact rational scalar."""
        r = Fraction(r)
        if r == 0:
            return Interval.zero()
        x = (from_float(self.lo, DEFAULT_PREC, round_floor),
             from_float(self.hi, DEFAULT_PREC, round_ceiling))
        return from_iv(mpi_mul(x, iv_from_fraction(r), DEFAULT_PREC))

    def clamp_nonneg(self) -> "Interval":
        """Intersect with [0, +inf); the true value is known nonnegative."""
        return Interval(max(self.lo, 0.0), max(self.hi, 0.0))

    # -- queries -----------------------------------------------------------

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def overlaps(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __repr__(self):
        return f"[{self.lo!r}, {self.hi!r}]"


# -- libmp endpoint pairs ----------------------------------------------------


def iv_from_fraction(q: Fraction | int, prec: int = DEFAULT_PREC):
    """Exact rational (a Fraction or an int) -> libmp endpoint pair containing
    it, outward at `prec` bits (numerator and denominator are each rounded
    outward, then divided)."""
    n, d = q.numerator, q.denominator
    num = (from_int(n, prec, round_floor), from_int(n, prec, round_ceiling))
    if d == 1:
        return num
    den = (from_int(d, prec, round_floor), from_int(d, prec, round_ceiling))
    return mpi_div(num, den, prec)


def to_float53(x) -> float:
    """A raw mpf rounded to nearest at 53 bits, as a float (inf past the
    float range)."""
    return to_float(mpf_pos(x, 53, round_nearest))


def from_iv(x) -> Interval:
    """libmp endpoint pair -> float Interval, each endpoint pushed one ulp
    outward past its round-to-nearest conversion."""
    return Interval(_down(to_float53(x[0])), _up(to_float53(x[1])))


def log_iv(x, prec: int = DEFAULT_PREC) -> Interval:
    """Certified enclosure of log over a libmp endpoint pair with 0 < lo."""
    return from_iv(mpi_log(x, prec))


def log_interval(q: Fraction, prec: int = DEFAULT_PREC) -> Interval:
    """Certified enclosure of log q for an exact rational q > 0."""
    if q <= 0:
        raise ValueError("log of a nonpositive rational")
    return log_iv(iv_from_fraction(q, prec), prec)


def log_plus_interval(q: Fraction, prec: int = DEFAULT_PREC) -> Interval:
    """Certified enclosure of log+ |q| = log max(1, |q|), exact [0,0] when
    |q| <= 1 (an exact rational comparison, no rounding involved)."""
    a = abs(Fraction(q))
    if a <= 1:
        return Interval.zero()
    return log_interval(a, prec)


def sum_intervals(parts) -> Interval:
    total = Interval.zero()
    for part in parts:
        total = total + part
    return total
