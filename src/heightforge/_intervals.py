"""Certified real enclosures.

Float endpoint pairs with outward rounding, backed by exact integer
arithmetic and by `mpmath.libmp` at an explicit binary precision for
transcendental evaluations.  Every constructor and operation keeps the true
real inside [lo, hi].

* `Interval.scale` multiplies by an exact rational with one integer division
  per endpoint: CPython rounds int/int true division correctly, and the
  result is pushed one ulp outward.
* A dyadic interval (lo, hi, x) of integers encloses the reals in
  [lo 2^x, hi 2^x]: the orbit arithmetic of the archimedean Green loop.  Each
  product and sum is exact on the integers and then rounds each endpoint
  outward to w significant bits (floor for lo, ceiling for hi) by a shift:
  the values libmp's `mpi_mul`/`mpi_add` give at precision w, except that an
  endpoint more than w - 1 bits below the other is rounded on the other's
  grid, so no mantissa exceeds 2w bits.  The exponent x is an unbounded
  integer, so nothing overflows.
* A libmp endpoint pair (lo, hi) of raw mpf tuples carries the logarithms:
  each libmp call gets its precision as an argument and rounds the lower
  endpoint by floor and the upper by ceiling, so nothing reads or writes a
  process-global precision.  The final conversion to float endpoints rounds
  each endpoint to 53 bits (to nearest) and then pushes it one ulp outward.
  The same outward pair of e^k gives floor(e^k) exactly (`exp_floor`).
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath.libmp import (
    from_int,
    from_man_exp,
    mpf_exp,
    mpf_log,
    mpf_pos,
    mpi_div,
    mpi_log,
    round_ceiling,
    round_floor,
    round_nearest,
    to_float,
    to_int,
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
        """Multiply by an exact rational scalar: each endpoint is the exact
        product rounded to nearest, then pushed one ulp outward."""
        num, den = r.numerator, r.denominator
        if num == 0:
            return Interval.zero()
        lo, hi = (self.lo, self.hi) if num > 0 else (self.hi, self.lo)
        return Interval(_down(_times(lo, num, den)), _up(_times(hi, num, den)))

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


def _times(x: float, num: int, den: int) -> float:
    """x num / den rounded to nearest, as one int/int true division (which
    CPython rounds correctly); an infinity of the product's sign past the
    float range or for an infinite x."""
    try:
        p, q = x.as_integer_ratio()
        return p * num / (q * den)
    except OverflowError:
        return math.copysign(math.inf, x if num > 0 else -x)


# -- dyadic intervals ----------------------------------------------------------


def dy_round(lo: int, hi: int, x: int, w: int) -> tuple[int, int, int]:
    """(lo, hi, x) with each endpoint rounded outward to w significant bits,
    back on one exponent.  An endpoint more than w - 1 bits below the other
    is rounded on the larger one's grid instead, so no mantissa exceeds 2w
    bits."""
    s_lo = abs(lo).bit_length() - w
    s_hi = abs(hi).bit_length() - w
    if s_lo == s_hi:  # the usual case: one shift rounds both
        if s_lo <= 0:
            return lo, hi, x
        return lo >> s_lo, -(-hi >> s_lo), x + s_lo
    s = max(min(s_lo, s_hi), max(s_lo, s_hi) - w + 1, 0)
    lo = (lo >> s_lo) << (s_lo - s) if s_lo > s else lo >> s
    hi = -(-hi >> s_hi) << (s_hi - s) if s_hi > s else -(-hi >> s)
    return lo, hi, x + s


def dy_from_fraction(q: Fraction | int, w: int) -> tuple[int, int, int]:
    """Exact rational -> dyadic interval containing it, each endpoint the
    quotient rounded outward to w bits."""
    n, d = q.numerator, q.denominator
    x = n.bit_length() - d.bit_length() - w - 1  # |q| 2^-x has w + 1 or w + 2 bits
    if x < 0:
        lo, hi = (n << -x) // d, -((-n << -x) // d)
    else:
        lo, hi = n // (d << x), -(-n // (d << x))
    return dy_round(lo, hi, x, w)


def dy_mul(a: tuple[int, int, int], b: tuple[int, int, int], w: int) -> tuple[int, int, int]:
    """Product of two dyadic intervals, rounded outward to w bits."""
    alo, ahi, ax = a
    blo, bhi, bx = b
    if alo >= 0 and blo >= 0:
        lo, hi = alo * blo, ahi * bhi
    else:
        products = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
        lo, hi = min(products), max(products)
    return dy_round(lo, hi, ax + bx, w)


def dy_add(a: tuple[int, int, int], b: tuple[int, int, int], w: int) -> tuple[int, int, int]:
    """Sum of two dyadic intervals, rounded outward to w bits.  Across an
    exponent gap of more than 2w bits the operand of the smaller exponent is
    first rounded outward onto a grid 2w bits below the other, so nothing is
    shifted left by more than 2w bits."""
    if a[2] < b[2]:
        a, b = b, a
    alo, ahi, ax = a
    if not (alo or ahi):
        return b
    blo, bhi, bx = b
    gap = ax - bx
    if gap > 2 * w:
        s = gap - 2 * w
        blo, bhi, bx, gap = blo >> s, -(-bhi >> s), bx + s, 2 * w
    return dy_round((alo << gap) + blo, (ahi << gap) + bhi, bx, w)


def dy_abs(a: tuple[int, int, int], w: int) -> tuple[int, int, int]:
    """{|y| : y in a}, rounded outward to w bits."""
    lo, hi, x = a
    if hi <= 0:
        lo, hi = -hi, -lo
    elif lo < 0:
        lo, hi = 0, max(-lo, hi)
    return dy_round(lo, hi, x, w)


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


def from_iv(x) -> Interval:
    """libmp endpoint pair -> float Interval: each endpoint rounded to nearest
    at 53 bits (inf past the float range), then pushed one ulp outward."""
    lo, hi = (to_float(mpf_pos(m, 53, round_nearest)) for m in x)
    return Interval(_down(lo), _up(hi))


def log_iv(x, prec: int = DEFAULT_PREC) -> Interval:
    """Certified enclosure of log over a libmp endpoint pair with 0 < lo."""
    return from_iv(mpi_log(x, prec))


def log_interval(q: Fraction, prec: int = DEFAULT_PREC) -> Interval:
    """Certified enclosure of log q for an exact rational q > 0."""
    if q <= 0:
        raise ValueError("log of a nonpositive rational")
    return log_iv(iv_from_fraction(q, prec), prec)


@lru_cache(maxsize=256)
def log_prime_iv(p: int, prec: int):
    """The libmp endpoint pair of log p at `prec` bits for a prime p,
    computed once per (prime, precision) -- the last 256 are kept -- and
    with one logarithm: log p is irrational, so the ceiling is the next
    `prec`-bit number above the floor."""
    lo = mpf_log(from_int(p), prec, round_floor)
    _, man, exp, bc = lo
    shift = prec - bc
    return lo, from_man_exp((man << shift) + 1, exp - shift)


def log_prime(p: int) -> Interval:
    """log_interval(p) for a prime p, read from the DEFAULT_PREC entry of
    log_prime_iv, and shared by every exact multiple of log p."""
    return from_iv(log_prime_iv(p, DEFAULT_PREC))


def exp_floor(k: int) -> int:
    """floor(e^k) for an integer k >= 1, exactly: the floors of both ends of
    an outward libmp enclosure of e^k, at a precision doubled until they
    agree (e^k is irrational, so they do)."""
    prec = 64
    while True:
        lo, hi = (to_int(mpf_exp(from_int(k), prec, rnd), round_floor)
                  for rnd in (round_floor, round_ceiling))
        if lo == hi:
            return lo
        prec *= 2
