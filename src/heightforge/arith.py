"""Exact local arithmetic over Q.

Places of Q, p-adic valuations, supports, least root valuations, and the two
value representations used everywhere else:

* LocalValue: one local quantity, either an exact rational multiple of log p
  (finite places) or a certified float interval (archimedean place).
* LogSum: a finite formal sum of coeff * log p terms.  Sums and scalar
  multiples stay exact; comparisons against another LogSum are exact (an
  exact zero test, then enclosures refined until the sign is certain).

Conventions: v_p is the usual additive valuation with v_p(p) = 1, so
|x|_p = p^(-v_p(x)) and log+ |x|_p = max(0, -v_p(x)) * log p.
"""
from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Optional, Sequence

from ._intervals import (
    DEFAULT_PREC,
    Interval,
    from_iv,
    iv_from_fraction,
    log_interval,
    log_plus_interval,
)
from .errors import BudgetExceeded, DomainError, SpecError

from mpmath.libmp import fzero, mpi_add, mpi_log, mpi_mul
from sympy import perfect_power, primerange

# ---------------------------------------------------------------------------
# rational serialization ("num/den" strings in all I/O)
# ---------------------------------------------------------------------------


_INT_STR_DIGITS = 4300  # the most digits int() reads from a text by default
_MAX_INTEGER_DIGITS = 131_072  # one Linux command-line argument holds fewer
_PLAIN_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_integer(text: str) -> int:
    """int(text), reading a plain decimal integer past int()'s 4 300-digit
    limit through Decimal, the route format_rational prints through.  A text
    of more than _MAX_INTEGER_DIGITS digits is refused before it is converted,
    as the conversion takes quadratic time; ValueError for a non-integer."""
    s = text.strip()
    if len(s.lstrip("+-")) > _MAX_INTEGER_DIGITS:
        raise SpecError(f"integer text longer than {_MAX_INTEGER_DIGITS} digits")
    if len(s) > _INT_STR_DIGITS and _PLAIN_INTEGER.fullmatch(s):
        return int(Decimal(s))
    return int(s)


def parse_rational(text: str | int | Fraction) -> Fraction:
    """Parse a num/den string (den optional) into an exact Fraction."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, bool):  # JSON true/false are not numbers
        raise SpecError(f"not a rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    s = str(text).strip()
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            return Fraction(parse_integer(num), parse_integer(den))
        return Fraction(parse_integer(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecError(f"not a rational: {text!r}") from exc


def format_rational(q: Fraction | int) -> str:
    """"num/den" or "num", exact at any size (str(int) stops at 4300 digits)."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(Decimal(q.numerator))
    return f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"


# ---------------------------------------------------------------------------
# primality and factoring.  Strong Fermat tests to the 13 prime bases 2..41
# prove primality below 3317044064679887385961981, the least strong pseudoprime
# to all of them (Sorenson-Webster 2017); at or above it is_prime refuses.
# Brent's Pollard rho splits cofactors within _RHO_ITERATIONS per factoring.
# ---------------------------------------------------------------------------

_SMALL_PRIMES = list(primerange(10_000))
_MR_BASES = _SMALL_PRIMES[:13]
_MR_PROOF_BOUND = 3317044064679887385961981
_RHO_ITERATIONS = 1 << 22  # 16x the most 4 000 products of two 9-digit primes took


def is_prime(n: int) -> bool:
    """Whether n is prime, by trial division and a strong Fermat test to each
    of the 13 bases: a proof below _MR_PROOF_BOUND.  An n at or above it that
    passes all 13 cannot be proved prime, and raises BudgetExceeded."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s * d, d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    if n >= _MR_PROOF_BOUND:
        raise BudgetExceeded(
            f"cannot prove {format_rational(n)} prime: 13 bases prove only n < {_MR_PROOF_BOUND}"
        )
    return True


def _pollard_rho(n: int, budget: int) -> tuple[int, int]:
    """(proper factor of n, budget left) by Brent's rho, for n odd composite
    and free of primes below 10^4.  Each round with step r costs 2r of the
    budget up front; BudgetExceeded when the budget cannot pay for it."""
    rng = random.Random(0xBEEF ^ n)
    while True:
        y, c, m = rng.randrange(1, n), rng.randrange(1, n), 128
        g, r, q = 1, 1, 1
        while g == 1:
            budget -= 2 * r
            if budget < 0:
                raise BudgetExceeded(
                    f"cannot split {format_rational(n)} in {_RHO_ITERATIONS} rho iterations"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g, budget


def factor_integer(n: int) -> dict[int, int]:
    """Prime factorization of n != 0 as {p: multiplicity}, sign dropped.
    BudgetExceeded if is_prime or _pollard_rho refuses a cofactor."""
    if n == 0:
        raise DomainError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return out
    stack, budget = [(n, 1)], _RHO_ITERATIONS  # (cofactor, multiplicity it carries)
    while stack:
        m, k = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + k
            continue
        power = perfect_power(m)
        if power:
            # Pollard rho is slow on powers: factor the base once instead
            base, exp = power
            stack.append((base, k * exp))
            continue
        g, budget = _pollard_rho(m, budget)
        stack.append((g, k))
        stack.append((m // g, k))
    return dict(sorted(out.items()))


def factor_rational(q: Fraction) -> dict[int, int]:
    """{p: v_p(q)} over the primes dividing q != 0, sorted by p: positive
    exponents from the numerator, negative ones from the denominator."""
    q = Fraction(q)
    out = factor_integer(q.numerator)
    out.update((p, -k) for p, k in factor_integer(q.denominator).items())
    return dict(sorted(out.items()))


def support(q: Fraction) -> list[int]:
    """Sorted primes dividing the numerator or denominator of q != 0."""
    q = Fraction(q)
    if q == 0:
        raise DomainError("support of 0 is undefined")
    return list(factor_rational(q))


# ---------------------------------------------------------------------------
# places
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Place:
    """A place of Q: the archimedean place (prime is None) or a finite prime."""

    prime: Optional[int]

    @staticmethod
    def archimedean() -> "Place":
        return Place(None)

    @staticmethod
    def finite(p: int) -> "Place":
        if not is_prime(p):
            raise SpecError(f"not a prime: {p}")
        return Place(p)

    def sort_key(self) -> int:
        """Archimedean first, then finite primes in increasing order."""
        return 0 if self.prime is None else self.prime

    @property
    def is_archimedean(self) -> bool:
        return self.prime is None

    @staticmethod
    def parse(text: str) -> "Place":
        s = str(text).strip().lower()
        if s == "inf":
            return Place.archimedean()
        try:
            p = parse_integer(s)
        except ValueError as exc:
            raise SpecError(f"not a place: {text!r}") from exc
        return Place.finite(p)

    def __str__(self):
        return "inf" if self.prime is None else str(self.prime)


INF = Place.archimedean()


# ---------------------------------------------------------------------------
# valuations
# ---------------------------------------------------------------------------


def padic_valuation(q: Fraction, p: int) -> int:
    """v_p(q) for q != 0; additive, v_p(p) = 1."""
    q = Fraction(q)
    if q == 0:
        raise DomainError("v_p(0) is not a finite integer")
    v = 0
    n = q.numerator
    while n % p == 0:
        n //= p
        v += 1
    if v:
        return v
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def vp_or_none(q: Fraction, p: int) -> Optional[int]:
    """padic_valuation with v_p(0) reported as None (infinite)."""
    return None if q == 0 else padic_valuation(q, p)


# ---------------------------------------------------------------------------
# local values and exact log sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalValue:
    """One local quantity.

    Exactly one of:
      * exact form: coeff * log(prime), coeff an exact Fraction (finite places);
      * interval form: certified [lo, hi] floats (the archimedean place).
    """

    coeff: Optional[Fraction] = None
    prime: Optional[int] = None
    lo: Optional[float] = None
    hi: Optional[float] = None

    @staticmethod
    def exact(coeff: Fraction, prime: int) -> "LocalValue":
        return LocalValue(coeff=Fraction(coeff), prime=prime)

    @staticmethod
    def interval(lo: float, hi: float) -> "LocalValue":
        if not lo <= hi:
            raise ValueError("empty interval")
        return LocalValue(lo=lo, hi=hi)

    @property
    def is_exact(self) -> bool:
        return self.coeff is not None

    def enclosure(self) -> Interval:
        if self.is_exact:
            if self.coeff == 0:
                return Interval.zero()
            return log_interval(Fraction(self.prime)).scale(self.coeff)
        return Interval(self.lo, self.hi)

    def to_json(self) -> dict:
        if self.is_exact:
            return {"coeff": format_rational(self.coeff), "prime": self.prime}
        return {"lo": self.lo, "hi": self.hi}

    @staticmethod
    def from_json(obj: dict) -> "LocalValue":
        if "coeff" in obj:
            return LocalValue.exact(parse_rational(obj["coeff"]), int(obj["prime"]))
        return LocalValue.interval(float(obj["lo"]), float(obj["hi"]))


# working precision (bits) past which LogSum.compare gives up
_COMPARE_MAX_PREC = 1 << 14


class LogSum:
    """Finite formal sum  sum_p  c_p * log p  over distinct primes p with
    exact rational c_p.

    Supports exact addition, scalar multiplication, and exact order
    comparison against another LogSum.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict[int, Fraction]] = None):
        self.terms: dict[int, Fraction] = {}
        if terms:
            for p, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    self.terms[p] = c

    @staticmethod
    def zero() -> "LogSum":
        return LogSum()

    @staticmethod
    def single(coeff: Fraction, prime: int) -> "LogSum":
        return LogSum({prime: Fraction(coeff)})

    def __add__(self, other: "LogSum") -> "LogSum":
        out = dict(self.terms)
        for p, c in other.terms.items():
            out[p] = out.get(p, Fraction(0)) + c
        return LogSum(out)

    def scale(self, r: Fraction) -> "LogSum":
        r = Fraction(r)
        return LogSum({p: c * r for p, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def enclosure(self, prec: int = DEFAULT_PREC) -> Interval:
        if not self.terms:
            return Interval.zero()
        total = (fzero, fzero)
        for p, c in sorted(self.terms.items()):
            log_p = mpi_log(iv_from_fraction(p, prec), prec)
            total = mpi_add(total, mpi_mul(log_p, iv_from_fraction(c, prec), prec), prec)
        return from_iv(total)

    def __float__(self) -> float:
        return self.enclosure().mid

    def compare(self, other: "LogSum") -> int:
        """Exact sign of (self - other): -1, 0, or 1.

        The logs of distinct primes are linearly independent over Q, so the
        difference is 0 exactly when every coefficient cancels; otherwise its
        enclosure is refined at doubling precision until it excludes 0, and
        BudgetExceeded is raised past _COMPARE_MAX_PREC bits.
        """
        diff = self + other.scale(Fraction(-1))
        if not diff.terms:
            return 0
        prec = DEFAULT_PREC
        while prec <= _COMPARE_MAX_PREC:
            enc = diff.enclosure(prec)
            if enc.lo > 0:
                return 1
            if enc.hi < 0:
                return -1
            prec *= 2
        raise BudgetExceeded(f"{diff!r} not separated from 0 at {_COMPARE_MAX_PREC} bits")

    def __eq__(self, other):
        return isinstance(other, LogSum) and self.compare(other) == 0

    def __repr__(self):
        if not self.terms:
            return "LogSum(0)"
        body = " + ".join(
            f"{format_rational(c)}*log{p}" for p, c in sorted(self.terms.items())
        )
        return f"LogSum({body})"

    def terms_json(self) -> dict:
        """{"p": "coeff"} for each term, in increasing p."""
        return {str(p): format_rational(c) for p, c in sorted(self.terms.items())}

    def to_json(self) -> dict:
        return {"logTerms": self.terms_json(), "float": float(self)}


def log_rational_exact(r: Fraction) -> LogSum:
    """log r for an exact rational r > 0, as an exact LogSum."""
    r = Fraction(r)
    if r <= 0:
        raise DomainError("log of a nonpositive rational")
    return LogSum(factor_rational(r))


def naive_height(q: Fraction) -> LogSum:
    """h(x/y) = log max(|x|, |y|) for coprime x, y, as an exact LogSum."""
    q = Fraction(q)
    return LogSum(factor_integer(max(abs(q.numerator), q.denominator)))


def _naive_height_interval(q: Fraction) -> Interval:
    """Enclosure of h(q) that never factors (safe for huge rationals): the
    integer max(|num q|, den q) is rounded outward at the working precision,
    whatever its size, before its log is taken."""
    n = max(abs(q.numerator), q.denominator)
    if n <= 1:
        return Interval.zero()
    return log_interval(Fraction(n))


# ---------------------------------------------------------------------------
# log+ and least root valuations
# ---------------------------------------------------------------------------


def log_plus(q: Fraction, place: Place) -> LocalValue:
    """log+ |q|_v = log max(1, |q|_v), exact at finite places."""
    q = Fraction(q)
    if place.is_archimedean:
        enc = log_plus_interval(q)
        return LocalValue.interval(enc.lo, enc.hi)
    p = place.prime
    if q == 0:
        return LocalValue.exact(Fraction(0), p)
    return LocalValue.exact(Fraction(max(0, -padic_valuation(q, p))), p)


def least_root_valuation(
    points: Sequence[tuple[int, int | Fraction]],
) -> Optional[Fraction]:
    """Least p-adic valuation of a root of f = sum c_i x^i, from the points
    (i, v_p(c_i)) of its nonzero coefficients in increasing i: minus the
    slope of the last face of the Newton polygon, the least over i < n of
    (v_i - v_n)/(n - i), with (n, v_n) the leading point.  None for a
    monomial, whose roots are all 0."""
    *lower, (n, v_n) = points
    if not lower:
        return None
    return min(Fraction(v - v_n, n - i) for i, v in lower)
