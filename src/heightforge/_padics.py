"""Capped-precision p-adic approximations.

Exact rational orbit points blow up in height after a few iterations, but the
finite-place Green computation only consumes their valuations.  A value is
therefore carried as a p-adic floating number

    p^k * (u + O(p^m)),   u a unit, 0 < u < p^m,

whose valuation k stays exact as long as the unit part survives, or as
"zero to absolute precision A" (v >= A) when every tracked digit has
cancelled.  The operations never raise: a result keeps its exact valuation
and whatever digits survive cancellation, or is zero to A when none does;
the finite-place Green loop decides when such a bound is too weak.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import padic_valuation


@dataclass(frozen=True)
class PAdic:
    p: int
    k: int  # valuation (exact when unit != 0, else lower bound = abs prec)
    unit: int  # 0 encodes "zero to absolute precision k"
    m: int  # relative precision (0 for the zero encoding)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero_to(p: int, abs_prec: int) -> "PAdic":
        return PAdic(p, abs_prec, 0, 0)

    @staticmethod
    def from_fraction(q: Fraction, p: int, abs_prec: int) -> "PAdic":
        q = Fraction(q)
        if q == 0:
            return PAdic.zero_to(p, abs_prec)
        k = padic_valuation(q, p)
        m = abs_prec - k
        if m <= 0:
            return PAdic.zero_to(p, abs_prec)
        mod = p**m
        num = q.numerator
        den = q.denominator
        if k > 0:
            num //= p**k
        elif k < 0:
            den //= p ** (-k)
        u = num * pow(den, -1, mod) % mod
        return PAdic(p, k, u, m)

    # -- queries -----------------------------------------------------------

    @property
    def is_zeroish(self) -> bool:
        return self.unit == 0

    @property
    def abs_prec(self) -> int:
        return self.k + self.m if self.unit else self.k

    def valuation_exact(self) -> int | None:
        """The exact valuation, or None when only v >= abs_prec is known."""
        return None if self.unit == 0 else self.k

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "PAdic") -> "PAdic":
        assert self.p == other.p
        p = self.p
        a_prec = min(self.abs_prec, other.abs_prec)
        if self.is_zeroish and other.is_zeroish:
            return PAdic.zero_to(p, a_prec)
        if self.is_zeroish or other.is_zeroish:
            x = other if self.is_zeroish else self
            if x.k >= a_prec:
                return PAdic.zero_to(p, a_prec)
            m = a_prec - x.k
            return PAdic(p, x.k, x.unit % p**m, m)
        k0 = min(self.k, other.k)
        m0 = a_prec - k0  # >= 1: each operand's abs_prec exceeds its k >= k0
        mod = p**m0
        s = (self.unit * p ** (self.k - k0) + other.unit * p ** (other.k - k0)) % mod
        if s == 0:
            return PAdic.zero_to(p, a_prec)
        t = 0
        while s % p == 0:
            s //= p
            t += 1
        k = k0 + t
        m = a_prec - k  # >= 1, since s != 0 mod p^m0
        return PAdic(p, k, s % p**m, m)

    def __mul__(self, other: "PAdic") -> "PAdic":
        assert self.p == other.p
        p = self.p
        if self.is_zeroish or other.is_zeroish:
            # v(xy) >= abs_prec(zero part) + k(other part), and a zero's k
            # is its abs_prec
            return PAdic.zero_to(p, self.k + other.k)
        m = min(self.m, other.m)
        return PAdic(p, self.k + other.k, (self.unit * other.unit) % p**m, m)
