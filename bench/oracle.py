"""Reference facts the benchmark checks heightforge's outputs against.

Nothing here imports heightforge.  Every map is specialised, iterated and
bounded with the benchmark's own exact rational arithmetic, so a check that
passes does not merely repeat the program's own reasoning.

For a monic f(w) = w^d + sum_{i<d} c_i w^i over Q and h(w) = sum_v log+|w|_v,
the per-place estimates below give |h(f(w)) - d h(w)| <= C for every rational
w, with C = c_inf + sum_p c_p:

* archimedean, with S = sum_{i<d} |c_i| and R = max(1, 2S):
  log+|f(w)| <= d log+|w| + log(1 + S), and log+|f(w)| >= d log+|w| - log 2
  once |w| >= R, while d log+|w| <= d log R below R; so
  c_inf = max(log(1 + S), log 2, d log R).
* finite p, with log rho = max(0, max_i -v_p(c_i) / (d - i)) log p: above rho
  the leading term dominates and log+|f(w)|_p = d log+|w|_p exactly; at or
  below rho both sides lie in [0, d log rho]; so c_p = d log rho.

Telescoping then gives |hhat(z) - d^-N h(f^N z)| <= C / ((d - 1) d^N), and a
preperiodic point has h(w) <= C / (d - 1) along its whole orbit.  The same
estimates show escape: for |w| > max(2, 2S), |f(w)| >= |w|^(d-1) (|w| - S)
> |w|, and for |w|_p > rho, |f(w)|_p = |w|_p^d > |w|_p, so from such a
point the orbit grows strictly at that place and never repeats.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional

# Relative and absolute slack for float logarithms of exact integers.
_SLACK = 1e-9


def specialize(form: tuple, e: int, t: Fraction) -> list[Fraction]:
    """Constant-first coefficients of f_t(z) = F(z^e, t), F = sum a_j X^j Y^(D-j),
    with `form` = (a_D, ..., a_0)."""
    D = len(form) - 1
    cs = [Fraction(0)] * (e * D + 1)
    for k, a in enumerate(form):
        j = D - k
        cs[e * j] = Fraction(a) * Fraction(t) ** (D - j)
    return cs


def valuation(q: Fraction, p: int) -> int:
    n, d, v = q.numerator, q.denominator, 0
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def trial_primes(n: int, limit: int = 10**6) -> list[int]:
    """Prime factors of a positive integer whose cofactor above `limit`
    is 1; raises when the number is too large to split this way."""
    out = []
    p = 2
    while p * p <= n and p <= limit:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        if n > limit * limit:
            raise ValueError(f"cofactor {n} too large for trial division")
        out.append(n)
    return out


def height(w: Fraction) -> float:
    """Naive height log max(|num|, den)."""
    return math.log(max(abs(w.numerator), w.denominator))


class Map:
    """f_t for a monic family, with its height-defect constant C."""

    def __init__(self, form: tuple, e: int, t: Fraction,
                 primes: Optional[Iterable[int]] = None):
        if Fraction(form[0]) != 1:
            raise ValueError("the reference map needs a monic family")
        self.cs = specialize(form, e, Fraction(t))
        self.d = len(self.cs) - 1
        if primes is None:
            den = 1
            for c in self.cs:
                den = den * c.denominator // math.gcd(den, c.denominator)
            primes = trial_primes(den)
        lower = self.cs[:-1]
        self.S = sum(abs(c) for c in lower)
        # rho_p as an exponent: log rho_p = rho[p] log p
        self.rho = {p: max((Fraction(-valuation(c, p), self.d - i)
                            for i, c in enumerate(lower) if c), default=Fraction(0))
                    for p in primes}
        self.C = self._defect()

    def __call__(self, w: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.cs):
            acc = acc * w + c
        return acc

    def _defect(self) -> float:
        d, s = self.d, self.S
        total = max(_log(1 + s), math.log(2), d * _log(max(Fraction(1), 2 * s)))
        for p, worst in self.rho.items():
            if worst > 0:
                total += d * float(worst) * math.log(p)
        return total * (1 + _SLACK) + _SLACK

    def escapes(self, w: Fraction) -> bool:
        """Whether w lies where its orbit provably grows without bound."""
        return abs(w) > max(2, 2 * self.S) or self.denominator_escapes(w.denominator)

    def denominator_escapes(self, den: int) -> bool:
        """Whether every x/den in lowest terms has |x/den|_p > rho_p at some p."""
        for p, worst in self.rho.items():
            k = 0
            while den % p == 0:
                den //= p
                k += 1
            if k > worst:
                return True
        return den > 1  # a prime where every coefficient is integral

    def tail(self, n: int) -> float:
        return self.C / ((self.d - 1) * self.d**n)

    def telescope(self, z: Fraction, max_bits: int = 4096, max_steps: int = 40):
        """(estimate, tail): hhat(z) lies within tail of d^-N h(f^N z), N as
        large as the exact orbit allows under the bit cap."""
        w, n = Fraction(z), 0
        while n < max_steps:
            nxt = self(w)
            if nxt.numerator.bit_length() + nxt.denominator.bit_length() > max_bits:
                break
            w, n = nxt, n + 1
        est = height(w) / self.d**n
        return est, self.tail(n) + _SLACK * (1 + est)

    def is_preperiodic(self, z: Fraction, max_steps: int = 10_000) -> bool:
        """Exact iteration until a repeat, an escaping point or a point above
        the height bound."""
        bound = self.C / (self.d - 1)
        seen = set()
        w = Fraction(z)
        for _ in range(max_steps):
            if w in seen:
                return True
            if self.escapes(w) or height(w) > bound:
                return False
            seen.add(w)
            w = self(w)
        raise RuntimeError(f"orbit of {z} undecided after {max_steps} steps")

    def preperiodic_in_box(self, size: int) -> set[Fraction]:
        """Every preperiodic x/y with |x| <= size and 1 <= y <= size.  Each
        point is classified; a denominator at which every point escapes
        classifies its whole column at once."""
        out = set()
        for y in range(1, size + 1):
            if self.denominator_escapes(y):
                continue
            for x in range(-size, size + 1):
                if math.gcd(x, y) == 1 and self.is_preperiodic(Fraction(x, y)):
                    out.add(Fraction(x, y))
        return out

    def replays(self, z: Fraction, preperiod: int, period: int) -> bool:
        """Whether the orbit of z first repeats with this preperiod and period."""
        if preperiod < 0 or period < 1:
            return False
        pts = [Fraction(z)]
        for _ in range(preperiod + period):
            pts.append(self(pts[-1]))
        head = pts[: preperiod + period]
        return pts[preperiod] == pts[-1] and len(set(head)) == len(head)


def _log(q: Fraction) -> float:
    return math.log(q.numerator) - math.log(q.denominator)


def rationals_in_box(size: int) -> list[Fraction]:
    """Every x/y in lowest terms with |x| <= size and 1 <= y <= size."""
    out = {Fraction(0)}
    for y in range(1, size + 1):
        for x in range(1, size + 1):
            if math.gcd(x, y) == 1:
                out.add(Fraction(x, y))
                out.add(Fraction(-x, y))
    return sorted(out)


def enclosures_overlap(a: tuple[float, float], b: tuple[float, float]) -> bool:
    """Overlap of two real intervals, allowing float rounding of products."""
    slack = 1e-12 * (1 + max(abs(a[0]), abs(a[1]), abs(b[0]), abs(b[1])))
    return a[0] <= b[1] + slack and b[0] <= a[1] + slack
