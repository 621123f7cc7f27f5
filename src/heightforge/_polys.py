"""Dense univariate polynomials over Q.

Coefficient lists are constant-term first throughout the package (matching
the cover-spec JSON convention).  Everything here is exact arithmetic:
Fraction ring operations, division with remainder and monic gcds,
denominator clearing on integers, and resultants as Sylvester determinants,
which the package only takes of small polynomials (a cover's numerator and
denominator, the radical of F(X, 1) and its derivative).  Discriminants come
from those resultants, and the radical of F(X, 1) and its greatest root
multiplicity from gcds with derivatives (Yun 1976), so no family constant at
a finite place factors anything.  sympy factors over Q (degree 2 and up): the
archimedean root bound of F(X, 1) and a cover's pole groups need it (the
groups are factored when first read, never by a scan), and it is imported
on the first such call, not with the package.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .arith import parse_rational
from .errors import DomainError

Coeffs = tuple[Fraction, ...]


def poly(coeffs: Sequence[Fraction | int | str]) -> Coeffs:
    """Normalize to a tuple of Fractions with no trailing zero (leading)
    coefficients; the zero polynomial is the empty tuple."""
    cs = [parse_rational(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(f: Coeffs) -> int:
    """Degree, with deg 0 = -1 by convention."""
    return len(f) - 1


def evaluate(f: Coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * x + c
    return acc


def mul(f: Coeffs, g: Coeffs) -> Coeffs:
    if not f or not g:
        return ()
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] += a * b
    return poly(out)


def scale(f: Coeffs, r: Fraction) -> Coeffs:
    return poly([c * r for c in f])


def derivative(f: Coeffs) -> Coeffs:
    return poly([i * c for i, c in enumerate(f)][1:])


def divmod_poly(f: Coeffs, g: Coeffs) -> tuple[Coeffs, Coeffs]:
    """(q, r) with f = q g + r and deg r < deg g, for g != 0."""
    if not g:
        raise DomainError("polynomial division by zero")
    rem, n = list(f), degree(g)
    quo = [Fraction(0)] * max(0, len(f) - n)
    inv = 1 / g[-1]
    for i in range(len(f) - 1, n - 1, -1):
        c = quo[i - n] = rem[i] * inv
        if c:
            for j, b in enumerate(g):
                rem[i - n + j] -= c * b
    return poly(quo), poly(rem[:n])


def exact_div(f: Coeffs, g: Coeffs) -> Coeffs:
    """f / g, for g dividing f."""
    quo, rem = divmod_poly(f, g)
    if rem:
        raise DomainError("polynomial division leaves a remainder")
    return quo


def monic(f: Coeffs) -> Coeffs:
    return scale(f, 1 / f[-1])


def gcd(f: Coeffs, g: Coeffs) -> Coeffs:
    """The monic gcd of f and g by Euclid's algorithm; gcd(0, 0) = 0."""
    while g:
        f, g = g, divmod_poly(f, g)[1]
    return monic(f) if f else ()


def clear_denominators(f: Coeffs) -> tuple[tuple[int, ...], int]:
    """Return (m*f, m) with m the least positive integer making m*f integral,
    the coefficients of m*f as ints: num c * (m // den c), with no rational
    arithmetic."""
    m = math.lcm(*(c.denominator for c in f))
    return tuple(c.numerator * (m // c.denominator) for c in f), m


def factor_over_q(f: Coeffs) -> tuple[Fraction, list[tuple[Coeffs, int]]]:
    """Irreducible factorization over Q via sympy, or directly for degree 1.

    Returns (content, [(factor, multiplicity)]); the factors are primitive
    integer polynomials with positive leading coefficient, in a deterministic
    order (degree, then coefficient tuple), and content * prod(factor^mult)
    equals f exactly.
    """
    if degree(f) < 1:
        return (f[0] if f else Fraction(0)), []
    if degree(f) == 1:
        # f = c (a X + b) with a > 0 and gcd(a, b) = 1 is its own factorization,
        # and sympy's import (0.3 s) is not needed for it
        (b, a), m = clear_denominators(f)
        g = math.gcd(a, b) if a > 0 else -math.gcd(a, b)
        return Fraction(g, m), [((Fraction(b // g), Fraction(a // g)), 1)]
    import sympy

    content, factors = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                                   for c in reversed(f)], sympy.Symbol("x")).factor_list()
    out = []
    for fac, mult in factors:
        cs = [Fraction(c.p, c.q) for c in reversed(fac.all_coeffs())]
        out.append((poly(cs), int(mult)))
    out.sort(key=lambda fm: (degree(fm[0]), fm[0]))
    c = Fraction(content.p, content.q)
    return c, out


def discriminant(f: Coeffs) -> Fraction:
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lead(f)."""
    n = degree(f)
    if n < 1:
        raise DomainError("discriminant needs degree >= 1")
    return (-1) ** (n * (n - 1) // 2) * resultant(f, derivative(f)) / f[-1]


# ---------------------------------------------------------------------------
# resultants (Sylvester determinant route)
# ---------------------------------------------------------------------------


def sylvester_matrix(f: Coeffs, g: Coeffs, m: int, n: int) -> list[list[Fraction]]:
    """Sylvester matrix of f, g with formal degrees m, n (so zero leading
    coefficients are allowed; needed for binary forms like c*W^d)."""
    if len(f) > m + 1 or len(g) > n + 1:
        raise DomainError("formal degree below actual degree")
    fa = list(f) + [Fraction(0)] * (m + 1 - len(f))
    ga = list(g) + [Fraction(0)] * (n + 1 - len(g))
    size = m + n
    rows = []
    for i in range(n):  # rows of f coefficients
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(fa)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):  # rows of g coefficients
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(ga)):
            row[i + j] = c
        rows.append(row)
    return rows


def det_exact(matrix: list[list[Fraction]]) -> Fraction:
    """Exact determinant by fraction Gaussian elimination."""
    n = len(matrix)
    a = [row[:] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] == 0:
                continue
            factor = a[r][col] * inv
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    return det


def resultant(f: Coeffs, g: Coeffs, m: int | None = None, n: int | None = None) -> Fraction:
    """Res(f, g), by default at the actual degrees."""
    m = degree(f) if m is None else m
    n = degree(g) if n is None else n
    if m < 0 or n < 0:
        raise DomainError("resultant of the zero polynomial")
    if not f or not g:
        return Fraction(0)
    if m == 0 and n == 0:
        return Fraction(1)
    if m == 0:
        return f[0] ** n
    if n == 0:
        return g[0] ** m
    return det_exact(sylvester_matrix(f, g, m, n))

