"""Weighted homogeneous polynomial families f_t(z) = F(z^e, t).

F(X, Y) = sum_j a_j X^j Y^(D-j) is a binary form of degree D divisible by
neither X nor Y (a_0 != 0, a_D != 0), and d = e*D.  Writing F(X, 1) =
a_D * prod_i (X - beta_i)^(alpha_i) gives the factorization
f_t(z) = a_D * prod_i (z^e - beta_i t)^(alpha_i) that drives all local
estimates: everything the rest of the package needs about the beta_i comes
from their least and greatest valuations (finite places) and certified
archimedean bounds, never from numerical roots.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterator, Optional, Sequence

from mpmath.libmp import fone, from_rational, mpf_div, mpf_sub, round_ceiling, round_floor

from . import _polys
from ._intervals import DEFAULT_PREC, Interval, log_interval, log_iv
from ._polys import Coeffs
from .arith import (
    LocalValue,
    factor_integer,
    format_rational,
    integer_root,
    least_root_valuation,
    padic_valuation,
    parse_rational,
    support,
    vp_or_none,
)
from .errors import DomainError, NormalizationUnavailable, SpecError

# Minimal counts of affine poles of order prime to e for the pole-witness
# argument to apply at weight e.
def required_pole_count(e: int) -> int:
    if e < 2:
        raise DomainError("weight e must be >= 2")
    if e == 2:
        return 5
    if e == 3:
        return 4
    return 3


@dataclass(frozen=True)
class Family:
    """One family f_t(z) = F(z^e, t); `form` holds a_D, ..., a_0 (leading
    coefficient of z^d first, matching the JSON field order)."""

    e: int
    form: tuple[Fraction, ...]

    def __hash__(self) -> int:
        # the dataclass hash of (e, form), computed once: every `specialized`
        # cache lookup hashes the family
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.e, self.form))
        return h

    # -- shape -------------------------------------------------------------

    @property
    def deg_form(self) -> int:
        return len(self.form) - 1

    @property
    def d(self) -> int:
        return self.e * self.deg_form

    @property
    def lead(self) -> Fraction:
        return self.form[0]

    @property
    def monic(self) -> bool:
        return self.form[0] == 1

    def coefficient(self, j: int) -> Fraction:
        """a_j, the coefficient of X^j Y^(D-j) in F."""
        return self.form[self.deg_form - j]

    # -- factor data (exact, cached) ----------------------------------------

    @cached_property
    def f1(self) -> Coeffs:
        """F(X, 1) as a constant-first polynomial."""
        return _polys.poly(list(reversed(self.form)))

    @cached_property
    def factors(self) -> tuple[tuple[Coeffs, int], ...]:
        """Irreducible factors of F(X, 1) over Q with multiplicities alpha_i,
        by sympy; only the archimedean root bound reads them."""
        _, facs = _polys.factor_over_q(self.f1)
        return tuple(facs)

    @cached_property
    def radical(self) -> Coeffs:
        """The monic radical r of F(X, 1), f / gcd(f, f') made monic: its
        roots are the distinct beta_i, each simple."""
        f = self.f1
        return _polys.monic(_polys.exact_div(f, _polys.gcd(f, _polys.derivative(f))))

    @cached_property
    def max_multiplicity(self) -> int:
        """A = max alpha_i: gcd(f, f') lowers every root's multiplicity by
        one, so A steps of f -> gcd(f, f') reach a constant."""
        f, steps = self.f1, 0
        while _polys.degree(f) > 0:
            f, steps = _polys.gcd(f, _polys.derivative(f)), steps + 1
        return steps

    @cached_property
    def coefficient_support(self) -> tuple[int, ...]:
        primes: set[int] = set()
        for a in self.form:
            if a != 0 and a != 1:
                primes.update(support(a))
        return tuple(sorted(primes))

    def amax(self, p: int) -> Fraction:
        """max_i |v_p(beta_i)|, the finite-place size of the factor roots.
        The least v_p(beta_i) is the least root valuation of F(X, 1), and the
        greatest is minus that of its reversal X^D F(1/X, 1), whose roots are
        the 1/beta_i; all are zero off the coefficient support."""
        if p not in self.coefficient_support:
            return Fraction(0)
        points = [(i, padic_valuation(c, p)) for i, c in enumerate(self.f1) if c]
        reversal = [(self.deg_form - i, v) for i, v in reversed(points)]
        return max(abs(least_root_valuation(points)), abs(least_root_valuation(reversal)))

    @cached_property
    def arch_root_bound(self) -> Fraction:
        """Exact rational B >= max_i |beta_i|: exact for rational roots,
        per-factor Cauchy bound 1 + max |c_i / lead| otherwise."""
        best = Fraction(0)
        for fac, _ in self.factors:
            if _polys.degree(fac) == 1:
                root = -fac[0] / fac[1]
                best = max(best, abs(root))
            else:
                lead = fac[-1]
                cauchy = 1 + max(abs(c / lead) for c in fac[:-1])
                best = max(best, cauchy)
        return best

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {"e": self.e, "F": [format_rational(c) for c in self.form]}

    @staticmethod
    def from_json(obj: dict) -> "Family":
        try:
            e, coeffs = obj["e"], obj["F"]
            # an integer or an integer string; a float such as 2.7 or a JSON
            # true would otherwise be read silently as int(e)
            if isinstance(e, bool) or not isinstance(e, (int, str)):
                raise TypeError(f"e must be an integer, got {e!r}")
            e = int(e)
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"malformed family spec: {obj!r}") from exc
        return build_family(coeffs, e)

    def describe(self) -> str:
        """Human-oriented one-liner like 'z^4 - 3 t z^2 + t^2' (e = 2)."""
        return self._description

    @cached_property
    def _description(self) -> str:
        D = self.deg_form
        parts = []
        for j in range(D, -1, -1):
            a = self.coefficient(j)
            if a == 0:
                continue
            zpow = self.e * j
            tpow = D - j
            piece = []
            if a != 1 or (zpow == 0 and tpow == 0):
                piece.append(format_rational(a))
            if zpow:
                piece.append("z" if zpow == 1 else f"z^{zpow}")
            if tpow:
                piece.append("t" if tpow == 1 else f"t^{tpow}")
            parts.append(" ".join(piece) if piece else "1")
        return " + ".join(parts).replace("+ -", "- ")


def build_family(coeffs: Sequence[Fraction | int | str], e: int) -> Family:
    """Validate and build a family from a_D, ..., a_0 (leading first)."""
    if not isinstance(e, int) or e < 2:
        raise SpecError(f"weight e must be an integer >= 2, got {e!r}")
    if not isinstance(coeffs, (list, tuple)):  # a string or a dict would be iterated
        raise SpecError(f"F must be an array of coefficients, got {type(coeffs).__name__}")
    form = tuple(parse_rational(c) for c in coeffs)
    if len(form) < 2:
        raise SpecError("F must have degree >= 1 in X")
    if form[0] == 0:
        raise SpecError("leading coefficient a_D vanishes: Y divides F")
    if form[-1] == 0:
        raise SpecError("constant coefficient a_0 vanishes: X divides F")
    return Family(e=e, form=form)


class _FiniteGreenData:
    """Per-(family, t, p) data for the finite-place Green algorithms, read
    from the form coefficients b = (b_0, ..., b_D) of f_t(z) = sum_j b_j z^(e j).

    `theta` is the escape threshold: z lies in the escape region at p
    exactly when v(z) < theta, where
    theta = min(-v(b_D)/(d-1), the least root valuation of f_t).  Below it
    the top term strictly dominates and v(f(z)) = v(b_D) + d v(z) < v(z), so
    both persist along the orbit.
    """

    def __init__(self, b: Coeffs, e: int, p: int):
        self.e = e
        self.d = d = e * (len(b) - 1)
        self.p = p
        self.vb = [vp_or_none(c, p) for c in b]  # None for b_j = 0
        self.v_lead = self.vb[-1]
        terms = [(e * j, v) for j, v in enumerate(self.vb) if v is not None]
        self.theta = Fraction(-self.v_lead, d - 1)
        least = least_root_valuation(terms)  # None when t = 0
        if least is not None:
            self.theta = min(self.theta, least)
        self.theta_ceil = math.ceil(self.theta)  # v < theta iff v < theta_ceil
        # the disk {v >= rho} is invariant when v(b_0) >= rho and
        # v(b_j) >= (1 - e j) rho for j >= 1; rho_lo is the least integer rho
        # meeting the second condition, so one exists iff rho_lo <= v(b_0)
        self.rho_lo = max([0] + [math.ceil(Fraction(-v, i - 1)) for i, v in terms if i and v < 0])
        self.disk_feasible = self.vb[0] is None or self.rho_lo <= self.vb[0]
        # upper-bound constant in valuation units
        self.c_up = max([0] + [-v for _, v in terms])

    def escape_value(self, vw: Optional[int], n: int) -> LocalValue:
        """G_p(z) = d^-n (-vw - v(b_D)/(d-1)) log p, given v(z_n) = vw in the
        escape region, the only place where the closed form holds."""
        if not self.escapes(vw):
            raise AssertionError(f"v = {vw} is outside the escape region at {self.p}")
        coeff = (Fraction(-vw) - Fraction(self.v_lead, self.d - 1)) / self.d**n
        return LocalValue.exact(coeff, self.p)

    def escapes(self, vw: Optional[int]) -> bool:
        """Whether a point with v = vw (None: v = +infinity) lies in the
        escape region at p."""
        return vw is not None and vw < self.theta_ceil

    def in_disk(self, vw: Optional[int]) -> bool:
        """vw = None encodes v = +infinity (the point 0)."""
        if not self.disk_feasible:
            return False
        return vw is None or vw >= self.rho_lo

    def settles(self, a: int) -> bool:
        """Whether a point known only as v >= a takes v = +infinity's exits:
        with a disk it lies in it when a >= rho_lo, and with none, when
        a >= max(0, theta_ceil), it cannot escape and has log+ |z|_p = 0."""
        return a >= (self.rho_lo if self.disk_feasible else max(0, self.theta_ceil))

    def upper_bound(self, vw: Optional[int], n: int) -> tuple[int, int]:
        """Integers (num, den) with G <= (num / den) log p given v(z_n) = vw:
        num / den = (max(0, -vw) + c_up / (d - 1)) / d^n."""
        head = 0 if vw is None else max(0, -vw)
        return head * (self.d - 1) + self.c_up, (self.d - 1) * self.d**n


class SpecializedMap:
    """f_t(z) = F(z^e, t) = sum_j b_j z^(e j) for one family and parameter:
    the D + 1 form coefficients `ze_coeffs` = (b_0, ..., b_D), b_j = a_j t^(D-j),
    constant first (unlike `Family.form`), the exact orbit on integer pairs
    (`step`, `orbit`, and calling the map), and each fact the local and global
    algorithms read about f_t, computed once on first use.  Build maps through
    the memoized `specialized`."""

    def __init__(self, fam: Family, t: Fraction):
        self.e, self.d, self.t = fam.e, fam.d, t
        D = fam.deg_form
        self.ze_coeffs = tuple(fam.coefficient(j) * t ** (D - j) for j in range(D + 1))
        self._green_data: dict[int, _FiniteGreenData] = {}

    def step(self, x: int, y: int) -> tuple[int, int]:
        """f_t(x/y) as (num, den) in lowest terms with den > 0, for x/y in
        lowest terms with y > 0: with the integral model (C, M) and X = x^e,
        Y = y^e, f_t(x/y) = N / (M Y^D) where N = sum_j C_j X^j Y^(D-j) by
        homogeneous Horner, reduced by one gcd."""
        C, M = self.integral_model
        X, Y = x**self.e, y**self.e
        acc, y_pow = C[-1], 1
        for c in C[-2::-1]:
            y_pow *= Y
            acc = acc * X + c * y_pow
        den = M * y_pow
        g = math.gcd(acc, den)
        return acc // g, den // g

    def __call__(self, z: Fraction) -> Fraction:
        return Fraction(*self.step(z.numerator, z.denominator))

    def orbit(self, z: Fraction) -> Iterator[tuple[int, int, int]]:
        """The exact orbit z_0 = z, z_1 = f_t(z_0), ... as triples
        (num z_n, den z_n, j) in lowest terms with den z_n > 0, j the index of
        z_n's first occurrence, so the orbit first repeats at the n with j < n.
        Lazy: each point after z_0 costs one `step` when it is requested.  The
        orbit never ends; the caller stops."""
        seen: dict[tuple[int, int], int] = {}
        step = self.step
        num, den, n = z.numerator, z.denominator, 0
        while True:
            yield num, den, seen.setdefault((num, den), n)
            num, den = step(num, den)
            n += 1

    @cached_property
    def integral_model(self) -> tuple[tuple[int, ...], int]:
        """(M b, M) as integers, M the lcm of the coefficient denominators."""
        return _polys.clear_denominators(self.ze_coeffs)

    @cached_property
    def tail_sum(self) -> Fraction:
        """T = sum_{j<D} |b_j| / |b_D|."""
        return sum(abs(c) for c in self.ze_coeffs[:-1]) / abs(self.ze_coeffs[-1])

    @cached_property
    def escape_radius(self) -> Fraction:
        """Beyond this |f(w)| >= gamma |w| with gamma > 1: the orbit escapes."""
        return max(Fraction(1), 2 * self.tail_sum, 2 / abs(self.ze_coeffs[-1]))

    @cached_property
    def arch_log_terms(self) -> tuple[Interval, Interval]:
        """Enclosures of C/(d-1) with C = log max(1, sum |b_j|), the growth
        constant of the archimedean bounded exit, and of log|b_D|/(d-1), the
        lead term of its escape exit."""
        d = self.d
        c_up = log_interval(max(Fraction(1), sum(abs(c) for c in self.ze_coeffs)))
        lead = log_interval(abs(self.ze_coeffs[-1]))
        return c_up.scale(Fraction(1, d - 1)), lead.scale(Fraction(1, d - 1))

    @cached_property
    def _tail_hi(self):
        """T as a libmp number, rounded up."""
        T = self.tail_sum
        return from_rational(T.numerator, T.denominator, DEFAULT_PREC, round_ceiling)

    def arch_escape_value(self, az, n: int) -> Interval:
        """An enclosure of G_inf(z), given a libmp endpoint pair az enclosing
        |z_n| > R_esc for the n-th orbit point z_n of z:

            G_inf(z) in d^-n (log|z_n| + log|b_D|/(d-1)) +- d^-n eps/(d-1),
            eps = -log(1 - T/|z_n|).

        Past R_esc, log|f(w)| = d log|w| + log|b_D| + eta(w) with
        |eta(w)| <= -log(1 - T/|w|), and |w| grows along the orbit, so
        summing G(z_n) = log|z_n| + sum_k d^-(k+1) (log|b_D| + eta(z_{n+k}))
        gives the width.  Every rounding is outward, T/|z_n| read with T
        rounded up and |z_n| at az's lower end.

        The exact lower end d^-n ((d-1) log|z_n| + log|b_D| - eps)/(d-1) is
        positive: R_esc = max(1, 2T, 2/|b_D|) gives T/|z_n| < 1/2, so
        eps < log 2, and since |z_n| > 1 and d >= 2,
        (d-1) log|z_n| + log|b_D| >= log(|z_n| |b_D|) > log 2.  The float
        enclosure's lower end can still fall to 0 or below when that margin
        is under its rounding; a later orbit point then gives a larger
        lower end."""
        ratio = mpf_div(self._tail_hi, az[0], DEFAULT_PREC, round_ceiling)  # >= T/|z_n|
        one_minus = mpf_sub(fone, ratio, DEFAULT_PREC, round_floor)
        eps_hi = -log_iv((one_minus, one_minus)).lo
        tail = Interval(-eps_hi, eps_hi).scale(Fraction(1, self.d - 1))
        enc = log_iv(az) + self.arch_log_terms[1] + tail
        return enc.scale(Fraction(1, self.d**n))

    @cached_property
    def denominator_factors(self) -> dict[int, int]:
        """The factorization {p: v_p(M)} of M, sorted by p.  M divides a power
        of den t times the coefficient denominators, so M is divided by den
        t's primes and only what is left is factored."""
        den_primes = [p for p, _ in parameter_denominator_factors(self.t.denominator)]
        return _factor_over(self.integral_model[1], den_primes)

    @cached_property
    def denominator_primes(self) -> tuple[int, ...]:
        """Sorted primes dividing some coefficient's denominator, i.e. M."""
        return tuple(self.denominator_factors)

    def factor(self, n: int) -> dict[int, int]:
        """The factorization {p: v_p(n)} of an integer n != 0, sorted by p:
        valuations at M's primes by division, and factor_integer only on the
        cofactor prime to M, so no prime of M is searched for again."""
        return _factor_over(n, self.denominator_primes)

    def bad_primes(self, den: int) -> tuple[int, ...]:
        """The sorted primes of M and of den, the denominator of a point z:
        the only primes at which the orbit of z can leave Z_p.  At any other
        prime every b_j is p-integral, so the escape threshold is <= 0 and the
        p-integral orbit never escapes.  A den made of M's primes is not
        factored at all."""
        primes, m_primes = self.factor(den).keys(), self.denominator_factors.keys()
        if primes <= m_primes:
            return self.denominator_primes
        return tuple(sorted(primes | m_primes))

    def green_data(self, p: int) -> _FiniteGreenData:
        """The finite-place Green data at p, built once per prime."""
        data = self._green_data.get(p)
        if data is None:
            data = self._green_data[p] = _FiniteGreenData(self.ze_coeffs, self.e, p)
        return data


@lru_cache(maxsize=256)
def parameter_denominator_factors(den: int) -> tuple[tuple[int, int], ...]:
    """The factorization of a parameter's denominator as sorted (p, v_p)
    pairs, factored once: the bad-place obstruction and the map at t both
    read it, and the parameters of a box share few denominators."""
    return tuple(factor_integer(den).items())


def _factor_over(n: int, primes) -> dict[int, int]:
    """{p: v_p(n)} for n != 0, sorted by p: valuations at the sorted `primes`
    by division, and factor_integer only on the cofactor prime to them."""
    n, out = abs(n), {}
    for p in primes:
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k:
            out[p] = k
    if n == 1:
        return out  # sorted already, as the primes are
    out.update(factor_integer(n))
    return dict(sorted(out.items()))


@lru_cache(maxsize=256)
def _specialized(fam: Family, num: int, den: int) -> SpecializedMap:
    return SpecializedMap(fam, Fraction(num, den))


def specialized(fam: Family, t: Fraction) -> SpecializedMap:
    """The memoized SpecializedMap of fam at a rational t (a Fraction or an
    int), cached under (num t, den t): a Fraction's hash takes a modular
    inverse of its denominator, and every orbit looks its map up."""
    return _specialized(fam, t.numerator, t.denominator)


def specialize(fam: Family, t: Fraction) -> Coeffs:
    """f_t as a dense constant-first coefficient list of length d + 1: the
    map's b_j at z^(e j), zero elsewhere."""
    out = [Fraction(0)] * (fam.d + 1)
    out[:: fam.e] = specialized(fam, Fraction(t)).ze_coeffs
    return tuple(out)


def monic_normalize(fam: Family) -> tuple[Family, Fraction]:
    """Conjugate to a monic family: find rational alpha with
    alpha^(d-1) = a_D and return (g, alpha) where g_t(z) = alpha f_t(z/alpha),
    so canonical heights transform as hhat_f(z) = hhat_g(alpha z).

    Raises NormalizationUnavailable when no rational alpha exists (a_D not a
    rational (d-1)-th power; for odd d this includes every negative a_D that
    is not minus a power, since d-1 is then even).
    """
    if fam.monic:
        return fam, Fraction(1)
    a = fam.lead
    k = fam.d - 1
    alpha = _rational_kth_root(a, k)
    if alpha is None:
        raise NormalizationUnavailable(
            f"a_D = {format_rational(a)} is not a rational {k}-th power"
        )
    new_form = tuple(
        fam.coefficient(j) * alpha ** (1 - fam.e * j)
        for j in range(fam.deg_form, -1, -1)
    )
    return Family(e=fam.e, form=new_form), alpha


def _rational_kth_root(q: Fraction, k: int) -> Optional[Fraction]:
    """Rational x with x^k = q, or None.  For even k only q > 0 can work and
    the positive root is returned; for odd k the sign carries over."""
    if q == 0:
        return Fraction(0)
    neg = q < 0
    if neg and k % 2 == 0:
        return None
    num, num_exact = integer_root(abs(q.numerator), k)
    den, den_exact = integer_root(q.denominator, k)
    if not (num_exact and den_exact):
        return None
    root = Fraction(num, den)
    return -root if neg else root


# ---------------------------------------------------------------------------
# parameter covers t = phi(s) = numer(s)/denom(s)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoleGroup:
    """One Galois orbit of affine poles: the irreducible factor of the
    denominator cutting them out, the pole order, and the number of
    conjugate poles (= the factor's degree)."""

    factor: Coeffs
    order: int
    count: int
    rational_location: Optional[Fraction]

    def to_json(self) -> dict:
        return {
            "factor": [format_rational(c) for c in self.factor],
            "order": self.order,
            "count": self.count,
            "location": None
            if self.rational_location is None
            else format_rational(self.rational_location),
        }


@dataclass(frozen=True)
class CoverAnalysis:
    """A cover phi = numer/denom checked by `analyze_cover`.  `poles` factors
    the denominator on first read, so a scan, which only evaluates phi, never
    factors and never imports sympy."""

    numer: Coeffs
    denom: Coeffs
    infinity_order: int

    @cached_property
    def poles(self) -> tuple[PoleGroup, ...]:
        groups = []
        for fac, mult in _polys.factor_over_q(self.denom)[1]:
            loc = -fac[0] / fac[1] if _polys.degree(fac) == 1 else None
            groups.append(PoleGroup(fac, mult, _polys.degree(fac), loc))
        return tuple(groups)

    def affine_pole_count(self) -> int:
        return sum(g.count for g in self.poles)

    def to_json(self) -> dict:
        return {
            "numer": [format_rational(c) for c in self.numer],
            "denom": [format_rational(c) for c in self.denom],
            "poles": [g.to_json() for g in self.poles],
            "infinity_order": self.infinity_order,
        }


def analyze_cover(
    numer: Sequence[Fraction | int | str], denom: Sequence[Fraction | int | str]
) -> CoverAnalysis:
    """Pole structure of phi(t) = numer(t)/denom(t) over Q.

    Requires coprime numerator and denominator (a nonzero resultant) and a
    nonconstant map.  Poles in the affine line are grouped by the irreducible
    factors of the denominator (count = factor degree, order = factor
    multiplicity) when `poles` is first read, not here; the map has a pole at
    infinity of order deg numer - deg denom when that difference is positive.
    """
    for name, coeffs in (("numer", numer), ("denom", denom)):
        if not isinstance(coeffs, (list, tuple)):
            raise SpecError(f"{name} must be an array, got {type(coeffs).__name__}")
    nu = _polys.poly(numer)
    de = _polys.poly(denom)
    if not de:
        raise SpecError("zero denominator polynomial")
    if not nu:
        # the zero map is constant
        raise SpecError("constant map: zero numerator")
    if _polys.degree(nu) <= 0 and _polys.degree(de) <= 0:
        raise SpecError("constant map")
    if _polys.resultant(nu, de) == 0:
        raise SpecError("numer and denom share a nonconstant factor")
    inf_order = max(0, _polys.degree(nu) - _polys.degree(de))
    return CoverAnalysis(numer=nu, denom=de, infinity_order=inf_order)


def evaluate_cover(cov: CoverAnalysis, t: Fraction) -> Fraction:
    t = Fraction(t)
    den = _polys.evaluate(cov.denom, t)
    if den == 0:
        raise DomainError(f"t = {format_rational(t)} is a pole of the cover")
    return _polys.evaluate(cov.numer, t) / den


@dataclass(frozen=True)
class EGeneralResult:
    ok: bool
    prime_to_e_count: int
    required: int
    e: int

    def to_json(self) -> dict:
        return {
            "e_general": self.ok,
            "poles_prime_to_e": self.prime_to_e_count,
            "required": self.required,
            "e": self.e,
        }


def is_e_general(cov: CoverAnalysis, e: int) -> EGeneralResult:
    """Whether the cover has enough affine poles of order prime to e.

    Conjugate poles count separately (a degree-k irreducible factor
    contributes k); the pole at infinity never counts.
    """
    need = required_pole_count(e)
    have = sum(g.count for g in cov.poles if math.gcd(g.order, e) == 1)
    return EGeneralResult(ok=have >= need, prime_to_e_count=have, required=need, e=e)
