"""Explicit constants for the escape-rate machinery.

Everything here is a place-indexed constant with finite support: the escape
threshold 𝔞, the iteration tail 𝔟, the nearest-root (mean-value) constant 𝔢,
the combined bad-place constant 𝔠, the pigeonhole gap δ, and the assembled
lower-bound data (orbit bound, ε, C) for wandering points.  All finite-place
values are exact rational multiples of log p; all archimedean values are
exact rational combinations of logs of rationals (LogSum), so every
comparison made here is exact: LogSum.compare tests the difference for
zero exactly, then refines outward-rounded enclosures until its sign is
certain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from typing import Mapping, Optional

from . import _polys
from .arith import (
    _INT_STR_DIGITS,
    INF,
    LogSum,
    Place,
    format_rational,
    log_rational_exact,
    naive_height,
)
from .errors import DomainError
from .family import Family, specialized

# ---------------------------------------------------------------------------
# place-indexed constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MKConstants:
    """A place-indexed constant with finite support.

    finite[p] is the exact nonzero rational coefficient of log p at the
    place p (unlisted primes carry 0); arch is the exact archimedean value as
    a formal sum of logs of primes.
    """

    finite: Mapping[int, Fraction]
    arch: LogSum

    def coeff_at(self, p: int) -> Fraction:
        return self.finite.get(p, Fraction(0))

    def at(self, place: Place) -> LogSum:
        """The value at one place, as an exact LogSum."""
        if place.is_archimedean:
            return self.arch
        c = self.coeff_at(place.prime)
        return LogSum.single(c, place.prime) if c else LogSum.zero()

    def to_json(self) -> dict:
        return {
            "archimedean": self.arch.to_json(),
            "finite": LogSum(self.finite).terms_json(),
        }


def log2_at(place: Place) -> LogSum:
    """log+ |2|_v: log 2 at the archimedean place, 0 at every finite place
    (the ultrametric triangle inequality needs no doubling slack)."""
    if place.is_archimedean:
        return LogSum.single(Fraction(1), 2)
    return LogSum.zero()


def _on_family(build):
    """Cache build(fam, *args) on the family itself, so each value lives as
    long as its family and no module-level cache keeps families alive."""
    key = f"constants.{build.__name__}"

    @wraps(build)
    def cached(fam: Family, *args):
        try:
            return fam.__dict__[key][args]
        except KeyError:
            value = fam.__dict__.setdefault(key, {})[args] = build(fam, *args)
            return value

    return cached


def _require_monic(fam: Family, what: str) -> None:
    if not fam.monic:
        raise DomainError(
            f"{what} requires a monic family (a_D = 1); "
            "use monic_normalize first"
        )


# ---------------------------------------------------------------------------
# 𝔞: escape threshold
# ---------------------------------------------------------------------------


@_on_family
def _a_finite(fam: Family) -> dict[int, Fraction]:
    """𝔞's finite part {p: (1/e) max_i |v_p(beta_i)|}, nonzero entries only:
    root valuations alone, so nothing is factored."""
    return {p: amax / fam.e for p in fam.coefficient_support if (amax := fam.amax(p))}


@_on_family
def mk_a(fam: Family) -> MKConstants:
    """Escape-threshold constant 𝔞: once log|z|_v exceeds
    (1/e) log+ |t|_v + 𝔞_v, the map does not contract at v.

    Finite places: (1/e) * max_i |v_p(beta_i)| * log p, read from the least
    and greatest root valuations of F(X, 1) — every beta_i is a p-adic unit
    exactly when the coefficient is 0.
    Archimedean place: (1/e) (log+ B + log 3) with B the certified root bound.
    """
    _require_monic(fam, "mk_a")
    b_plus = max(Fraction(1), fam.arch_root_bound)
    arch = log_rational_exact(3 * b_plus).scale(Fraction(1, fam.e))
    return MKConstants(_a_finite(fam), arch)


# ---------------------------------------------------------------------------
# 𝔟: iteration tail
# ---------------------------------------------------------------------------


@_on_family
def mk_b(fam: Family) -> MKConstants:
    """Iteration-tail constant 𝔟: bounds |d^{-n} log|f^n(z)| - log|z|| for
    points above the escape threshold.  Zero at every finite place; at the
    archimedean place (1/e)(d/(d-1)) log(3/2) — log(3/2) dominates both
    one-step errors log(4/3) and |log(2/3)|, and d/(d-1) sums the geometric
    tail."""
    _require_monic(fam, "mk_b")
    kappa = Fraction(fam.d, fam.e * (fam.d - 1))
    arch = LogSum({3: kappa, 2: -kappa})  # kappa * log(3/2)
    return MKConstants({}, arch)


# ---------------------------------------------------------------------------
# 𝔢: nearest-root comparison constant
# ---------------------------------------------------------------------------


@_on_family
def mk_mvt(fam: Family) -> MKConstants:
    """Nearest-root constant 𝔢 with
        log|f_1(z)|_v >= min_{i, zeta^e = beta_i} alpha_i log|z - zeta|_v - 𝔢_v
    for all z.  One admissible conservative choice (no closed form is forced);
    its defining inequality is property-tested.

    Construction: the distinct roots zeta of f_1 are the roots of the
    squarefree g = r(X^e), r the monic radical of F(X, 1); g has degree
    n = e deg r, and A = max alpha_i.  Writing zeta_0 for the root nearest z,
    the inequality reduces to bounding sum over other roots of
    alpha log|z - zeta|, which ultrametrically is controlled by pairwise
    root distances.  Everything is read from r, never from g:

    * finite p: sum over pairs of v_p+(zeta_i - zeta_j) is at most
      v_p(disc g)/2 + (n choose 2) * amax_p / e, since each pairwise
      valuation is at least -amax_p/e; so
      𝔢_p = A * max(0, v_p(disc g)/2 + (n(n-1)/2) * amax_p/e) * log p,
      with disc g = +-e^n r(0)^(e-1) disc(r)^e.
    * archimedean: every other root stays at distance >= sep/2 when z is
      within sep/2 of zeta_0 (and >= the same bound otherwise), with sep
      bounded below by Mahler's bound for the integral G = m g (m the lcm
      of r's denominators; G has the coefficients of m r):
          sep > sqrt(3 |disc G|) / (n^((n+2)/2) ||G||_2^(n-1)).
      𝔢_inf = (n-1) * A * k * log 2, with k >= 0 the least integer making
      2^k at least 2 / (that bound), so the value stays an exact multiple
      of log 2; squared, the test on k compares integers only.
    """
    _require_monic(fam, "mk_mvt")
    if fam.d == fam.e:
        raise DomainError("mk_mvt needs d > e (degree of F at least 2)")
    r, e = fam.radical, fam.e
    n = e * _polys.degree(r)
    a_max = Fraction(fam.max_multiplicity)
    pairs = Fraction(n * (n - 1), 2)
    r0, disc_r = abs(r[0]), abs(_polys.discriminant(r))
    disc_g = (
        log_rational_exact(e).scale(n)
        + log_rational_exact(r0).scale(e - 1)
        + log_rational_exact(disc_r).scale(e)
    ).terms
    finite: dict[int, Fraction] = {}
    for p in sorted(set(disc_g) | set(fam.coefficient_support)):
        coeff = a_max * (Fraction(disc_g.get(p, 0), 2) + pairs * fam.amax(p) / e)
        coeff = max(Fraction(0), coeff)
        if coeff:
            finite[p] = coeff
    m = _polys.clear_denominators(r)[1]
    disc_big = m ** (2 * n - 2) * e**n * r0 ** (e - 1) * disc_r**e  # |disc G|
    norm_sq = sum((m * c) ** 2 for c in r)  # ||G||_2^2
    half = (n + 3) // 2  # integer exponent >= (n+2)/2, n^x increasing
    ratio_sq = 4 * n ** (2 * half) * norm_sq ** (n - 1) / (3 * disc_big)
    k = (_ceil_log2(ratio_sq) + 1) // 2  # least k with 4^k >= ratio_sq
    arch = LogSum.single(Fraction(k) * (n - 1) * a_max, 2)
    return MKConstants(finite, arch)


def _ceil_log2(r: Fraction) -> int:
    """Smallest k >= 0 with 2**k >= r, for r > 0; exact integer arithmetic."""
    num, den = r.numerator, r.denominator
    if num <= 0:
        raise DomainError("ceil_log2 needs a positive rational")
    return (-(-num // den) - 1).bit_length()  # 2**k >= ceil(r) > ceil(r) - 1


# ---------------------------------------------------------------------------
# exceptional places, pigeonhole gap
# ---------------------------------------------------------------------------


@_on_family
def exceptional_places(fam: Family) -> frozenset[Place]:
    """The archimedean place plus every finite place where any of 𝔞, 𝔟, 𝔢
    is nonzero.  Outside this set every beta_i is a unit and all local
    estimates hold with zero constants.  Only finite parts are read, so
    𝔞's archimedean root bound, which factors F(X, 1), is never built."""
    _require_monic(fam, "exceptional_places")
    out = {INF}
    out.update(Place.finite(p) for p in _a_finite(fam))
    # 𝔟 vanishes at all finite places; 𝔢 exists only for d > e
    if fam.d > fam.e:
        out.update(Place.finite(p) for p in mk_mvt(fam).finite)
    return frozenset(out)


def pigeonhole_delta(fam: Family) -> Fraction:
    """The pigeonhole gap δ = min{1/e, 1 - 1/e - 1/d}, positive once d > e."""
    if fam.d <= fam.e:
        raise DomainError("pigeonhole gap needs d > e")
    d, e = fam.d, fam.e
    delta = min(Fraction(1, e), 1 - Fraction(1, e) - Fraction(1, d))
    assert 0 < delta < 1
    return delta


# ---------------------------------------------------------------------------
# assembled lower-bound constants
# ---------------------------------------------------------------------------


def _over_2_d_power(log_x: float, d: int, orbit_bound: int) -> float:
    """x / (2 d^orbit_bound) as a float from log x < 710, taken through logs
    since d^orbit_bound overflows; 0.0 once it underflows (below e^-745),
    as it does for every orbit_bound >= 4096 (d >= 2), never made a float."""
    if orbit_bound >= 4096:
        return 0.0
    log_q = log_x - math.log(2) - orbit_bound * math.log(d)
    return math.exp(log_q) if log_q > -745 else 0.0


@dataclass(frozen=True)
class EpsilonSymbolic:
    """ε = delta / (2 d^orbitBound), kept symbolic because d^orbitBound is
    astronomically large for more than a couple of places."""

    delta: Fraction
    d: int
    orbit_bound: int

    def as_float(self) -> float:
        log_delta = math.log(self.delta.numerator) - math.log(self.delta.denominator)
        return _over_2_d_power(log_delta, self.d, self.orbit_bound)

    def as_fraction(self) -> Fraction:
        return self.delta / (2 * Fraction(self.d) ** self.orbit_bound)

    def to_json(self) -> dict:
        return {
            "delta": format_rational(self.delta),
            "d": self.d,
            "orbitBound": self.orbit_bound,
            "float": self.as_float(),
        }


@dataclass(frozen=True)
class ConstantsReport:
    family: Family
    bad_places: int
    status: str  # "ok" | "NotComputed"
    reason: Optional[str] = None
    a: Optional[MKConstants] = None
    b: Optional[MKConstants] = None
    mvt_e: Optional[MKConstants] = None
    c: Optional[MKConstants] = None
    delta: Optional[Fraction] = None
    S_known: tuple[Place, ...] = ()
    S_size: Optional[int] = None
    orbit_bound: Optional[int] = None
    epsilon: Optional[EpsilonSymbolic] = None
    C_numerator: Optional[LogSum] = None  # C = C_numerator / (2 d^orbitBound)

    def C_float(self) -> Optional[float]:
        if self.C_numerator is None:
            return None
        num = float(self.C_numerator)
        if num <= 0:
            return 0.0
        return _over_2_d_power(math.log(num), self.family.d, self.orbit_bound)

    def to_json(self) -> dict:
        if self.status != "ok":
            out = {
                "status": self.status,
                "reason": self.reason,
                "family": self.family.to_json(),
                "badPlaces": self.bad_places,
            }
            if self.a is not None:
                out["a"] = self.a.to_json()
            if self.b is not None:
                out["b"] = self.b.to_json()
            return out
        return {
            "status": "ok",
            "family": self.family.to_json(),
            "badPlaces": self.bad_places,
            "SSize": self.S_size,
            "SKnown": [str(pl) for pl in self.S_known],
            "a": self.a.to_json(),
            "b": self.b.to_json(),
            "mvtE": self.mvt_e.to_json(),
            "c": self.c.to_json(),
            "delta": format_rational(self.delta),
            "orbitBound": self.orbit_bound,
            "epsilon": self.epsilon.to_json(),
            "C": {
                "numeratorLogTerms": self.C_numerator.terms_json(),
                "denominator": f"2*{self.family.d}^{self.orbit_bound}",
                "float": self.C_float(),
            },
        }


def _mk_c(fam: Family) -> MKConstants:
    """𝔠_v = max{0, 𝔞_v + 𝔢_v} + log+ |2|_v, the per-place constant charged
    at bad and archimedean places."""
    a = mk_a(fam)
    ev = mk_mvt(fam)
    finite: dict[int, Fraction] = {}
    for p in set(a.finite) | set(ev.finite):
        coeff = max(Fraction(0), a.coeff_at(p) + ev.coeff_at(p))
        if coeff:
            finite[p] = coeff
    arch_sum = a.arch + ev.arch
    arch = arch_sum if arch_sum.compare(LogSum.zero()) >= 0 else LogSum.zero()
    arch = arch + log2_at(INF)
    return MKConstants(finite, arch)


@_on_family
def theorem1_constants(fam: Family, s: int) -> ConstantsReport:
    """Uniform wandering-point lower bound data: for any parameter t with at
    most s finite bad places and any wandering rational z,
        hhat_{f_t}(z) >= ε h(t) - C.

    #S = s + 1 (the archimedean place joins the s bad primes); exceptional
    places never enter the pigeonhole count — the good-reduction pairing
    bound covers them whenever |t|_v <= 1 — but their 𝔞 + 𝔢 contributions
    are charged to C's numerator.
    """
    _require_monic(fam, "theorem1_constants")
    if not isinstance(s, int) or s < 0:
        raise DomainError(f"bad-place count s must be a nonnegative integer, got {s!r}")
    d = fam.d
    if d == fam.e:
        return ConstantsReport(
            family=fam,
            bad_places=s,
            status="NotComputed",
            reason=(
                "d = e: the form F is linear, the pigeonhole argument needs "
                "d > e; per-point certification via heights still applies"
            ),
            a=mk_a(fam),
            b=mk_b(fam),
        )
    s_size = s + 1
    # orbitBound must print; the int s + 1 is compared with a float, exactly,
    # so a huge s is refused before the power is built
    if (s_size > _INT_STR_DIGITS / math.log10(d + 2)
            or (orbit_bound := 2 * (d + 2) ** s_size) >= 10**_INT_STR_DIGITS):
        raise DomainError(f"orbitBound would have more than {_INT_STR_DIGITS} digits")
    a = mk_a(fam)
    b = mk_b(fam)
    ev = mk_mvt(fam)
    c = _mk_c(fam)
    delta = pigeonhole_delta(fam)
    eps = EpsilonSymbolic(delta=delta, d=d, orbit_bound=orbit_bound)
    # C numerator: the worst per-place charge, summed over the support
    c_num = c.arch + LogSum(c.finite)
    s_known = tuple(
        sorted(exceptional_places(fam), key=Place.sort_key)
    )
    return ConstantsReport(
        family=fam,
        bad_places=s,
        status="ok",
        a=a,
        b=b,
        mvt_e=ev,
        c=c,
        delta=delta,
        S_known=s_known,
        S_size=s_size,
        orbit_bound=orbit_bound,
        epsilon=eps,
        C_numerator=c_num,
    )


# ---------------------------------------------------------------------------
# integral model resultant and its height bound
# ---------------------------------------------------------------------------


def model_resultant(fam: Family, t: Fraction) -> Fraction:
    """Resultant of the integral model of f_t on P^1, M^{2d} a_D^d.

    Homogenize f_t to the pair [sum_j b_j x^{ej} w^{d-ej} : w^d]
    (b_j = a_j t^{D-j}) and clear denominators by the lcm M of all b_j.  The
    Sylvester resultant of the two integer forms at formal degrees (d, d) is
    the leading coefficient M a_D of the first, to the d-th power, times
    M^d from the second.
    """
    m_clear = specialized(fam, Fraction(t)).integral_model[1]
    return Fraction(m_clear) ** (2 * fam.d) * fam.lead**fam.d


@dataclass(frozen=True)
class ResultantBound:
    resultant: Fraction
    lhs: LogSum  # log |Res|
    rhs: LogSum  # (2 d^2 / e) h(t) + 2 d h(a_D)
    ok: bool

    def to_json(self) -> dict:
        return {
            "resultant": format_rational(self.resultant),
            "lhs": self.lhs.terms_json(),
            "rhs": self.rhs.terms_json(),
            "lhsFloat": float(self.lhs),
            "rhsFloat": float(self.rhs),
            "ok": self.ok,
        }


def resultant_bound_check(fam: Family, t: Fraction) -> ResultantBound:
    """Exact check that log|Res| <= (2d^2/e) h(t) + 2d h(a_D): both sides
    are exact log sums, compared by LogSum.compare (an exact zero test, then
    outward-rounded enclosures until the sign is certain).  log|Res| is read
    from Res = M^{2d} a_D^d and the factorization of M, so Res is never
    factored; h(t) goes through the map's `factor`, so the primes of den t
    that M already holds are not searched for again."""
    t = Fraction(t)
    fmap = specialized(fam, t)
    d, e = fam.d, fam.e
    lhs = LogSum(
        {p: Fraction(2 * d * k) for p, k in fmap.denominator_factors.items()}
    ) + log_rational_exact(abs(fam.lead)).scale(Fraction(d))
    h_t = LogSum(fmap.factor(max(abs(t.numerator), t.denominator)))
    rhs = h_t.scale(Fraction(2 * d * d, e)) + naive_height(fam.lead).scale(Fraction(2 * d))
    ok = lhs.compare(rhs) <= 0
    return ResultantBound(resultant=model_resultant(fam, t), lhs=lhs, rhs=rhs, ok=ok)
