"""Naive heights, local dynamical Green's functions with certified error,
canonical heights as intervals, pair (Arakelov-style) Green functions, and the
local height / conductor diagnostics lambda, N_{a,S}, L1, L2.

Conventions.  For a specialized map f(z) = F(z^e, t) = sum_j b_j z^(e j) of
degree d = e D >= 2 and a place v of Q (a `family.SpecializedMap`, which holds
the D + 1 form coefficients b_j = a_j t^(D-j), the escape radius R_esc and
tail sum T, and the per-prime data used below), the local Green's function is

    G_v(z) = lim_n  d^{-n} log+ |f^n(z)|_v  >= 0.

Every algorithm below is generic in the coefficients (monic is not assumed):

* finite v = p, escape: if v_p(w) is below the map's threshold theta_p, so
  that the top term strictly dominates -- (d - e j) v(w) < v(b_j) - v(b_D)
  for every j < D with b_j != 0 -- and v(f(w)) = v(b_D) + d v(w) < v(w), both
  conditions persist along the orbit, so the valuation recursion
  v(z_{m+1}) = v(b_D) + d v(z_m) is exact forever and the limit collapses to
  the closed form
  G = d^{-n} (-v(z_n) - v(b_D)/(d-1)) log p, an exact rational multiple of
  log p.
* finite v = p, bounded: a disk {v >= rho} with rho >= 0 is f-invariant as
  soon as v(b_0) >= rho and v(b_j) >= (1 - e j) rho for j >= 1
  (ultrametric term bound).  If the orbit enters a feasible disk, G = 0
  exactly; an exact repetition of the rational orbit also forces G = 0.
* finite v = p, interval: log+ |f(w)|_p <= d log+ |w|_p + C_p with
  C_p = max(0, -min_j v(b_j)) log p, so G <= d^{-n}(log+ |z_n|_p + C_p/(d-1))
  and G >= 0; the upper bound decays geometrically, giving an enclosure of
  any prescribed width for orbits that stay bounded without certification.
* archimedean, escape: for |w| > R_esc = max(1, 2T, 2/|b_D|) with
  T = sum_{j<D} |b_j| / |b_D|, writing log|f(w)| = d log|w| + log|b_D| + eta
  with |eta| <= -log(1 - T/|w|), the orbit grows monotonically and
  G = d^{-n}(log|z_n| + log|b_D|/(d-1)) +- d^{-n} eps_n/(d-1) with
  eps_n = -log(1 - T/|z_n|) shrinking doubly exponentially.  The closed form
  is `SpecializedMap.arch_escape_value`, which also proves its lower end
  positive; this loop's escape exit reads it at the first z_n whose width
  is within tol, and a certificate with an escape witness at infinity reads
  its lower end at the first escaping point, with no loop.
* archimedean, bounded: log+|f(w)| <= d log+|w| + C with
  C = log max(1, sum|b_j|), giving the same geometric interval exit.

At finite places the orbit is read from `SpecializedMap.orbit`, the lazy
exact orbit with repeat detection that this loop and the global height
method share (certificates and scans run `preperiodic._orbit_pairs`, their
own loop over `SpecializedMap.step`, since most scan orbits end within a
step and a generator's set-up per orbit would cost `scan` much of its
throughput).  The Green loop reads the orbit as integer pairs
(num z_n, den z_n) while they stay small: v_p(z_n) is read by dividing den
(or num when p does not divide den) and the size from their bit lengths, and
one Fraction is built when the orbit is carried on in windowed p-adic
arithmetic with restart-on-precision-loss; both phases share one copy of the
escape, disk, interval and budget exits, which compare v(z_n) with integer
thresholds (the ceiling of theta, the least integer disk radius) and build
the interval bound's rational only once its filter has passed.  An exact
step is one homogeneous Horner evaluation of the integral model on the pair
(`SpecializedMap.step`), a p-adic step Horner's rule over b in z^e.
The archimedean place carries z_n as a dyadic interval (lo, hi, x) of
Python integers, lo 2^x <= z_n <= hi 2^x, at a working width of w bits:
each Horner product and sum is exact on the integers and then shifted right
to w significant bits per endpoint (floor for lo, ceiling for hi), and an
operand more than 2w bits of exponent below the other is first rounded
outward onto a grid 2w bits below it, so nothing is shifted left by the
exponent gap.  The loop restarts at twice the width once the relative width
of |z_n| passes 1e-10.  Its exits read |z_n| as the same integers rounded
outward to 53 bits, and decide on integers: the escape test against R_esc
compares bit lengths and multiplies out only inside R_esc's bit window, the
precision test compares (hi - lo) 10^10 with max(hi, 1), and the filters
below read bit lengths.  Only an exit whose filter has passed calls libmp,
for T/|z_n|, log(1 - T/|z_n|) and log|z_n| with directed rounding.  So no
rational of d^n bits is ever built, and a tol below the float resolution of
G runs to the step budget in bounded memory.

Filter, then certify.  The interval and escape exits above are certified
with enclosures (a libmp logarithm and an exact rational scaling each), yet
on most orbit steps they cannot fire: the bound is still far above tol.
Before each such enclosure both loops compute a cheap float lower bound on
the value the enclosure would produce -- 2^k log p for the finite interval
exit, (k log 2 + C/(d-1)) d^-n for the archimedean bounded exit and
2^(k+1)/((d-1) d^n) for the archimedean escape width, each k read from bit
lengths of integers: of num and den = (d-1) d^n with G <= (num/den) log p at
finite places, and of the dyadic |z_n| (k = x + bitlength(hi) - 2) and of T
at infinity (nothing is converted to a float, so nothing overflows), each
float operation pushed one ulp down past its rounding, and d^-n a float
power that underflows to 0.  When that bound exceeds tol the exit cannot
fire and the enclosure is skipped.  The filter only skips: every value
returned or reported (including a BudgetExceeded's best bound, which
computes the skipped archimedean bounds it needs when it is raised) is the
certified enclosure, identical to the unfiltered loop's.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Union

from mpmath.libmp import from_man_exp

from . import _polys
from ._intervals import (
    DEFAULT_PREC,
    Interval,
    _down,
    dy_abs,
    dy_add,
    dy_from_fraction,
    dy_mul,
    iv_prec,
    log_interval,
    log_iv,
    log_prime,
)
from ._padics import PAdic
from .arith import (
    INF,
    LocalValue,
    LogSum,
    Place,
    _naive_height_interval,
    factor_integer,
    factor_rational,
    log_plus,
    naive_height,
    padic_valuation,
    vp_pair,
)
from .errors import BudgetExceeded, DomainError, PrecisionLoss
from .family import CoverAnalysis, Family, SpecializedMap, specialized

DEFAULT_TOL = 1e-9
_EXACT_BITS = 4096  # switch from exact rationals to windowed arithmetic
_REL_PREC0 = 64  # initial p-adic relative precision (digits)
_MAX_RESTARTS = 10
_LN2_LO = _down(math.log(2))  # a float <= log 2
_K_CAP = 1 << 1000  # bit-length bounds past this are read as this

__all__ = [
    "DEFAULT_TOL",
    "GreenResult",
    "Infinity",
    "naive_height",
    "height_defect_bound",
    "local_green",
    "canonical_height",
    "arakelov_green",
    "lambda_local",
    "conductor_count",
    "l1_l2_split",
]


# ---------------------------------------------------------------------------
# height defect bound
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def height_defect_bound(fam: Family, t: Fraction) -> float:
    """A constant C_f >= 0 with |h(f_t(w)) - d h(w)| <= C_f for all rational w.

    Upper direction: clearing the form coefficients b_j to integers C_j = L b_j
    with multiplier L, N(x, y) = sum_j C_j x^(e j) y^(d - e j) has
    |N(x,y)| <= (sum |C_j|) max(|x|,|y|)^d and the denominator form is L y^d,
    so h(f(w)) <= d h(w) + log max(sum|C_j|, L).

    Lower direction: with R = L^d |C_D|^d (the resultant of N and L y^d up to
    sign; C_D = L a_D != 0), two Bezout identities A N + B (L y^d) = R y^{2d-1}
    and = R x^{2d-1}, with A, B forms of degree d - 1, have closed forms:

    * the first is (R/L) y^{d-1} (L y^d) = R y^{2d-1}: A = 0, B = R/L, so its
      largest cofactor coefficient is K1 = R/L;
    * the second, written in u = y/x with the reversed polynomial
      C*(u) = sum_k C_{D-k} u^(e k), a series in v = u^e, needs
      A C* = R mod u^d, so A = R / C* mod v^D is a power-series inverse in v,
      and B_m = -(A C*)_{D+m} / L for m < D (the coefficients of A and B off
      the powers of v are 0); K2 is the largest |A_j|, |B_m|.

    With H = max(|x|,|y|), the first identity applies where |y| = H and the
    second where |x| = H; each gives max(|N|, L|y|^d) >= R H^d / (2 d K) for
    its cofactor size K.  The gcd of numerator and denominator divides L R
    (L times the second identity has integer cofactors), which divides R^2.
    A point may fall under either identity, so the constant charges
    log(2 d R max(K1, K2)).
    """
    C, L = specialized(fam, t).integral_model  # integer form coefficients
    d, D = fam.d, fam.deg_form
    if L == 1 and abs(C[-1]) == 1 and all(c == 0 for c in C[:-1]):
        return 0.0  # pure +-z^d: h(f(w)) = d h(w) exactly
    upper_arg = Fraction(max(sum(abs(c) for c in C), L))
    R = (L * abs(C[-1])) ** d
    rev = C[::-1]  # C* in v
    # exact: A_0 is a Fraction, so every later division is rational too
    A = [Fraction(R, rev[0])]
    for k in range(1, D):
        A.append(-sum(rev[i] * A[k - i] for i in range(1, k + 1)) / rev[0])
    B = [-sum(A[i] * rev[D + k - i] for i in range(k, D)) / L for k in range(D)]
    lower_arg = 2 * d * R * max(Fraction(R, L), max(abs(c) for c in A + B))
    return log_interval(max(upper_arg, lower_arg, Fraction(1))).hi


# ---------------------------------------------------------------------------
# local Green's functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GreenResult:
    """A certified local Green's function value.

    value is a LocalValue (exact rational multiple of log p) in the exact
    modes at finite places, otherwise an Interval.  exact-bounded means the
    value is exactly 0.
    """

    value: Union[LocalValue, Interval]
    mode: str  # "exact-escape" | "exact-bounded" | "interval"
    steps_used: int

    @property
    def is_exact(self) -> bool:
        return self.mode in ("exact-escape", "exact-bounded")

    def enclosure(self) -> Interval:
        if isinstance(self.value, LocalValue):
            return self.value.enclosure()
        return self.value

    def to_json(self, place: Optional[Place] = None) -> dict:
        enc = self.enclosure()
        out = {
            "value_lo": enc.lo,
            "value_hi": enc.hi,
            "mode": self.mode,
            "place": str(place) if place is not None else None,
            "steps": self.steps_used,
        }
        if isinstance(self.value, LocalValue) and self.value.is_exact:
            out["exact"] = self.value.to_json()
        return out


def _finite_green(
    fmap: SpecializedMap, p: int, z: Fraction, tol: float, budget: int
) -> GreenResult:
    b, e, data = fmap.ze_coeffs, fmap.e, fmap.green_data(p)
    log_p = log_prime(p)

    def exit_at(vw: Optional[int], n: int, repeat: bool = False) -> Optional[GreenResult]:
        """The exit that fires at z_n, where v(z_n) = vw (None: v = +infinity)
        and `repeat` marks a repeat of the exact orbit; None when none fires.
        Past the budget, raises BudgetExceeded with the best upper bound."""
        if n > budget:
            num, den = data.upper_bound(vw, n)
            raise BudgetExceeded(
                f"no certificate for G_{p} after {n} steps",
                best=(0.0, num / den * log_p.hi),
                steps=n,
            )
        if data.escapes(vw):
            return GreenResult(data.escape_value(vw, n), "exact-escape", n)
        if repeat or data.in_disk(vw):
            return GreenResult(LocalValue.exact(Fraction(0), p), "exact-bounded", n)
        num, den = data.upper_bound(vw, n)
        # filter: the enclosure below is >= (num / den) log p > 2^k log_p.lo
        k = num.bit_length() - 1 - den.bit_length()
        if num and _down(math.ldexp(log_p.lo, k)) > tol:
            return None
        up = log_p.scale(Fraction(num, den)).hi if num else 0.0
        if up <= tol:
            return GreenResult(Interval(0.0, up), "interval", n)
        return None

    # phase 1: the exact orbit, until a point outgrows _EXACT_BITS
    for n, (num, den, first) in enumerate(fmap.orbit(z)):
        vw = vp_pair(num, den, p)
        res = exit_at(vw, n, repeat=first < n)
        if res is not None:
            return res
        if num.bit_length() + den.bit_length() > _EXACT_BITS:
            break

    # phase 2: windowed p-adic orbit from z_n != 0, restarting with more digits on loss
    w = Fraction(num, den)
    rel = _REL_PREC0
    for _ in range(_MAX_RESTARTS):
        try:
            x = PAdic.from_fraction(w, p, vw + rel)
            b_p = [PAdic.from_fraction(c, p, (v or 0) + rel) for c, v in zip(b, data.vb)]
            for m in itertools.count(n):
                if x.is_zeroish and not data.in_disk(x.abs_prec):
                    raise PrecisionLoss("zeroish value below disk threshold")
                res = exit_at(x.valuation_exact(), m)
                if res is not None:
                    return res
                x_e = x
                for _ in range(e - 1):
                    x_e = x_e * x
                acc = b_p[-1]
                for c in reversed(b_p[:-1]):
                    acc = acc * x_e + c
                x = acc
        except PrecisionLoss:
            rel *= 2
    raise BudgetExceeded(
        f"p-adic precision exhausted for G_{p}", best=None, steps=n
    )


def _exceeds(m: int, x: int, q: Fraction | int) -> bool:
    """m 2^x > q for an integer m >= 0 and a rational q > 0.  Bit lengths
    decide unless the top bits of the two are within one of each other; only
    then is m 2^x den compared with num (q = num/den) exactly, and there
    x is within one of bitlength(num) - bitlength(den) - bitlength(m), so no
    shift exceeds the bit sizes of q and m."""
    if not m:
        return False
    n, d = q.numerator, q.denominator
    q_bits = n.bit_length() - d.bit_length()  # 2^(q_bits-1) < q < 2^(q_bits+1)
    top = x + m.bit_length()  # 2^(top-1) <= m 2^x < 2^top
    if top - 1 > q_bits:
        return True
    if top < q_bits:
        return False
    return (m * d << x) > n if x >= 0 else m * d > n << -x


def _arch_green(fmap: SpecializedMap, z: Fraction, tol: float, budget: int) -> GreenResult:
    b, e, d = fmap.ze_coeffs, fmap.e, fmap.d
    head = fmap.arch_log_terms[0]
    radius, tail_sum = fmap.escape_radius, fmap.tail_sum
    # T > 2^tail_bits when T > 0
    tail_bits = tail_sum.numerator.bit_length() - 1 - tail_sum.denominator.bit_length()
    best_upper = math.inf
    skipped: list[tuple[float, int, int, int]] = []  # (filter bound, |z_n| <= m 2^x as m, x, n)

    def upper_at(m: int, x: int, n: int) -> float:
        """The bounded exit's certified upper bound on G from |z_n| <= m 2^x."""
        if _exceeds(m, x, 1):
            az_hi = from_man_exp(m, x)
            logplus_hi = log_iv((az_hi, az_hi)).hi
        else:
            logplus_hi = 0.0
        return (Interval(0.0, logplus_hi) + head).scale(Fraction(1, d**n)).hi

    def best() -> tuple[float, float]:
        """The least bounded-exit upper bound over every step so far; a
        skipped step is computed only when its filter bound could beat it."""
        hi = best_upper
        for lower, m, x, n in reversed(skipped):
            if lower < hi:
                hi = min(hi, upper_at(m, x, n))
        return (0.0, hi)

    prec = DEFAULT_PREC
    for _ in range(_MAX_RESTARTS):
        with iv_prec(prec) as wp:
            z_dy = dy_from_fraction(z, wp)
            b_dy = [dy_from_fraction(c, wp) for c in b]
            n = 0
            restart = False
            while n <= budget and not restart:
                # |z_n| in [lo 2^x, hi 2^x], rounded outward to 53 bits
                lo, hi, x = dy_abs(z_dy, 53)
                # a float <= d^-n; once it underflows to 0 no filter skips
                decay = max(0.0, _down(_down(float(d) ** -n)))
                # bounded exit; filter: log+ |z_n| >= k log 2 (k capped: a smaller k
                # is still a lower bound, and k log 2 stays a finite float)
                k = min(max(0, x + hi.bit_length() - 2), _K_CAP) if hi else 0
                lower = _down(_down(_down(k * _LN2_LO) + head.lo) * decay)
                if lower > tol:
                    skipped.append((lower, hi, x, n))
                else:
                    upper = upper_at(hi, x, n)
                    best_upper = min(best_upper, upper)
                    if upper <= tol:
                        return GreenResult(Interval(0.0, upper), "interval", n)
                # escape refinement
                if _exceeds(lo, x, radius):
                    # filter: width >= 2 eps / ((d-1) d^n) with eps >= T/(lo 2^x) > 2^j,
                    # j = tail_bits - x - bitlength(lo); T = 0 makes the enclosure
                    # exact at once, so it never skips
                    width_lo = (
                        _down(_down(math.ldexp(2.0, tail_bits - x - lo.bit_length()) / (d - 1))
                              * decay)
                        if tail_sum
                        else 0.0
                    )
                    if width_lo <= tol:
                        enc = fmap.arch_escape_value((from_man_exp(lo, x), from_man_exp(hi, x)), n)
                        if enc.width <= tol:
                            return GreenResult(enc.clamp_nonneg(), "interval", n)
                # precision health: the relative width (hi - lo) / max(hi, 1) of
                # |z_n| passes 1e-10
                wide = (hi - lo) * 10**10
                if wide > hi if _exceeds(hi, x, 1) else _exceeds(wide, x, 1):
                    restart = True
                    continue
                # Horner's rule in z^e
                acc = b_dy[-1]
                for c in reversed(b_dy[:-1]):
                    for _ in range(e):
                        acc = dy_mul(acc, z_dy, wp)
                    acc = dy_add(acc, c, wp)
                z_dy = acc
                n += 1
            if not restart:
                raise BudgetExceeded(
                    f"no certificate for G_inf after {n} steps", best=best(), steps=n
                )
        prec *= 2
    raise BudgetExceeded(
        "interval precision exhausted for G_inf", best=best(), steps=budget
    )


def local_green(
    fam: Family,
    t: Fraction,
    v: Place,
    z: Fraction,
    tol: float = DEFAULT_TOL,
    budget: Optional[int] = None,
) -> GreenResult:
    """Certified G_{f_t, v}(z); see the module docstring for the algorithms.

    Finite places produce exact modes whenever the orbit certifiably escapes
    (rational multiple of log p), enters an invariant disk, or repeats; the
    interval mode covers bounded-but-uncertified orbits with a [0, <= tol]
    enclosure.  The archimedean place always reports an interval of width
    <= tol.  Raises BudgetExceeded (carrying the best enclosure) if the step
    budget runs out first.
    """
    if not 0 < tol < math.inf:  # also refuses NaN
        raise DomainError("tol must be positive and finite")
    if budget is not None and budget < 0:
        raise DomainError("budget must be >= 0")
    t, z = Fraction(t), Fraction(z)
    if budget is None:
        budget = 64 * fam.d
    fmap = specialized(fam, t)
    if v.is_archimedean:
        return _arch_green(fmap, z, tol, budget)
    return _finite_green(fmap, v.prime, z, tol, budget)


# ---------------------------------------------------------------------------
# canonical height
# ---------------------------------------------------------------------------


def canonical_height(
    fam: Family,
    t: Fraction,
    z: Fraction,
    tol: float = DEFAULT_TOL,
    method: str = "local",
    budget: Optional[int] = None,
) -> Interval:
    """Certified enclosure of the canonical height h_hat_{f_t}(z), width <= tol.

    method "local" (default): sum of local_green over the finite set of
    places where G can be nonzero.  method "global": telescoping
    d^{-N} h(f^N z) with the height-defect tail C_f/((d-1) d^{N-1}); its cost
    grows as d^N, so it is practical only for loose tolerances and is meant
    as an independent cross-check of the local method.
    """
    if not 0 < tol < math.inf:  # also refuses NaN
        raise DomainError("tol must be positive and finite")
    t, z = Fraction(t), Fraction(z)
    if method == "global":
        return _canonical_global(fam, t, z, tol)
    if method != "local":
        raise DomainError(f"unknown canonical height method: {method!r}")
    # G can be nonzero only at infinity and the map's bad primes for z, those
    # of M and of den z: everywhere else the orbit stays p-integral
    places = [INF] + [Place.finite(p) for p in specialized(fam, t).bad_primes(z.denominator)]
    tol_inf, tol_fin = tol / 2, tol / (2 * max(1, len(places) - 1))
    if tol_fin == 0:  # the smaller share underflowed
        raise DomainError(f"tol {tol!r} is too small to split over {len(places)} places")
    total = Interval.zero()
    for v in places:
        tol_v = tol_inf if v.is_archimedean else tol_fin
        total = total + local_green(fam, t, v, z, tol_v, budget).enclosure()
    return total.clamp_nonneg()


def _canonical_global(fam: Family, t: Fraction, z: Fraction, tol: float) -> Interval:
    fmap = specialized(fam, t)
    d = fmap.d
    too_tight = "tolerance too tight for the global telescoping method; use the local method"
    cf = height_defect_bound(fam, t)
    ratio = 2 * cf / ((d - 1) * tol)
    if ratio == math.inf:  # tol is below the float resolution of the tail
        raise DomainError(too_tight)
    n_steps = 1 if ratio <= 1 else 1 + math.ceil(math.log(ratio) / math.log(d))
    base_bits = (
        z.numerator.bit_length()
        + z.denominator.bit_length()
        + max(
            c.numerator.bit_length() + c.denominator.bit_length()
            for c in fmap.ze_coeffs
        )
    )
    if base_bits * d**n_steps > 4_000_000:
        raise DomainError(too_tight)
    num, den, _ = next(itertools.islice(fmap.orbit(z), n_steps, None))
    tail = cf / ((d - 1) * d ** (n_steps - 1))
    # h(num / den) = log max(|num|, den) = h(max(|num|, den)) in lowest terms
    h_n = _naive_height_interval(Fraction(max(abs(num), den))).scale(Fraction(1, d**n_steps))
    return (h_n + Interval(-tail, tail)).clamp_nonneg()


# ---------------------------------------------------------------------------
# pair (Arakelov-style) Green function
# ---------------------------------------------------------------------------


def arakelov_green(
    fam: Family,
    t: Fraction,
    v: Place,
    x: Fraction,
    y: Fraction,
    tol: float = DEFAULT_TOL,
    budget: Optional[int] = None,
) -> Interval:
    """Enclosure of g_{f_t, v}(x, y) = -log|x - y|_v + G_v(x) + G_v(y)."""
    x, y = Fraction(x), Fraction(y)
    if x == y:
        raise DomainError("pair Green function diverges on the diagonal")
    if v.is_archimedean:
        dist = -log_interval(abs(x - y))
    else:
        # -log|x - y|_p = v_p(x - y) log p
        dist = LocalValue.exact(padic_valuation(x - y, v.prime), v.prime).enclosure()
    gx = local_green(fam, t, v, x, tol / 4, budget).enclosure()
    gy = local_green(fam, t, v, y, tol / 4, budget).enclosure()
    return dist + gx + gy


# ---------------------------------------------------------------------------
# local height lambda, conductor N_{a,S}, and the L1/L2 split
# ---------------------------------------------------------------------------

Infinity = object()  # sentinel for a = infinity


def _lambda_argument(a, t: Fraction) -> Fraction:
    """The reciprocal r = 1/(t - a) whose log+ lambda measures, or t when
    a = infinity (r = 0 at t = 0, where every lambda is 0).  t = a raises."""
    if a is Infinity or a == "inf":
        return t
    a = Fraction(a)
    if t == a:
        raise DomainError("lambda_[a] has a pole at t = a")
    return 1 / (t - a)


def lambda_local(a, v: Place, t: Fraction) -> LocalValue:
    """Local height of t relative to a: log+ |1/(t-a)|_v, that is
    max{0, v(t-a)} log p at finite places; a = infinity replaces
    1/(t - a) by t."""
    return log_plus(_lambda_argument(a, Fraction(t)), v)


def conductor_count(a, S: Iterable[Place], t: Fraction) -> LogSum:
    """N_{a,S}(t) = sum of log p over finite p not in S with v_p(t - a) > 0
    (the radical count, not multiplicity-weighted)."""
    r = _lambda_argument(a, Fraction(t))
    excluded = {pl.prime for pl in S if not pl.is_archimedean}
    out = LogSum.zero()
    # v_p(t - a) > 0, i.e. v_p(r) < 0, exactly for p dividing the denominator of r
    for p in factor_integer(r.denominator):
        if p not in excluded:
            out = out + LogSum.single(Fraction(1), p)
    return out


def l1_l2_split(
    cov: CoverAnalysis, e: int, S: Iterable[Place], t: Fraction
) -> tuple[LogSum, LogSum]:
    """Split of the pole-proximity height of t into the part with valuations
    not divisible by e (L1) and the e-divisible part scaled by 1/e (L2).

    Runs over the cover's pole groups whose order is prime to e (the groups
    that obstruct e-th power solvability); a group of conjugate irrational
    poles contributes through its monic irreducible factor q, whose value
    q(t) = prod_i (t - a_i) aggregates the conjugates without leaving Q.
    """
    t = Fraction(t)
    excluded = {pl.prime for pl in S if not pl.is_archimedean}
    l1 = LogSum.zero()
    l2 = LogSum.zero()
    for group in cov.poles:
        if math.gcd(group.order, e) != 1:
            continue
        q = group.factor
        val = _polys.evaluate(q, t) / q[-1]  # monic product over conjugates
        if val == 0:
            raise DomainError("t coincides with a pole of the cover")
        for p, vp in factor_rational(val).items():
            if vp <= 0 or p in excluded:
                continue
            if vp % e:
                l1 = l1 + LogSum.single(Fraction(vp), p)
            else:
                l2 = l2 + LogSum.single(Fraction(vp, e), p)
    return l1, l2
