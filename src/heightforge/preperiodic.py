"""Orbit computation, preperiodicity certificates, and scanning filters.

A rational point is preperiodic exactly when its forward orbit repeats, and
every repeat is found by exact iteration; a wandering point is certified
either by a single-place escape witness (which forces a positive local
Green's value, hence positive canonical height, read in closed form at the
orbit's first escaping point) or by a canonical-height enclosure bounded
away from zero.

An orbit stops at its first repeat or at its first point in the escape
region of some place, so a wandering point's certificate ends at the first
point that escapes.  One loop (`_orbit_pairs`) runs every orbit, on integer
pairs (num, den) in lowest terms (`SpecializedMap.step`), and each point's
escape test is integer arithmetic on the pair: v_p by division,
|z| > R_esc by cross multiplication, and no logs.  Every prime dividing
den(z_n) divides den(z_0) or M, and at any other prime no escape can fire,
so one prime set, found before the first point, serves every test of the
orbit.  `iterate_orbit` wraps the loop and builds Fractions only for the
record it returns, whose naive heights are computed from its points when
first read; the scanner calls the loop directly and builds a Fraction only
for a finding or an unresolved point.

Fast filters used by the scanner:

* bad-place obstruction: at a finite place v outside the exceptional set
  with |t|_v > 1, every preperiodic point satisfies |z|_v^e = |t|_v; when
  e does not divide v(t) that equation has no rational solution, so the
  parameter has no rational preperiodic points at all.  Otherwise the
  valuation of z is pinned to v(t)/e, which collapses the candidate
  denominator search space.
* power-denominator criterion for f(z) = z^d + 1/(1 + t^m): writing
  t = x/y in lowest terms, a rational preperiodic point other than infinity
  forces x^m + y^m = +-w^d with w an integer (the sign is absorbed into w
  when d is odd and into (x, y) when m is odd, and cannot occur when both
  are even); testing |x^m + y^m| for an exact d-th power is a pure integer
  computation.
* twins: when e is even, f_t(-z) = f_t(z), and every escape test at z_0
  reads only |z|, v_p(z) and den z, so the event of -z is read from the
  points of z's orbit with no evaluation and no place test; the candidates
  come in pairs z, -z, so the two share one orbit.
* height buckets: floor(h(z)) is the number of integers ceil(e^k), k >= 1,
  at most max(|num z|, den z), since e^k is never an integer; a table of them,
  built once from outward-rounded enclosures of e^k, gives each bucket by
  exact integer comparisons, with no logarithm.
* step-0 escapes by counting: the scan goes one candidate denominator at a
  time, and +-num/den with num > lim = floor(R_esc den) lies in the escape
  region at infinity, so its orbit would end at step 0 as neither a finding
  nor an unresolved point.  Those candidates are only counted, per height
  bucket, by Moebius inclusion-exclusion over den's primes, with no Fraction
  and no orbit; only 1 <= num <= lim is iterated.
"""
from __future__ import annotations

import csv
import math
import time
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence, Union

from ._intervals import exp_floor, iv_from_fraction
from .arith import (
    _MAX_INTEGER_DIGITS,
    INF,
    Place,
    _naive_height_interval,
    factor_integer,
    format_rational,
    integer_root,
    vp_pair,
)
from .constants import exceptional_places
from .errors import BudgetExceeded, DomainError
from .family import (
    CoverAnalysis,
    Family,
    SpecializedMap,
    evaluate_cover,
    parameter_denominator_factors,
    specialized,
)
from .heights import canonical_height

__all__ = [
    "CycleFound",
    "EscapeCertified",
    "OrbitTruncated",
    "OrbitRecord",
    "Certificate",
    "ObstructionRecord",
    "CriterionResult",
    "Finding",
    "ScanReport",
    "iterate_orbit",
    "certify_point",
    "bad_place_obstruction",
    "power_criterion",
    "find_nonpower_place",
    "scan",
]

# exact iteration is abandoned (as a budget event) once a single orbit
# element needs this many bits; heights double each step, so any certifiable
# behaviour shows up long before this
_ORBIT_BIT_CAP = 200_000

# parameter and candidate boxes beyond this many rationals are refused before
# they are enumerated
_MAX_BOX_PARAMETERS = 10**6

# ceil(e^k) for k = 1, 2, ... until e^k > 2^k passes the largest candidate
# size max(|num z|, den z) that _candidate_denominators allows.  e^k is never an
# integer, so for an integer n >= 1, floor(log n) is the number of entries <= n
_EXP_CEILS = tuple(
    exp_floor(k) + 1 for k in range(1, (_MAX_BOX_PARAMETERS // 2).bit_length() + 1)
)


# ---------------------------------------------------------------------------
# orbit records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CycleFound:
    """The orbit repeated: points[preperiod] == points[preperiod + period]."""

    preperiod: int
    period: int

    def to_json(self) -> dict:
        return {"kind": "cycle-found", "preperiod": self.preperiod, "period": self.period}


@dataclass(frozen=True)
class EscapeCertified:
    """points[step] lies in the certified escape region at `place`."""

    place: Place
    step: int

    def to_json(self) -> dict:
        return {"kind": "escape-certified", "place": str(self.place), "step": self.step}


@dataclass(frozen=True)
class OrbitTruncated:
    """The step budget (or the bit-size cap) ran out: an event, not an error."""

    steps: int

    def to_json(self) -> dict:
        return {"kind": "budget-exhausted", "steps": self.steps}


OrbitEvent = Union[CycleFound, EscapeCertified, OrbitTruncated]


@dataclass(frozen=True)
class OrbitRecord:
    """An exactly computed forward orbit with its terminating event.

    `points` lists z, f(z), f^2(z), ...; when the event is a CycleFound the
    final entry is the first repeated value (so the points before it are
    pairwise distinct).  `naive_heights` are float naive heights, one per
    point (enclosure midpoints), computed from `points` when first read.
    """

    points: tuple[Fraction, ...]
    event: OrbitEvent

    @cached_property
    def naive_heights(self) -> tuple[float, ...]:
        return tuple(_naive_height_interval(w).mid for w in self.points)

    def to_json(self) -> dict:
        return {
            "points": [format_rational(z) for z in self.points],
            "event": self.event.to_json(),
            "naiveHeights": list(self.naive_heights),
        }


def _escape_place(
    fmap: SpecializedMap, num: int, den: int, primes: Sequence[int]
) -> Optional[Place]:
    """A place at which z = num / den (in lowest terms, den > 0) lies in the
    certified escape region, if any.

    Finite places: v_p(z) below the escape threshold theta_p, at each of
    the sorted `primes`, which must include every prime dividing den or M
    (at any other prime v(z) >= 0 and theta_p <= 0, so nothing escapes
    there).  Archimedean: |z| beyond the map's escape radius R_esc, tested
    as |num| R_den > R_num den.  Both tests are exact integer comparisons.
    """
    for p in primes:
        if fmap.green_data(p).escapes(vp_pair(num, den, p)):
            return Place.finite(p)
    radius = fmap.escape_radius
    if abs(num) * radius.denominator > radius.numerator * den:
        return INF
    return None


def _orbit_pairs(
    fmap: SpecializedMap, num: int, den: int, primes: Sequence[int], max_steps: int
) -> tuple[OrbitEvent, dict[tuple[int, int], int]]:
    """The exact orbit of z = num / den (in lowest terms, den > 0) under fmap,
    on integer pairs: (event, seen), `seen` mapping each distinct point
    (num z_n, den z_n) to n, in orbit order.

    Each point is tested in this order: a repeated value ends the orbit with
    CycleFound (the repeat itself is not added to `seen`), a point in a
    certified escape region at some place with EscapeCertified, and the step
    budget or the bit-size cap with OrbitTruncated.  `primes` must hold the
    primes of M and of den (`SpecializedMap.bad_primes`): every prime dividing
    a later denominator divides one of them, so they serve every point."""
    seen: dict[tuple[int, int], int] = {}
    step = fmap.step
    n = 0
    while True:
        first = seen.setdefault((num, den), n)
        if first < n:
            return CycleFound(first, n - first), seen
        pl = _escape_place(fmap, num, den, primes)
        if pl is not None:
            return EscapeCertified(pl, n), seen
        if n == max_steps or num.bit_length() + den.bit_length() > _ORBIT_BIT_CAP:
            return OrbitTruncated(n), seen
        num, den = step(num, den)
        n += 1


def _twin_event(
    num: int, den: int, event: OrbitEvent, seen: dict[tuple[int, int], int], max_steps: int
) -> OrbitEvent:
    """The event of the orbit of num / den = -z, for a family with even e,
    read from (event, seen), the orbit of z != 0 under the same budget.

    f_t(-z) = f_t(z), and every test at z_0 reads only |z|, v_p(z) and den z,
    so the orbit of -z is -z, z_1, z_2, ... under the same tests.  Its event
    moves only if -z = z_j for some j >= 1 (a cycle through -z at step j), or
    if z is periodic of period n: then z_n = z is new after -z, and the repeat
    comes one step later at z_1, unless the budget ends at step n."""
    j = seen.get((num, den))
    if j is not None:
        return CycleFound(0, j)
    if isinstance(event, CycleFound) and event.preperiod == 0:
        n = event.period
        return OrbitTruncated(n) if n == max_steps else CycleFound(1, n)
    return event


def iterate_orbit(fam: Family, t: Fraction, z: Fraction, max_steps: int) -> OrbitRecord:
    """Exact forward orbit of z under f_t until a repeat, a certified escape,
    or the budget.

    Each point, from z on, is tested in this order: a repeated value ends the
    orbit with CycleFound, a point in a certified escape region at some place
    with EscapeCertified, so a wandering orbit ends at its first escaping
    point, and the step budget or the bit-size cap with OrbitTruncated, an
    event, not an error.  The escape tests share the map's bad primes for z,
    those of M and of den z, found once before the first point.  The orbit
    runs on integer pairs (`_orbit_pairs`); the record's first point is z,
    and the Fractions of the others are built once it ends.
    """
    if max_steps < 1:
        raise DomainError("max_steps must be >= 1")
    if not isinstance(z, Fraction):
        z = Fraction(z)
    fmap = specialized(fam, t)
    num, den = z.numerator, z.denominator
    event, seen = _orbit_pairs(fmap, num, den, fmap.bad_primes(den), max_steps)
    pairs = list(seen)
    if isinstance(event, CycleFound):
        pairs.append(pairs[event.preperiod])
    return OrbitRecord((z, *(Fraction(num, den) for num, den in pairs[1:])), event)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Preperiodic/wandering verdict with replayable evidence.

    Preperiodic: `preperiod` and `period` replay by exact iteration.
    Wandering: `hhat_lower_bound` > 0, witnessed either by an escape place
    (witness = the Place; the bound is the closed-form lower end of G at
    that place, read at the orbit's first escaping point) or by a
    canonical-height enclosure with positive lower end
    (witness = "height-interval").
    """

    verdict: str  # "preperiodic" | "wandering"
    orbit: OrbitRecord
    preperiod: Optional[int] = None
    period: Optional[int] = None
    hhat_lower_bound: Optional[float] = None
    witness: Optional[Union[Place, str]] = None

    @property
    def is_preperiodic(self) -> bool:
        return self.verdict == "preperiodic"

    def to_json(self) -> dict:
        out: dict = {"verdict": self.verdict}
        if self.is_preperiodic:
            out["preperiod"] = self.preperiod
            out["period"] = self.period
        else:
            out["hhatLowerBound"] = self.hhat_lower_bound
            out["witness"] = str(self.witness)
        out["orbit"] = self.orbit.to_json()
        return out


def _positive_green_bound(fmap: SpecializedMap, w: Fraction, n: int) -> float:
    """A certified positive lower bound for G_inf(z), given that the orbit
    point z_n = w lies in the escape region at infinity: the lower end of
    the closed form `SpecializedMap.arch_escape_value` at z_n.  Its exact
    value is positive; when rounding hides that, the closed form is read at
    z_{n+1}, z_{n+2}, ... (one exact step each), until the point passes the
    orbit bit-size cap."""
    while True:
        lo = fmap.arch_escape_value(iv_from_fraction(abs(w)), n).lo
        if lo > 0:
            return lo
        if w.numerator.bit_length() + w.denominator.bit_length() > _ORBIT_BIT_CAP:
            raise BudgetExceeded("could not separate the escape-place Green value from 0")
        w, n = fmap(w), n + 1


def _escape_certificate(
    fam: Family, t: Fraction, record: OrbitRecord, place: Place, n: int
) -> Certificate:
    """The wandering certificate of z = record.points[0], given that
    z_n = record.points[n] escapes at `place`: hhat(z) >= G_place(z) > 0,
    read in closed form at z_n, with no Green loop."""
    fmap, w = specialized(fam, t), record.points[n]
    if place.is_archimedean:
        bound = _positive_green_bound(fmap, w, n)
    else:
        vw = vp_pair(w.numerator, w.denominator, place.prime)
        bound = fmap.green_data(place.prime).escape_value(vw, n).enclosure().lo
    return Certificate("wandering", record, hhat_lower_bound=bound, witness=place)


def certify_point(fam: Family, t: Fraction, z: Fraction) -> Certificate:
    """Classify z as preperiodic or wandering under f_t, with a certificate.

    Alternates orbit extension with canonical-height tolerance halving:
    preperiodic rationals repeat in finitely many exact steps, and wandering
    rationals either enter a certified escape region at some place or get a
    canonical-height enclosure with positive lower end.  An obstructed
    place's witness and an orbit's, finite or at infinity, are all read in
    closed form by `_escape_certificate`, so a Green loop runs only through
    `canonical_height`, for a point with no escape witness.
    """
    t, z = Fraction(t), Fraction(z)
    if fam.monic:
        for rec in bad_place_obstruction(fam, t):
            if rec.obstructed:
                # outside the exceptional set theta_p = v(t)/e, and e does not
                # divide v(t), so v(z) != v(t)/e: either v(z) < theta_p and z
                # escapes, or v(z) > v(t)/e, the constant term a_0 t^D
                # dominates and v(f(z)) = D v(t) < theta_p.  So z or f(z) lies
                # in the escape region.  The record is the one step z, f(z),
                # with no prime set found
                fmap, p = specialized(fam, t), rec.place.prime
                record = OrbitRecord((z, fmap(z)), OrbitTruncated(1))
                z_escapes = fmap.green_data(p).escapes(vp_pair(z.numerator, z.denominator, p))
                return _escape_certificate(fam, t, record, rec.place, 0 if z_escapes else 1)
    steps = 32
    tol = 1e-4
    for _ in range(24):
        record = iterate_orbit(fam, t, z, steps)
        if isinstance(record.event, CycleFound):
            return Certificate(
                "preperiodic",
                record,
                preperiod=record.event.preperiod,
                period=record.event.period,
            )
        if isinstance(record.event, EscapeCertified):
            # the orbit ends at its first escaping point z_n, n = step
            return _escape_certificate(fam, t, record, record.event.place, record.event.step)
        enc = canonical_height(fam, t, z, tol)
        if enc.lo > 0:
            return Certificate(
                "wandering", record, hhat_lower_bound=enc.lo, witness="height-interval"
            )
        steps *= 2
        tol /= 2
    raise BudgetExceeded("point resisted both cycle detection and height separation")


# ---------------------------------------------------------------------------
# bad-place obstruction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObstructionRecord:
    place: Place
    obstructed: bool
    forced_valuation: Optional[int]
    reason: str

    def to_json(self) -> dict:
        return {
            "place": str(self.place),
            "obstructed": self.obstructed,
            "forcedValuation": self.forced_valuation,
            "reason": self.reason,
        }


def bad_place_obstruction(fam: Family, t: Fraction) -> list[ObstructionRecord]:
    """Per-place preperiodicity obstructions at the bad non-exceptional places.

    At each finite place p outside the exceptional set with |t|_p > 1, every
    preperiodic point satisfies |z|_p^e = |t|_p.  When e does not divide
    v_p(t) this is unsolvable (obstructed = True: f_t has no rational
    preperiodic point at all); otherwise the valuation v_p(z) = v_p(t)/e is
    forced and recorded.
    """
    if not fam.monic:
        raise DomainError("bad_place_obstruction requires a monic family")
    t = Fraction(t)
    if t == 0:
        return []
    exceptional = {pl.prime for pl in exceptional_places(fam) if not pl.is_archimedean}
    out = []
    for p, m in parameter_denominator_factors(t.denominator):
        if p in exceptional:
            continue
        k = -m  # v_p(t) < 0 since p divides the denominator
        if k % fam.e != 0:
            forced = None
            reason = (f"v_{p}(t) = {k} is not divisible by e = {fam.e}: "
                      f"|z|^e = |t| has no solution, so no rational point is "
                      f"preperiodic for this parameter")
        else:
            forced = k // fam.e
            reason = f"every preperiodic point must have v_{p}(z) = {forced}"
        out.append(ObstructionRecord(Place.finite(p), forced is None, forced, reason))
    return out


# ---------------------------------------------------------------------------
# power-denominator criterion and witness places
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriterionResult:
    solvable: bool
    witness: Optional[int]
    value: int  # x^m + y^m

    def to_json(self) -> dict:
        return {
            "solvable": self.solvable,
            "witness": None if self.witness is None else format_rational(self.witness),
            "value": format_rational(self.value),
        }


def power_criterion(d: int, m: int, t: Fraction) -> CriterionResult:
    """Integer solvability of x^m + y^m = +-w^d for t = x/y in lowest terms.

    solvable = False certifies that z^d + 1/(1 + t^m) has no rational
    preperiodic point besides infinity.  The sign is absorbed into w when d
    is odd and into (x, y) when m is odd; both even forces the + sign (the
    sum is then positive anyway), so the test is whether |x^m + y^m| is an
    exact d-th power.
    """
    if d < 2 or m < 1:
        raise DomainError("need d >= 2 and m >= 1")
    t = Fraction(t)
    if t == 0:
        raise DomainError("t = 0 is degenerate for the power criterion")
    x, y = t.numerator, t.denominator
    n = max(abs(x), y)
    # n^m has m log10(n) digits or more; a huge int m is compared, never converted
    if n > 1 and m >= _MAX_INTEGER_DIGITS / math.log10(n):
        raise DomainError(f"x^m + y^m would have more than {_MAX_INTEGER_DIGITS} digits")
    value = x**m + y**m
    if value == 0:
        return CriterionResult(True, 0, 0)
    root, exact = integer_root(abs(value), d)
    if not exact:
        return CriterionResult(False, None, value)
    return CriterionResult(True, root, value)


def find_nonpower_place(
    cov: CoverAnalysis, e: int, S: Iterable[Place], t: Fraction
) -> Optional[Place]:
    """The smallest finite place outside S with v(phi(t)) < 0 and e not
    dividing v(phi(t)), or None when no such place exists for this t."""
    val = evaluate_cover(cov, t)
    if val == 0:
        raise DomainError("phi(t) = 0 has no negative valuations")
    excluded = {pl.prime for pl in S if not pl.is_archimedean}
    for p, m in factor_integer(val.denominator).items():  # v_p(val) = -m
        if p in excluded:
            continue
        if m % e != 0:
            return Place.finite(p)
    return None


# ---------------------------------------------------------------------------
# scanning harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    t: Fraction
    z: Fraction
    preperiod: int
    period: int

    def to_json(self) -> dict:
        return {
            "t": format_rational(self.t),
            "z": format_rational(self.z),
            "preperiod": self.preperiod,
            "period": self.period,
        }


@dataclass(frozen=True)
class ScanReport:
    family_desc: str
    t_box_bound: float
    z_box_bound: float
    findings: tuple[Finding, ...]
    counts_by_height: dict[int, int]
    elapsed: float
    complete: bool
    t_examined: int
    t_filtered_criterion: int
    t_obstructed: int
    t_skipped_pole: int
    candidates_checked: int
    unresolved: tuple[tuple[Fraction, Fraction], ...]

    def to_json(self) -> dict:
        return {
            "version": 1,
            "family": self.family_desc,
            "tBoxBound": self.t_box_bound,
            "zBoxBound": self.z_box_bound,
            "preperiodicFindings": [f.to_json() for f in self.findings],
            "countsByHeight": {str(k): v for k, v in sorted(self.counts_by_height.items())},
            "elapsedSeconds": self.elapsed,
            "complete": self.complete,
            "tExamined": self.t_examined,
            "tFilteredByCriterion": self.t_filtered_criterion,
            "tObstructed": self.t_obstructed,
            "tSkippedPole": self.t_skipped_pole,
            "candidatesChecked": self.candidates_checked,
            "unresolved": [
                {"t": format_rational(t), "z": format_rational(z)}
                for t, z in self.unresolved
            ],
        }

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "z", "preperiod", "period"])
            for f in self.findings:
                writer.writerow(
                    [format_rational(f.t), format_rational(f.z), f.preperiod, f.period]
                )


def _box_size(bound: float) -> int:
    """The largest integer N with log N <= bound.  floor(exp(bound)) is N or
    N - 1 (exp(log 50) evaluates to 49.99...), so step down from one above."""
    try:
        size = math.floor(math.exp(bound)) + 1
    except (OverflowError, ValueError):
        raise DomainError(f"box bound {bound} cannot be enumerated") from None
    while size > 0 and math.log(size) > bound:
        size -= 1
    return size


def _rationals_in_box(bound: float) -> list[Fraction]:
    """All x/y in lowest terms with max(|x|, y) <= exp(bound), sorted; a box
    of more than _MAX_BOX_PARAMETERS (about (12/pi^2) N^2) is refused first."""
    size = _box_size(bound)
    if 12 / math.pi**2 * size**2 > _MAX_BOX_PARAMETERS:
        raise DomainError(f"t-box of height {bound} exceeds {_MAX_BOX_PARAMETERS} parameters")
    fracs = [Fraction(0)]
    for den in range(1, size + 1):
        for num in range(1, size + 1):
            if math.gcd(num, den) == 1:
                fracs += (Fraction(num, den), Fraction(-num, den))
    return sorted(fracs)


def _candidate_denominators(
    fam: Family, t: Fraction, z_bound: float, forced: dict[int, int]
) -> tuple[int, bool, list[tuple[int, tuple[int, ...]]]]:
    """The candidate preperiodic points, by denominator: (size, zero, dens)
    with size = floor(exp(z_bound)) the bound on |num z| and den z, zero
    whether z = 0 is a candidate, and the sorted (den, primes of den) pairs;
    the candidates are +-num/den in lowest terms for 1 <= num <= size.  Each
    den is (forced part from the bad places) x (a divisor supported on the
    exceptional primes, with each p to at most max(0, -ceil(theta_p)), the
    escape threshold); all other denominators put z in an escape region.
    More than _MAX_BOX_PARAMETERS candidates (2 size per denominator) are
    refused first."""
    size = _box_size(z_bound)
    base = math.prod(p ** -k for p, k in forced.items())
    if base > size:
        return size, False, []
    fmap = specialized(fam, t)
    extra: list[tuple[int, int]] = []
    for pl in sorted(exceptional_places(fam), key=lambda pl: pl.sort_key()):
        if pl.is_archimedean or pl.prime in forced:
            continue
        cap = -fmap.green_data(pl.prime).theta_ceil
        if cap > 0:
            extra.append((pl.prime, cap))
    dens = {base: tuple(sorted(forced))}
    for p, cap in extra:
        dens.update({d0 * p**j: (*primes, p) for d0, primes in dens.items()
                     for j in range(1, cap + 1) if d0 * p**j <= size})
    if 2 * size * len(dens) > _MAX_BOX_PARAMETERS:
        raise DomainError(f"z-box of height {z_bound} exceeds {_MAX_BOX_PARAMETERS} candidates")
    return size, base == 1, sorted(dens.items())


def _escape_buckets(lim: int, size: int, primes: Sequence[int]) -> Iterator[tuple[int, int]]:
    """(bucket, count) for the integers num in (lim, size] prime to a den
    with the given distinct primes, bucketed as bisect_right(_EXP_CEILS, num)
    (that is floor(log num)), skipping empty buckets.  Each segment of a
    bucket is counted by Moebius inclusion-exclusion:
    Phi(x) = #{1 <= n <= x : gcd(n, den) = 1} = sum over subsets S of the
    primes of (-1)^|S| floor(x / prod S)."""
    terms = [(1, 1)]  # (prod S, (-1)^|S|)
    for p in primes:
        terms += [(q * p, -sign) for q, sign in terms]

    def phi(x: int) -> int:
        return sum(sign * (x // q) for q, sign in terms)

    k = bisect_right(_EXP_CEILS, lim + 1)
    lo, below = lim, phi(lim)
    while lo < size:
        hi = min(size, _EXP_CEILS[k] - 1)  # bucket k is [_EXP_CEILS[k-1], _EXP_CEILS[k])
        upto = phi(hi)
        if upto > below:
            yield k, upto - below
        lo, below, k = hi, upto, k + 1


def _criterion_shape(fam: Family, cover: Optional[CoverAnalysis]) -> Optional[tuple[int, int]]:
    """(d, m) when the composed map is exactly z^d + 1/(1 + t^m) in the
    regime where the power criterion is a proven filter; None otherwise."""
    if cover is None:
        return None
    if fam.form != (Fraction(1), Fraction(1)):
        return None
    if tuple(cover.numer) != (Fraction(1),):
        return None
    de = list(cover.denom)
    m = len(de) - 1
    if m < 1 or de[0] != 1 or de[-1] != 1 or any(c != 0 for c in de[1:-1]):
        return None
    d = fam.d
    if (d % 2 == 0 and m >= 4) or (d % 3 == 0 and m >= 3):
        return (d, m)
    return None


def _scan_one(
    fam: Family,
    t: Fraction,
    z_bound: float,
    budget: int,
    cover: Optional[CoverAnalysis],
    criterion: Optional[tuple[int, int]],
    findings: list[Finding],
    unresolved: list[tuple[Fraction, Fraction]],
    heights: dict[int, int],
) -> Optional[str]:
    """One parameter of a scan: the cover, criterion and obstruction filters,
    then every candidate z, with its findings and unresolved points appended
    to the scan's lists and its floor(h(z)) buckets counted in `heights`.
    Returns the filter that removed t ("pole", "criterion" or "obstructed"),
    or None when its candidates were examined.

    The map, R_esc and the candidate denominators are found once per
    parameter, and each den's bad primes once per den.  With
    lim = floor(R_esc den), each +-num/den with num > lim escapes at infinity
    at step 0, so it is counted per bucket in closed form (`_escape_buckets`).
    z = 0 and each num <= lim prime to den get an orbit on integer pairs
    (`_orbit_pairs`); for even e the event of -z is read from the points of
    z's orbit (`_twin_event`), and for odd e -z is iterated too.  Both share
    the bucket of max(num, den), and a Fraction is built only for a finding
    or an unresolved point."""
    if cover is not None:
        try:
            param = evaluate_cover(cover, t)
        except DomainError:  # t is a pole of the cover
            return "pole"
        if criterion is not None and t != 0:
            if not power_criterion(criterion[0], criterion[1], t).solvable:
                return "criterion"
    else:
        param = t
    obstructions = bad_place_obstruction(fam, param)
    if any(rec.obstructed for rec in obstructions):
        return "obstructed"
    forced = {
        rec.place.prime: rec.forced_valuation
        for rec in obstructions
        if rec.forced_valuation is not None
    }
    size, zero, dens = _candidate_denominators(fam, param, z_bound, forced)
    if not dens:
        return None  # no candidate, so no map is built
    fmap = specialized(fam, param)
    radius = fmap.escape_radius
    twins = fam.e % 2 == 0  # f_t(-z) = f_t(z)

    def verdict(num: int, den: int, event: OrbitEvent) -> None:
        if isinstance(event, CycleFound):
            findings.append(Finding(t, Fraction(num, den), event.preperiod, event.period))
        elif isinstance(event, OrbitTruncated):
            unresolved.append((t, Fraction(num, den)))

    if zero:
        verdict(0, 1, _orbit_pairs(fmap, 0, 1, fmap.bad_primes(1), budget)[0])
        heights[0] = heights.get(0, 0) + 1  # h(0) = 0
    for den, den_primes in dens:
        primes = fmap.bad_primes(den)
        # num > lim exactly when |num / den| > R_esc: +-num/den escapes at
        # infinity at step 0, before any budget or bit-cap test, so it is
        # neither a finding nor unresolved and only fills a height bucket
        lim = radius.numerator * den // radius.denominator
        for num in range(1, min(lim, size) + 1):
            if math.gcd(num, den) != 1:
                continue
            event, seen = _orbit_pairs(fmap, num, den, primes, budget)
            verdict(num, den, event)
            if twins:
                event = _twin_event(-num, den, event, seen, budget)
            else:
                event = _orbit_pairs(fmap, -num, den, primes, budget)[0]
            verdict(-num, den, event)
            bucket = bisect_right(_EXP_CEILS, max(num, den))
            heights[bucket] = heights.get(bucket, 0) + 2
        for bucket, count in _escape_buckets(lim, size, den_primes):
            heights[bucket] = heights.get(bucket, 0) + 2 * count
    return None


def scan(
    fam: Family,
    t_height_bound: float,
    z_height_bound: float,
    *,
    cover: Optional[CoverAnalysis] = None,
    t_values: Optional[Sequence[Fraction]] = None,
    budget: int = 512,
    use_criterion: bool = True,
) -> ScanReport:
    """Enumerate the (t, z) box, filter, and certify survivors.

    Direct mode iterates f_t; with `cover` the parameter is phi(t).  The
    bad-place obstruction always runs; the power-denominator criterion runs
    when the composed map has the exact z^d + 1/(1 + t^m) shape in its
    proven regime and `use_criterion` is set.  Preperiodic findings carry
    (preperiod, period) and replay under certify_point; parameters whose
    orbits exhaust the per-point budget are reported as unresolved and mark
    the report incomplete.  Both bounds must be positive and finite.
    """
    if not (0 < t_height_bound < math.inf and 0 < z_height_bound < math.inf):  # also refuses NaN
        raise DomainError("scan bounds must be positive and finite")
    if budget < 1:
        raise DomainError("budget must be >= 1")
    if not fam.monic:
        raise DomainError("scan requires a monic family")
    start = time.monotonic()
    ts = (
        sorted({Fraction(t) for t in t_values})
        if t_values is not None
        else _rationals_in_box(t_height_bound)
    )
    criterion = _criterion_shape(fam, cover) if use_criterion else None
    findings: list[Finding] = []
    unresolved: list[tuple[Fraction, Fraction]] = []
    counts: dict[int, int] = {}
    removed = [
        _scan_one(fam, t, z_height_bound, budget, cover, criterion, findings, unresolved, counts)
        for t in ts
    ]
    findings.sort(key=lambda f: (f.t, f.z))
    unresolved.sort()
    return ScanReport(
        family_desc=fam.describe(),
        t_box_bound=t_height_bound,
        z_box_bound=z_height_bound,
        findings=tuple(findings),
        counts_by_height=counts,
        elapsed=time.monotonic() - start,
        complete=not unresolved,
        t_examined=len(ts),
        t_filtered_criterion=removed.count("criterion"),
        t_obstructed=removed.count("obstructed"),
        t_skipped_pole=removed.count("pole"),
        candidates_checked=sum(counts.values()),  # each candidate lands in one bucket
        unresolved=tuple(unresolved),
    )
