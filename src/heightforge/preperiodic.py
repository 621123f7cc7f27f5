"""Orbit computation, preperiodicity certificates, and scanning filters.

A rational point is preperiodic exactly when its forward orbit repeats, and
every repeat is found by exact iteration; a wandering point is certified
either by a single-place escape witness (which forces a positive local
Green's value, hence positive canonical height) or by a canonical-height
enclosure bounded away from zero.

An orbit stops at its first repeat or at its first point in the escape
region of some place, so a wandering point's certificate ends at the first
point that escapes.  The escape test reads no logs: every prime dividing
den(z_n) divides den(z_0) or M, and at any other prime no escape can fire,
so one prime set, found before the first point, serves every test of the
orbit.  An orbit's naive heights are computed from its points when first
read.

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
"""
from __future__ import annotations

import csv
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence, Union

from sympy import integer_nthroot

from .arith import (
    INF,
    Place,
    _naive_height_interval,
    factor_integer,
    format_rational,
    vp_or_none,
)
from .constants import exceptional_places
from .errors import BudgetExceeded, DomainError
from .family import CoverAnalysis, Family, SpecializedMap, evaluate_cover, specialized
from .heights import canonical_height, local_green

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


def _escape_place(fmap: SpecializedMap, z: Fraction, primes: Sequence[int]) -> Optional[Place]:
    """A place at which z lies in the certified escape region, if any.

    Finite places: v_p(z) below the escape threshold theta_p, at each of
    the sorted `primes`, which must include every prime dividing den(z) or
    M (at any other prime v(z) >= 0 and theta_p <= 0, so nothing escapes
    there).  Archimedean: |z| beyond the map's escape radius.  Both tests
    are exact rational comparisons.
    """
    for p in primes:
        vw = vp_or_none(z, p)
        if vw is not None and vw < fmap.green_data(p).theta:
            return Place.finite(p)
    if abs(z) > fmap.escape_radius:
        return INF
    return None


def iterate_orbit(fam: Family, t: Fraction, z: Fraction, max_steps: int) -> OrbitRecord:
    """Exact forward orbit of z under f_t until a repeat, a certified escape,
    or the budget.

    Each point, from z on, is tested in this order: a repeated value ends the
    orbit with CycleFound, a point in a certified escape region at some place
    with EscapeCertified, so a wandering orbit ends at its first escaping
    point, and the step budget or the bit-size cap with OrbitTruncated, an
    event, not an error.  The escape tests share the map's bad primes for z,
    those of M and of den z, found once before the first point.
    """
    if max_steps < 1:
        raise DomainError("max_steps must be >= 1")
    fmap = specialized(fam, t)
    primes = fmap.bad_primes(z)
    points: list[Fraction] = []
    for n, (w, first) in enumerate(fmap.orbit(z)):
        points.append(w)
        if first < n:
            return OrbitRecord(tuple(points), CycleFound(first, n - first))
        pl = _escape_place(fmap, w, primes)
        if pl is not None:
            return OrbitRecord(tuple(points), EscapeCertified(pl, n))
        bits = w.numerator.bit_length() + w.denominator.bit_length()
        if n == max_steps or bits > _ORBIT_BIT_CAP:
            return OrbitRecord(tuple(points), OrbitTruncated(n))


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Preperiodic/wandering verdict with replayable evidence.

    Preperiodic: `preperiod` and `period` replay by exact iteration.
    Wandering: `hhat_lower_bound` > 0, witnessed either by an escape place
    (witness = the Place) or by a canonical-height enclosure with positive
    lower end (witness = "height-interval").
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
            out["witness"] = (
                self.witness if isinstance(self.witness, str) else str(self.witness)
            )
        out["orbit"] = self.orbit.to_json()
        return out


def _positive_green_bound(
    fam: Family, t: Fraction, place: Place, z: Fraction
) -> float:
    """A certified positive lower bound for G_place(z), given that the orbit
    escapes at `place`; the tolerance is halved until the enclosure clears 0."""
    tol = 1e-6
    for _ in range(80):
        enc = local_green(fam, t, place, z, tol=tol).enclosure()
        if enc.lo > 0:
            return enc.lo
        tol /= 4
    raise BudgetExceeded("could not separate the escape-place Green value from 0")


def certify_point(fam: Family, t: Fraction, z: Fraction) -> Certificate:
    """Classify z as preperiodic or wandering under f_t, with a certificate.

    Alternates orbit extension with canonical-height tolerance halving:
    preperiodic rationals repeat in finitely many exact steps, and wandering
    rationals either enter a certified escape region at some place or get a
    canonical-height enclosure with positive lower end.
    """
    t, z = Fraction(t), Fraction(z)
    if fam.monic:
        for rec in bad_place_obstruction(fam, t):
            if rec.obstructed:
                # the equation |z|^e = |t| has no rational solution at this
                # place, so z sits in its escape region: G there is positive.
                # The record is the one step z, f(z), with no prime set found
                bound = _positive_green_bound(fam, t, rec.place, z)
                return Certificate(
                    "wandering",
                    OrbitRecord((z, specialized(fam, t)(z)), OrbitTruncated(1)),
                    hhat_lower_bound=bound,
                    witness=rec.place,
                )
    steps = 32
    tol = 1e-4
    record = None
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
            bound = _positive_green_bound(fam, t, record.event.place, z)
            return Certificate(
                "wandering",
                record,
                hhat_lower_bound=bound,
                witness=record.event.place,
            )
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
    for p, m in factor_integer(t.denominator).items():
        if p in exceptional:
            continue
        k = -m  # v_p(t) < 0 since p divides the denominator
        if k % fam.e != 0:
            out.append(
                ObstructionRecord(
                    Place.finite(p),
                    True,
                    None,
                    f"v_{p}(t) = {k} is not divisible by e = {fam.e}: "
                    f"|z|^e = |t| has no solution, so no rational point is "
                    f"preperiodic for this parameter",
                )
            )
        else:
            forced = k // fam.e
            out.append(
                ObstructionRecord(
                    Place.finite(p),
                    False,
                    forced,
                    f"every preperiodic point must have v_{p}(z) = {forced}",
                )
            )
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
    value = x**m + y**m
    if value == 0:
        return CriterionResult(True, 0, 0)
    root, exact = integer_nthroot(abs(value), d)
    if not exact:
        return CriterionResult(False, None, value)
    return CriterionResult(True, int(root), value)


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
    out = [Fraction(0)]
    for den in range(1, size + 1):
        for num in range(1, size + 1):
            if math.gcd(num, den) == 1:
                out.append(Fraction(num, den))
                out.append(Fraction(-num, den))
    return sorted(out)


def _candidate_points(
    fam: Family, t: Fraction, z_bound: float, forced: dict[int, int]
) -> Iterator[Fraction]:
    """Candidate preperiodic points: numerator and denominator bounded by
    exp(z_bound), denominator = (forced part from the bad places) x (a
    divisor supported on the exceptional primes, with each p to at most
    max(0, -ceil(theta_p)), the escape threshold); all other denominators
    put z in an escape region.  More than _MAX_BOX_PARAMETERS candidates
    (2 N per denominator) are refused first."""
    size = _box_size(z_bound)
    base = 1
    for p, k in forced.items():
        base *= p ** (-k)
    if base > size:
        return
    fmap = specialized(fam, t)
    extra: list[tuple[int, int]] = []
    for pl in sorted(exceptional_places(fam), key=lambda pl: pl.sort_key()):
        if pl.is_archimedean or pl.prime in forced:
            continue
        cap = -math.ceil(fmap.green_data(pl.prime).theta)
        if cap > 0:
            extra.append((pl.prime, cap))
    dens = {base}
    for p, cap in extra:
        dens |= {d0 * p**j for d0 in dens for j in range(1, cap + 1) if d0 * p**j <= size}
    if 2 * size * len(dens) > _MAX_BOX_PARAMETERS:
        raise DomainError(f"z-box of height {z_bound} exceeds {_MAX_BOX_PARAMETERS} candidates")
    if base == 1:
        yield Fraction(0)
    for den in sorted(dens):
        for num in range(1, size + 1):
            if math.gcd(num, den) == 1:
                yield Fraction(num, den)
                yield Fraction(-num, den)


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
) -> dict:
    res: dict = {
        "pole": False,
        "criterion": False,
        "obstructed": False,
        "findings": [],
        "unresolved": [],
        "checked": 0,
        "heights": {},
    }
    if cover is not None:
        try:
            param = evaluate_cover(cover, t)
        except DomainError:  # t is a pole of the cover
            res["pole"] = True
            return res
        if criterion is not None and t != 0:
            if not power_criterion(criterion[0], criterion[1], t).solvable:
                res["criterion"] = True
                return res
    else:
        param = t
    obstructions = bad_place_obstruction(fam, param)
    if any(rec.obstructed for rec in obstructions):
        res["obstructed"] = True
        return res
    forced = {
        rec.place.prime: rec.forced_valuation
        for rec in obstructions
        if rec.forced_valuation is not None
    }
    buckets: dict[int, int] = {}  # max(|num z|, den z) -> floor(h(z))
    for z in _candidate_points(fam, param, z_bound, forced):
        res["checked"] += 1
        record = iterate_orbit(fam, param, z, budget)
        size = max(abs(z.numerator), z.denominator)
        bucket = buckets.get(size)
        if bucket is None:
            bucket = buckets[size] = math.floor(_naive_height_interval(z).mid)
        res["heights"][bucket] = res["heights"].get(bucket, 0) + 1
        if isinstance(record.event, CycleFound):
            res["findings"].append(
                Finding(t, z, record.event.preperiod, record.event.period)
            )
        elif isinstance(record.event, OrbitTruncated):
            res["unresolved"].append((t, z))
    return res


def _scan_worker(payload: tuple) -> dict:
    return _scan_one(*payload)


def scan(
    fam: Family,
    t_height_bound: float,
    z_height_bound: float,
    *,
    cover: Optional[CoverAnalysis] = None,
    t_values: Optional[Sequence[Fraction]] = None,
    budget: int = 512,
    jobs: int = 1,
    use_criterion: bool = True,
) -> ScanReport:
    """Enumerate the (t, z) box, filter, and certify survivors.

    Direct mode iterates f_t; with `cover` the parameter is phi(t).  The
    bad-place obstruction always runs; the power-denominator criterion runs
    when the composed map has the exact z^d + 1/(1 + t^m) shape in its
    proven regime and `use_criterion` is set.  Preperiodic findings carry
    (preperiod, period) and replay under certify_point; parameters whose
    orbits exhaust the per-point budget are reported as unresolved and mark
    the report incomplete.
    """
    if t_height_bound <= 0 or z_height_bound <= 0:
        raise DomainError("scan bounds must be positive")
    if jobs < 1:
        raise DomainError("jobs must be >= 1")
    if not fam.monic:
        raise DomainError("scan requires a monic family")
    start = time.monotonic()
    ts = (
        sorted(Fraction(t) for t in t_values)
        if t_values is not None
        else _rationals_in_box(t_height_bound)
    )
    criterion = _criterion_shape(fam, cover) if use_criterion else None

    results: list[dict]
    # os.cpu_count() reads the OS on each call, so a serial scan skips it
    workers = 1 if jobs == 1 else min(jobs, os.cpu_count() or 1, len(ts))
    if workers > 1:
        payloads = [(fam, t, z_height_bound, budget, cover, criterion) for t in ts]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_scan_worker, payloads, chunksize=8))
    else:
        results = [
            _scan_one(fam, t, z_height_bound, budget, cover, criterion) for t in ts
        ]

    findings: list[Finding] = []
    unresolved: list[tuple[Fraction, Fraction]] = []
    counts: dict[int, int] = {}
    n_crit = n_obstructed = n_pole = n_checked = 0
    for res in results:
        n_pole += res["pole"]
        n_crit += res["criterion"]
        n_obstructed += res["obstructed"]
        n_checked += res["checked"]
        findings.extend(res["findings"])
        unresolved.extend(res["unresolved"])
        for bucket, count in res["heights"].items():
            counts[bucket] = counts.get(bucket, 0) + count
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
        t_filtered_criterion=n_crit,
        t_obstructed=n_obstructed,
        t_skipped_pole=n_pole,
        candidates_checked=n_checked,
        unresolved=tuple(unresolved),
    )
