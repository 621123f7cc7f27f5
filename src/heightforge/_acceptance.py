"""The ten acceptance criteria, written once.

``tests/test_acceptance.py`` runs every criterion at its defaults and
``heightforge repro`` runs the same functions at the reduced sizes of the
``CRITERIA`` table.  Contract seeds, counts and bounds are defaults here and
never change: each criterion draws from its own seed (101, 202, ..., 1010)
in a fixed call order, so a smaller count checks a prefix of the same
samples.  A criterion returns its pass detail (the measured margin); the
first failing sample raises ``CriterionFailed`` naming that sample, except
that the counted criteria (2 and 7) run to the end and then require a zero
count.  Wall-time bounds and the numpy resultant oracle of criterion 10
stay in the tests.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable

from .arith import INF, LogSum, Place, factor_integer
from .constants import (
    exceptional_places,
    log2_at,
    mk_a,
    mk_b,
    resultant_bound_check,
    theorem1_constants,
)
from .family import analyze_cover, build_family, is_e_general, required_pole_count, specialized
from .heights import arakelov_green, canonical_height, local_green, naive_height
from .preperiodic import certify_point, power_criterion, scan

Z2T = build_family([1, 1], 2)      # z^2 + t
Z3T = build_family([1, 1], 3)      # z^3 + t
W632 = build_family([1, -3, 1], 3)  # z^6 - 3 t z^3 + t^2
FAMILIES = [Z2T, Z3T, W632]

# the classical rational preperiodic points of z^2 + t
INVENTORIES = {
    Fraction(0): {Fraction(0), Fraction(1), Fraction(-1)},
    Fraction(-1): {Fraction(0), Fraction(1), Fraction(-1)},
    Fraction(-2): {Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2)},
    Fraction(1, 4): {Fraction(1, 2), Fraction(-1, 2)},
    Fraction(-3, 4): {Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-3, 2)},
}

COVER_FIXTURES = {
    # name: (numer, denom, {e: expected})
    "quintic": ([1], [1, 0, 0, 0, 0, 1], {2: True, 3: True, 5: True}),
    "quartic": ([1], [1, 0, 0, 0, 1], {2: False, 3: True}),
    "cubic": ([1], [1, 0, 0, 1], {2: False, 3: False, 4: True, 5: True}),
    "sextic": ([1], [1, 0, 0, 0, 0, 0, 1], {2: True, 3: True}),
    "double-pole": ([1], [1, 0, 2, 0, 1], {2: False, 3: False, 5: False}),
    "mixed-orders": ([1], [1, 1, 2, 2, 1, 1], {2: False, 3: False, 4: False, 5: True}),
    "five-linear": ([1], [-120, 274, -225, 85, -15, 1], {2: True}),
    "inf-pole": ([2, 0, 0, 0, 0, 1], [1, 0, 0, 0, 1], {2: False, 3: True}),
    "septic": ([1], [1, 0, 0, 0, 0, 0, 0, 1], {2: True, 3: True}),
    "two-poles": ([1], [-2, 0, 1], {2: False, 3: False, 5: False}),
    "triple-pole": ([1], [1, 3, 3, 1], {2: False, 3: False, 4: False, 5: False}),
    "polynomial": ([1, 0, 0, 0, 1], [1], {2: False, 3: False, 5: False}),
}


def _rand_fraction(rng, num_max, den_max, nonzero=False):
    while True:
        q = Fraction(rng.randint(-num_max, num_max), rng.randint(1, den_max))
        if not (nonzero and q == 0):
            return q


def _is_squarefree(n: int) -> bool:
    return all(k == 1 for k in factor_integer(n).values())


class CriterionFailed(Exception):
    """A criterion's failing sample, named in the message."""


def _require(cond: bool, detail: Callable[[], str]) -> None:
    """Raise CriterionFailed(detail()) unless cond; the message is built only
    on failure."""
    if not cond:
        raise CriterionFailed(detail())


# 1. functional equation hhat(f_t(z)) = d * hhat(z)
def functional_equation(samples: int = 200) -> str:
    rng = random.Random(101)
    worst = 0.0
    for _ in range(samples):
        fam = rng.choice(FAMILIES)
        t = _rand_fraction(rng, 100, 100)
        z = _rand_fraction(rng, 100, 100)
        h_fz = canonical_height(fam, t, specialized(fam, t)(z), 1e-9)
        h_z = canonical_height(fam, t, z, 1e-9)
        defect = abs(h_fz.mid - fam.d * h_z.mid)
        _require(defect <= 3e-9,
                 lambda: f"mid defect {defect:.2e} for {fam.describe()}, t = {t}, z = {z}")
        worst = max(worst, defect)
    return f"{samples} samples, worst mid defect {worst:.2e}"


# 2. preperiodic <=> hhat = 0 on the classical quadratic inventories
def preperiodic_inventories(z_bound: float = math.log(50), samples: int = 1000) -> str:
    # (a) the box scan recovers each inventory exactly
    for t, expected in INVENTORIES.items():
        report = scan(Z2T, 1.0, z_bound, t_values=[t])
        found = {f.z for f in report.findings}
        _require(found == expected, lambda: f"t = {t}: scan found {sorted(map(str, found))}")
        for f in report.findings:
            _require(certify_point(Z2T, t, f.z).is_preperiodic,
                     lambda: f"t = {t}, z = {f.z} not certified")
    # (b) other rational points certify as wandering with a positive bound
    rng = random.Random(202)
    params = sorted(INVENTORIES)
    misclassified, certified, first = 0, 0, ""
    while certified < samples:
        t = rng.choice(params)
        z = _rand_fraction(rng, 50, 50)
        if z in INVENTORIES[t]:
            continue
        cert = certify_point(Z2T, t, z)
        certified += 1
        if cert.is_preperiodic or not cert.hhat_lower_bound > 0:
            misclassified += 1
            first = first or f", first at t = {t}, z = {z}"
    _require(misclassified == 0, lambda: f"{misclassified} misclassifications{first}")
    return (f"{len(INVENTORIES)} inventories exact, {samples} wandering certificates, "
            "0 misclassifications")


# 3. escape lower bound G >= (1/d) log+ |t|_p when e does not divide v_p(t)
def escape_lower_bound(samples: int = 1000) -> str:
    rng = random.Random(303)
    checked = 0
    while checked < samples:
        fam = rng.choice(FAMILIES)
        p = rng.choice([7, 11, 13, 17, 19])
        if Place.finite(p) in exceptional_places(fam):
            continue
        k = rng.choice([k for k in range(1, 6) if k % fam.e != 0])
        a = rng.choice([n for n in range(-9, 10) if n and n % p != 0])
        t = Fraction(a, p**k)
        z = rng.choice([Fraction(0), Fraction(rng.randint(-20, 20)),
                        Fraction(rng.randint(1, 20), p)])
        res = local_green(fam, t, Place.finite(p), z)

        def sample() -> str:
            return f"{fam.describe()}, t = {t}, p = {p}, z = {z}"

        _require(res.mode == "exact-escape", lambda: f"mode {res.mode} at {sample()}")
        # exact rational comparison: G = coeff * log p >= (k/d) log p
        _require(res.value.coeff >= Fraction(k, fam.d),
                 lambda: f"G = {res.value.coeff} log p at {sample()}")
        checked += 1
    return f"{samples} exact escape lower bounds, all rational comparisons hold"


# 4. obstruction scans: t = 1/n, squarefree n, no preperiodic points
def obstruction_scan(n_max: int = 500, z_bound: float = math.log(100)) -> str:
    n_scanned = 0
    for n in range(2, n_max + 1):
        if not _is_squarefree(n):
            continue
        report = scan(Z2T, 1.0, z_bound, t_values=[Fraction(1, n)])
        _require(report.findings == (), lambda: f"t = 1/{n}: {len(report.findings)} findings")
        _require(report.t_obstructed == 1, lambda: f"t = 1/{n} not obstructed")
        n_scanned += 1
    return f"{n_scanned} squarefree parameters scanned, 0 findings"


# 5. good-reduction pairing floor g >= -max(a_v, b_v) - log2_v
def goodred_pairing_floor(samples: int = 10_000) -> str:
    rng = random.Random(505)
    places = [INF, Place.finite(2), Place.finite(3), Place.finite(5), Place.finite(7)]
    checked = 0
    while checked < samples:
        fam = rng.choice(FAMILIES)
        v = rng.choice(places)
        if v.is_archimedean:
            t = Fraction(rng.randint(-9, 9), rng.randint(9, 12))  # |t| <= 1
        else:
            t = Fraction(rng.randint(-9, 9), rng.choice(
                [n for n in range(1, 10) if n % v.prime != 0]))  # |t|_p <= 1
        x = _rand_fraction(rng, 12, 8)
        y = _rand_fraction(rng, 12, 8)
        if x == y:
            continue
        bound = mk_a(fam).at(v)
        if mk_b(fam).at(v).compare(bound) > 0:
            bound = mk_b(fam).at(v)
        bound = bound + log2_at(v)
        g = arakelov_green(fam, t, v, x, y, tol=1e-7)
        _require(g.hi >= -bound.enclosure().hi - 1e-9,
                 lambda: f"g <= {g.hi:.3e} for {fam.describe()} at {v}, t = {t}, x = {x}, y = {y}")
        checked += 1
    return f"{samples} pairings above the good-reduction floor (slack 1e-9)"


# 6. resultant bound, with the exact equality witness at t = 1/3
def resultant_bound(samples: int = 1000) -> str:
    eq = resultant_bound_check(Z2T, Fraction(1, 3))
    _require(eq.ok and eq.lhs == eq.rhs == LogSum({3: Fraction(4)}),  # both sides 4 log 3
             lambda: f"t = 1/3: lhs {eq.lhs}, rhs {eq.rhs}")
    rng = random.Random(606)
    for _ in range(samples):
        fam = rng.choice(FAMILIES)
        t = _rand_fraction(rng, 50, 50, nonzero=True)
        _require(resultant_bound_check(fam, t).ok,
                 lambda: f"bound fails for {fam.describe()}, t = {t}")
    return f"{samples} resultant bounds hold, equality 4·log3 witnessed at t = 1/3"


# 7. uniform lower bound hhat >= eps * h(t) - C at s = 1
def uniform_height_floor(samples: int = 1000) -> str:
    quartic = build_family([1, 0, 1], 2)  # d = 4, e = 2
    rep = theorem1_constants(quartic, 1)
    _require(rep.status == "ok", lambda: f"constants status {rep.status}")
    _require(rep.orbit_bound == 72, lambda: f"orbit bound {rep.orbit_bound}")  # 2 * (4+2)^2
    eps, c_const = rep.epsilon.as_float(), rep.C_float()
    rng = random.Random(707)
    checked = violations = 0
    first = ""
    while checked < samples:
        p = rng.choice([3, 5, 7])
        j = rng.choice([1, 1, 2, 3])  # one bad prime, odd exponents common
        t = Fraction(rng.choice([n for n in range(-9, 10) if n and n % p]), p**j)
        z = _rand_fraction(rng, 10, 6)
        cert = certify_point(quartic, t, z)
        if cert.is_preperiodic:
            continue
        hi = canonical_height(quartic, t, z, 1e-6).hi
        if hi < eps * float(naive_height(t)) - c_const - 1e-12:
            violations += 1
            first = first or f", first at t = {t}, z = {z}"
        checked += 1
    _require(violations == 0, lambda: f"{violations} violations{first}")
    return f"{samples} wandering samples, eps = {eps:.2e}, C = {c_const:.2e}, 0 violations"


# 8. composed-family desk scan: z^2 + 1/(1+t^4) has no preperiodic points
def composed_scan(t_bound: float = math.log(50), z_bound: float = math.log(100),
                  samples: int = 500) -> str:
    cover = analyze_cover([1], [1, 0, 0, 0, 1])
    report = scan(Z2T, t_bound, z_bound, cover=cover)
    _require(report.findings == (), lambda: f"{len(report.findings)} findings")
    _require(report.complete, lambda: f"{len(report.unresolved)} unresolved")
    # the power criterion refused every parameter except t = 0
    _require(report.t_filtered_criterion == report.t_examined - 1,
             lambda: f"criterion filtered {report.t_filtered_criterion} of {report.t_examined}")
    rng = random.Random(808)
    for _ in range(samples):
        x, y = rng.randint(-50, 50), rng.randint(1, 50)
        if x == 0:
            continue
        _require(power_criterion(2, 4, Fraction(x, y)).solvable is False,
                 lambda: f"t = {x}/{y} solvable")
    return (f"{report.t_examined} parameters |x|,|y| <= {math.exp(t_bound):.0f}, 0 findings, "
            f"criterion filtered {report.t_filtered_criterion}")


# 9. e-generality table on the cover fixture suite
def e_general_table() -> str:
    for e, count in [(2, 5), (3, 4), (4, 3), (5, 3), (6, 3), (7, 3), (11, 3)]:
        _require(required_pole_count(e) == count, lambda: f"required_pole_count({e})")
    n_checks = 0
    for name, (numer, denom, table) in COVER_FIXTURES.items():
        cov = analyze_cover(numer, denom)
        for e, expected in table.items():
            _require(is_e_general(cov, e).ok is expected, lambda: f"{name} at e = {e}")
            n_checks += 1
    return f"{len(COVER_FIXTURES)} covers, {n_checks} table entries match"


# 10. oracle equivalence: local and global canonical heights overlap
def local_global_overlap(samples: int = 500, rng: random.Random | None = None) -> str:
    rng = random.Random(1010) if rng is None else rng
    for _ in range(samples):
        fam = rng.choice([Z2T, Z3T])
        t = _rand_fraction(rng, 8, 6)
        z = _rand_fraction(rng, 8, 6)
        h_local = canonical_height(fam, t, z, 0.05)
        h_global = canonical_height(fam, t, z, 0.2, method="global")
        _require(h_local.overlaps(h_global), lambda: f"{fam.describe()}, t = {t}, z = {z}")
    return f"{samples} local-global overlaps"


# repro check name -> (criterion, the reduced sizes `heightforge repro` runs at),
# in criterion order
CRITERIA = {
    "functional-equation": (functional_equation, {"samples": 30}),
    "preperiodic-inventories": (preperiodic_inventories, {"z_bound": math.log(10), "samples": 50}),
    "escape-lower-bound": (escape_lower_bound, {"samples": 200}),
    "obstruction-scan": (obstruction_scan, {}),
    "goodred-pairing-floor": (goodred_pairing_floor, {"samples": 60}),
    "resultant-bound": (resultant_bound, {"samples": 200}),
    "uniform-height-floor": (uniform_height_floor, {"samples": 25}),
    "composed-scan-empty": (composed_scan, {"t_bound": math.log(12), "z_bound": math.log(20),
                                            "samples": 50}),
    "e-general-table": (e_general_table, {}),
    "local-global-overlap": (local_global_overlap, {"samples": 30}),
}
