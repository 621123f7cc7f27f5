"""Orbits, certificates, obstruction filters, criterion, and scans."""
import itertools
import json
import math
import pathlib
import random
import sys
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

from heightforge import _polys as P
from heightforge import arith, family, heights
from heightforge.arith import INF, Place, padic_valuation, support, vp_or_none
from heightforge.constants import _mk_c, exceptional_places, pigeonhole_delta, theorem1_constants
from heightforge._intervals import Interval, iv_from_fraction, log_prime_iv
from heightforge.errors import BudgetExceeded, DomainError
from heightforge.family import Family, analyze_cover, build_family, specialize, specialized
from heightforge.heights import (
    _naive_height_interval,
    arakelov_green,
    canonical_height,
    local_green,
    naive_height,
)
from heightforge import preperiodic
from heightforge.preperiodic import (
    Certificate,
    CycleFound,
    EscapeCertified,
    OrbitTruncated,
    _EXP_CEILS,
    _candidate_denominators,
    _escape_buckets,
    _rationals_in_box,
    bad_place_obstruction,
    certify_point,
    find_nonpower_place,
    iterate_orbit,
    power_criterion,
    scan,
)

Z2T = build_family([1, 1], 2)
Z3T = build_family([1, 1], 3)
Z4T2 = build_family([1, 0, 1], 2)  # z^4 + t^2
NONMONIC = build_family([3, 1], 2)  # 3z^2 + t
FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


# -- orbit iteration ---------------------------------------------------------------


def test_orbit_classic_cycle():
    rec = iterate_orbit(Z2T, Fraction(-1), Fraction(1), 20)
    assert [int(p) for p in rec.points] == [1, 0, -1, 0]
    assert rec.event == CycleFound(preperiod=1, period=2)
    assert len(rec.naive_heights) == 4
    # points are pairwise distinct before the repeat
    assert len(set(rec.points[:-1])) == len(rec.points) - 1


def test_orbit_arch_escape():
    # the certificate fires at z = 5, the first point past the exact escape
    # radius max(1, 2|t|) = 2
    rec = iterate_orbit(Z2T, Fraction(1), Fraction(0), 40)
    assert rec.points == (0, 1, 2, 5)
    assert rec.event == EscapeCertified(INF, 3)


def test_orbit_2adic_escape():
    # theta_2 = 0 for z^2 - 1, so 1/2 escapes at once
    rec = iterate_orbit(Z2T, Fraction(-1), Fraction(1, 2), 40)
    assert rec.points == (Fraction(1, 2),)
    assert rec.event == EscapeCertified(Place.finite(2), 0)
    # theta_2 = -1 for z^3 + 1/8: 1/2 sits on the threshold, and its image
    # 1/8 + 1/8 = 1/4 is below it
    rec = iterate_orbit(Z3T, Fraction(1, 8), Fraction(1, 2), 40)
    assert rec.points == (Fraction(1, 2), Fraction(1, 4))
    assert rec.event == EscapeCertified(Place.finite(2), 1)


def test_orbit_budget_event():
    # the orbit 0, 1, 2, 5 of z^2 + 1 escapes at step 3, past this budget
    rec = iterate_orbit(Z2T, Fraction(1), Fraction(0), 2)
    assert rec.event == OrbitTruncated(2)
    assert len(rec.points) == 3


def test_orbit_rejects_bad_budget():
    with pytest.raises(DomainError):
        iterate_orbit(Z2T, Fraction(1), Fraction(0), 0)


def test_orbit_json_shape():
    js = iterate_orbit(Z2T, Fraction(-1), Fraction(1), 20).to_json()
    assert js["points"] == ["1", "0", "-1", "0"]
    assert js["event"] == {"kind": "cycle-found", "preperiod": 1, "period": 2}
    assert len(js["naiveHeights"]) == 4


def test_twin_event_is_the_orbit_of_minus_z():
    # for even e, -z's event is read from z's orbit on integer pairs: the
    # same tests fire on -z, z_1, z_2, ..., and only a cycle through -z or a
    # periodic z moves the event
    z4t = build_family([1, 1], 4)  # z^4 + t, e = 4
    box = [Fraction(x, y) for y in (1, 2, 3, 4) for x in range(1, 7) if math.gcd(x, y) == 1]

    def twin(fam, t, z, budget):
        fmap = specialized(fam, t)
        num, den = z.numerator, z.denominator
        event, seen = preperiodic._orbit_pairs(fmap, num, den, fmap.bad_primes(den), budget)
        return preperiodic._twin_event(-num, den, event, seen, budget)

    kinds = set()
    for fam, t in itertools.product((Z2T, Z4T2, z4t), (Fraction(-2), Fraction(-1), Fraction(0),
                                                       Fraction(-3, 4), Fraction(1, 16))):
        for z, budget in itertools.product(box, (1, 2, 3, 512)):
            event = twin(fam, t, z, budget)
            assert event == iterate_orbit(fam, t, -z, budget).event, (
                fam.describe(), t, z, budget)
            kinds.add(type(event).__name__)
    # the grid reaches every kind of event; the cases below pin the moved ones
    assert kinds == {"CycleFound", "EscapeCertified", "OrbitTruncated"}
    assert twin(Z2T, Fraction(-2), Fraction(2), 512) == CycleFound(1, 1)  # periodic z
    assert twin(Z2T, Fraction(-2), Fraction(2), 1) == OrbitTruncated(1)
    assert twin(Z2T, Fraction(-1), Fraction(1), 512) == CycleFound(0, 2)  # -z = z_2
    assert twin(Z2T, Fraction(-1), Fraction(1, 2), 512) == EscapeCertified(Place.finite(2), 0)


def _reference_escaped(data, vw):
    """The escape region at data.p, one coefficient at a time: every lower
    term b_j z^(e j) strictly below the top one, and
    v(f(w)) = v(b_D) + d v(w) < v(w)."""
    for j, v in enumerate(data.vb[:-1]):
        if v is not None and (data.d - data.e * j) * vw >= v - data.v_lead:
            return False
    return data.v_lead + data.d * vw < vw


def _reference_denominator_cap(data):
    """The largest k with v = -k outside the escape region, by search."""
    v = 0
    while not _reference_escaped(data, v - 1):
        v -= 1
    return -v


def _coefficient_primes(fmap):
    """The primes of every coefficient's numerator and denominator (the
    nonzero coefficients of f_t are its form coefficients b_j)."""
    return {p for c in fmap.ze_coeffs if c != 0 for p in support(c)}


def _reference_escape_place(fmap, w):
    """The escape test on the primes of den(w) and of the coefficients."""
    for p in sorted(set(support(Fraction(w.denominator))) | _coefficient_primes(fmap)):
        vw = vp_or_none(w, p)
        if vw is not None and _reference_escaped(fmap.green_data(p), vw):
            return Place.finite(p)
    return INF if abs(w) > fmap.escape_radius else None


def _reference_orbit(fam, t, z, max_steps):
    """iterate_orbit with each point evaluated by Horner's rule on the dense
    coefficients of f_t, repeats found by a dict of Fractions, and the
    denominator factored at every point."""
    fmap = specialized(fam, t)
    coeffs = specialize(fam, t)
    points, seen, w = [], {}, Fraction(z)
    for n in itertools.count():
        points.append(w)
        first = seen.setdefault(w, n)
        if first < n:
            return points, CycleFound(first, n - first)
        pl = _reference_escape_place(fmap, w)
        if pl is not None:
            return points, EscapeCertified(pl, n)
        bits = w.numerator.bit_length() + w.denominator.bit_length()
        if n == max_steps or bits > preperiodic._ORBIT_BIT_CAP:
            return points, OrbitTruncated(n)
        w = P.evaluate(coeffs, w)


def _count_factorings(monkeypatch) -> list[int]:
    """Record every factor_integer call, wherever heightforge binds the name."""
    factored = []
    factor_integer = arith.factor_integer

    def counted(n):
        factored.append(n)
        return factor_integer(n)

    for name, module in list(sys.modules.items()):
        if name.startswith("heightforge") and getattr(module, "factor_integer", None) is factor_integer:
            monkeypatch.setattr(module, "factor_integer", counted)
    return factored


def test_orbit_computes_no_log_until_heights_are_read(monkeypatch):
    calls = []

    def counted(w):
        calls.append(w)
        return _naive_height_interval(w)

    monkeypatch.setattr(preperiodic, "_naive_height_interval", counted)
    factored = _count_factorings(monkeypatch)
    for max_steps, event in ((40, EscapeCertified(INF, 3)), (2, OrbitTruncated(2))):
        rec = iterate_orbit(Z2T, Fraction(1), Fraction(0), max_steps)
        assert rec.event == event
        assert calls == []
        heights = rec.naive_heights
        assert len(calls) == len(rec.points) == len(heights)
        assert rec.naive_heights is heights and len(calls) == len(rec.points)
        calls.clear()
    # den z = 2 holds only the prime 2 of M = 4 for z^2 + 1/4: once M is
    # factored (once per map), nothing more is factored
    specialized(Z2T, Fraction(1, 4)).denominator_primes
    factored.clear()
    rec = iterate_orbit(Z2T, Fraction(1, 4), Fraction(3, 2), 40)
    assert rec.event == EscapeCertified(INF, 1) and factored == []


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    fam=st.sampled_from([Z2T, Z3T, Z4T2, NONMONIC]),
    t=st.fractions(-40, 40, max_denominator=40),
    z=st.fractions(-40, 40, max_denominator=40),
)
def test_orbit_prime_set_finds_the_same_escape_place(fam, t, z):
    fmap = specialized(fam, t)
    fmap.denominator_primes  # cached per map, not per orbit
    factored = []

    def counted(n):
        factored.append(n)
        return original(n)

    original = family.factor_integer
    family.factor_integer = counted
    try:
        # every point is tested, with at most one factoring per orbit
        rec = iterate_orbit(fam, t, z, 5)
        assert len(factored) <= 1
        primes = fmap.bad_primes(z.denominator)
    finally:
        family.factor_integer = original
    assert primes == tuple(sorted(
        set(support(Fraction(z.denominator))) | set(support(Fraction(fmap.integral_model[1])))
    ))
    for num, den, _ in itertools.islice(fmap.orbit(z), 6):
        assert preperiodic._escape_place(fmap, num, den, primes) == _reference_escape_place(
            fmap, Fraction(num, den)
        )
    # the event step is the first step at which the reference test fires
    ref_points, ref_event = _reference_orbit(fam, t, z, 5)
    assert (rec.points, rec.event) == (tuple(ref_points), ref_event)
    # the threshold is the per-coefficient test, and its denominator cap the
    # search for the first valuation outside the escape region
    for p in _coefficient_primes(fmap) | {2, 3, 5, 7}:
        data = fmap.green_data(p)
        for v in range(-60, 41):
            assert (v < data.theta) == _reference_escaped(data, v), (p, v)
        assert max(0, -math.ceil(data.theta)) == _reference_denominator_cap(data)


# -- certification -------------------------------------------------------------------


def test_certify_preperiodic():
    cert = certify_point(Z2T, Fraction(-1), Fraction(0))
    assert cert.verdict == "preperiodic"
    assert (cert.preperiod, cert.period) == (0, 2)


def test_certify_wandering_arch():
    # under z^2 + 1 the orbit 0, 1, 2, 5 escapes at step 3 (|5| > R_esc = 2),
    # and with T = 1 the closed form's lower end there is
    # 2^-3 (log 5 + log(4/5)) = log 4 / 8
    cert = certify_point(Z2T, Fraction(1), Fraction(0))
    assert cert.verdict == "wandering"
    assert cert.witness == INF and cert.orbit.event == EscapeCertified(INF, 3)
    assert math.isclose(cert.hhat_lower_bound, math.log(4) / 8, rel_tol=1e-14)
    h = canonical_height(Z2T, Fraction(1), Fraction(0), 1e-9)
    assert cert.hhat_lower_bound <= h.lo  # h.lo = 0.2036...


def test_certify_factors_no_multiple_of_an_integral_parameter(monkeypatch):
    # t = 3 p q is integral, so M = 1 and only den z = 2 is factored
    pq = 100000007 * 999999937
    factored = _count_factorings(monkeypatch)
    cert = certify_point(Z2T, Fraction(3 * pq), Fraction(1, 2))
    assert cert.verdict == "wandering" and cert.witness == Place.finite(2)
    assert factored and not any(n % pq == 0 for n in factored)


def test_certify_factors_den_t_once(monkeypatch):
    # den t = p^2 is not obstructed (e = 2 divides v_p(t) = -2): the
    # obstruction and the map read one factorization of den t, and the
    # orbit's prime set then finds den z = p among M's primes
    p = 1000000000039
    family._specialized.cache_clear()
    family.parameter_denominator_factors.cache_clear()
    factored = _count_factorings(monkeypatch)
    cert = certify_point(Z2T, Fraction(1, p**2), Fraction(1, p))
    assert cert.verdict == "wandering" and cert.witness == Place.finite(p)
    assert [n for n in factored if n % p == 0] == [p**2]


def test_certify_wandering_3adic_shortcut():
    # t = 1/3 is obstructed at 3, so every rational z wanders; the witness
    # bound is G_3(1/2) = (1/2) log 3 exactly
    cert = certify_point(Z2T, Fraction(1, 3), Fraction(1, 2))
    assert cert.verdict == "wandering"
    assert cert.witness == Place.finite(3)
    assert abs(cert.hhat_lower_bound - math.log(3) / 2) < 1e-9


def test_certify_fixed_point_with_denominator():
    cert = certify_point(Z2T, Fraction(1, 4), Fraction(1, 2))
    assert cert.verdict == "preperiodic" and (cert.preperiod, cert.period) == (0, 1)


def test_certify_shell_wanderer():
    # 3/2 under z^2 + 1/4 never escapes 2-adically (the orbit sits in the
    # valuation -1 shell) but escapes archimedeanly
    cert = certify_point(Z2T, Fraction(1, 4), Fraction(3, 2))
    assert cert.verdict == "wandering" and cert.witness == INF


def test_certify_height_interval_witness(monkeypatch):
    # 0 under z^2 + 10^60000 escapes at infinity at step 2, where it also
    # passes the 200 000-bit cap
    t = Fraction(10**60000)
    assert certify_point(Z2T, t, Fraction(0)).orbit.event == EscapeCertified(INF, 2)
    # with no escape place, neither a cycle nor an escape is found, and the
    # canonical-height enclosure certifies the point, as it does a slow
    # wanderer that escapes past the step budget
    monkeypatch.setattr(preperiodic, "_escape_place", lambda fmap, num, den, primes: None)
    cert = certify_point(Z2T, t, Fraction(0))
    assert cert.verdict == "wandering" and cert.witness == "height-interval"
    assert cert.orbit.event == OrbitTruncated(2)
    assert cert.orbit.event.to_json() == {"kind": "budget-exhausted", "steps": 2}
    last = cert.orbit.points[-1]
    assert last.numerator.bit_length() > preperiodic._ORBIT_BIT_CAP
    assert 0 < cert.hhat_lower_bound <= canonical_height(Z2T, t, Fraction(0), 1e-9).hi
    js = cert.to_json()  # 120 001-digit orbit points, past Python's int-to-str limit
    assert js["witness"] == "height-interval"
    assert js["orbit"]["points"][1] == "1" + "0" * 60000


def test_orbit_loop_stops_at_the_bit_cap(monkeypatch):
    # with no escape place, the orbit of 0 under z^2 + 10^60000 passes the
    # 200 000-bit cap at z_2 and is truncated there, well inside its budget;
    # a scan reports the point unresolved and the report incomplete
    t = Fraction(10**60000)
    monkeypatch.setattr(preperiodic, "_escape_place", lambda fmap, num, den, primes: None)
    fmap = specialized(Z2T, t)
    event, seen = preperiodic._orbit_pairs(fmap, 0, 1, fmap.bad_primes(1), 4)
    assert event == OrbitTruncated(2) and len(seen) == 3
    num, den = list(seen)[-1]
    assert num.bit_length() + den.bit_length() > preperiodic._ORBIT_BIT_CAP
    rep = scan(Z2T, 1.0, math.log(2), t_values=[t])
    assert (t, Fraction(0)) in rep.unresolved and not rep.complete


def _orbits_without_escape(monkeypatch):
    """Make certify_point's orbits find no escape place, so no escape is
    certified; returns the step budgets asked for and the records made, in
    order."""
    budgets, records = [], []
    real_orbit = preperiodic.iterate_orbit

    def orbit(fam, t, z, steps):
        budgets.append(steps)
        records.append(real_orbit(fam, t, z, steps))
        return records[-1]

    monkeypatch.setattr(preperiodic, "_escape_place", lambda fmap, num, den, primes: None)
    monkeypatch.setattr(preperiodic, "iterate_orbit", orbit)
    return budgets, records


def _first_undecided(k, tols):
    """A stand-in for canonical_height: its first k enclosures touch 0 and
    each later one is [1/4, 1/2].  It records the tol of every call."""
    def fn(*args, **kwargs):
        tols.append(kwargs.get("tol", args[-1]))
        return Interval(0.0 if len(tols) <= k else 0.25, 0.5)
    return fn


@pytest.mark.parametrize("t, z, read_at", [
    # R_esc = 2 + 2^-119 < z, with T/|z| = 1/2 - 2^-62 or so: the exact lower
    # end at z_0 is far below the float rounding, so it is read at z_1
    (1 + Fraction(1, 2**120), 2 + Fraction(1, 2**60), 1),
    # a margin of about 2^-30 survives the rounding at z_0 (9.3e-10)
    (1 + Fraction(1, 2**60), 2 + Fraction(1, 2**30), 0),
])
def test_positive_green_bound_reads_a_later_point_when_rounding_hides_it(t, z, read_at):
    fmap = specialized(Z2T, t)
    cert = certify_point(Z2T, t, z)
    assert cert.witness == INF and cert.orbit.event == EscapeCertified(INF, 0)
    assert cert.orbit.points == (z,)
    w = z if read_at == 0 else fmap(z)
    assert cert.hhat_lower_bound == fmap.arch_escape_value(iv_from_fraction(w), read_at).lo
    if read_at:
        assert fmap.arch_escape_value(iv_from_fraction(z), 0).lo <= 0
    assert 0 < cert.hhat_lower_bound <= canonical_height(Z2T, t, z, 1e-9).lo


def test_positive_green_bound_refuses_past_the_bit_cap(monkeypatch):
    # a lower end that never clears 0 is read at later points only until
    # the point passes the orbit bit-size cap
    reads = []

    def undecided(fmap, az, n):
        reads.append(n)
        return Interval(0.0, 1.0)

    monkeypatch.setattr(preperiodic, "_ORBIT_BIT_CAP", 64)
    monkeypatch.setattr(family.SpecializedMap, "arch_escape_value", undecided)
    with pytest.raises(BudgetExceeded, match="could not separate"):
        certify_point(Z2T, Fraction(1), Fraction(2))
    # z_1 = 5 escapes; 26, 677, 458330 and 210066388901 (38 bits) stay under
    # the cap, and z_6 (76 bits) is read once more before the refusal
    assert reads == [1, 2, 3, 4, 5, 6]


def _escape_witness_certificates():
    """Seeded certify_point cases with an escape witness, finite or at
    infinity, as (family, t, z, certificate): over z^2 + t, z^3 + t,
    z^4 + t^2, the weighted632 fixture (z^6 - 3 t z^3 + t^2) and 3 z^2 + t,
    at parameters a/p^k and points whose denominators are powers of small
    primes."""
    spec = json.loads((FIXTURES / "weighted632.json").read_text())
    fams = [Z2T, Z3T, Z4T2, Family.from_json(spec), NONMONIC]
    rng = random.Random(17)
    primes = (2, 3, 5, 7, 11)
    out = []
    for fam in fams:
        for _ in range(60):
            p = rng.choice(primes)
            a = rng.choice([a for a in range(-9, 10) if a % p])
            t = Fraction(a, p ** rng.randint(1, 2 * fam.e))
            z = Fraction(rng.randint(-20, 20), rng.choice(primes) ** rng.randint(0, 3))
            cert = certify_point(fam, t, z)
            if isinstance(cert.witness, Place):
                out.append((fam, t, z, cert))
    return out


def test_finite_witness_bound_is_the_green_loops_value(monkeypatch):
    witnessed = _escape_witness_certificates()
    cases = [c for c in witnessed if not c[3].witness.is_archimedean]
    assert len(cases) < len(witnessed)  # some witnesses are at infinity
    obstructed = [c for c in cases if isinstance(c[3].orbit.event, OrbitTruncated)]
    escaped = [c for c in cases if isinstance(c[3].orbit.event, EscapeCertified)]
    assert len(obstructed) + len(escaped) == len(cases)
    # the obstructed branch reads z itself and, when z does not escape, f(z)
    def escapes(fam, t, w, p):
        v = vp_or_none(w, p)
        return v is not None and v < specialized(fam, t).green_data(p).theta

    steps = {1 - escapes(fam, t, z, cert.witness.prime) for fam, t, z, cert in obstructed}
    assert steps == {0, 1} and {c[3].orbit.event.step for c in escaped} >= {0, 1}
    for fam, t, z, cert in cases:
        green = local_green(fam, t, cert.witness, z, tol=1e-6).enclosure()
        assert cert.hhat_lower_bound == green.lo > 0, (fam, t, z)
    # no Green loop is run for an escape witness, finite or at infinity
    def refuse(*args, **kwargs):
        raise AssertionError("a Green loop ran for an escape witness")

    monkeypatch.setattr(heights, "_arch_green", refuse)
    monkeypatch.setattr(heights, "_finite_green", refuse)
    for fam, t, z, cert in witnessed:
        assert certify_point(fam, t, z).to_json() == cert.to_json()
    # and the obstructed branch iterates no orbit
    def no_orbit(*args, **kwargs):
        raise AssertionError("iterate_orbit called for an obstructed parameter")

    monkeypatch.setattr(preperiodic, "iterate_orbit", no_orbit)
    for fam, t, z, cert in obstructed:
        assert certify_point(fam, t, z).to_json() == cert.to_json()


def _closed_form_lower_end(fam, t, w, n):
    """d^-n (log|w| + (log|b_D| - eps)/(d-1)), eps = -log(1 - T/|w|), at
    200 bits from the form coefficients: b_D = a_D and
    T = sum_{j<D} |a_j t^(D-j)| / |a_D|."""
    a_lead, d = abs(fam.form[0]), fam.d
    tail = sum(abs(a * t**i) for i, a in enumerate(fam.form) if i) / a_lead
    with mp.workprec(200):
        aw = abs(mp.mpf(w.numerator) / w.denominator)
        eps = -mp.log(1 - (mp.mpf(tail.numerator) / tail.denominator) / aw)
        log_lead = mp.log(mp.mpf(a_lead.numerator) / a_lead.denominator)
        return (mp.log(aw) + (log_lead - eps) / (d - 1)) / mp.mpf(d) ** n


def test_infinity_witness_bound_is_the_closed_form():
    # 100 seeded escape witnesses at infinity per family; for (1/7) z^2 + t,
    # t and z are multiples of 7, so that no orbit escapes at 7
    spec = json.loads((FIXTURES / "weighted632.json").read_text())
    fams = [Z2T, Z3T, Z4T2, Family.from_json(spec), NONMONIC,
            build_family([Fraction(1, 7), 1], 2)]
    rng = random.Random(27)
    cases = []
    for fam in fams:
        k = 7 if fam.form[0] == Fraction(1, 7) else 1
        found = 0
        while found < 100:
            t = k * Fraction(rng.randint(-30, 30), rng.choice((1, 1, 2, 3, 5)))
            z = k * Fraction(rng.randint(-60, 60), rng.choice((1, 1, 2, 3, 4, 5)))
            cert = certify_point(fam, t, z)
            if cert.witness == INF:
                cases.append((fam, t, z, cert))
                found += 1
    for fam, t, z, cert in cases:
        n = cert.orbit.event.step
        bound = cert.hhat_lower_bound
        assert 0 < bound <= canonical_height(fam, t, z, 1e-9).hi, (fam, t, z)
        exact = _closed_form_lower_end(fam, t, cert.orbit.points[n], n)
        assert bound <= exact and exact - bound <= 1e-12 * exact, (fam, t, z)


def test_results_do_not_depend_on_the_log_prime_cache():
    calls = (
        lambda: canonical_height(Z2T, Fraction(1, 4), Fraction(3, 2), 1e-9),
        lambda: local_green(Z3T, Fraction(1, 7), Place.finite(7), Fraction(2, 7), 1e-9).to_json(),
        lambda: certify_point(Z2T, Fraction(1, 3), Fraction(1, 2)).to_json(),
        lambda: certify_point(Z2T, Fraction(1, 4), Fraction(1, 6)).to_json(),
    )
    for call in calls:
        log_prime_iv.cache_clear()
        cold = call()
        hits = log_prime_iv.cache_info().hits
        assert call() == cold and log_prime_iv.cache_info().hits > hits


def test_certify_point_retries(monkeypatch):
    # t = 1 is obstructed nowhere and, with no escape place, the orbit of 1/2
    # certifies no escape, so canonical_height decides each round: the step budget doubles and the
    # tol halves while its enclosure touches 0
    budgets, records = _orbits_without_escape(monkeypatch)
    tols = []
    monkeypatch.setattr(preperiodic, "canonical_height", _first_undecided(1, tols))
    cert = certify_point(Z2T, Fraction(1), Fraction(1, 2))
    assert budgets == [32, 64] and tols == [1e-4, 5e-5]
    assert [type(r.event) for r in records] == [OrbitTruncated] * 2
    assert cert.witness == "height-interval" and cert.hhat_lower_bound == 0.25
    assert cert.orbit is records[1]  # the round that decided
    budgets.clear()
    tols.clear()
    monkeypatch.setattr(preperiodic, "canonical_height", _first_undecided(math.inf, tols))
    with pytest.raises(BudgetExceeded, match="resisted"):
        certify_point(Z2T, Fraction(1), Fraction(1, 2))
    assert len(tols) == 24 and budgets == [32 * 2**k for k in range(24)]


def test_certificate_json():
    js = certify_point(Z2T, Fraction(-1), Fraction(0)).to_json()
    assert js["verdict"] == "preperiodic" and js["preperiod"] == 0 and js["period"] == 2
    js = certify_point(Z2T, Fraction(1, 3), Fraction(1, 2)).to_json()
    assert js["verdict"] == "wandering" and js["witness"] == "3"
    assert js["hhatLowerBound"] > 0


def test_certify_soundness_random():
    rng = random.Random(7001)
    fams = [Z2T, build_family([1, 0, 1], 2), build_family([1, -3, 1], 3)]
    for _ in range(120):
        fam = rng.choice(fams)
        t = Fraction(rng.randint(-8, 8), rng.randint(1, 6))
        z = Fraction(rng.randint(-8, 8), rng.randint(1, 6))
        cert = certify_point(fam, t, z)
        if cert.is_preperiodic:
            replay = iterate_orbit(fam, t, z, len(cert.orbit.points) + 2)
            assert replay.event == CycleFound(cert.preperiod, cert.period)
        else:
            assert cert.hhat_lower_bound > 0
            h = canonical_height(fam, t, z, 1e-6)
            assert cert.hhat_lower_bound <= h.hi + 1e-9


def test_certify_obstructed_never_preperiodic():
    # filter soundness: an obstructed parameter admits no preperiodic verdict
    rng = random.Random(7002)
    for t in [Fraction(1, 3), Fraction(-2, 5), Fraction(3, 7)]:
        assert any(rec.obstructed for rec in bad_place_obstruction(Z2T, t))
        for _ in range(333):
            z = Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 10**4))
            cert = certify_point(Z2T, t, z)
            assert cert.verdict == "wandering"
            assert cert.hhat_lower_bound > 0


# -- obstruction records ---------------------------------------------------------------


def test_obstruction_examples():
    recs = bad_place_obstruction(Z2T, Fraction(1, 3))
    assert len(recs) == 1 and recs[0].place == Place.finite(3)
    assert recs[0].obstructed and recs[0].forced_valuation is None

    recs = bad_place_obstruction(Z2T, Fraction(1, 4))
    assert len(recs) == 1 and not recs[0].obstructed
    assert recs[0].forced_valuation == -1

    assert bad_place_obstruction(Z2T, Fraction(5)) == []
    assert bad_place_obstruction(Z2T, Fraction(0)) == []


def test_obstruction_skips_exceptional_and_requires_monic():
    # z^2 + 4t: 2 is exceptional, so t = 1/2 yields no record at 2
    fam = build_family([1, 4], 2)
    assert bad_place_obstruction(fam, Fraction(1, 2)) == []
    with pytest.raises(DomainError):
        bad_place_obstruction(build_family([2, 1], 2), Fraction(1, 3))


def test_obstruction_mixed_places():
    # t = 9/40: v_2 = -3 (odd: obstructed), v_5 = -1 (odd: obstructed)
    recs = bad_place_obstruction(Z2T, Fraction(9, 40))
    assert [(r.place.prime, r.obstructed) for r in recs] == [(2, True), (5, True)]
    # t = 1/36: v_2 = v_3 = -2, both forced to -1
    recs = bad_place_obstruction(Z2T, Fraction(1, 36))
    assert [(r.place.prime, r.forced_valuation) for r in recs] == [(2, -1), (3, -1)]


# -- power criterion and witness places --------------------------------------------------


def test_power_criterion_examples():
    res = power_criterion(2, 4, Fraction(1))
    assert not res.solvable and res.value == 2
    res = power_criterion(2, 4, Fraction(2))
    assert not res.solvable and res.value == 17
    res = power_criterion(3, 3, Fraction(2))
    assert not res.solvable and res.value == 9
    res = power_criterion(2, 4, Fraction(2, 3))  # 16 + 81 = 97
    assert not res.solvable


def test_power_criterion_solvable_cases():
    res = power_criterion(2, 3, Fraction(-1))  # (-1)^3 + 1 = 0 = 0^2
    assert res.solvable and res.witness == 0
    res = power_criterion(2, 4, Fraction(2, 1) / Fraction(2))  # t = 1 again
    assert not res.solvable
    res = power_criterion(2, 1, Fraction(3))  # 3 + 1 = 4 = 2^2
    assert res.solvable and res.witness == 2
    res = power_criterion(3, 1, Fraction(7))  # 7 + 1 = 8 = 2^3
    assert res.solvable and res.witness == 2


def test_power_criterion_errors():
    with pytest.raises(DomainError):
        power_criterion(2, 4, Fraction(0))
    with pytest.raises(DomainError):
        power_criterion(1, 4, Fraction(1))
    # x^m + y^m is refused before it is computed once 10^m or 3^m passes
    # 131 072 digits, and a huge m is never converted to a float
    assert power_criterion(2, 131_071, Fraction(10)).value == 10**131_071 + 1  # 131 072 digits
    for m, t in ((131_072, Fraction(10)), (10**9, Fraction(3)), (10**400, Fraction(1, 2))):
        with pytest.raises(DomainError, match="131072 digits"):
            power_criterion(2, m, t)
    assert power_criterion(2, 10**400 + 1, Fraction(-1)).value == 0  # (-1)^m + 1^m


def test_find_nonpower_place_examples():
    cov5 = analyze_cover([1], [1, 0, 0, 0, 0, 1])  # 1/(1+t^5)
    assert find_nonpower_place(cov5, 2, [INF], Fraction(1)) == Place.finite(2)
    assert find_nonpower_place(cov5, 2, [INF], Fraction(2)) == Place.finite(3)
    cov_sq = analyze_cover([1], [0, 0, 1])  # 1/t^2
    assert find_nonpower_place(cov_sq, 2, [INF], Fraction(3)) is None
    # excluding 2 moves the t = 1 witness away (1/2 has only the prime 2)
    assert find_nonpower_place(cov5, 2, [INF, Place.finite(2)], Fraction(1)) is None


def test_find_nonpower_place_errors():
    cov = analyze_cover([1], [1, 1])  # 1/(1+t)
    with pytest.raises(DomainError):
        find_nonpower_place(cov, 2, [INF], Fraction(-1))  # pole
    cov0 = analyze_cover([0, 1], [1])  # phi(t) = t
    with pytest.raises(DomainError):
        find_nonpower_place(cov0, 2, [INF], Fraction(0))  # phi(t) = 0


# -- scans ---------------------------------------------------------------------------


def test_scan_chebyshev_inventory():
    rep = scan(Z2T, 1.0, math.log(10), t_values=[Fraction(-2)])
    assert {f.z for f in rep.findings} == {-2, -1, 0, 1, 2}
    by_z = {f.z: (f.preperiod, f.period) for f in rep.findings}
    assert by_z[Fraction(2)] == (0, 1) and by_z[Fraction(-1)] == (0, 1)
    assert by_z[Fraction(0)] == (2, 1) and by_z[Fraction(-2)] == (1, 1)
    assert rep.complete


def test_scan_basilica_inventory():
    rep = scan(Z2T, 1.0, math.log(10), t_values=[Fraction(-1)])
    assert {f.z for f in rep.findings} == {-1, 0, 1}


def test_scan_half_integer_inventories():
    rep = scan(Z2T, 1.5, math.log(10), t_values=[Fraction(1, 4)])
    assert {f.z for f in rep.findings} == {Fraction(1, 2), Fraction(-1, 2)}
    rep = scan(Z2T, 1.5, math.log(10), t_values=[Fraction(-3, 4)])
    assert {f.z for f in rep.findings} == {
        Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-3, 2)
    }


def test_height_buckets_from_the_exp_table():
    # floor(log n) is the number of table entries ceil(e^k) <= n; checked
    # against the log enclosure on both sides of every entry and for n <= 5000
    table = preperiodic._EXP_CEILS
    assert list(table) == sorted(table) and table[-1] > preperiodic._MAX_BOX_PARAMETERS // 2
    for n in {*range(1, 5001), *(c - 1 for c in table), *table}:
        assert bisect_right(table, n) == math.floor(_naive_height_interval(Fraction(n)).mid), n


def test_scan_examines_each_parameter_once():
    once = scan(Z2T, 1.0, math.log(10), t_values=[Fraction(-2)])
    twice = scan(Z2T, 1.0, math.log(10), t_values=[Fraction(-2), -2])
    assert (twice.t_examined, twice.candidates_checked) == (1, 21)
    assert twice.findings == once.findings and len(twice.findings) == 5


def test_scan_obstruction_shortcuts_iteration():
    rep = scan(Z2T, 1.2, math.log(10), t_values=[Fraction(1, 3)])
    assert not rep.findings
    assert rep.t_obstructed == 1 and rep.candidates_checked == 0


def _preperiodic_by_iteration(fam, t, z):
    """Whether z is preperiodic, by exact iteration alone: a repeat, or a
    point above 2^256, whose naive height (177 nats) is far above the height
    defect of the small-t maps tested here."""
    seen = set()
    for _ in range(64):
        if z in seen:
            return True
        seen.add(z)
        if max(abs(z.numerator), z.denominator) > 2**256:
            return False
        z = specialized(fam, t)(z)
    raise AssertionError(f"undecided: {z}")


def test_scan_exceptional_denominator_caps():
    # 2 is exceptional for z^4 + t^2, theta_2 = v_2(t)/2, so the z-box keeps
    # the denominators 2^j with j up to the cap -ceil(theta_2)
    bound = math.log(16)
    size = preperiodic._box_size(bound)
    box = [Fraction(x, y) for y in range(1, size + 1) for x in range(-size, size + 1)
           if math.gcd(x, y) == 1]
    assert Place.finite(2) in exceptional_places(Z4T2)
    for t, cap in [(Fraction(1, 4), 1), (Fraction(3, 4), 1), (Fraction(1, 8), 1),
                   (Fraction(1, 16), 2)]:
        assert -math.ceil(specialized(Z4T2, t).green_data(2).theta) == cap
        rep = scan(Z4T2, 1.0, bound, t_values=[t])
        assert rep.complete
        assert rep.candidates_checked == sum(z.denominator in {2**j for j in range(cap + 1)}
                                             for z in box)
        expected = {z for z in box if _preperiodic_by_iteration(Z4T2, t, z)}
        assert {f.z for f in rep.findings} == expected, t


@st.composite
def _escape_counts_case(draw):
    """(size, den, primes, R) with den made of 0 to 3 distinct primes and
    floor(R den) often at, just below or just above an entry of _EXP_CEILS
    (two below leaves a bucket segment of one integer, which den may divide)."""
    primes = draw(st.lists(st.sampled_from([2, 3, 5, 7, 11]), max_size=3, unique=True))
    den = math.prod(p ** draw(st.integers(1, 2)) for p in primes)
    size = draw(st.integers(1, 2000))
    if draw(st.booleans()):
        target = draw(st.sampled_from([c for c in _EXP_CEILS if c <= 2100]))
        radius = Fraction(max(den, target + draw(st.integers(-2, 1))), den)
    else:
        radius = draw(st.fractions(1, 1000, max_denominator=50))
    return size, den, primes, radius


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=_escape_counts_case())
@example(case=(40, 2, [2], Fraction(19, 2)))  # bucket 2 meets (19, 40] at 20 alone
def test_escape_buckets_match_enumeration(case):
    size, den, primes, radius = case
    lim = math.floor(radius * den)
    expected: dict[int, int] = {}
    for num in range(lim + 1, size + 1):
        if math.gcd(num, den) == 1:
            bucket = bisect_right(_EXP_CEILS, num)
            expected[bucket] = expected.get(bucket, 0) + 1
    counts = list(_escape_buckets(lim, size, primes))
    assert dict(counts) == expected
    assert [k for k, _ in counts] == sorted(expected)


def _scan_by_candidate(fam, t_values, z_bound, budget=512, cover=None):
    """The scan's per-parameter work with no shortcut: every candidate,
    +num/den and -num/den alike, gets its own iterate_orbit, and is bucketed
    from its own numerator and denominator.  Returns (findings, unresolved,
    counts by height, candidates checked, the (parameter, z) pairs the scan
    itself must iterate: z = 0 and those with |z| <= R_esc, only z > 0 of
    them when e is even)."""
    findings, unresolved, counts, iterated = [], [], {}, set()
    for t in sorted(set(t_values)):
        if cover is not None:
            try:
                param = family.evaluate_cover(cover, t)
            except DomainError:
                continue
        else:
            param = t
        obstructions = bad_place_obstruction(fam, param)
        if any(rec.obstructed for rec in obstructions):
            continue
        forced = {rec.place.prime: rec.forced_valuation for rec in obstructions
                  if rec.forced_valuation is not None}
        size, zero, dens = _candidate_denominators(fam, param, z_bound, forced)
        points = [Fraction(0)] if zero else []
        points += [Fraction(s * num, den) for den, _ in dens for num in range(1, size + 1)
                   if math.gcd(num, den) == 1 for s in (1, -1)]
        radius = specialized(fam, param).escape_radius
        iterated |= {(param, z) for z in points
                     if abs(z) <= radius and (fam.e % 2 or z >= 0)}
        for z in points:
            record = iterate_orbit(fam, param, z, budget)
            bucket = bisect_right(_EXP_CEILS, max(abs(z.numerator), z.denominator))
            counts[bucket] = counts.get(bucket, 0) + 1
            if isinstance(record.event, CycleFound):
                findings.append((t, z, record.event.preperiod, record.event.period))
            elif isinstance(record.event, OrbitTruncated):
                unresolved.append((t, z))
    return sorted(findings), sorted(unresolved), counts, sum(counts.values()), iterated


@pytest.mark.parametrize("fam, t_values, z_size, budget, cover", [
    # odd e, no twins; t = -30 has R_esc = 60 past the box, so no
    # candidate escapes at step 0, while t = 0 (R_esc = 2) counts every
    # num above 2 den in closed form
    (Z3T, [Fraction(0), Fraction(-1), Fraction(1, 8), Fraction(-30), Fraction(7, 3)], 30, 512,
     None),
    # exceptional caps at 2 (dens 1, 2, 4), and a forced den 3 with them
    (Z4T2, [Fraction(1, 16), Fraction(1, 144), Fraction(-2)], 40, 512, None),
    # a forced den 2, and even e with R_esc = 2: only num <= 2 den iterate
    (Z2T, [Fraction(1, 4), Fraction(-2), Fraction(-3, 4)], 40, 512, None),
    # the cover 1/(t - 1), with its pole and obstructed parameters
    (Z2T, [Fraction(a, b) for a in range(-3, 4) for b in (1, 2, 3)], 12, 512,
     analyze_cover([1], [-1, 1])),
    # every orbit that does not end at step 0 runs out of budget
    (Z2T, [Fraction(-1), Fraction(1, 4)], 20, 1, None),
])
def test_scan_matches_per_candidate_iteration(fam, t_values, z_size, budget, cover,
                                              monkeypatch):
    z_bound = math.log(z_size)
    calls = []
    orbit_pairs = preperiodic._orbit_pairs

    def counted(fmap, num, den, primes, max_steps):
        calls.append((fmap.t, Fraction(num, den)))
        return orbit_pairs(fmap, num, den, primes, max_steps)

    monkeypatch.setattr(preperiodic, "_orbit_pairs", counted)
    rep = scan(fam, 1.0, z_bound, t_values=t_values, budget=budget, cover=cover)
    monkeypatch.undo()
    findings, unresolved, counts, checked, iterated = _scan_by_candidate(
        fam, t_values, z_bound, budget, cover)
    # a candidate beyond R_esc escapes at step 0 and is counted, not iterated
    assert sorted(calls) == sorted(iterated)
    assert [(f.t, f.z, f.preperiod, f.period) for f in rep.findings] == findings
    assert list(rep.unresolved) == unresolved
    assert rep.counts_by_height == counts
    assert rep.candidates_checked == checked > 0


_DIFFERENTIAL_FAMILIES = (Z2T, Z3T, Z4T2, build_family([1, 1], 4),
                          build_family([1, -3, 1], 3))  # e = 2, 3, 2, 4, 3


@st.composite
def _scan_case(draw):
    """A family, a parameter, a z-box size and a budget.  den t is a
    c^k part (forced when e | k, obstructed otherwise) times a small m that
    may meet the exceptional primes 2 and 3."""
    fam = draw(st.sampled_from(_DIFFERENTIAL_FAMILIES))
    c = draw(st.sampled_from([1, 2, 3, 5]))
    k = draw(st.sampled_from([fam.e, fam.e, 1]))
    m = draw(st.sampled_from([1, 1, 2, 3, 4, 8, 16]))
    t = Fraction(draw(st.integers(-30, 30)), m * c**k)
    return fam, t, draw(st.integers(2, 40)), draw(st.sampled_from([1, 2, 3, 512]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=_scan_case())
def test_scan_matches_the_per_candidate_reference(case):
    fam, t, z_size, budget = case
    z_bound = math.log(z_size)
    rep = scan(fam, 1.0, z_bound, t_values=[t], budget=budget)
    findings, unresolved, counts, checked, _ = _scan_by_candidate(fam, [t], z_bound, budget)
    assert [(f.t, f.z, f.preperiod, f.period) for f in rep.findings] == findings
    assert list(rep.unresolved) == unresolved
    assert rep.counts_by_height == counts
    assert rep.candidates_checked == checked


def test_scan_skips_the_cover_pole():
    # phi(t) = 1/(t - 1): t = 1 is skipped as a pole, 7 of the other 14
    # parameters are obstructed, and each remaining one finds exactly the
    # preperiodic points of the whole z-box
    cov = analyze_cover([1], [-1, 1])
    t_bound, z_bound = math.log(3), math.log(4)
    rep = scan(Z2T, t_bound, z_bound, cover=cov)
    assert (rep.t_examined, rep.t_skipped_pole, rep.t_filtered_criterion, rep.t_obstructed,
            rep.candidates_checked, len(rep.findings), rep.complete) == (15, 1, 0, 7, 53, 16, True)
    size = preperiodic._box_size(z_bound)
    box = [Fraction(x, y) for y in range(1, size + 1) for x in range(-size, size + 1)
           if math.gcd(x, y) == 1]
    for t in _rationals_in_box(t_bound):
        if t != 1:
            param = family.evaluate_cover(cov, t)
            expected = {z for z in box if _preperiodic_by_iteration(Z2T, param, z)}
            assert {f.z for f in rep.findings if f.t == t} == expected, t


def test_criterion_shape_refusals():
    # each cover fails one condition of the z^d + 1/(1 + t^m) shape or its
    # proven regime, so no parameter is filtered by the criterion
    z6 = build_family([1, -3, 1], 3)  # z^6 - 3t z^3 + t^2
    for fam, numer, denom in [
        (Z2T, [2], [1, 0, 0, 0, 1]),  # numerator not 1
        (Z2T, [1], [1, 0, 1]),  # m = 2 is outside the regime for d = 2
        (Z2T, [1], [-1, 1]),  # denominator not 1 + t^m
        (z6, [1], [1, 0, 0, 0, 1]),  # map not z^d + t
    ]:
        cov = analyze_cover(numer, denom)
        assert preperiodic._criterion_shape(fam, cov) is None
        assert scan(fam, math.log(2), math.log(2), cover=cov).t_filtered_criterion == 0


def test_scan_composed_quartic_no_findings():
    cov4 = analyze_cover([1], [1, 0, 0, 0, 1])
    rep = scan(Z2T, math.log(20), math.log(20), cover=cov4)
    assert rep.findings == ()
    assert rep.complete
    # Fermat: x^4 + y^4 is never a square for xy != 0, so the criterion
    # filters every nonzero t
    assert rep.t_filtered_criterion == rep.t_examined - 1


def test_scan_criterion_consistency_both_ways():
    cov4 = analyze_cover([1], [1, 0, 0, 0, 1])
    with_filter = scan(Z2T, math.log(4), math.log(6), cover=cov4, use_criterion=True)
    without = scan(Z2T, math.log(4), math.log(6), cover=cov4, use_criterion=False)
    assert with_filter.findings == without.findings == ()
    assert with_filter.t_filtered_criterion > 0 and without.t_filtered_criterion == 0


def test_scan_findings_replay():
    rep = scan(Z2T, 1.0, math.log(10), t_values=[Fraction(-2), Fraction(-1)])
    assert rep.findings
    for f in rep.findings:
        cert = certify_point(Z2T, f.t, f.z)
        assert cert.is_preperiodic
        assert (cert.preperiod, cert.period) == (f.preperiod, f.period)


def test_scan_budget_marks_incomplete():
    rep = scan(Z2T, 0.8, 0.8, t_values=[Fraction(1)], budget=1)
    assert not rep.complete and rep.unresolved


def test_scan_report_json_and_csv(tmp_path):
    rep = scan(Z2T, 1.0, 1.0, t_values=[Fraction(-1)])
    js = rep.to_json()
    assert js["version"] == 1
    assert js["preperiodicFindings"][0] == {
        "t": "-1", "z": "-1", "preperiod": 0, "period": 2,
    }
    json.dumps(js)  # must be serializable as-is
    out = tmp_path / "findings.csv"
    rep.write_csv(str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,z,preperiod,period"
    assert len(lines) == 1 + len(rep.findings)


def test_scan_rejects_bad_input():
    with pytest.raises(DomainError):
        scan(Z2T, -1.0, 1.0)
    with pytest.raises(DomainError):
        scan(build_family([2, 1], 2), 1.0, 1.0)
    with pytest.raises(DomainError):
        scan(Z2T, 30.0, 1.0)  # about 1e26 parameters: refused before building
    with pytest.raises(DomainError):
        scan(Z2T, 0.5, 30.0, t_values=[Fraction(0)])  # about 1e13 candidates
    # non-finite bounds are refused even where no box is enumerated: 1/3 is
    # obstructed, and t_values replaces the t-box
    for bad in (math.nan, math.inf, -math.inf):
        for bounds in ((0.8, bad), (bad, 0.8)):
            with pytest.raises(DomainError):
                scan(Z2T, *bounds, t_values=[Fraction(1, 3)])
            with pytest.raises(DomainError):
                scan(Z2T, *bounds, t_values=[Fraction(1)])
    with pytest.raises(TypeError):  # scans run in one process
        scan(Z2T, 0.8, 0.8, t_values=[Fraction(1)], jobs=1)
    # refused before any parameter is looked at, obstructed (1/3) or not
    for t in (Fraction(1, 3), Fraction(-2)):
        with pytest.raises(DomainError):
            scan(Z2T, 0.8, 0.8, t_values=[t], budget=0)


def test_boxes_reach_their_bound():
    # floor(exp(log n)) is n - 1 for n = 20 and 50
    box = _rationals_in_box(math.log(50))
    assert max(q.numerator for q in box) == 50 and max(q.denominator for q in box) == 50
    assert _candidate_denominators(Z2T, Fraction(0), math.log(20), {}) == (20, True, [(1, ())])


# -- uniformity invariants -------------------------------------------------------------


def test_pigeonhole_pair_exists():
    # in any repetition-free orbit segment of length d + 3 under a parameter
    # with |t|_v > 1, some pair of points has pairing value
    # >= delta log+|t|_v - c_v (the pigeonhole subset has size >= 2)
    fam = build_family([1, 0, 1], 2)  # z^4 + t, d = 4 > e = 2
    delta = float(pigeonhole_delta(fam))
    cases = [
        (Fraction(3), INF),
        (Fraction(1, 5), Place.finite(5)),
        (Fraction(7, 5), Place.finite(5)),
    ]
    for t, v in cases:
        orbit = specialized(fam, t).orbit(Fraction(2))
        pts = [Fraction(num, den) for num, den, _ in itertools.islice(orbit, fam.d + 3)]
        assert len(set(pts)) == len(pts)
        if v.is_archimedean:
            logt = math.log(max(1.0, abs(float(t))))
        else:
            logt = max(0, -padic_valuation(t, v.prime)) * math.log(v.prime)
        c_v = float(_mk_c(fam).at(v))
        bound = delta * logt - c_v
        best = max(
            arakelov_green(fam, t, v, x, y, tol=1e-6).hi
            for i, x in enumerate(pts)
            for y in pts[i + 1 :]
        )
        assert best >= bound - 1e-9, (t, v, best, bound)


def test_theorem1_inequality_on_scanned_points():
    fam = build_family([1, 0, 1], 2)
    rng = random.Random(7003)
    for _ in range(25):
        t = Fraction(rng.randint(-6, 6), rng.choice([1, 1, 3]))
        z = Fraction(rng.randint(-6, 6), rng.choice([1, 2]))
        cert = certify_point(fam, t, z)
        if cert.is_preperiodic:
            continue
        s = sum(1 for rec in bad_place_obstruction(fam, t))
        rep = theorem1_constants(fam, s)
        assert rep.status == "ok"
        h_hi = canonical_height(fam, t, z, 1e-6).hi
        rhs = rep.epsilon.as_float() * float(naive_height(t)) - rep.C_float()
        assert h_hi >= rhs - 1e-12
