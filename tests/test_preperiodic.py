"""Orbits, certificates, obstruction filters, criterion, and scans."""
import itertools
import json
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from heightforge import arith, family
from heightforge.arith import INF, Place, padic_valuation, support, vp_or_none
from heightforge.constants import _mk_c, exceptional_places, pigeonhole_delta, theorem1_constants
from heightforge._intervals import Interval
from heightforge.errors import BudgetExceeded, DomainError
from heightforge.family import analyze_cover, build_family, specialized
from heightforge.heights import (
    GreenResult,
    _naive_height_interval,
    arakelov_green,
    canonical_height,
    naive_height,
)
from heightforge import preperiodic
from heightforge.preperiodic import (
    Certificate,
    CycleFound,
    EscapeCertified,
    OrbitTruncated,
    _candidate_points,
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
    """iterate_orbit with the denominator factored at every point."""
    fmap = specialized(fam, t)
    points = []
    for n, (w, first) in enumerate(fmap.orbit(z)):
        points.append(w)
        if first < n:
            return points, CycleFound(first, n - first)
        pl = _reference_escape_place(fmap, w)
        if pl is not None:
            return points, EscapeCertified(pl, n)
        bits = w.numerator.bit_length() + w.denominator.bit_length()
        if n == max_steps or bits > preperiodic._ORBIT_BIT_CAP:
            return points, OrbitTruncated(n)


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
        primes = fmap.bad_primes(z)
    finally:
        family.factor_integer = original
    assert primes == tuple(sorted(
        set(support(Fraction(z.denominator))) | set(support(Fraction(fmap.integral_model[1])))
    ))
    for w, _ in itertools.islice(fmap.orbit(z), 6):
        assert preperiodic._escape_place(fmap, w, primes) == _reference_escape_place(fmap, w)
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
    cert = certify_point(Z2T, Fraction(1), Fraction(0))
    assert cert.verdict == "wandering"
    assert cert.witness == INF
    assert cert.hhat_lower_bound > 0.2
    h = canonical_height(Z2T, Fraction(1), Fraction(0), 1e-9)
    assert cert.hhat_lower_bound <= h.hi + 1e-12


def test_certify_factors_no_multiple_of_an_integral_parameter(monkeypatch):
    # t = 3 p q is integral, so M = 1 and only den z = 2 is factored
    pq = 100000007 * 999999937
    factored = _count_factorings(monkeypatch)
    cert = certify_point(Z2T, Fraction(3 * pq), Fraction(1, 2))
    assert cert.verdict == "wandering" and cert.witness == Place.finite(2)
    assert factored and not any(n % pq == 0 for n in factored)


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
    monkeypatch.setattr(preperiodic, "_escape_place", lambda *args: None)
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

    monkeypatch.setattr(preperiodic, "_escape_place", lambda *args: None)
    monkeypatch.setattr(preperiodic, "iterate_orbit", orbit)
    return budgets, records


def _first_undecided(k, tols, wrap=lambda enc: enc):
    """A stand-in for canonical_height, or with wrap=_green for local_green:
    its first k enclosures touch 0 and each later one is [1/4, 1/2].  It
    records the tol of every call."""
    def fn(*args, **kwargs):
        tols.append(kwargs.get("tol", args[-1]))
        return wrap(Interval(0.0 if len(tols) <= k else 0.25, 0.5))
    return fn


def _green(enc):
    return GreenResult(enc, "interval", 0)


def test_positive_green_bound_retries(monkeypatch):
    # t = 1/3 is obstructed at 3, so certify_point asks for a positive bound
    # on G_3(1/2), quartering the tol while the enclosure touches 0; its
    # record is the one step 1/2, f(1/2) = 7/12, and no orbit is iterated
    _, records = _orbits_without_escape(monkeypatch)
    tols = []
    monkeypatch.setattr(preperiodic, "local_green", _first_undecided(1, tols, _green))
    cert = certify_point(Z2T, Fraction(1, 3), Fraction(1, 2))
    assert tols == [1e-6, 2.5e-7]
    assert cert.witness == Place.finite(3) and cert.hhat_lower_bound == 0.25
    assert cert.orbit.points == (Fraction(1, 2), Fraction(7, 12))
    assert cert.orbit.event == OrbitTruncated(1) and records == []
    tols.clear()
    monkeypatch.setattr(preperiodic, "local_green", _first_undecided(math.inf, tols, _green))
    with pytest.raises(BudgetExceeded, match="could not separate"):
        certify_point(Z2T, Fraction(1, 3), Fraction(1, 2))
    assert len(tols) == 80


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


def test_scan_parallel_determinism():
    cov4 = analyze_cover([1], [1, 0, 0, 0, 1])
    seq = scan(Z2T, math.log(3), math.log(4), cover=cov4, jobs=1)
    par = scan(Z2T, math.log(3), math.log(4), cover=cov4, jobs=2)
    assert seq.findings == par.findings
    assert seq.candidates_checked == par.candidates_checked
    assert seq.counts_by_height == par.counts_by_height


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
    for jobs in (0, -1):
        with pytest.raises(DomainError):
            scan(Z2T, 0.8, 0.8, t_values=[Fraction(1)], jobs=jobs)


def test_scan_caps_its_workers(monkeypatch):
    started = []

    class InlinePool:
        """Records the worker count asked for and runs the work in-process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(preperiodic, "ProcessPoolExecutor", InlinePool)
    ts = [Fraction(-1), Fraction(0), Fraction(1)]
    serial = scan(Z2T, 1.0, 1.0, t_values=ts)
    for cpus, expected in ((64, 3), (2, 2)):
        monkeypatch.setattr(preperiodic.os, "cpu_count", lambda: cpus)
        rep = scan(Z2T, 1.0, 1.0, t_values=ts, jobs=10**6)
        assert started.pop() == expected  # min(jobs, CPUs, parameters)
        assert rep.findings == serial.findings
    monkeypatch.setattr(preperiodic.os, "cpu_count", lambda: None)
    scan(Z2T, 1.0, 1.0, t_values=ts, jobs=10**6)  # one CPU: runs serially
    assert started == []


def test_boxes_reach_their_bound():
    # floor(exp(log n)) is n - 1 for n = 20 and 50
    box = _rationals_in_box(math.log(50))
    assert max(q.numerator for q in box) == 50 and max(q.denominator for q in box) == 50
    points = list(_candidate_points(Z2T, Fraction(0), math.log(20), {}))
    assert max(z.numerator for z in points) == 20


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
        pts = [w for w, _ in itertools.islice(orbit, fam.d + 3)]
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
