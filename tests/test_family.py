"""Family construction, specialization, monic normalization, and parameter
covers."""
import functools
import itertools
import json
import math
import operator
import pathlib
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from heightforge import _polys as P
from heightforge import family
from heightforge.arith import LocalValue
from heightforge.errors import DomainError, NormalizationUnavailable, SpecError
from heightforge.family import (
    Family,
    analyze_cover,
    build_family,
    evaluate_cover,
    is_e_general,
    monic_normalize,
    required_pole_count,
    specialize,
    specialized,
)
from heightforge.preperiodic import scan

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"
COVER_FIXTURES = sorted(p.stem for p in FIXTURES.glob("*.json")
                        if "numer" in json.loads(p.read_text()))


def test_build_family_shape():
    fam = build_family(["1", "1"], 2)  # z^2 + t
    assert fam.d == 2 and fam.deg_form == 1 and fam.monic
    assert fam.coefficient(1) == 1 and fam.coefficient(0) == 1

    quartic = build_family([1, 0, 1], 2)  # z^4 + t^2
    assert quartic.d == 4 and quartic.deg_form == 2

    weighted = build_family([1, -3, 1], 3)  # z^6 - 3 t z^3 + t^2
    assert weighted.d == 6
    assert weighted.describe() == "z^6 - 3 z^3 t + t^2"


def test_build_family_validation():
    with pytest.raises(SpecError):
        build_family([1, 1], 1)  # e too small
    with pytest.raises(SpecError):
        build_family([0, 1], 2)  # Y | F
    with pytest.raises(SpecError):
        build_family([1, 0], 2)  # X | F
    with pytest.raises(SpecError):
        build_family([5], 2)  # constant form


def test_family_json_roundtrip():
    fam = build_family(["2/3", "-1", "7"], 4)
    again = Family.from_json(fam.to_json())
    assert again == fam
    with pytest.raises(SpecError):
        Family.from_json({"e": 2})
    # e is an integer or an integer string; JSON floats and booleans are refused
    assert Family.from_json({"e": "3", "F": [1, "1"]}) == build_family([1, 1], 3)
    for bad in ({"e": 2.7, "F": [1, 1]}, {"e": 2.0, "F": [1, 1]},
                {"e": True, "F": [1, 1]}, {"e": 2, "F": [True, "1"]},
                # F is an array: a string or an object would be iterated
                {"e": 2, "F": "11"}, {"e": 2, "F": {"1": 0, "2": 0}}, {"e": 2, "F": 5}):
        with pytest.raises(SpecError):
            Family.from_json(bad)


def test_specialize():
    fam = build_family([1, 1], 2)  # z^2 + t
    assert specialize(fam, Fraction(-1)) == (Fraction(-1), Fraction(0), Fraction(1))
    quartic = build_family([1, 0, 1], 2)  # z^4 + t^2
    assert specialize(quartic, Fraction(3)) == (
        Fraction(9),
        Fraction(0),
        Fraction(0),
        Fraction(0),
        Fraction(1),
    )
    assert specialize(quartic, Fraction(0))[0] == 0
    # consistency with direct evaluation f_t(z) = F(z^e, t)
    rng = random.Random(12)
    for _ in range(60):
        fam = build_family(
            [rng.choice([1, 2, -1]), rng.randint(-4, 4), rng.choice([1, 3, -2])], 3
        )
        t = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        z = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        direct = sum(
            fam.coefficient(j) * z ** (3 * j) * t ** (fam.deg_form - j)
            for j in range(fam.deg_form + 1)
        )
        assert P.evaluate(specialize(fam, t), z) == direct


def test_factor_data():
    # F(X, 1) = X - 3: one rational root 3
    fam = build_family([1, -3], 2)
    assert fam.amax(3) == 1
    assert fam.amax(2) == 0
    assert fam.arch_root_bound == 3
    assert fam.coefficient_support == (3,)

    # F(X, 1) = X^2 - (1/5) X + 1: its roots have valuations -1 and 1 at 5
    fam2 = build_family([1, "-1/5", 1], 2)
    assert fam2.amax(5) == 1
    assert fam2.amax(7) == 0

    # irreducible quadratic X^2 - 3: Cauchy bound 1 + 3 = 4 >= sqrt(3)
    fam3 = build_family([1, 0, -3], 2)
    assert fam3.arch_root_bound == 4
    assert len(fam3.factors) == 1 and fam3.factors[0][1] == 1

    # repeated factor: F = (X - 1)^2 = X^2 - 2X + 1
    fam4 = build_family([1, -2, 1], 2)
    assert fam4.factors[0][1] == 2
    assert fam4.arch_root_bound == 1


_NONZERO = st.fractions(-9, 9, max_denominator=6).filter(bool)


@st.composite
def _repeated_factor_forms(draw):
    """Forms a_D, ..., a_0 (leading first) of degree 1 to 6: a lead times
    powers of monic linear and quadratic factors with nonzero constant terms."""
    f, deg = (draw(_NONZERO),), draw(st.integers(1, 6))
    while P.degree(f) < deg:
        room = deg - P.degree(f)
        k = draw(st.integers(1, min(2, room)))
        fac = (draw(_NONZERO),) + tuple(draw(st.fractions(-9, 9, max_denominator=6))
                                        for _ in range(k - 1)) + (Fraction(1),)
        for _ in range(draw(st.integers(1, room // k))):
            f = P.mul(f, fac)
    return list(reversed(f))


def _from_sympy(p) -> tuple[Fraction, ...]:
    return tuple(Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs()))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(form=_repeated_factor_forms(), e=st.integers(2, 3))
@example(form=[1, 0, -3, 2], e=2)  # (X - 1)^2 (X + 2)
@example(form=[2, 12, 30, 40, 30, 12, 2], e=2)  # 2 (X + 1)^6
@example(form=[1, 0, 2, 0, 1], e=3)  # (X^2 + 1)^2
def test_radical_multiplicity_and_discriminant_match_sympy(form, e):
    # the radical f / gcd(f, f'), the greatest multiplicity read from the
    # gcd chain and the discriminant as a resultant, against sympy's
    # factorization and discriminant
    fam = build_family(form, e)
    x = sympy.Symbol("x")
    f = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in fam.form], x)
    _, factors = f.factor_list()
    rad = functools.reduce(operator.mul, (fac for fac, _ in factors)).monic()
    assert fam.radical == _from_sympy(rad)
    assert fam.max_multiplicity == max(mult for _, mult in factors)
    assert P.discriminant(fam.radical) == _from_sympy(sympy.Poly(rad.discriminant(), x))[0]
    assert P.discriminant(fam.f1) == _from_sympy(sympy.Poly(f.discriminant(), x))[0]


def test_specialized_map(monkeypatch):
    fam = build_family(["1/2", "-3", "2/9"], 2)  # z^4/2 - 3 t z^2 + 2 t^2/9
    t = Fraction(3, 4)
    fmap = specialized(fam, t)
    assert specialized(fam, t) is fmap
    # the form coefficients b_j = a_j t^(D-j) of z^(e j), and the dense list
    assert fmap.ze_coeffs == (Fraction(2, 9) * t**2, -3 * t, Fraction(1, 2))
    cs = (Fraction(1, 8), 0, Fraction(-9, 4), 0, Fraction(1, 2))
    assert specialize(fam, t) == cs
    assert fmap(Fraction(5, 7)) == P.evaluate(cs, Fraction(5, 7))
    assert P.clear_denominators(cs) == ((1, 0, -18, 0, 4), 8)
    assert fmap.integral_model == ((1, -18, 4), 8)
    assert fmap.tail_sum == Fraction(19, 4)
    assert fmap.escape_radius == Fraction(19, 2)  # max(1, 2T, 2/|b_2|)
    assert fmap.denominator_primes == (2,)
    assert fmap.green_data(2) is fmap.green_data(2)
    # a point's bad primes: M's, plus those of the part of den z prime to M
    factored = []
    factor_integer = family.factor_integer
    monkeypatch.setattr(family, "factor_integer", lambda n: factored.append(n) or factor_integer(n))
    assert fmap.bad_primes(4) == (2,) and factored == []
    assert fmap.bad_primes(60) == (2, 3, 5) and factored == [15]

    # the exact orbit as (num, den, first-occurrence index): z^2 - 1 from 0
    # repeats at z_2
    z2 = build_family([1, 1], 2)
    minus_one = specialized(z2, Fraction(-1))
    assert list(itertools.islice(minus_one.orbit(Fraction(0)), 3)) == [
        (0, 1, 0), (-1, 1, 1), (0, 1, 0)
    ]
    # lazy: one kernel step per point after z_0, none ahead of the request
    calls = []
    step = family.SpecializedMap.step
    monkeypatch.setattr(family.SpecializedMap, "step",
                        lambda self, x, y: calls.append((x, y)) or step(self, x, y))
    orbit = minus_one.orbit(Fraction(1, 3))  # wandering
    points = []
    for n in range(6):
        num, den, first = next(orbit)
        assert first == n and len(calls) == n
        points.append(Fraction(num, den))
    assert calls[-1] == (points[-2].numerator, points[-2].denominator)
    assert points[-1] == P.evaluate(specialize(z2, Fraction(-1)), points[-2])


def test_escape_value_holds_only_in_the_escape_region():
    # z^4/2 - 3 t z^2 + 2 t^2/9 at t = 3/4 and p = 2: b = (1/8, -9/4, 1/2) and
    # theta_2 = -1/2, so z_n escapes when v(z_n) <= -1, and then
    # G_2(z) = 4^-n (-v(z_n) + 1/3) log 2
    data = specialized(build_family(["1/2", "-3", "2/9"], 2), Fraction(3, 4)).green_data(2)
    assert data.theta == Fraction(-1, 2)
    assert data.escape_value(-1, 1) == LocalValue.exact(Fraction(1, 3), 2)
    # anywhere else the closed form does not hold, so it is refused
    for vw in (0, 5, None):
        with pytest.raises(AssertionError, match="outside the escape region"):
            data.escape_value(vw, 1)


# a_0 with square prime factors: 12 = 2^2 3, 45/4 = 3^2 5 / 2^2, 1/50 = 1/(2 5^2)
_KERNEL_FAMILIES = st.builds(
    lambda e, lead, middle, const: build_family([lead, *middle, const], e),
    e=st.sampled_from([2, 3, 4]),
    lead=st.sampled_from([Fraction(1), Fraction(2), Fraction(3, 4)]),
    middle=st.lists(st.fractions(-5, 5, max_denominator=6), max_size=2),
    const=st.sampled_from([Fraction(12), Fraction(-18), Fraction(45, 4), Fraction(1, 50)]),
)


def _assert_kernel_step(fmap, cs, w):
    """One kernel step from w is the dense Horner value, in lowest terms
    with den > 0."""
    num, den = fmap.step(w.numerator, w.denominator)
    assert den > 0 and math.gcd(num, den) == 1
    fw = P.evaluate(cs, w)
    assert (num, den) == (fw.numerator, fw.denominator)
    assert fmap(w) == fw


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    fam=_KERNEL_FAMILIES,
    t=st.one_of(st.fractions(-50, 50, max_denominator=10**6), st.sampled_from([0, -1, -2])),
    z=st.one_of(st.fractions(-30, 30, max_denominator=50), st.integers(-3, 3)),
)
@example(fam=build_family([1, 12], 2), t=Fraction(-1, 12), z=0)  # z^2 - 1: 0, -1, 0
@example(fam=build_family([1, 12], 2), t=Fraction(-1, 6), z=0)  # z^2 - 2: 0, -2, 2, 2
def test_orbit_kernel_matches_fraction_horner(fam, t, z):
    t, z = Fraction(t), Fraction(z)
    fmap, cs = specialized(fam, t), specialize(fam, t)
    # first-occurrence indices against a dict of Fractions, points against
    # Horner's rule on the dense coefficients
    seen, w = {}, z
    for n, (num, den, first) in enumerate(itertools.islice(fmap.orbit(z), 8)):
        assert (num, den) == (w.numerator, w.denominator)
        assert first == seen.setdefault(w, n)
        if num.bit_length() + den.bit_length() > 3000:
            break
        _assert_kernel_step(fmap, cs, w)
        w = P.evaluate(cs, w)


def test_orbit_kernel_on_an_8000_digit_point():
    big = Fraction(-(10**7999 + 3), 7**30)
    for lead in (Fraction(1), Fraction(2), Fraction(3, 4)):
        fam = build_family([lead, Fraction(-5, 6), Fraction(45, 4)], 2)
        for t in (Fraction(3, 10**6 - 1), Fraction(-7, 4)):
            fmap, cs = specialized(fam, t), specialize(fam, t)
            for w in (big, -big, big.numerator, Fraction(1, big.numerator)):
                _assert_kernel_step(fmap, cs, Fraction(w))


def test_monic_normalize_identity_for_monic():
    fam = build_family([1, 1], 2)
    g, alpha = monic_normalize(fam)
    assert g == fam and alpha == 1


def test_monic_normalize_cube():
    # 4 z^3 + t  ->  conjugate by alpha = 2 to z^3 + 2t
    fam = build_family([4, 1], 3)
    g, alpha = monic_normalize(fam)
    assert alpha == 2
    assert g.form == (Fraction(1), Fraction(2))
    # conjugation identity: g_t(alpha z) = alpha f_t(z)
    rng = random.Random(13)
    for _ in range(40):
        t = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        z = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        lhs = P.evaluate(specialize(g, t), alpha * z)
        rhs = alpha * P.evaluate(specialize(fam, t), z)
        assert lhs == rhs


def test_monic_normalize_negative_lead_odd_power():
    # -8 z^4 + t: alpha^3 = -8 -> alpha = -2
    fam = build_family([-8, 1], 4)
    g, alpha = monic_normalize(fam)
    assert alpha == -2 and g.monic
    t = Fraction(5, 3)
    z = Fraction(-2, 7)
    assert P.evaluate(specialize(g, t), alpha * z) == alpha * P.evaluate(
        specialize(fam, t), z
    )


def test_monic_normalize_huge_perfect_power():
    # a_D = alpha^2 with numerator and denominator above 900 bits
    alpha = Fraction(3**600, 5**400)
    fam = build_family([alpha**2, 1], 3)
    g, got = monic_normalize(fam)
    assert got == alpha and g.monic
    t, z = Fraction(2, 3), Fraction(-5, 4)
    assert P.evaluate(specialize(g, t), alpha * z) == alpha * P.evaluate(
        specialize(fam, t), z
    )
    with pytest.raises(NormalizationUnavailable):
        monic_normalize(build_family([alpha**2 + 1, 1], 3))


def test_monic_normalize_unavailable():
    with pytest.raises(NormalizationUnavailable):
        monic_normalize(build_family([2, 1], 3))  # sqrt(2) irrational
    with pytest.raises(NormalizationUnavailable):
        monic_normalize(build_family([-1, 1], 3))  # alpha^2 = -1


def test_rational_lead_normalization():
    # (1/4) z^3 + t: alpha = 1/2
    fam = build_family(["1/4", 1], 3)
    g, alpha = monic_normalize(fam)
    assert alpha == Fraction(1, 2) and g.monic


# -- covers -------------------------------------------------------------------


def test_required_pole_count_table():
    assert required_pole_count(2) == 5
    assert required_pole_count(3) == 4
    assert required_pole_count(4) == 3
    assert required_pole_count(11) == 3
    with pytest.raises(DomainError):
        required_pole_count(1)


def test_cover_quartic_not_2_general():
    cov = analyze_cover([1], [1, 0, 0, 0, 1])  # 1 / (1 + t^4)
    assert cov.affine_pole_count() == 4
    assert cov.infinity_order == 0
    assert len(cov.poles) == 1
    grp = cov.poles[0]
    assert grp.count == 4 and grp.order == 1 and grp.rational_location is None
    res = is_e_general(cov, 2)
    assert not res.ok and res.prime_to_e_count == 4 and res.required == 5


def test_cover_quintic_2_general():
    cov = analyze_cover([1], [1, 0, 0, 0, 0, 1])  # 1 / (1 + t^5)
    assert cov.affine_pole_count() == 5
    counts = sorted(g.count for g in cov.poles)
    assert counts == [1, 4]
    rational = [g for g in cov.poles if g.count == 1][0]
    assert rational.rational_location == -1
    assert is_e_general(cov, 2).ok


def test_cover_order_divisible_by_e_excluded():
    # 1 / (1 + t)^2: a single affine pole, of order 2 -> not prime to e = 2
    cov = analyze_cover([1], [1, 2, 1])
    assert cov.affine_pole_count() == 1
    assert cov.poles[0].order == 2
    res = is_e_general(cov, 2)
    assert res.prime_to_e_count == 0
    # but at e = 3 the order-2 pole counts
    assert is_e_general(cov, 3).prime_to_e_count == 1


def test_cover_pole_at_infinity_not_counted():
    # t^5 + t: all poles at infinity
    cov = analyze_cover([0, 1, 0, 0, 0, 1], [1])
    assert cov.infinity_order == 5
    assert cov.affine_pole_count() == 0
    assert not is_e_general(cov, 2).ok


def test_cover_validation():
    with pytest.raises(SpecError):
        analyze_cover([1, 1], [2, 2])  # shared factor t + 1
    with pytest.raises(SpecError):
        # shared irreducible quadratic: (t^2+1)(t+2) over (t^2+1) t
        analyze_cover([2, 1, 2, 1], [0, 1, 0, 1])
    with pytest.raises(SpecError):
        analyze_cover([3], [2])  # constant map
    with pytest.raises(SpecError):
        analyze_cover([1], [0])  # zero denominator
    with pytest.raises(SpecError):
        analyze_cover([0], [1, 1])  # zero map
    # numer and denom are arrays: "1001" would be iterated as 1 + t^3
    for numer, denom in (([1], "1001"), (1, [1, 1]), ({"1": 0}, [0, 1])):
        with pytest.raises(SpecError, match="must be an array"):
            analyze_cover(numer, denom)


def test_cover_evaluation():
    cov = analyze_cover([1], [1, 0, 0, 0, 1])
    assert evaluate_cover(cov, Fraction(1)) == Fraction(1, 2)
    assert evaluate_cover(cov, Fraction(0)) == 1
    cov2 = analyze_cover([1], [1, 1])  # 1/(1+t)
    with pytest.raises(DomainError):
        evaluate_cover(cov2, Fraction(-1))


def test_cover_json():
    cov = analyze_cover([1], [1, 0, 0, 0, 0, 1])
    js = cov.to_json()
    assert js["infinity_order"] == 0
    assert len(js["poles"]) == 2
    locs = {p["location"] for p in js["poles"]}
    assert "-1" in locs and None in locs


def test_cover_poles_factored_on_first_read():
    cov = analyze_cover([1], [1, 0, 0, 0, 1])  # 1 / (1 + t^4)
    scan(build_family([1, 1], 2), 0.8, 1.0, cover=cov)
    assert "poles" not in vars(cov)
    assert "poles" not in repr(cov)
    assert cov.affine_pole_count() == 4
    assert "poles" in vars(cov)


@pytest.mark.parametrize("name", COVER_FIXTURES)
def test_cover_poles_are_the_denominators_factors(name):
    spec = json.loads((FIXTURES / f"{name}.json").read_text())
    cov = analyze_cover(spec["numer"], spec["denom"])
    expected = tuple(
        family.PoleGroup(fac, mult, P.degree(fac), -fac[0] / fac[1] if len(fac) == 2 else None)
        for fac, mult in P.factor_over_q(cov.denom)[1])
    assert cov.poles == expected


def test_cover_fixture_suite_and_pinned_json():
    assert len(COVER_FIXTURES) == 12
    pinned = {
        "mixed_orders": {
            "numer": ["1"], "denom": ["1", "1", "2", "2", "1", "1"],
            "poles": [{"factor": ["1", "1"], "order": 1, "count": 1, "location": "-1"},
                      {"factor": ["1", "0", "1"], "order": 2, "count": 2, "location": None}],
            "infinity_order": 0},
        "septic_cover": {
            "numer": ["1"], "denom": ["1", "0", "0", "0", "0", "0", "0", "1"],
            "poles": [{"factor": ["1", "1"], "order": 1, "count": 1, "location": "-1"},
                      {"factor": ["1", "-1", "1", "-1", "1", "-1", "1"], "order": 1, "count": 6,
                       "location": None}],
            "infinity_order": 0},
    }
    for name, expected in pinned.items():
        spec = json.loads((FIXTURES / f"{name}.json").read_text())
        assert analyze_cover(spec["numer"], spec["denom"]).to_json() == expected


def test_cover_equality_ignores_the_pole_cache():
    a, b = analyze_cover([1], [1, 0, 0, 0, 1]), analyze_cover(["1"], [1, 0, 0, 0, 1, 0])
    assert a == b and hash(a) == hash(b)
    assert a.poles  # fills a's cache only
    assert "poles" in vars(a) and "poles" not in vars(b)
    assert a == b and hash(a) == hash(b)
    assert b.poles
    assert a == b and hash(a) == hash(b)
    assert a != analyze_cover([1], [1, 0, 0, 0, 0, 1])
