"""Family construction, specialization, monic normalization, and parameter
covers."""
import itertools
import random
from fractions import Fraction

import pytest

from heightforge import _polys as P
from heightforge import family
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
                {"e": True, "F": [1, 1]}, {"e": 2, "F": [True, "1"]}):
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


def test_specialized_map(monkeypatch):
    fam = build_family(["1/2", "-3", "2/9"], 2)  # z^4/2 - 3 t z^2 + 2 t^2/9
    t = Fraction(3, 4)
    fmap = specialized(fam, t)
    assert specialized(fam, t) is fmap
    cs = (Fraction(1, 8), 0, Fraction(-9, 4), 0, Fraction(1, 2))
    assert specialize(fam, t) == cs
    # the form coefficients b_j = a_j t^(D-j) of z^(e j), the dense list's every e-th
    assert fmap.ze_coeffs == cs[::2]
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
    assert fmap.bad_primes(Fraction(5, 4)) == (2,) and factored == []
    assert fmap.bad_primes(Fraction(1, 60)) == (2, 3, 5) and factored == [15]

    # the exact orbit with first-occurrence indices: z^2 - 1 from 0 repeats at z_2
    z2 = build_family([1, 1], 2)
    minus_one = specialized(z2, Fraction(-1))
    assert list(itertools.islice(minus_one.orbit(Fraction(0)), 3)) == [(0, 0), (-1, 1), (0, 0)]
    # lazy: one evaluation per point after z_0, none ahead of the request
    calls = []
    evaluate = P.evaluate
    monkeypatch.setattr(P, "evaluate", lambda cs, z: calls.append(z) or evaluate(cs, z))
    orbit = minus_one.orbit(Fraction(1, 3))  # wandering
    points = []
    for n in range(6):
        w, first = next(orbit)
        assert first == n and len(calls) == n
        points.append(w)
    assert w == evaluate(specialize(z2, Fraction(-1)), points[-2])


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
