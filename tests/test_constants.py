"""Explicit constants: values on pinned examples plus exact defining-inequality
oracles."""
import functools
import math
import random
from fractions import Fraction

import mpmath
import pytest
import sympy

from heightforge import _polys as P
from heightforge import arith, family
from heightforge.arith import (
    INF,
    LogSum,
    Place,
    padic_valuation,
    support,
    vp_or_none,
)
from heightforge.constants import (
    EpsilonSymbolic,
    MKConstants,
    _ceil_log2,
    exceptional_places,
    log2_at,
    mk_a,
    mk_b,
    mk_mvt,
    model_resultant,
    pigeonhole_delta,
    resultant_bound_check,
    theorem1_constants,
)
from heightforge.errors import DomainError
from heightforge.family import build_family, specialize

from test_arith import _greedy_polygon

Z2T = build_family([1, 1], 2)  # z^2 + t
Z2_4T = build_family([1, 4], 2)  # z^2 + 4t
QUARTIC = build_family([1, 0, 1], 2)  # z^4 + t^2 (F = X^2 + Y^2)
WEIGHTED = build_family([1, -3, 1], 3)  # z^6 - 3 t z^3 + t^2
REPEATED = build_family([1, 2, 1], 2)  # (z^2 + t)^2, alpha = 2


# -- mk_a ----------------------------------------------------------------------


def test_mk_a_values():
    a = mk_a(Z2T)
    assert a.finite == {}
    assert a.arch == LogSum.single(Fraction(1, 2), 3)  # (1/2) log 3

    aw = mk_a(WEIGHTED)
    assert aw.finite == {}
    # (1/3) log 12 = (2/3) log 2 + (1/3) log 3
    assert aw.arch == LogSum({2: Fraction(2, 3), 3: Fraction(1, 3)})

    a4 = mk_a(Z2_4T)
    assert a4.finite == {2: Fraction(1)}  # (1/2) log 4 = log 2

    ap = mk_a(build_family([1, 5], 2))  # F = X + 5Y, beta = -5
    assert ap.finite == {5: Fraction(1, 2)}


def test_mk_a_requires_monic():
    with pytest.raises(DomainError):
        mk_a(build_family([2, 1], 2))


def _random_monic_family(rng):
    e = rng.choice([2, 2, 3, 4])
    deg = rng.choice([1, 1, 2])
    coeffs = [1] + [
        Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3])) for _ in range(deg)
    ]
    if coeffs[-1] == 0:
        coeffs[-1] = Fraction(rng.choice([1, -2, 3]))
    return build_family(coeffs, e)


def test_mk_a_defining_inequality_exact():
    # whenever log|z|_v > (1/e) log+|t|_v + a_v, then |f_t(z)|_v >= |z|_v;
    # both filter and conclusion exact, at finite and archimedean places
    rng = random.Random(4001)
    checked_fin = checked_arch = 0
    for _ in range(10_000):
        fam = _random_monic_family(rng)
        t = Fraction(rng.randint(-400, 400), rng.randint(1, 120))
        z = Fraction(rng.randint(-400, 400), rng.randint(1, 120))
        if z == 0:
            continue
        a = mk_a(fam)
        fz = P.evaluate(specialize(fam, t), z)
        # archimedean: |z|^e > max(1,|t|) * 3 * max(1,B) <=> above threshold
        b_plus = max(Fraction(1), fam.arch_root_bound)
        if abs(z) ** fam.e > max(Fraction(1), abs(t)) * 3 * b_plus:
            assert abs(fz) >= abs(z)
            checked_arch += 1
        # finite places: anything dividing the denominators or the a-support
        primes = {2, 3, 5} | set(a.finite)
        for q in (t, z):
            if q != 0:
                primes.update(support(Fraction(q.denominator)))
        for p in primes:
            vz = padic_valuation(z, p)
            vt_neg = max(0, -padic_valuation(t, p)) if t != 0 else 0
            if -vz > Fraction(vt_neg, fam.e) + a.coeff_at(p):
                assert fz != 0
                assert padic_valuation(fz, p) <= vz
                checked_fin += 1
    assert checked_fin > 500 and checked_arch > 500


# -- mk_b ----------------------------------------------------------------------


def test_mk_b_values():
    b = mk_b(Z2T)  # d = 2, e = 2 -> log(3/2)
    assert b.finite == {}
    assert b.arch == LogSum({3: Fraction(1), 2: Fraction(-1)})

    bw = mk_b(WEIGHTED)  # d = 6, e = 3 -> (2/5) log(3/2)
    assert bw.arch == LogSum({3: Fraction(2, 5), 2: Fraction(-2, 5)})
    assert bw.coeff_at(7) == 0


def test_mk_b_dominates_both_tails():
    # the single constant must dominate both (1/e)(d/(d-1)) log(4/3) and
    # (1/e)(d/(d-1)) |log(2/3)| = same * log(3/2); exact comparison
    for fam in (Z2T, QUARTIC, WEIGHTED):
        kappa = Fraction(fam.d, fam.e * (fam.d - 1))
        log43 = LogSum({2: Fraction(2), 3: Fraction(-1)}).scale(kappa)
        log32 = LogSum({3: Fraction(1), 2: Fraction(-1)}).scale(kappa)
        b = mk_b(fam).arch
        assert b.compare(log43) >= 0
        assert b.compare(log32) == 0


# -- mk_mvt --------------------------------------------------------------------


def _at_power(f, e):
    """f(X^e), constant-first."""
    out = [Fraction(0)] * (e * P.degree(f) + 1)
    out[::e] = f
    return tuple(out)


def test_separation_poly():
    # g = r(X^e), r the monic radical of F(X, 1), whose roots are the zetas
    g = _at_power(QUARTIC.radical, QUARTIC.e)  # radical(X^2+1)(X^2) = X^4 + 1
    assert g == P.poly([1, 0, 0, 0, 1])
    g2 = _at_power(REPEATED.radical, REPEATED.e)  # radical((X+1)^2)(X^2) = X^2 + 1
    assert g2 == P.poly([1, 0, 1])
    gw = _at_power(WEIGHTED.radical, WEIGHTED.e)
    assert gw == P.poly([1, 0, 0, -3, 0, 0, 1])
    # random F(X, 1) with repeated factors: sympy's monic squarefree part,
    # composed with X^e
    x = sympy.Symbol("x")
    rng = random.Random(6101)
    for _ in range(40):
        f1 = (Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3)),)
        for _ in range(rng.randint(1, 3)):
            fac = P.poly([rng.choice([-4, -1, 1, 2, 3]), rng.randint(-3, 3), rng.randint(0, 1)])
            f1 = P.mul(f1, P.poly([1]) if P.degree(fac) < 1 else fac)
            for _ in range(rng.randint(0, 2)):
                f1 = P.mul(f1, fac)
        if P.degree(f1) < 1:
            continue
        e = rng.choice([2, 3])
        fam = build_family(list(reversed(f1)), e)
        rad = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(f1)],
                         x).sqf_part().monic()
        expected = rad.compose(sympy.Poly(x**e, x)).all_coeffs()
        assert _at_power(fam.radical, fam.e) == P.poly(
            [Fraction(int(c.p), int(c.q)) for c in reversed(expected)]
        ), fam


def _mvt_families(rng, count):
    """Monic families with rational coefficients and repeated factors, D <= 3."""
    fams = [WEIGHTED, QUARTIC, REPEATED]
    while len(fams) < count:
        D = rng.randint(2, 3)
        f1 = (Fraction(1),)
        while P.degree(f1) < D:
            k = min(rng.choice([1, 2]), D - P.degree(f1))
            fac = P.poly([Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 9]))
                          for _ in range(k)] + [1])
            if fac[0] != 0:
                for _ in range(rng.choice([1, 1, 2])):
                    if P.degree(f1) + k <= D:
                        f1 = P.mul(f1, fac)
        fams.append(build_family(list(reversed(f1)), rng.choice([2, 3, 4])))
    return fams


def test_mk_mvt_mahler_separation():
    # the reference: disc g by sympy on g = r(X^e) itself, and the least k
    # with 2^k >= 2 / Mahler's separation bound found by stepping k; the
    # bound 2^(1-k) must sit below the true root separation of g
    x = sympy.Symbol("x")
    for fam in _mvt_families(random.Random(4005), 40):
        g = _at_power(fam.radical, fam.e)
        n = P.degree(g)
        a_max = max(mult for _, mult in fam.factors)
        gs = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(g)], x)
        disc_g = sympy.discriminant(gs)
        disc_g = Fraction(int(disc_g.p), int(disc_g.q))
        ev = mk_mvt(fam)
        primes = set(support(disc_g)) | set(fam.coefficient_support)
        assert set(ev.finite) <= primes
        for p in primes:
            expected = a_max * (
                Fraction(padic_valuation(disc_g, p), 2)
                + Fraction(n * (n - 1), 2) * fam.amax(p) / fam.e
            )
            assert ev.coeff_at(p) == max(Fraction(0), expected), (fam, p)
        big, m = P.clear_denominators(g)
        disc_big = abs(m ** (2 * n - 2) * disc_g)
        norm_sq = sum(c * c for c in big)
        k = 0
        while 4**k * 3 * disc_big < 4 * n ** (2 * ((n + 3) // 2)) * norm_sq ** (n - 1):
            k += 1
        assert ev.arch == LogSum.single(Fraction(k * (n - 1) * a_max), 2), fam
        with mpmath.workdps(40):
            roots = mpmath.polyroots([mpmath.mpf(c.numerator) / c.denominator
                                      for c in reversed(g)], maxsteps=200, extraprec=200)
            sep = min(abs(a - b) for i, a in enumerate(roots) for b in roots[:i])
            assert sep > mpmath.mpf(2) ** (1 - k), fam


def test_mk_mvt_unit_roots_vanish_at_large_primes():
    # F = X^2 + XY + Y^2: distinct unit roots; separation support is 2/3-smooth
    fam = build_family([1, 1, 1], 2)
    ev = mk_mvt(fam)
    for p in (11, 13, 101):
        assert ev.coeff_at(p) == 0
    assert set(ev.finite) <= {2, 3}


def test_mk_mvt_requires_d_gt_e():
    with pytest.raises(DomainError):
        mk_mvt(Z2T)
    with pytest.raises(DomainError):
        mk_mvt(build_family([1, 1], 3))


def _shift_poly(g, z):
    """h(W) = g(z - W) as exact coefficients, constant-first."""
    out = [Fraction(0)] * len(g)
    lin = (z, Fraction(-1))  # z - W
    power = (Fraction(1),)
    for c in g:
        for i, a in enumerate(power):
            out[i] += c * a
        power = P.mul(power, lin)
    return P.poly(out)


def _mvt_oracle_finite(fam, z, p):
    """Exact check of v_p(f_1(z)) <= max_{i,zeta} alpha_i v_p(z - zeta) + E_p."""
    f1z = P.evaluate(specialize(fam, Fraction(1)), z)
    if f1z == 0:
        return True  # both sides -infinity
    lhs = Fraction(padic_valuation(f1z, p))
    ev = mk_mvt(fam)
    best = None
    for fac, mult in fam.factors:
        g_i = _at_power(
            P.scale(fac, 1 / fac[-1]), fam.e
        )  # monic, roots are the zetas of this factor
        h = _shift_poly(g_i, z)
        vals = [vp_or_none(c, p) for c in h]
        for val, m in _greedy_polygon(vals):
            cand = mult * val
            best = cand if best is None else max(best, cand)
    assert best is not None
    return lhs <= best + ev.coeff_at(p)


def test_mk_mvt_finite_inequality_weighted_at_7():
    rng = random.Random(4002)
    for _ in range(400):
        z = Fraction(rng.randint(-300, 300), rng.choice([1, 1, 1, 2, 3, 6]))
        # 7-adically integral z
        assert z.denominator % 7 != 0
        assert _mvt_oracle_finite(WEIGHTED, z, 7)


def test_mk_mvt_finite_inequality_broad():
    rng = random.Random(4003)
    fams = [WEIGHTED, QUARTIC, REPEATED, build_family([1, "5/2", 1], 2)]
    for _ in range(600):
        fam = rng.choice(fams)
        p = rng.choice([2, 3, 5, 7])
        z = Fraction(rng.randint(-200, 200), rng.randint(1, 60))
        assert _mvt_oracle_finite(fam, z, p)


@functools.lru_cache(maxsize=None)
def _numeric_zetas(fam):
    """[(zeta, alpha_i)] for all roots of f_1, computed once per family."""
    out = []
    with mpmath.workdps(40):
        for fac, mult in fam.factors:
            g_i = _at_power(fac, fam.e)
            coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(g_i)]
            out.extend((zeta, mult) for zeta in mpmath.polyroots(coeffs))
    return tuple(out)


def _mvt_oracle_arch(fam, z, margin=1e-6):
    """Numeric check of log|f_1(z)| >= min alpha_i log|z - zeta| - e_inf."""
    f1z = P.evaluate(specialize(fam, Fraction(1)), z)
    if f1z == 0:
        return True
    lhs = math.log(abs(f1z))
    e_inf = float(mk_mvt(fam).arch)
    zm = mpmath.mpf(z.numerator) / z.denominator
    best = min(mult * math.log(abs(zm - zeta)) for zeta, mult in _numeric_zetas(fam))
    return lhs >= best - e_inf - margin


def test_mk_mvt_arch_inequality():
    rng = random.Random(4004)
    fams = [WEIGHTED, QUARTIC, REPEATED]
    for _ in range(1000):
        fam = rng.choice(fams)
        z = Fraction(rng.randint(-2000, 2000), rng.randint(1, 500))
        assert _mvt_oracle_arch(fam, z)


# -- exceptional places and delta ------------------------------------------------


def test_exceptional_places_examples():
    assert exceptional_places(Z2T) == frozenset({INF})
    assert exceptional_places(Z2_4T) == frozenset({INF, Place.finite(2)})
    # union rule: archimedean + a-support + mvt-support
    exc = exceptional_places(WEIGHTED)
    expect = {INF}
    expect.update(Place.finite(p) for p in mk_a(WEIGHTED).finite)
    expect.update(Place.finite(p) for p in mk_mvt(WEIGHTED).finite)
    assert exc == frozenset(expect)


def test_pigeonhole_delta():
    assert pigeonhole_delta(WEIGHTED) == Fraction(1, 3)  # (6,3)
    assert pigeonhole_delta(QUARTIC) == Fraction(1, 4)  # (4,2)
    assert pigeonhole_delta(build_family([1, 0, 0, 1], 2)) == Fraction(1, 3)  # (6,2)
    with pytest.raises(DomainError):
        pigeonhole_delta(Z2T)


# -- theorem1_constants -----------------------------------------------------------


def test_theorem1_orbit_bound_examples():
    r0 = theorem1_constants(QUARTIC, 0)
    assert r0.status == "ok"
    assert r0.S_size == 1
    assert r0.orbit_bound == 12  # 2 * 6^1
    assert r0.delta == Fraction(1, 4)
    assert r0.epsilon.as_fraction() == Fraction(1, 4) / (2 * Fraction(4) ** 12)
    assert math.isclose(r0.epsilon.as_float(), 0.25 / (2 * 4.0**12), rel_tol=1e-12)

    r1 = theorem1_constants(QUARTIC, 1)
    assert r1.orbit_bound == 72  # 2 * 6^2


def test_theorem1_not_computed_for_d_eq_e():
    rep = theorem1_constants(build_family([1, 1], 3), 0)  # z^3 + t
    assert rep.status == "NotComputed"
    assert rep.reason and "d = e" in rep.reason
    assert rep.orbit_bound is None
    js = rep.to_json()
    assert js["status"] == "NotComputed"


def test_theorem1_validation():
    with pytest.raises(DomainError):
        theorem1_constants(build_family([4, 1], 3), 0)  # not monic
    with pytest.raises(DomainError):
        theorem1_constants(QUARTIC, -1)


def test_theorem1_monotone_in_s():
    prev = None
    for s in range(4):
        rep = theorem1_constants(QUARTIC, s)
        eps = rep.epsilon.as_fraction()
        if prev is not None:
            assert eps <= prev
        prev = eps
        assert rep.orbit_bound == 2 * 6 ** (s + 1)


def test_theorem1_c_positive_and_cached():
    rep = theorem1_constants(QUARTIC, 0)
    assert rep.C_numerator.compare(LogSum.zero()) > 0
    assert rep.C_float() >= 0
    assert theorem1_constants(QUARTIC, 0) is rep  # cached
    js = rep.to_json()
    assert js["orbitBound"] == 12
    assert js["epsilon"]["delta"] == "1/4"


def test_log2_at():
    assert log2_at(INF) == LogSum.single(Fraction(1), 2)
    assert log2_at(Place.finite(2)).is_zero()
    assert log2_at(Place.finite(7)).is_zero()


def test_ceil_log2_matches_shift_loop():
    def shift_loop(r):
        num, den, k = r.numerator, r.denominator, 0
        while den < num:
            den <<= 1
            k += 1
        return k

    rng = random.Random(4007)
    eps = Fraction(1, 3**50)
    samples = [Fraction(n, d) for n in range(1, 40) for d in range(1, 40)]
    samples += [Fraction(2**k) + s for k in (0, 1, 10, 200) for s in (-eps, 0, eps)]
    for _ in range(3000):
        num, den = (rng.getrandbits(rng.randint(1, 300)) + 1 for _ in range(2))
        samples.append(Fraction(num, den))
    for r in samples:
        assert _ceil_log2(r) == shift_loop(r), r
    with pytest.raises(DomainError):
        _ceil_log2(Fraction(-1, 2))


# -- model resultant ---------------------------------------------------------------


def test_model_resultant_examples():
    assert abs(model_resultant(Z2T, Fraction(1, 3))) == 81
    assert abs(model_resultant(Z2T, Fraction(2))) == 1
    assert abs(model_resultant(Z2T, Fraction(1, 4))) == 256


def test_model_resultant_closed_form():
    rng = random.Random(4005)
    cases = [
        (build_family(form, e), t)
        for form, e in [([1, 1], 2), (["-2", 1], 3), (["-1/3", 2], 2), (["5/2", -1], 3),
                        (["-3/4", 1, "2/5"], 2), ([-2, 0, 7], 3)]
        for t in [Fraction(0), Fraction(-7, 6), Fraction(9)]
    ]
    for _ in range(80):
        fam = build_family(
            [rng.choice([1, 2, 3, -2]), rng.randint(-5, 5), rng.choice([1, -1, 4])],
            rng.choice([2, 3]),
        )
        cases.append((fam, Fraction(rng.randint(-30, 30), rng.randint(1, 30))))
    assert {fam.d for fam, _ in cases} == {2, 3, 4, 6}
    for fam, t in cases:
        cs = specialize(fam, t)
        m_clear = 1
        for c in cs:
            m_clear = m_clear * c.denominator // math.gcd(m_clear, c.denominator)
        expected = Fraction(m_clear) ** (2 * fam.d) * abs(fam.lead) ** fam.d
        assert abs(model_resultant(fam, t)) == expected
        # the Sylvester determinant of the integral model, sign included
        f_int = P.scale(cs, Fraction(m_clear))
        sylvester = P.resultant(f_int, (Fraction(m_clear),), m=fam.d, n=fam.d)
        assert model_resultant(fam, t) == sylvester, (fam, t)


def test_resultant_bound_equality_witness():
    rb = resultant_bound_check(Z2T, Fraction(1, 3))
    assert rb.ok
    four_log3 = LogSum.single(Fraction(4), 3)
    assert rb.lhs == four_log3 and rb.rhs == four_log3
    assert rb.lhs.compare(rb.rhs) == 0


def test_resultant_bound_integral_t():
    rb = resultant_bound_check(Z2T, Fraction(7))
    assert rb.ok
    assert rb.lhs.is_zero()
    assert rb.rhs == LogSum.single(Fraction(4), 7)


def test_resultant_bound_factors_den_t_once(monkeypatch):
    # t = a/(p q): factoring M finds p and q, and h(t) divides them out of
    # max(|a|, p q) instead of searching for them again
    p, q = 100000007, 999999937
    seen = []
    original = arith.factor_integer

    def counted(n):
        seen.append(n)
        return original(n)

    monkeypatch.setattr(arith, "factor_integer", counted)
    monkeypatch.setattr(family, "factor_integer", counted)
    family.specialized.cache_clear()
    rb = resultant_bound_check(Z2T, Fraction(-7, p * q))
    assert [n for n in seen if n % p == 0] == [p * q]
    assert rb.ok and rb.rhs == LogSum({p: Fraction(4), q: Fraction(4)})


def test_resultant_bound_weighted():
    rb = resultant_bound_check(WEIGHTED, Fraction(1, 2))
    assert rb.ok


def test_resultant_bound_random_always_ok():
    rng = random.Random(4006)
    for _ in range(200):
        fam = build_family(
            [rng.choice([1, 2, -3]), rng.randint(-8, 8), rng.choice([1, 5, -1])],
            rng.choice([2, 3, 4]),
        )
        t = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        assert resultant_bound_check(fam, t).ok


def test_mkconstants_json():
    js = mk_a(Z2_4T).to_json()
    assert js["finite"] == {"2": "1"}
    # arch part is (1/2) log(3 * 4) = log 2 + (1/2) log 3
    assert js["archimedean"]["logTerms"] == {"2": "1", "3": "1/2"}
    assert math.isclose(js["archimedean"]["float"], 0.5 * math.log(12), rel_tol=1e-9)
