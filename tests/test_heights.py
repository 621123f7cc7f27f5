"""Heights module: pinned values, certified enclosures, defining inequalities."""
import math
import random
from fractions import Fraction

import mpmath
import pytest
import sympy

from heightforge.arith import INF, LocalValue, LogSum, Place, padic_valuation, support
from heightforge.constants import exceptional_places, mk_a, mk_b
from heightforge.errors import BudgetExceeded, DomainError, PrecisionLoss
from heightforge.family import analyze_cover, build_family, specialize
from heightforge import _polys as P
from heightforge import heights as H
from heightforge._intervals import Interval, log_interval
from heightforge._padics import PAdic
from heightforge.heights import (
    GreenResult,
    Infinity,
    arakelov_green,
    canonical_height,
    conductor_count,
    height_defect_bound,
    l1_l2_split,
    lambda_local,
    local_green,
    naive_height,
)
from heightforge.heights import _naive_height_interval

Z2T = build_family([1, 1], 2)


# -- naive height -----------------------------------------------------------------


def test_naive_height_examples():
    assert naive_height(Fraction(1, 3)) == LogSum.single(Fraction(1), 3)
    assert naive_height(Fraction(7)) == LogSum.single(Fraction(1), 7)
    assert naive_height(Fraction(-5, 2)) == LogSum.single(Fraction(1), 5)
    assert naive_height(Fraction(0)).is_zero()
    assert naive_height(Fraction(1)).is_zero()


def test_naive_height_interval_sweep():
    # libmp rounds an integer of any bit length outward: each enclosure holds
    # log n and is at most 4 ulps wide, from 2 bits to past the orbit bit cap
    rng = random.Random(5003)
    with mpmath.workprec(400):
        for b in [2, 49, 50, 51, 64, 1000, 10**4, 2 * 10**5]:
            for n in {1 << (b - 1), (1 << b) - 1, rng.getrandbits(b) | 1 << (b - 1)}:
                enc = _naive_height_interval(Fraction(1, n))
                ref = mpmath.log(n)
                assert mpmath.mpf(enc.lo) <= ref <= mpmath.mpf(enc.hi), (b, n)
                assert enc.width <= 4 * math.ulp(float(ref)), (b, n)
    assert _naive_height_interval(Fraction(0)) == Interval.zero()
    assert _naive_height_interval(Fraction(-1)) == Interval.zero()


# -- height defect bound ----------------------------------------------------------


def test_defect_pure_power():
    assert height_defect_bound(Z2T, Fraction(0)) == 0.0
    assert height_defect_bound(build_family([-1, 0, 1], 2), Fraction(0)) == 0.0
    # the per-parameter cache must not grow for the life of the process
    assert height_defect_bound.cache_info().maxsize is not None


def _sympy_defect_bound(fam, t) -> float:
    """height_defect_bound from the two Bezout systems A F + B G = det,
    deg A, deg B < d, each built from polynomial products and solved by sympy:
    (F, G) = (sum C_i x^i, L) and its reversal (sum C_(d-i) x^i, L x^d)."""
    C, L = P.clear_denominators(specialize(fam, t))
    d, x = fam.d, sympy.Symbol("x")

    def bezout(F, G):
        cols = [sympy.Poly(x**j * H, x) for H in (F, G) for j in range(d)]
        M = sympy.Matrix(2 * d, 2 * d, lambda r, c: cols[c].coeff_monomial(x**r))
        det = M.det()
        u = M.LUsolve(sympy.Matrix([det] + [0] * (2 * d - 1)))
        return max(abs(v) for v in u), abs(det)

    Cs = [sympy.Integer(int(c)) for c in C]
    K1, R1 = bezout(sum(c * x**i for i, c in enumerate(Cs)), sympy.Integer(L))
    K2, R2 = bezout(sum(c * x**i for i, c in enumerate(reversed(Cs))), L * x**d)
    arg = max(sum(abs(c) for c in Cs), L, 2 * d * max(K1 * R2, K2 * R1), 1)
    return log_interval(Fraction(int(arg.p), int(arg.q))).hi


def test_defect_closed_form_matches_sympy_bezout():
    rng = random.Random(5002)
    pairs = [(build_family(form, e), Fraction(t))
             for form, e in [([1, 1], 3), ([2, 1], 2), ([1, -81], 2), ([-3, 1], 3),
                             ([1, 0, 81], 2), (["1/2", "-3", "2/9"], 2), ([1, -3, 1], 3)]
             for t in ["1", "-1", "1/3", "-2/3", "81", "7/81"]]
    pairs += [(build_family([2, 5], 2), Fraction(0)), (build_family(["-1/3", 1], 3), Fraction(0))]
    for _ in range(20):
        D = rng.choice([1, 2])
        form = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))]
        form += [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(D - 1)]
        form += [Fraction(rng.choice([-9, -2, -1, 1, 3, 81]), rng.randint(1, 4))]
        pairs.append((build_family(form, rng.choice([2, 3])),
                      Fraction(rng.randint(-30, 30), rng.randint(1, 30))))
    for fam, t in pairs:
        assert height_defect_bound(fam, t) == _sympy_defect_bound(fam, t), (fam, t)


def test_defect_near_a_real_root():
    # w = 161803/10000 lies next to the real root sqrt(261.8) of
    # z^4 - 300 z^2 + 10^4, so |f(w)| is small against |w|^4: the defect there
    # is 11.14, above the 9.24 that 2 d R min(K1, K2) would give
    fam, t, w = build_family([1, -3, 1], 2), Fraction(100), Fraction(161803, 10000)
    fw = P.evaluate(specialize(fam, t), w)
    defect = abs(_naive_height_interval(fw).mid - 4 * _naive_height_interval(w).mid)
    assert 11.1 < defect <= height_defect_bound(fam, t)


def test_defect_z2_minus_1_exhaustive():
    fam = build_family([1, -1], 2)
    cf = height_defect_bound(fam, Fraction(1))
    assert cf >= math.log(2) - 1e-12
    for a in range(-50, 51):
        for b in range(1, 51):
            w = Fraction(a, b)
            defect = abs(
                float(naive_height(w * w - 1)) - 2 * float(naive_height(w))
            )
            assert defect <= cf + 1e-9


def test_defect_randomized():
    rng = random.Random(5001)
    fams_ts = [
        (Z2T, Fraction(1, 3)),
        (build_family([1, -3, 1], 3), Fraction(2, 5)),
        (build_family([3, 1], 2), Fraction(-7, 2)),  # non-monic
    ]
    for fam, t in fams_ts:
        cf = height_defect_bound(fam, t)
        assert cf >= 0
        cs = specialize(fam, t)
        for _ in range(300):
            w = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            # interval (factoring-free) heights: f(w) has ~36-digit entries
            defect = abs(
                _naive_height_interval(P.evaluate(cs, w)).mid
                - fam.d * _naive_height_interval(w).mid
            )
            assert defect <= cf + 1e-6


# -- local Green's functions: pinned examples --------------------------------------


def test_green_good_reduction_integral():
    r = local_green(Z2T, Fraction(1), Place.finite(2), Fraction(3))
    assert r.mode == "exact-bounded"
    assert isinstance(r.value, LocalValue) and r.value.coeff == 0


def test_green_immediate_escape():
    r = local_green(Z2T, Fraction(1), Place.finite(2), Fraction(1, 2))
    assert r.mode == "exact-escape"
    assert r.value.coeff == 1 and r.value.prime == 2  # G = log 2


def test_green_delayed_escape():
    r = local_green(Z2T, Fraction(1, 9), Place.finite(3), Fraction(1, 3))
    assert r.mode == "exact-escape"
    assert r.value.coeff == 1 and r.value.prime == 3  # G = (1/2) log 9 = log 3


def test_green_exact_cycle():
    # 1/2 is a fixed point of z^2 + 1/4; no invariant disk exists at p = 2
    r = local_green(build_family([1, 1], 2), Fraction(1, 4), Place.finite(2), Fraction(1, 2))
    assert r.mode == "exact-bounded"


def test_green_bounded_shell_interval():
    # z = 3/2 under z^2 + 1/4 stays in the shell v_2 = -1 forever: bounded but
    # never certified exactly; the geometric upper bound gives [0, <= tol]
    r = local_green(Z2T, Fraction(1, 4), Place.finite(2), Fraction(3, 2), tol=1e-9)
    assert r.mode == "interval"
    enc = r.enclosure()
    assert enc.lo == 0.0 and enc.hi <= 1e-9


def test_green_arch_power_map():
    r = local_green(Z2T, Fraction(0), INF, Fraction(2), tol=1e-10)
    enc = r.enclosure()
    assert enc.width <= 1e-10
    assert enc.lo <= math.log(2) <= enc.hi
    r0 = local_green(Z2T, Fraction(0), INF, Fraction(1, 2), tol=1e-10)
    assert r0.enclosure().hi <= 1e-10


def test_green_arch_escape_large():
    r = local_green(Z2T, Fraction(1), INF, Fraction(100), tol=1e-12)
    enc = r.enclosure()
    # G(100) = log 100 + sum 2^-k-1 log(1 + t/z_k^2) in [log 100, log 100 + 1e-4]
    assert enc.lo >= math.log(100) - 1e-12
    assert enc.hi <= math.log(100) + 1e-4
    assert enc.width <= 1e-12


def test_green_budget_exceeded():
    with pytest.raises(BudgetExceeded) as ei:
        local_green(Z2T, Fraction(1, 4), Place.finite(2), Fraction(3, 2), tol=1e-30, budget=5)
    assert ei.value.best is not None
    lo, hi = ei.value.best
    assert lo == 0.0 and hi > 0


def test_green_json_shape():
    r = local_green(Z2T, Fraction(1), Place.finite(2), Fraction(1, 2))
    js = r.to_json(Place.finite(2))
    assert set(js) >= {"value_lo", "value_hi", "mode", "place", "steps"}
    assert js["place"] == "2" and js["mode"] == "exact-escape"
    assert js["exact"] == {"coeff": "1", "prime": 2}


def test_green_rejects_bad_tol():
    for tol in (0.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            local_green(Z2T, Fraction(1), INF, Fraction(1), tol=tol)
        with pytest.raises(DomainError):
            canonical_height(Z2T, Fraction(1), Fraction(1), tol)
    with pytest.raises(DomainError):
        local_green(Z2T, Fraction(1), INF, Fraction(1), budget=-1)
    # positive and finite, but half of it per place underflows to 0
    with pytest.raises(DomainError, match="too small to split over 2 places"):
        canonical_height(Z2T, Fraction(-1), Fraction(1, 3), tol=5e-324)


# -- local Green's functions: results pinned from the unfiltered loops -------------

Z3T = build_family([1, 1], 3)
Z6 = build_family([1, -3, 1], 3)  # z^6 - 3t z^3 + t^2
NONMONIC = build_family([3, 1], 2)  # 3z^2 + t
Z4T2 = build_family([1, 0, 1], 2)  # z^4 + t^2: F = X^2 + Y^2 has a_1 = 0
TINY = Fraction(1, 10**400)

# (family, t, place, z, tol, budget, to_json() or the BudgetExceeded's best/steps),
# computed by the loops that ran every certified exit enclosure on every step
GREEN_PINS = [
    (Z2T, "1", "inf", "100", 1e-12, None, {"value_lo": 4.605220185987754, "value_hi": 4.605220185987761, "mode": "interval", "place": None, "steps": 3}),
    (Z2T, "1", "inf", TINY, 1e-09, None, {"value_lo": 0.2036772613697027, "value_hi": 0.20367726136977732, "mode": "interval", "place": None, "steps": 7}),
    (Z2T, "0", "inf", "1/2", 1e-10, None, {"value_lo": 0.0, "value_hi": 2e-323, "mode": "interval", "place": None, "steps": 0}),
    (Z2T, "-1", "inf", "0", 1e-09, None, {"value_lo": 0.0, "value_hi": 6.455436167865486e-10, "mode": "interval", "place": None, "steps": 30}),
    (Z2T, "-1", "inf", "0", 1e-30, 3, {"best": (0.0, 0.08664339756999322), "steps": 4}),
    (Z2T, "1/4", "inf", "3/2", 1e-12, 3, {"best": (0.0, 0.4965809534055728), "steps": 4}),
    (Z6, "2/5", "inf", "7/3", 1e-09, None, {"value_lo": 0.8309428010555677, "value_hi": 0.8309428010555702, "mode": "interval", "place": None, "steps": 2}),
    (NONMONIC, "-7/2", "inf", "1/5", 1e-09, None, {"value_lo": 1.1311600167795448, "value_hi": 1.1311600167795466, "mode": "interval", "place": None, "steps": 5}),
    (Z3T, "-2/3", "inf", "1/7", 1e-07, None, {"value_lo": 0.01827494156678415, "value_hi": 0.01827494306413075, "mode": "interval", "place": None, "steps": 6}),
    # z^2 itself: tail sum T = 0, the escape enclosure is exact at once
    (Z2T, "0", "inf", "2", 1e-10, None, {"value_lo": 0.6931471805599448, "value_hi": 0.6931471805599457, "mode": "interval", "place": None, "steps": 1}),
    # tol equal to the exit value (bounded upper bound or escape width): the
    # exit fires on the first step it can, so skipping that step shows
    (Z2T, "-2", "inf", "1/3", 0.0008111028433864355, None, {"value_lo": 0.0, "value_hi": 0.0008111028433864355, "mode": "interval", "place": None, "steps": 11}),
    (Z2T, "1/4", "inf", "3/2", 1.7299840869511307e-05, None, {"value_lo": 0.4686880094912962, "value_hi": 0.4687053093321657, "mode": "interval", "place": None, "steps": 4}),
    (Z2T, "1", "inf", "100", 9.999500034041375e-05, None, {"value_lo": 4.605170185988088, "value_hi": 4.605270180988429, "mode": "interval", "place": None, "steps": 1}),
    (Z3T, "-2/3", "inf", "1/7", 3.2463458567291714e-05, None, {"value_lo": 0.018258709088827225, "value_hi": 0.018291172547394517, "mode": "interval", "place": None, "steps": 5}),
    # a tol 512 ulps below that escape width: the exit waits one step
    (Z3T, "-2/3", "inf", "1/7", 3.2463458567288245e-05, None, {"value_lo": 0.01827494156678415, "value_hi": 0.01827494306413075, "mode": "interval", "place": None, "steps": 6}),
    (Z2T, "1/4", "2", "3/2", 0.0005076761576366789, None, {"value_lo": 0.0, "value_hi": 0.0005076761576366789, "mode": "interval", "place": None, "steps": 12}),
    (Z2T, "1", "2", "1/2", 1e-09, None, {"value_lo": 0.6931471805599451, "value_hi": 0.6931471805599455, "mode": "exact-escape", "place": None, "steps": 0, "exact": {"coeff": "1", "prime": 2}}),
    (Z2T, "1", "2", "3", 1e-09, None, {"value_lo": 0.0, "value_hi": 0.0, "mode": "exact-bounded", "place": None, "steps": 0, "exact": {"coeff": "0", "prime": 2}}),
    (Z2T, "1/9", "3", "1/3", 1e-09, None, {"value_lo": 1.0986122886681093, "value_hi": 1.0986122886681102, "mode": "exact-escape", "place": None, "steps": 1, "exact": {"coeff": "1", "prime": 3}}),
    (Z2T, "1/4", "2", "1/2", 1e-09, None, {"value_lo": 0.0, "value_hi": 0.0, "mode": "exact-bounded", "place": None, "steps": 1, "exact": {"coeff": "0", "prime": 2}}),
    # t = w/(4u^2), w = 1 mod 4, u odd, v_2(z) = -1: the p-adic phase, then an interval exit
    (Z2T, "5/36", "2", "1/2", 1e-09, None, {"value_lo": 0.0, "value_hi": 9.683154251798227e-10, "mode": "interval", "place": None, "steps": 31}),
    (Z2T, "1/4", "2", "3/2", 1e-09, None, {"value_lo": 0.0, "value_hi": 9.683154251798227e-10, "mode": "interval", "place": None, "steps": 31}),
    (Z2T, "1/4", "2", "3/2", 1e-30, 5, {"best": (0.0, 0.03249127408874744), "steps": 6}),
    (Z2T, "5/36", "2", "7/2", 1e-30, 20, {"best": (0.0, 9.915549953841382e-07), "steps": 21}),
    (NONMONIC, "-7/2", "2", "1/3", 1e-09, None, {"value_lo": 0.34657359027997253, "value_hi": 0.34657359027997275, "mode": "exact-escape", "place": None, "steps": 1, "exact": {"coeff": "1/2", "prime": 2}}),
    # a zero form coefficient: Horner in z^e adds b_1 = 0 exactly
    (Z4T2, "-1/2", "inf", "1/3", 1e-09, None, {"value_lo": 0.0, "value_hi": 2.770915022917215e-10, "mode": "interval", "place": None, "steps": 14}),
    (Z4T2, "-3/4", "inf", "1/2", 1e-09, None, {"value_lo": 0.0005122324001951743, "value_hi": 0.0005122324001951751, "mode": "interval", "place": None, "steps": 8}),
    (Z4T2, "-1/2", "inf", "1/3", 1e-30, 3, {"best": (0.0, 0.0011622059964281767), "steps": 4}),
    (Z6, "1/3", "inf", "1/2", 1e-09, None, {"value_lo": 0.0, "value_hi": 4.119186688384933e-10, "mode": "interval", "place": None, "steps": 11}),
]


def test_green_pinned_results():
    for fam, t, v, z, tol, budget, expected in GREEN_PINS:
        place = INF if v == "inf" else Place.finite(int(v))
        args = (fam, Fraction(t), place, Fraction(z), tol, budget)
        if "best" in expected:
            with pytest.raises(BudgetExceeded) as ei:
                local_green(*args)
            got = {"best": ei.value.best, "steps": ei.value.steps}
        else:
            got = local_green(*args).to_json()
        assert got == expected, args


def test_green_enclosures_do_not_grow_with_steps(monkeypatch):
    # count the mpmath enclosures: heights.log_interval and Interval.scale calls
    calls = {"n": 0}

    def counted(fn):
        def wrapper(*a, **kw):
            calls["n"] += 1
            return fn(*a, **kw)
        return wrapper

    monkeypatch.setattr(H, "log_interval", counted(H.log_interval))
    monkeypatch.setattr(Interval, "scale", counted(Interval.scale))
    # archimedean: a tiny z lands near 1, then escapes; the escape exit fires at step 7
    r = local_green(Z2T, Fraction(1), INF, TINY, tol=1e-9)
    assert r.steps_used == 7
    assert calls["n"] <= 10  # set-up plus the exit step; ~3 per step unfiltered
    # 2-adic: the shell v_2 = -1 reaches the p-adic phase, interval exit at step 31
    calls["n"] = 0
    r = local_green(Z2T, Fraction(1, 4), Place.finite(2), Fraction(3, 2), tol=1e-9)
    assert (r.mode, r.steps_used) == ("interval", 31)
    assert calls["n"] <= 3  # log p, then the enclosures of the last steps


def test_green_restart_exhaustion_reports_finite_best(monkeypatch):
    # 20 bits cannot hold |1/3| to the loop's relative width: every try restarts
    monkeypatch.setattr(H, "DEFAULT_PREC", 20)
    monkeypatch.setattr(H, "_MAX_RESTARTS", 1)
    with pytest.raises(BudgetExceeded, match="precision exhausted") as ei:
        local_green(Z2T, Fraction(-1), INF, Fraction(1, 3), tol=1e-9)
    lo, hi = ei.value.best
    assert lo == 0.0 and math.isfinite(hi) and hi >= math.log(2)


# t = (4k+1)/(4u^2) and z = (2j+1)/(2w) under z^2 + t: v_2(z_n) = -1 at
# every step, so each G_2 reaches the windowed 2-adic phase
_PADIC_INPUTS = [
    (Fraction(4 * k + 1, 4 * u * u), Fraction(2 * j + 1, 2 * w))
    for k in (-3, 2, 5) for u in (1, 3) for w in (1, 3) for j in (-2, 1)
]


def test_green_padic_restarts(monkeypatch):
    # at 4 starting digits the 2-adic orbit loses its precision: each loss
    # restarts from z_n with twice the digits, and the result is unchanged
    losses = []
    init = PrecisionLoss.__init__
    monkeypatch.setattr(PrecisionLoss, "__init__",
                        lambda self, *a: losses.append(a) or init(self, *a))
    two = Place.finite(2)
    default = [local_green(Z2T, t, two, z) for t, z in _PADIC_INPUTS]
    assert losses == []
    monkeypatch.setattr(H, "_REL_PREC0", 4)
    assert [local_green(Z2T, t, two, z) for t, z in _PADIC_INPUTS] == default
    assert len(losses) == 66
    # one try only: the losses that a restart would absorb now end the call
    monkeypatch.setattr(H, "_MAX_RESTARTS", 1)
    exhausted = 0
    for (t, z), expected in zip(_PADIC_INPUTS, default):
        try:
            assert local_green(Z2T, t, two, z) == expected
        except BudgetExceeded as exc:
            assert "p-adic precision exhausted for G_2" in str(exc) and exc.best is None
            exhausted += 1
    assert exhausted == 22


def test_green_padic_phase_adds_a_zero_form_coefficient(monkeypatch):
    # z^4 - t^2 (F = X^2 - Y^2, a_1 = 0) at t = -5/4 keeps v_2(z_n) = -1 from
    # z = 3/2, so G_2 reaches the windowed 2-adic phase, where Horner in z^2
    # adds b_1 as a zero PAdic
    zero_adds = []
    add = PAdic.__add__
    monkeypatch.setattr(PAdic, "__add__", lambda x, y: zero_adds.append(
        x.is_zeroish or y.is_zeroish) or add(x, y))
    fam, t, z = build_family([1, 0, -1], 2), Fraction(-5, 4), Fraction(3, 2)
    assert local_green(fam, t, Place.finite(2), z, tol=1e-9).to_json() == {
        "value_lo": 0.0, "value_hi": 3.765671097921532e-10, "mode": "interval",
        "place": None, "steps": 16}
    assert zero_adds.count(True) == 9
    h = canonical_height(fam, t, z)
    assert (h.lo, h.hi) == (0.3125365598232338, 0.3125365602332706)


def test_green_budget_past_the_float_range_reports_finite_best():
    # z^2 + 1 from 100 at a tol the escape exit cannot reach: past step ~1020
    # log2 |z_n| exceeds the float range, and the loop still ends at its budget
    with pytest.raises(BudgetExceeded) as ei:
        local_green(Z2T, Fraction(1), INF, Fraction(100), tol=1e-15, budget=1030)
    assert ei.value.steps == 1031
    lo, hi = ei.value.best
    assert lo == 0.0 and math.isfinite(hi) and hi >= math.log(100)


def test_results_ignore_the_callers_mpmath_precision():
    # the enclosures take their precision as an argument: mpmath's global mp.prec
    # and iv.prec neither change a result nor are changed by the computation
    import mpmath
    from mpmath import iv

    from heightforge._intervals import log_interval

    def results():
        out = [log_interval(Fraction(10**30 + 7, 3)), log_interval(Fraction(1, 3), 240),
               Interval(0.1, 0.7).scale(Fraction(-22, 7)),
               LogSum({2: Fraction(1, 3), 5: Fraction(-7, 2)}).enclosure(),
               LogSum({3: Fraction(5), 7: Fraction(-2)}).enclosure(480)]
        # z^2 + t at t = -2/3, z = 2 and z^3 + t at t = -1, z = 1/7 moved under
        # workprec(400) while |z_n| was rounded at the global mp.prec
        for fam, t, z in [(Z2T, "-2/3", "2"), (Z3T, "-1", "1/7"), (Z2T, "1/4", "3/2"),
                          (Z3T, "-2/3", "1/7"), (Z6, "2/5", "7/3"), (NONMONIC, "-7/2", "1/5")]:
            t, z = Fraction(t), Fraction(z)
            for v in (INF, Place.finite(2)):
                out.append(local_green(fam, t, v, z, tol=1e-9).to_json())
            out.append(canonical_height(fam, t, z, tol=1e-9))
        return out

    mp_prec, iv_prec = mpmath.mp.prec, iv.prec
    expected = results()
    with mpmath.workprec(400):
        assert results() == expected
    with mpmath.workprec(30):
        assert results() == expected
    try:
        iv.prec = 30
        assert results() == expected
        assert iv.prec == 30
    finally:
        iv.prec = iv_prec
    assert (mpmath.mp.prec, iv.prec) == (mp_prec, iv_prec)


# -- Green's function invariants ----------------------------------------------------


def _random_family(rng, monic=True):
    e = rng.choice([2, 2, 3])
    deg = rng.choice([1, 1, 2])
    lead = 1 if monic else rng.choice([1, 2, -3])
    coeffs = [lead] + [
        Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3])) for _ in range(deg)
    ]
    if coeffs[-1] == 0:
        coeffs[-1] = Fraction(rng.choice([1, -1, 2]))
    return build_family(coeffs, e)


def test_green_nonnegative_random():
    rng = random.Random(5002)
    for _ in range(250):
        fam = _random_family(rng, monic=rng.random() < 0.8)
        t = Fraction(rng.randint(-40, 40), rng.randint(1, 20))
        z = Fraction(rng.randint(-40, 40), rng.randint(1, 20))
        v = rng.choice([INF, Place.finite(2), Place.finite(3), Place.finite(5)])
        r = local_green(fam, t, v, z, tol=1e-7)
        enc = r.enclosure()
        assert enc.hi >= enc.lo >= -1e-15
        if r.is_exact:
            assert isinstance(r.value, LocalValue)
            assert r.value.coeff >= 0
            if r.mode == "exact-bounded":
                assert r.value.coeff == 0


def test_green_escape_lower_bound_off_exceptional():
    # for v outside the exceptional places with |t|_v > 1 and e not dividing
    # v(t):  G >= (1/d) log+ |t|_v, exactly
    rng = random.Random(5003)
    checked = 0
    for _ in range(400):
        fam = _random_family(rng, monic=True)
        p = rng.choice([5, 7, 11, 13])
        if Place.finite(p) in exceptional_places(fam):
            continue
        k = rng.choice([1, 3, 5, 7])  # e never divides odd k for e in {2}, keep general
        if k % fam.e == 0:
            continue
        u_num = rng.choice([1, 2, 3, 4, 6])
        if u_num % p == 0:
            continue
        t = Fraction(u_num, p**k)
        zs = [
            Fraction(rng.randint(1, 30)),
            Fraction(p ** rng.randint(1, 3)),  # |z|_v small
            Fraction(rng.randint(1, 20), p),
            Fraction(0),
        ]
        for z in zs:
            r = local_green(fam, t, Place.finite(p), z)
            assert r.mode == "exact-escape"
            assert r.value.prime == p
            assert r.value.coeff >= Fraction(k, fam.d)
            checked += 1
    assert checked > 200


# -- canonical height ---------------------------------------------------------------


def test_canonical_preperiodic_zero():
    h = canonical_height(Z2T, Fraction(-1), Fraction(0), 1e-9)
    assert 0 <= h.lo <= h.hi <= 1e-9


def test_canonical_power_map():
    h = canonical_height(Z2T, Fraction(0), Fraction(2), 1e-9)
    assert h.lo <= math.log(2) <= h.hi
    assert h.width <= 1e-9


def test_canonical_basilica_point():
    # orbit of 1 under z^2 + 1: 1, 2, 5, 26, 677, ...
    h = canonical_height(Z2T, Fraction(1), Fraction(1), 1e-9)
    assert h.width <= 1e-9
    # 16-step telescoping reference: log(f^4(1)) / 16 = log(677)/16 ~ 0.40727
    assert abs(h.mid - 0.4073) < 2e-4
    # nesting: tighter tolerance stays inside looser enclosure
    loose = canonical_height(Z2T, Fraction(1), Fraction(1), 1e-5)
    assert loose.lo - 1e-12 <= h.lo and h.hi <= loose.hi + 1e-12


def test_canonical_denominator_place():
    # z = 1/7, t = 1: G_7 = log 7 exactly, G_inf and G_2,3 small
    h = canonical_height(Z2T, Fraction(1), Fraction(1, 7), 1e-9)
    g7 = local_green(Z2T, Fraction(1), Place.finite(7), Fraction(1, 7))
    assert g7.mode == "exact-escape" and g7.value.coeff == 1
    assert h.lo >= math.log(7) - 1e-9


def test_canonical_local_global_agreement():
    rng = random.Random(5004)
    for _ in range(60):
        fam = _random_family(rng, monic=rng.random() < 0.7)
        t = Fraction(rng.randint(-12, 12), rng.randint(1, 8))
        z = Fraction(rng.randint(-12, 12), rng.randint(1, 8))
        tol = 0.05
        h_loc = canonical_height(fam, t, z, tol)
        h_glob = canonical_height(fam, t, z, 0.2, method="global")
        assert h_loc.overlaps(h_glob), (fam, t, z, h_loc, h_glob)


def test_canonical_functional_equation():
    rng = random.Random(5005)
    for _ in range(120):
        fam = _random_family(rng, monic=True)
        t = Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3]))
        z = Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3]))
        tol = 1e-7
        fz = P.evaluate(specialize(fam, t), z)
        h_fz = canonical_height(fam, t, fz, tol)
        h_z = canonical_height(fam, t, z, tol)
        scaled = h_z.scale(Fraction(fam.d))
        # d*hat(z) and hat(f z) must overlap up to combined widths
        assert h_fz.lo <= scaled.hi + 3 * tol and scaled.lo <= h_fz.hi + 3 * tol


def test_canonical_rejects_bad_method():
    with pytest.raises(DomainError):
        canonical_height(Z2T, Fraction(1), Fraction(1), 1e-9, method="nope")


def test_global_method_guards_tolerance():
    with pytest.raises(DomainError):
        canonical_height(Z2T, Fraction(1, 3), Fraction(5, 7), 1e-9, method="global")


# -- pair Green function --------------------------------------------------------------


def test_arakelov_examples():
    g = arakelov_green(Z2T, Fraction(-1), Place.finite(5), Fraction(0), Fraction(1))
    assert abs(g.mid) <= 1e-12 and g.width <= 1e-9
    g = arakelov_green(Z2T, Fraction(-1), Place.finite(2), Fraction(0), Fraction(2))
    assert g.lo <= math.log(2) <= g.hi
    g = arakelov_green(
        Z2T, Fraction(1, 9), Place.finite(3), Fraction(1, 3), Fraction(2, 3)
    )
    assert g.lo <= math.log(3) <= g.hi and g.width <= 1e-9


def test_arakelov_diagonal_error():
    with pytest.raises(DomainError):
        arakelov_green(Z2T, Fraction(1), INF, Fraction(1, 2), Fraction(1, 2))


def test_arakelov_good_reduction_lower_bound():
    # for |t|_v <= 1 and distinct x, y: g_v(x,y) >= -max(a_v, b_v) - log 2_v
    rng = random.Random(5006)
    for _ in range(150):
        fam = _random_family(rng, monic=True)
        v = rng.choice([INF, Place.finite(2), Place.finite(3), Place.finite(5)])
        # draw t with |t|_v <= 1
        while True:
            t = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
            if v.is_archimedean:
                if abs(t) <= 1:
                    break
            elif padic_valuation(t, v.prime) >= 0 if t != 0 else True:
                break
        x = Fraction(rng.randint(-15, 15), rng.randint(1, 10))
        y = Fraction(rng.randint(-15, 15), rng.randint(1, 10))
        if x == y:
            continue
        g = arakelov_green(fam, t, v, x, y, tol=1e-8)
        bound = mk_a(fam).at(v)
        b_arch = mk_b(fam).at(v)
        if b_arch.compare(bound) > 0:
            bound = b_arch
        if v.is_archimedean:
            bound = bound + LogSum.single(Fraction(1), 2)
        bound_enc = bound.enclosure()
        assert g.hi >= -bound_enc.hi - 1e-9, (fam, t, v, x, y, g)


# -- lambda, conductor, L1/L2 ----------------------------------------------------------


def test_lambda_examples():
    assert lambda_local(Fraction(0), Place.finite(3), Fraction(9)).coeff == 2
    assert lambda_local(Fraction(0), Place.finite(3), Fraction(1, 3)).coeff == 0
    assert lambda_local(Infinity, Place.finite(2), Fraction(1, 8)).coeff == 3


def test_lambda_arch_and_errors():
    lv = lambda_local(Fraction(0), INF, Fraction(1, 2))  # log+ |1/(1/2)| = log 2
    assert lv.lo <= math.log(2) <= lv.hi
    lv = lambda_local(Fraction(0), INF, Fraction(3))  # log+ (1/3) = 0
    assert lv.lo == lv.hi == 0.0
    with pytest.raises(DomainError):
        lambda_local(Fraction(2), Place.finite(3), Fraction(2))
    # a = infinity, t = 0: maximally far from infinity, every lambda is 0
    assert lambda_local(Infinity, Place.finite(5), Fraction(0)).coeff == 0


def test_lambda_nonnegative_and_sum_bound():
    # sum over places of lambda_[a](t) <= h(t) + h(a) + log 2, with the
    # explicit O_a(1); checked over random rational a, t
    rng = random.Random(5007)
    for _ in range(300):
        a = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        t = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        if t == a:
            continue
        s = t - a
        # places where lambda can be nonzero: primes dividing the numerator of t - a
        places = [INF] + [Place.finite(p) for p in support(Fraction(abs(s.numerator)))]
        total = 0.0
        for v in places:
            lv = lambda_local(a, v, t)
            enc = lv.enclosure()
            assert enc.hi >= enc.lo >= -1e-15
            total += enc.hi
        bound = (
            float(naive_height(t)) + float(naive_height(a)) + math.log(2) + 1e-9
        )
        assert total <= bound, (a, t, total, bound)


def test_conductor_examples():
    assert conductor_count(Fraction(0), [INF], Fraction(12)) == LogSum(
        {2: Fraction(1), 3: Fraction(1)}
    )
    assert conductor_count(Fraction(0), [INF, Place.finite(2)], Fraction(12)) == (
        LogSum.single(Fraction(1), 3)
    )
    assert conductor_count(Fraction(1), [INF], Fraction(10)) == LogSum.single(
        Fraction(1), 3
    )
    assert conductor_count(Infinity, [INF], Fraction(0)).is_zero()
    with pytest.raises(DomainError):
        conductor_count(Fraction(3), [INF], Fraction(3))


def test_l1_l2_examples():
    cov = analyze_cover([Fraction(1)], [Fraction(0), Fraction(1)])  # 1/t, pole {0}
    l1, l2 = l1_l2_split(cov, 2, [INF], Fraction(1, 8))
    assert l1.is_zero() and l2.is_zero()
    l1, l2 = l1_l2_split(cov, 2, [INF], Fraction(8))
    assert l1 == LogSum.single(Fraction(3), 2) and l2.is_zero()
    l1, l2 = l1_l2_split(cov, 2, [INF], Fraction(4))
    assert l1.is_zero() and l2 == LogSum.single(Fraction(1), 2)


def test_l1_l2_grouped_conjugates_and_errors():
    # 1/(1+t^5): rational pole -1 and an irreducible quartic pole group
    cov = analyze_cover([Fraction(1)], [Fraction(1), 0, 0, 0, 0, Fraction(1)])
    l1, l2 = l1_l2_split(cov, 2, [INF], Fraction(1))
    # q1(t) = t+1 -> 2 (v2 = 1, odd); quartic(1) = 1 (no contribution)
    assert l1 == LogSum.single(Fraction(1), 2) and l2.is_zero()
    with pytest.raises(DomainError):
        l1_l2_split(cov, 2, [INF], Fraction(-1))


def test_l1_l2_skips_e_divisible_orders():
    # pole order 2 with e = 2 is not prime to e: contributes nothing
    cov = analyze_cover([Fraction(1)], [Fraction(1), Fraction(2), Fraction(1)])
    l1, l2 = l1_l2_split(cov, 2, [INF], Fraction(1))
    assert l1.is_zero() and l2.is_zero()
