"""Certified float intervals and capped-precision p-adic numbers."""
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath.libmp import (
    from_man_exp, from_rational, mpi_add, mpi_log, mpi_mul, round_nearest, to_float,
)

from heightforge._intervals import (
    Interval,
    dy_abs,
    dy_add,
    dy_from_fraction,
    dy_mul,
    dy_round,
    from_iv,
    iv_from_fraction,
    log_interval,
    log_prime,
    log_prime_iv,
)
from heightforge._padics import PAdic
from heightforge.arith import INF, LocalValue, LogSum, log_plus, padic_valuation
from heightforge.errors import PrecisionLoss


# -- intervals ----------------------------------------------------------------


def test_interval_basics():
    a = Interval(1.0, 2.0)
    assert a.contains(1.5) and not a.contains(2.5)
    assert a.mid == 1.5
    assert Interval.zero().width == 0.0
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)


def test_interval_arithmetic_containment():
    rng = random.Random(11)
    for _ in range(300):
        x = rng.uniform(-10, 10)
        y = rng.uniform(-10, 10)
        a = Interval(x, x + abs(rng.gauss(0, 1)))
        b = Interval(y, y + abs(rng.gauss(0, 1)))
        s = a + b
        assert s.lo <= a.lo + b.lo and a.hi + b.hi <= s.hi
        d = a - b
        assert d.lo <= a.lo - b.hi and a.hi - b.lo <= d.hi
        n = -a
        assert n.lo == -a.hi and n.hi == -a.lo


def test_interval_scale():
    a = Interval(1.0, 3.0)
    s = a.scale(Fraction(-2))
    assert s.lo <= -6.0 and s.hi >= -2.0
    assert s.lo >= -6.0 - 1e-12 and s.hi <= -2.0 + 1e-12
    z = a.scale(Fraction(0))
    assert z.lo == 0.0 == z.hi
    third = Interval(3.0, 3.0).scale(Fraction(1, 3))
    assert third.contains(1.0) and third.width < 1e-12
    # past the float range an endpoint is an infinity of its sign, pushed
    # outward as a float (so +inf pushed down is the largest float)
    assert Interval(1e308, 1.5e308).scale(10) == Interval(1.7976931348623157e+308, math.inf)
    assert Interval(-1.5e308, 1e308).scale(-10) == Interval(-math.inf, math.inf)
    assert Interval(1e-300, 2e-300).scale(Fraction(1, 10**30)) == Interval(-5e-324, 5e-324)
    assert Interval(0.1, 0.7).scale(Fraction(1, 3**400)) == Interval(
        1.417418549953858e-192, 9.921929849677009e-192)
    assert Interval(2.0, math.inf).scale(Fraction(-1, 3)) == Interval(
        -math.inf, math.nextafter(-2 / 3, math.inf))


def _nearest(q: Fraction) -> float:
    """q rounded to nearest, ties to even: libmp's 53-bit rounding, then an
    exact choice among it and its two neighbours (below the normal range
    libmp's float conversion rounds a second time)."""
    if abs(q) >= 2**1024 - 2**970:  # halfway past the largest float, and beyond
        return math.inf if q > 0 else -math.inf
    f = to_float(from_rational(q.numerator, q.denominator, 53, round_nearest))
    f = math.copysign(sys.float_info.max, f) if math.isinf(f) else f
    near = [c for c in (math.nextafter(f, -math.inf), f, math.nextafter(f, math.inf))
            if not math.isinf(c)]
    return min(near, key=lambda c: (abs(Fraction(c) - q), int(c / math.ulp(c)) % 2))


_SCALARS = st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**40)) | (
    st.sampled_from([Fraction(1, 3**400), Fraction(-7, 2**1100), Fraction(10**300, 7),
                     Fraction(-1), Fraction(1, 10**30)]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(a=st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0]),
       b=st.floats(allow_nan=False, allow_infinity=False), r=_SCALARS)
def test_interval_scale_is_the_exact_product_rounded_outward(a, b, r):
    iv = Interval(min(a, b), max(a, b))
    s = iv.scale(r)
    if r == 0:
        assert s == Interval.zero()
        return
    # the exact product rounded to nearest, then one ulp outward
    lo, hi = (iv.lo, iv.hi) if r > 0 else (iv.hi, iv.lo)
    assert s.lo == math.nextafter(_nearest(Fraction(lo) * r), -math.inf)
    assert s.hi == math.nextafter(_nearest(Fraction(hi) * r), math.inf)
    # so it contains the exact product of every endpoint
    for x in (iv.lo, iv.hi):
        exact = Fraction(x) * r
        assert s.lo == -math.inf or Fraction(s.lo) <= exact
        assert s.hi == math.inf or exact <= Fraction(s.hi)


def test_interval_clamp():
    assert Interval(-1.0, 2.0).clamp_nonneg() == Interval(0.0, 2.0)
    assert Interval(-3.0, -1.0).clamp_nonneg() == Interval(0.0, 0.0)
    assert Interval(1.0, 2.0).clamp_nonneg() == Interval(1.0, 2.0)


def test_log_interval_contains_truth():
    rng = random.Random(22)
    for _ in range(100):
        q = Fraction(rng.randint(1, 10**12), rng.randint(1, 10**12))
        enc = log_interval(q)
        # compare against the exact log via high-precision float reference
        ref = math.log(q.numerator) - math.log(q.denominator)
        assert enc.lo - 1e-9 <= ref <= enc.hi + 1e-9
        assert enc.width < 1e-15 * max(1.0, abs(ref)) + 1e-18


def test_log_interval_huge_values():
    q = Fraction(2) ** 200
    enc = log_interval(q)
    ref = 200 * math.log(2)
    assert enc.lo <= ref <= enc.hi
    assert enc.width < 1e-10


def test_log_prime_is_log_interval_cached():
    # small and nine-digit primes, each read cold and then from the cache
    primes = (2, 3, 7, 101, 999999937, 999999929)
    log_prime_iv.cache_clear()
    for p in primes * 2:
        assert log_prime(p) == log_interval(Fraction(p))
    info = log_prime_iv.cache_info()
    assert (info.misses, info.hits) == (len(primes), len(primes))
    assert info.maxsize is not None and info.currsize <= info.maxsize
    # LogSum reads the same (prime, precision) entries: log 7 at DEFAULT_PREC
    # is read twice more, and at 240 bits it is computed once, then read
    log7 = LogSum.single(Fraction(1), 7)
    assert log7.enclosure() == log_prime(7)
    assert log7.enclosure(240) == log7.enclosure(240) == log_interval(Fraction(7), 240)
    info = log_prime_iv.cache_info()
    assert (info.misses, info.hits) == (len(primes) + 1, len(primes) + 3)
    # the pair is one floor-rounded log and the next number up, which is
    # libmp's pair of two directed logs
    for p in primes:
        for prec in (53, 120, 1000):
            assert log_prime_iv(p, prec) == mpi_log(iv_from_fraction(p, prec), prec)
    # an exact multiple of log p encloses through the cache
    assert LocalValue.exact(Fraction(3, 2), 999999937).enclosure() == (
        log_interval(Fraction(999999937)).scale(Fraction(3, 2)))


def test_log_plus_interval():
    # exactly 0 for |q| <= 1, an exact rational comparison
    for q in (Fraction(1, 2), Fraction(-1), Fraction(0)):
        assert log_plus(q, INF) == LocalValue.interval(0.0, 0.0)
    enc = log_plus(Fraction(-7, 2), INF).enclosure()
    assert enc.lo <= math.log(3.5) <= enc.hi
    assert enc == log_interval(Fraction(7, 2))


def _dy_exact(a) -> tuple[Fraction, Fraction]:
    lo, hi, x = a
    return Fraction(lo) * Fraction(2) ** x, Fraction(hi) * Fraction(2) ** x


def _dy_bits(a) -> int:
    return max(abs(a[0]).bit_length(), abs(a[1]).bit_length())


def test_iv_fraction_containment():
    # exact rational endpoints survive the iv round trip
    qs = [Fraction(1, 3), Fraction(-22, 7), Fraction(10**30, 3), Fraction(0), Fraction(-5),
          Fraction(2**300 + 1, 3**90), Fraction(-1, 10**200), Fraction(7, 2**1000)]
    for q in qs:
        x = iv_from_fraction(q)
        enc = from_iv(x)
        assert enc.lo <= float(q) <= enc.hi
        # the dyadic conversion: the quotient rounded outward to w bits, which
        # is libmp's pair when numerator and denominator fit in w bits
        for w in (20, 53, 120, 240):
            a = dy_from_fraction(q, w)
            lo, hi = _dy_exact(a)
            assert lo <= q <= hi and _dy_bits(a) <= w + 1
            assert lo < q < hi or lo == q == hi
            if max(q.numerator.bit_length(), q.denominator.bit_length()) <= w:
                assert (from_man_exp(a[0], a[2]), from_man_exp(a[1], a[2])) == iv_from_fraction(q, w)


_DYADIC = st.builds(
    lambda m, width, x: (m, m + width, x),
    st.integers(-2**130, 2**130) | st.sampled_from([0, 1, -1]),
    st.integers(0, 2**40) | st.just(0),
    st.integers(-400, 400) | st.sampled_from([3000, -3000]),
)


_WIDE = ((2**119 + 1, 2**119 + 3, 10**6), (-5 * 2**117, 3 * 2**118, -10**6))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(a=_DYADIC, b=_DYADIC, w=st.sampled_from([20, 53, 120, 240]))
# exponents 2 * 10^6 bits apart: the sum rounds the smaller summand onto a
# grid 2w bits below the larger, never shifting left by the gap
@example(a=_WIDE[0], b=_WIDE[1], w=120)
@example(a=_WIDE[1], b=_WIDE[0], w=120)
def test_dyadic_kernel_encloses_the_exact_result(a, b, w):
    a, b = dy_round(*a, w), dy_round(*b, w)
    (alo, ahi), (blo, bhi) = _dy_exact(a), _dy_exact(b)
    assert alo <= ahi and blo <= bhi
    products = [x * y for x in (alo, ahi) for y in (blo, bhi)]
    cases = [(dy_mul(a, b, w), min(products), max(products), mpi_mul),
             (dy_add(a, b, w), alo + blo, ahi + bhi, mpi_add)]
    for out, exact_lo, exact_hi, libmp_op in cases:
        lo, hi = _dy_exact(out)
        assert lo <= exact_lo and exact_hi <= hi
        assert _dy_bits(out) <= 2 * w
        # each endpoint is libmp's at w bits, unless one endpoint is far below
        # the other or an input endpoint is 0
        pairs = [(from_man_exp(v[0], v[2]), from_man_exp(v[1], v[2])) for v in (a, b)]
        ref = libmp_op(*pairs, w)
        tops = [m[2] + m[3] for m in ref if m[1]]
        if 0 not in (a[0], a[1], b[0], b[1]) and len(tops) == 2 and abs(tops[0] - tops[1]) < w - 1:
            assert (from_man_exp(out[0], out[2]), from_man_exp(out[1], out[2])) == ref
    lo, hi = _dy_exact(dy_abs(a, 53))
    assert lo <= min(abs(alo), abs(ahi)) * (alo * ahi > 0) and max(abs(alo), abs(ahi)) <= hi


def test_sum_intervals():
    s = Interval(0.0, 1.0) + Interval(-2.0, -1.0) + Interval(0.25, 0.25)
    assert s.lo <= -1.75 and s.hi >= 0.25
    z = Interval.zero() + Interval.zero()  # pushed one ulp outward
    assert z.contains(0.0) and z.width < 1e-300


# -- p-adic floats --------------------------------------------------------------


def _check_window(x: PAdic, q: Fraction):
    """x encodes q to its stated absolute precision."""
    if x.is_zeroish:
        assert q == 0 or padic_valuation(q, x.p) >= x.abs_prec
        return
    diff = q - Fraction(x.unit) * Fraction(x.p) ** x.k
    assert x.valuation_exact() == padic_valuation(q, x.p)
    if diff != 0:
        assert padic_valuation(diff, x.p) >= x.abs_prec


def test_padic_from_fraction():
    rng = random.Random(33)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 13])
        q = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        if q == 0 or q.denominator % p == 0 and padic_valuation(q, p) < -20:
            continue
        x = PAdic.from_fraction(q, p, abs_prec=padic_valuation(q, p) + 12)
        _check_window(x, q)


def test_padic_zero_encoding():
    z = PAdic.from_fraction(Fraction(0), 5, 8)
    assert z.is_zeroish and z.abs_prec == 8 and z.valuation_exact() is None


def test_padic_add_mul_consistency():
    rng = random.Random(44)
    for _ in range(200):
        p = rng.choice([2, 3, 7])
        qa = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        qb = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        if qa == 0 or qb == 0:
            continue
        prec = max(padic_valuation(qa, p), padic_valuation(qb, p)) + 15
        a = PAdic.from_fraction(qa, p, prec)
        b = PAdic.from_fraction(qb, p, prec)
        try:
            s = a + b
        except PrecisionLoss:
            # only possible under heavy cancellation
            assert qa + qb == 0 or padic_valuation(qa + qb, p) > min(
                padic_valuation(qa, p), padic_valuation(qb, p)
            )
        else:
            _check_window(s, qa + qb)
        m = a * b
        _check_window(m, qa * qb)


def test_padic_exact_cancellation():
    p = 7
    a = PAdic.from_fraction(Fraction(3, 2), p, 10)
    b = PAdic.from_fraction(Fraction(-3, 2), p, 10)
    z = a + b
    assert z.is_zeroish and z.abs_prec == 10
    # multiplying the unknown-zero by something keeps a valuation lower bound
    c = PAdic.from_fraction(Fraction(49), p, 12)
    zc = z * c
    assert zc.is_zeroish and zc.abs_prec == 12


def test_padic_precision_loss_on_deep_cancellation():
    p = 2
    a = PAdic.from_fraction(Fraction(1), p, 10)
    b = PAdic.from_fraction(Fraction(2**9 - 1), p, 10)
    # a + b = 2^9, valuation 9, only one digit of window left
    with pytest.raises(PrecisionLoss):
        _ = a + b
