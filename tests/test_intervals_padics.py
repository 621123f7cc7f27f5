"""Certified float intervals and capped-precision p-adic numbers."""
import math
import random
from fractions import Fraction

import pytest

from heightforge._intervals import (
    Interval,
    from_iv,
    iv_from_fraction,
    log_interval,
    log_prime,
)
from heightforge._padics import PAdic
from heightforge.arith import INF, LocalValue, log_plus, padic_valuation
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
    log_prime.cache_clear()
    for p in primes * 2:
        assert log_prime(p) == log_interval(Fraction(p))
    info = log_prime.cache_info()
    assert (info.misses, info.hits) == (len(primes), len(primes))
    assert info.maxsize is not None and info.currsize <= info.maxsize
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


def test_iv_fraction_containment():
    # exact rational endpoints survive the iv round trip
    for q in [Fraction(1, 3), Fraction(-22, 7), Fraction(10**30, 3)]:
        x = iv_from_fraction(q)
        enc = from_iv(x)
        assert enc.lo <= float(q) <= enc.hi


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
