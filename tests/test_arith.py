"""Exact arithmetic substrate: rationals, places, valuations, log sums,
least root valuations."""
import math
import random
import time
from fractions import Fraction

import mpmath
import pytest
import sympy

from heightforge import arith
from heightforge.arith import (
    INF,
    LocalValue,
    LogSum,
    Place,
    factor_integer,
    factor_rational,
    format_rational,
    is_prime,
    least_root_valuation,
    log_plus,
    padic_valuation,
    parse_rational,
    support,
    vp_or_none,
)
from heightforge.errors import BudgetExceeded, DomainError, SpecError

PSI_13 = 3317044064679887385961981  # = 1287836182261 * 2575672364521


# -- rational parsing --------------------------------------------------------


def test_parse_format_roundtrip():
    rng = random.Random(101)
    for _ in range(200):
        q = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
        assert parse_rational(format_rational(q)) == q
    assert parse_rational("-3/7") == Fraction(-3, 7)
    assert parse_rational("5") == 5
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-1, 3)) == "-1/3"


def test_parse_rational_rejects_garbage():
    for bad in ["", "1/0", "x", "1.5.2", "2/3/4", True, False, 2.5]:
        with pytest.raises(SpecError):
            parse_rational(bad)


def test_parse_integers_past_the_str_digit_limit():
    # int() reads at most 4 300 digits of text; a longer plain decimal integer
    # is read through Decimal, so every printed rational reads back
    for n in (10**4299 + 7, 1 - 10**4300, 10**4300, 7 * 10**20000 + 3):
        assert parse_rational(format_rational(n)) == n
        assert parse_rational(f" {format_rational(n)} / 3") == Fraction(n, 3)
        assert parse_rational(f"3/{format_rational(n)}") == Fraction(3, n)
    assert parse_rational("+" + "9" * 5000) == 10**5000 - 1
    assert Place.parse("0" * 5000 + "7") == Place.finite(7)
    # a long text that is not a plain decimal integer is still malformed
    for bad in ("1_" + "0" * 5000, "1" * 5000 + "x", "1" * 5000 + ".0"):
        with pytest.raises(SpecError, match="not a rational"):
            parse_rational(bad)
    # past the cap a text is refused before it is converted
    huge = "1" * (arith._MAX_INTEGER_DIGITS + 1)
    for call in (lambda: parse_rational(huge), lambda: parse_rational("1/-" + huge),
                 lambda: Place.parse(huge)):
        with pytest.raises(SpecError, match="longer than"):
            call()


# -- primes and factoring ----------------------------------------------------


def test_is_prime_small_range():
    for n in range(-2, 2000):
        assert is_prime(n) == sympy.isprime(n)


def test_is_prime_large_random():
    rng = random.Random(202)
    for _ in range(60):
        n = rng.randint(10**12, 10**15)
        assert is_prime(n) == sympy.isprime(n)


def test_is_prime_proves_or_refuses():
    # psi_9 and psi_12 are strong pseudoprimes to the first 9 and 12 prime
    # bases, so a later base proves them composite; psi_13 passes all 13
    psi_9, psi_12 = 3825123056546413051, 318665857834031151167461
    assert not is_prime(psi_9) and not is_prime(psi_12)
    rng = random.Random(203)
    samples = [rng.randrange(10**15, PSI_13) for _ in range(200)]
    samples += [sympy.nextprime(rng.randrange(10**15, PSI_13 // 2)) for _ in range(30)]
    samples.append(sympy.prevprime(PSI_13))
    for n in samples:
        assert is_prime(n) == sympy.isprime(n)
    for n in (PSI_13, sympy.nextprime(PSI_13)):  # composite or prime, not provable here
        with pytest.raises(BudgetExceeded, match=f"cannot prove {n} prime"):
            is_prime(n)
    assert not is_prime(PSI_13 + 2)  # a base still refutes a composite above the bound
    with pytest.raises(BudgetExceeded):
        factor_integer(7 * PSI_13)
    with pytest.raises(BudgetExceeded):
        Place.finite(PSI_13)


def test_factor_integer_matches_sympy():
    rng = random.Random(303)
    samples = [2, 3, 4, 12, 360, 2**20, 10**12 + 39]
    samples += [rng.randint(2, 10**12) for _ in range(40)]
    p, q = 100000007, 998244353  # nine-digit primes: powers of pq reach Pollard rho
    samples += [(p * q) ** 2, (p * q) ** 3]
    samples += [rng.randint(2, 10**18) for _ in range(1000)]
    primes = [sympy.nextprime(rng.randrange(10**8, 10**9 - 10**3)) for _ in range(40)]
    samples += [a * b for a, b in zip(primes[::2], primes[1::2])]  # 20 rho splits
    for n in samples:
        mine = factor_integer(n)
        assert mine == dict(sympy.factorint(n))
        # keys sorted, exponents positive, product reconstructs n
        assert list(mine) == sorted(mine)
        assert math.prod(p**e for p, e in mine.items()) == n


def test_factor_integer_edge_cases():
    assert factor_integer(1) == {}
    with pytest.raises(DomainError):
        factor_integer(0)
    assert factor_integer(-12) == {2: 2, 3: 1}


def test_factor_rational_matches_sympy():
    rng = random.Random(304)
    p, q = 100000007, 998244353
    samples = [Fraction(1), Fraction(-1), Fraction(-12), Fraction(6, 35), Fraction(-81, (p * q) ** 2)]
    for _ in range(100):
        den = 1 if rng.random() < 0.3 else rng.randint(1, 10**12)  # integers too
        samples.append(Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**12), den))
    for r in samples:
        mine = factor_rational(r)
        ref = sympy.factorrat(sympy.Rational(r.numerator, r.denominator))
        assert mine == {p: k for p, k in ref.items() if p != -1}
        assert list(mine) == sorted(mine) and support(r) == list(mine)
    with pytest.raises(DomainError):
        factor_rational(Fraction(0))


def test_support():
    assert support(Fraction(6, 35)) == [2, 3, 5, 7]
    assert support(Fraction(1)) == []
    assert support(Fraction(-8)) == [2]
    with pytest.raises(DomainError):
        support(Fraction(0))


# -- places ------------------------------------------------------------------


def test_place_construction_and_parse():
    assert INF.is_archimedean
    assert str(INF) == "inf"
    p7 = Place.finite(7)
    assert not p7.is_archimedean and p7.prime == 7
    assert Place.parse("inf") == INF
    assert Place.parse("7") == p7
    with pytest.raises(SpecError):
        Place.finite(4)
    with pytest.raises(SpecError):
        Place.parse("abc")


def test_place_sorting():
    places = [Place.finite(5), INF, Place.finite(2), Place.archimedean()]
    ordered = sorted(places, key=Place.sort_key)
    assert ordered[0].is_archimedean and ordered[1].is_archimedean
    assert [pl.prime for pl in ordered[2:]] == [2, 5]


# -- valuations and the product formula ---------------------------------------


def test_padic_valuation_basics():
    assert padic_valuation(Fraction(12), 2) == 2
    assert padic_valuation(Fraction(5, 8), 2) == -3
    assert padic_valuation(Fraction(7, 3), 5) == 0
    with pytest.raises(DomainError):
        padic_valuation(Fraction(0), 2)
    assert vp_or_none(Fraction(0), 2) is None


def test_valuation_additive():
    rng = random.Random(404)
    for _ in range(100):
        a = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        b = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        for p in (2, 3, 5, 7):
            assert padic_valuation(a * b, p) == padic_valuation(a, p) + padic_valuation(b, p)


def test_product_formula_exact():
    # |q|_inf * prod_p |q|_p = 1, i.e. |q| = prod_p p^(v_p(q)) exactly
    rng = random.Random(505)
    for _ in range(100):
        q = Fraction(rng.randint(1, 10**9), rng.randint(1, 10**9))
        prod = Fraction(1)
        for p in support(q):
            prod *= Fraction(p) ** padic_valuation(q, p)
        assert prod == abs(q)


# -- LocalValue / LogSum ------------------------------------------------------


def test_local_value_roundtrip_and_enclosure():
    lv = LocalValue.exact(Fraction(3, 2), 2)
    assert LocalValue.from_json(lv.to_json()) == lv
    enc = lv.enclosure()
    assert enc.lo <= 1.5 * math.log(2) <= enc.hi
    assert enc.width < 1e-12

    iv_val = LocalValue.interval(0.5, 0.75)
    assert LocalValue.from_json(iv_val.to_json()) == iv_val
    assert iv_val.enclosure().lo == 0.5

    zero = LocalValue.exact(Fraction(0), 3)
    assert zero.enclosure().lo == 0.0 == zero.enclosure().hi


def test_logsum_compare_exact():
    # 2^3 < 3^2  =>  (3/2) log 2 < log 3
    a = LogSum.single(Fraction(3, 2), 2)
    b = LogSum.single(Fraction(1), 3)
    assert a.compare(b) == -1
    assert b.compare(a) == 1
    # log 2 + log 3 > log 5
    c = LogSum({2: Fraction(1), 3: Fraction(1)})
    assert c.compare(LogSum.single(Fraction(1), 5)) == 1
    # 3 log 2 = log 8 is the same formal sum: equality
    assert LogSum.single(Fraction(3), 2) == LogSum({2: Fraction(3)})
    assert LogSum.zero().compare(LogSum.zero()) == 0
    # near-tie that floats would struggle with: compare 485 log 3 vs 769 log 2
    # (3^485 vs 2^769; ratio within 2e-4 of 1)
    big_a = LogSum.single(Fraction(485), 3)
    big_b = LogSum.single(Fraction(769), 2)
    assert big_a.compare(big_b) == (1 if 3**485 > 2**769 else -1)
    # clearing the denominators 6^6 and 7^6 would build integers of about
    # 5.5e9 bits; the enclosure decides at once
    small = LogSum({2: Fraction(46655, 46656)})
    large = LogSum({3: Fraction(117648, 117649)})
    assert small.compare(large) == -1 and large.compare(small) == 1


def _log3_log2_convergents(max_bits):
    """Continued-fraction convergents p/q of log 3 / log 2, read from its
    40 000-bit value (exact for q below about 2^20000), up to max_bits."""
    with mpmath.workprec(40000):
        man, exp = (mpmath.log(3) / mpmath.log(2)).man_exp
    x = Fraction(man) * Fraction(2) ** exp
    (p0, q0), (p1, q1) = (1, 0), (0, 1)
    num, den = x.numerator, x.denominator
    out = []
    while q0.bit_length() <= max_bits:
        a, rest = divmod(num, den)
        p0, p1, q0, q1 = a * p0 + p1, p0, a * q0 + q1, q0
        num, den = den, rest
        out.append((p0, q0))
    return out


def test_logsum_compare_refines_to_its_limit(monkeypatch):
    # p log 2 - q log 3 is about 1/q for a convergent p/q of log 3 / log 2, so
    # compare doubles its precision from 120 bits until the enclosure leaves 0
    precs = []
    enclosure = LogSum.enclosure
    monkeypatch.setattr(LogSum, "enclosure",
                        lambda self, prec: precs.append(prec) or enclosure(self, prec))
    by_bits = {q.bit_length(): (p, q) for p, q in _log3_log2_convergents(8201)}

    def compare_to_zero(bits, last_prec):
        p, q = by_bits[bits]
        precs.clear()
        start = time.perf_counter()
        try:
            return LogSum({2: p, 3: -q}).compare(LogSum.zero())
        finally:
            # a bounded ladder: the 15 360-bit case takes about 0.08 s on a
            # 2-core x86 box
            assert time.perf_counter() - start < 1.0
            assert precs == [120 * 2**k for k in range(len(precs))]
            assert precs[-1] == last_prec

    for bits, last_prec in [(59, 240), (1000, 3840)]:
        p, q = by_bits[bits]
        with mpmath.workprec(40000):
            expected = int(mpmath.sign(p * mpmath.log(2) - q * mpmath.log(3)))
        assert compare_to_zero(bits, last_prec) == expected
    # the doubling after 15 360 bits would pass _COMPARE_MAX_PREC = 16 384
    with pytest.raises(BudgetExceeded, match="not separated from 0 at 16384 bits"):
        compare_to_zero(8201, 15360)


def test_logsum_enclosure_contains_float():
    rng = random.Random(606)
    for _ in range(50):
        terms = {
            p: Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            for p in rng.sample([2, 3, 5, 7, 11, 13], k=3)
        }
        ls = LogSum(terms)
        enc = ls.enclosure()
        ref = sum(float(c) * math.log(p) for p, c in terms.items())
        assert enc.lo - 1e-9 <= ref <= enc.hi + 1e-9
        # endpoints are float64, so a few ulps is the best possible width
        assert enc.width < 1e-13 * max(1.0, abs(ref))


def test_logsum_algebra():
    a = LogSum({2: Fraction(1, 2), 5: Fraction(-2)})
    b = LogSum({2: Fraction(-1, 2), 3: Fraction(4)})
    s = a + b
    assert s.terms == {5: Fraction(-2), 3: Fraction(4)}
    assert a.scale(Fraction(0)).is_zero()
    assert a.scale(Fraction(2)).terms == {2: Fraction(1), 5: Fraction(-4)}


# -- log+ ---------------------------------------------------------------------


def test_log_plus_finite():
    # |1/8|_2 = 8 -> 3 log 2
    lv = log_plus(Fraction(1, 8), Place.finite(2))
    assert lv.is_exact and lv.coeff == 3 and lv.prime == 2
    # |8|_2 = 1/8 <= 1 -> 0
    assert log_plus(Fraction(8), Place.finite(2)).coeff == 0
    assert log_plus(Fraction(0), Place.finite(5)).coeff == 0
    assert log_plus(Fraction(7, 3), Place.finite(5)).coeff == 0


def test_log_plus_archimedean():
    lv = log_plus(Fraction(-5), INF)
    assert not lv.is_exact
    assert lv.lo <= math.log(5) <= lv.hi
    small = log_plus(Fraction(1, 2), INF)
    assert small.lo == 0.0 == small.hi
    one = log_plus(Fraction(-1), INF)
    assert one.lo == 0.0 == one.hi


# -- least root valuations -----------------------------------------------------------


def _greedy_polygon(vals):
    """Independent lower-hull construction: repeatedly take the minimal-slope
    segment (longest on ties) from the current vertex."""
    pts = [(i, Fraction(v)) for i, v in enumerate(vals) if v is not None]
    out = []
    cur = 0
    while cur < len(pts) - 1:
        x0, y0 = pts[cur]
        best = None
        best_j = None
        for j in range(cur + 1, len(pts)):
            s = Fraction(pts[j][1] - y0, pts[j][0] - x0)
            if best is None or s < best or (s == best):
                best = s
                best_j = j
        out.append((-best, pts[best_j][0] - x0))
        cur = best_j
    out.sort(key=lambda sm: sm[0])
    # merge equal valuations
    merged = []
    for v, m in out:
        if merged and merged[-1][0] == v:
            merged[-1] = (v, merged[-1][1] + m)
        else:
            merged.append((v, m))
    return merged


def test_least_root_valuation_against_greedy_oracle():
    # the least root valuation is the oracle's first (least) valuation, and
    # None for a monomial, whose polygon has no face
    rng = random.Random(707)
    monomials = 0
    for _ in range(3000):
        n = rng.randint(0, 9)
        p_zero = rng.choice([0.25, 0.9])
        vals = [None if i < n and rng.random() < p_zero else rng.randint(-8, 8)
                for i in range(n + 1)]
        points = [(i, v) for i, v in enumerate(vals) if v is not None]
        polygon = _greedy_polygon(vals)
        got = least_root_valuation(points)
        if len(points) == 1:
            monomials += 1
            assert polygon == [] and got is None
        else:
            assert got == polygon[0][0]
    assert monomials > 300


def test_least_root_valuation_recovers_constructed_roots():
    # f = c * prod (x - p^{k_i}): root valuations are exactly the k_i, so the
    # least is min k and the greatest, minus the least of the reversal
    # x^n f(1/x), is max k
    rng = random.Random(808)
    for _ in range(120):
        p = rng.choice([2, 3, 5, 7])
        ks = [rng.randint(-3, 3) for _ in range(rng.randint(1, 6))]
        coeffs = [Fraction(1)]
        for k in ks:
            root = Fraction(p) ** k
            # multiply by (x - root)
            new = [Fraction(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                new[i + 1] += c
                new[i] -= c * root
            coeffs = new
        scalef = Fraction(p) ** rng.randint(-2, 2) * rng.choice([1, -1])
        coeffs = [c * scalef for c in coeffs]
        n = len(coeffs) - 1
        points = [(i, vp_or_none(c, p)) for i, c in enumerate(coeffs) if c]
        reversal = [(n - i, v) for i, v in reversed(points)]
        assert least_root_valuation(points) == min(ks)
        assert -least_root_valuation(reversal) == max(ks)
