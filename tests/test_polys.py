"""Dense exact polynomial helpers: arithmetic, factoring, resultants and
discriminants."""
import random
from fractions import Fraction

import pytest
import sympy

from heightforge import _polys as P
from heightforge.errors import DomainError


def _rand_poly(rng, deg, lo=-9, hi=9, monic=False):
    c = [Fraction(rng.randint(lo, hi), rng.randint(1, 4)) for _ in range(deg)]
    c.append(Fraction(1) if monic else Fraction(rng.choice([1, 2, 3, -1])))
    return P.poly(c)


def test_poly_normalization():
    assert P.poly([1, 2, 0, 0]) == (Fraction(1), Fraction(2))
    assert P.poly([0, 0]) == ()
    assert P.degree(()) == -1
    assert P.degree((Fraction(5),)) == 0
    assert P.poly(["1/2", 3]) == (Fraction(1, 2), Fraction(3))


def test_evaluate_horner():
    f = P.poly([1, -2, 3])  # 3x^2 - 2x + 1
    assert P.evaluate(f, Fraction(2)) == 9
    assert P.evaluate((), Fraction(5)) == 0


def test_ring_ops():
    rng = random.Random(1)
    for _ in range(100):
        f = _rand_poly(rng, rng.randint(0, 5))
        g = _rand_poly(rng, rng.randint(0, 5))
        x = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        assert P.evaluate(P.mul(f, g), x) == P.evaluate(f, x) * P.evaluate(g, x)
        assert P.evaluate(P.scale(f, Fraction(3, 2)), x) == Fraction(3, 2) * P.evaluate(f, x)


def test_division_gcd_and_derivative():
    rng = random.Random(2)
    for _ in range(100):
        f = _rand_poly(rng, rng.randint(0, 6))
        g = _rand_poly(rng, rng.randint(0, 4))
        h = _rand_poly(rng, rng.randint(0, 3), monic=True)
        q, r = P.divmod_poly(f, g)
        # f = q g + r at 7 points, which fixes a polynomial of degree <= 6
        assert all(P.evaluate(f, x) == P.evaluate(q, x) * P.evaluate(g, x) + P.evaluate(r, x)
                   for x in map(Fraction, range(-3, 4)))
        assert P.degree(r) < P.degree(g)
        assert P.exact_div(P.mul(f, g), g) == f
        # gcd(h f, h g) = h times gcd(f, g), monic
        common = P.gcd(P.mul(h, f), P.mul(h, g))
        assert common[-1] == 1 and P.divmod_poly(common, h)[1] == ()
        assert P.divmod_poly(P.mul(h, f), common)[1] == ()
    assert P.gcd((), ()) == ()
    assert P.derivative(P.poly([5, 3, 0, 2])) == P.poly([3, 0, 6])
    assert P.derivative(P.poly([5])) == ()
    with pytest.raises(DomainError):
        P.exact_div(P.poly([1, 0, 1]), P.poly([1, 1]))


def test_clear_denominators():
    f = P.poly(["1/6", "3/4", 2])
    g, m = P.clear_denominators(f)
    assert m == 12
    assert g == P.poly([2, 9, 24])
    assert all(type(c) is int for c in g)


def test_factor_over_q_reconstructs():
    rng = random.Random(5)
    for _ in range(40):
        f = _rand_poly(rng, rng.randint(1, 5))
        content, facs = P.factor_over_q(f)
        rebuilt = P.poly([content])
        for fac, mult in facs:
            for _ in range(mult):
                rebuilt = P.mul(rebuilt, fac)
        assert rebuilt == f
        for fac, _ in facs:
            assert all(c.denominator == 1 for c in fac)
            assert fac[-1] > 0


def test_factor_over_q_linear_matches_sympy():
    # degree 1 is factored without sympy: content sign(a) gcd / M and the
    # primitive integer factor with positive lead
    rng = random.Random(11)
    cases = [P.poly([3, -6]), P.poly(["-1/2", "3/4"]), P.poly([0, "-5/7"]), P.poly([1, 1])]
    for _ in range(300):
        lead = Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**6), rng.randint(1, 10**4))
        cases.append(P.poly([Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)), lead]))
    for f in cases:
        content, factors = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                                       for c in reversed(f)], sympy.Symbol("x")).factor_list()
        expected = [(P.poly([Fraction(c.p, c.q) for c in reversed(fac.all_coeffs())]), int(m))
                    for fac, m in factors]
        assert P.factor_over_q(f) == (Fraction(content.p, content.q), expected), f


def test_factor_over_q_known():
    # x^5 + 1 = (x + 1)(x^4 - x^3 + x^2 - x + 1)
    _, facs = P.factor_over_q(P.poly([1, 0, 0, 0, 0, 1]))
    assert [(P.degree(f), m) for f, m in facs] == [(1, 1), (4, 1)]
    # x^4 + 1 irreducible
    _, facs4 = P.factor_over_q(P.poly([1, 0, 0, 0, 1]))
    assert [(P.degree(f), m) for f, m in facs4] == [(4, 1)]


def test_resultant_multiplicative():
    rng = random.Random(6)
    for _ in range(50):
        f = _rand_poly(rng, rng.randint(1, 3))
        g1 = _rand_poly(rng, rng.randint(1, 2))
        g2 = _rand_poly(rng, rng.randint(1, 2))
        lhs = P.resultant(f, P.mul(g1, g2))
        rhs = P.resultant(f, g1) * P.resultant(f, g2)
        assert lhs == rhs


def test_resultant_root_product():
    # Res(f, g) = lead(f)^deg g * prod_{f(a)=0} g(a); check on split fixtures
    f = P.poly([-6, 5, 1])  # (x + 6)(x - 1)
    g = P.poly([-2, 0, 1])  # x^2 - 2
    expected = P.evaluate(g, Fraction(-6)) * P.evaluate(g, Fraction(1))
    assert P.resultant(f, g) == expected
    # common root -> 0
    assert P.resultant(P.poly([-1, 1]), P.poly([-1, 0, 1])) == 0


def test_resultant_formal_degrees():
    # Res_{m,n} with zero-padded inputs: Res(f, c) at formal degree n = 0 is c^m
    f = P.poly([1, 1])  # x + 1
    assert P.resultant(f, (Fraction(3),), m=1, n=0) == 3
    # padding g = 3 to formal degree 2: the Sylvester block for g degenerates
    # to its constant row and the determinant stays consistent with the matrix
    mat = P.sylvester_matrix(f, (Fraction(3),), 1, 2)
    assert P.det_exact(mat) == P.resultant(f, (Fraction(3),), m=1, n=2) == 3
    # padding g by one zero leading coefficient multiplies Res by lead(f)
    f2 = P.poly([1, 2])  # 2x + 1
    g = P.poly([-2, 1])  # x - 2
    assert P.resultant(f2, g, m=1, n=2) == f2[-1] * P.resultant(f2, g, m=1, n=1)


def test_discriminant_known_forms():
    rng = random.Random(7)
    for _ in range(40):
        b = Fraction(rng.randint(-9, 9))
        c = Fraction(rng.randint(-9, 9))
        assert P.discriminant(P.poly([c, b, 1])) == b * b - 4 * c
        pq = P.poly([c, b, 0, 1])  # x^3 + bx + c
        assert P.discriminant(pq) == -4 * b**3 - 27 * c**2
    # scaling: disc(a f) = a^(2n-2) disc(f)
    f = P.poly([3, 1, 0, 1])
    assert P.discriminant(P.scale(f, Fraction(5))) == Fraction(5) ** 4 * P.discriminant(f)


def test_det_exact_matches_sympy():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(1, 5)
        mat = [[Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            mat[-1] = mat[0][:]  # singular
        expected = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row]
                                 for row in mat]).det()
        assert P.det_exact(mat) == Fraction(int(expected.p), int(expected.q))
