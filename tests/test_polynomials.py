"""Unit tests for the exact univariate polynomial core."""

import random
from fractions import Fraction

import pytest

from conftest import divides, product
from exactvc.errors import DivisibilityError, UndefinedInputError
from exactvc.polynomials import (
    _PRIME,
    UniPoly,
    _gcd_degree_mod,
    _int_prs_gcd,
    descartes_sign_changes,
    int_linear_product,
    interpolate,
    poly_gcd,
    rat,
    squarefree_part,
    strip_factor,
)


def rand_poly(rng, max_deg=6, var="x"):
    deg = rng.randrange(0, max_deg + 1)
    coeffs = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))
              for _ in range(deg + 1)]
    return UniPoly(coeffs, var)


def test_zero_polynomial_shape():
    z = UniPoly.zero("x")
    assert z.degree == -1
    assert z.is_zero()
    assert z.leading_coeff() == 0
    assert z(Fraction(7, 3)) == 0


def test_trailing_zeros_stripped():
    p = UniPoly([1, 2, 0, 0], "x")
    assert p.degree == 1
    assert p.coeffs == (Fraction(1), Fraction(2))


def test_rat_rejects_float():
    with pytest.raises(TypeError):
        rat(0.1)


def test_rat_decimal_string_exact():
    assert rat("1.25") == Fraction(5, 4)
    assert rat("3/4") == Fraction(3, 4)


def test_arithmetic_matches_pointwise_evaluation():
    rng = random.Random(20250819)
    points = [Fraction(k, 3) for k in range(-6, 7)]
    for _ in range(200):
        p = rand_poly(rng)
        q = rand_poly(rng)
        s, d, m = p + q, p - q, p * q
        for x in points:
            assert s(x) == p(x) + q(x)
            assert d(x) == p(x) - q(x)
            assert m(x) == p(x) * q(x)


def test_pow_matches_repeated_multiplication():
    p = UniPoly([1, 1], "x")
    q = UniPoly.constant(1, "x")
    for k in range(7):
        assert p ** k == q
        q = q * p


def test_derivative_product_rule():
    rng = random.Random(7)
    for _ in range(50):
        p = rand_poly(rng)
        q = rand_poly(rng)
        lhs = (p * q).derivative()
        rhs = p.derivative() * q + p * q.derivative()
        assert lhs == rhs


def test_compose_matches_evaluation():
    rng = random.Random(11)
    for _ in range(50):
        p = rand_poly(rng, max_deg=4)
        inner = rand_poly(rng, max_deg=3)
        comp = p.compose(inner)
        for x in (Fraction(-2), Fraction(0), Fraction(1, 2), Fraction(3)):
            assert comp(x) == p(inner(x))


def test_divmod_identity():
    rng = random.Random(13)
    for _ in range(100):
        p = rand_poly(rng, max_deg=8)
        q = rand_poly(rng, max_deg=4)
        if q.is_zero():
            continue
        quot, rem = p.divmod(q)
        assert p == quot * q + rem
        assert rem.degree < q.degree


def test_exact_divide_roundtrip_and_failure():
    rng = random.Random(17)
    for _ in range(100):
        p = rand_poly(rng, max_deg=5)
        q = rand_poly(rng, max_deg=4)
        if q.is_zero():
            continue
        assert (p * q).exact_divide(q) == p
    with pytest.raises(DivisibilityError):
        UniPoly([1, 0, 1], "x").exact_divide(UniPoly([1, 1], "x"))


def test_primitive_normal_form():
    p = UniPoly([Fraction(-2, 3), Fraction(4, 3), Fraction(-2)], "x")
    prim = p.primitive()
    assert prim.integer_coeffs() == [1, -2, 3]
    # idempotent, and invariant under positive rational scaling
    assert prim.primitive() == prim
    assert (p * Fraction(7, 5)).primitive() == prim
    # negative scaling flips into the same representative
    assert (p * Fraction(-3)).primitive() == prim


def test_gcd_divides_both_and_is_primitive():
    rng = random.Random(19)
    for _ in range(60):
        a = rand_poly(rng, max_deg=4)
        b = rand_poly(rng, max_deg=4)
        c = rand_poly(rng, max_deg=3)
        p, q = a * c, b * c
        if p.is_zero() and q.is_zero():
            continue
        g = poly_gcd(p, q)
        assert divides(g, p) and divides(g, q)
        assert g == g.primitive()
        if not c.is_zero() and not (a.is_zero() and b.is_zero()):
            # the common factor must show up
            assert divides(c.primitive(), g)


def test_gcd_of_coprime_is_constant():
    p = UniPoly([1, 1], "x")          # x + 1
    q = UniPoly([-1, 1], "x")         # x - 1
    assert poly_gcd(p, q).degree == 0


def test_gcd_zero_zero_raises():
    with pytest.raises(UndefinedInputError):
        poly_gcd(UniPoly.zero("x"), UniPoly.zero("x"))


def test_gcd_known_example():
    x = UniPoly.variable("x")
    p = (x - 1) ** 2 * (x + 2)
    q = (x - 1) * (x + 3)
    g = poly_gcd(p, q)
    assert g == (x - 1).primitive()


def test_squarefree_part_strips_multiplicities():
    x = UniPoly.variable("x")
    p = (x - 1) ** 3 * (x + 2) ** 2 * (2 * x + 5)
    sf = squarefree_part(p)
    expected = ((x - 1) * (x + 2) * (2 * x + 5)).primitive()
    assert sf == expected
    # already squarefree input is only normalized
    q = (x - 1) * (x + 4)
    assert squarefree_part(q) == q.primitive()


def test_strip_factor_counts_and_caps_the_multiplicity():
    x = UniPoly.variable("x")
    lin = UniPoly.linear(1, 3, "x")
    rest = (x - 2) * (x + 5)
    p = lin ** 3 * rest * Fraction(-7, 2)
    assert strip_factor(p, lin) == (rest * Fraction(-7, 2), 3)
    assert strip_factor(p, lin, 2) == (lin * rest * Fraction(-7, 2), 2)
    assert strip_factor(p, lin, 0) == (p, 0)
    assert strip_factor(rest, lin) == (rest, 0)
    assert strip_factor(UniPoly.zero("x"), lin) == (UniPoly.zero("x"), 0)
    with pytest.raises(ValueError):
        strip_factor(p, UniPoly.constant(2, "x"))


def test_squarefree_part_constant():
    assert squarefree_part(UniPoly.constant(5, "x")).degree == 0


# ----------------------------------------------------------------------
# Modular coprimality proof and its exact fallback
# ----------------------------------------------------------------------

def _ints(p):
    return p.primitive().integer_coeffs()


def prs_gcd(p, q):
    """The exact primitive-PRS answer, bypassing the modular test."""
    return UniPoly(_int_prs_gcd(_ints(p), _ints(q)), p.var)


def test_modular_test_decides_coprime_pairs():
    rng = random.Random(61)
    for _ in range(40):
        p, q = rand_poly(rng, max_deg=8), rand_poly(rng, max_deg=8)
        if p.degree < 1 or q.degree < 1:
            continue
        g = prs_gcd(p, q)
        if g.degree == 0:
            assert _gcd_degree_mod(_ints(p), _ints(q), _PRIME) == 0
        assert poly_gcd(p, q) == g


def test_gcd_falls_back_when_inputs_share_a_factor_mod_p():
    x = UniPoly.variable("x")
    c = x * x + 3
    pairs = [
        (x, x - _PRIME),                                  # coprime over Q
        ((x - 1) * (x + 2), (x - 1 - _PRIME) * (x + 2 + 5 * _PRIME)),
        (x * c, (x - _PRIME) * c),                        # gcd c over Q
        (3 * x + 1, x + (2 * _PRIME + 1) // 3),           # 3x + 1 mod p
    ]
    for p, q in pairs:
        assert _gcd_degree_mod(_ints(p), _ints(q), _PRIME) > 0
        g = poly_gcd(p, q)
        assert g == prs_gcd(p, q)
        assert divides(g, p) and divides(g, q)
    assert poly_gcd(x, x - _PRIME) == UniPoly.constant(1, "x")
    assert poly_gcd(x * c, (x - _PRIME) * c) == c.primitive()


def test_gcd_falls_back_when_prime_divides_a_leading_coefficient():
    x = UniPoly.variable("x")
    big = _PRIME * x + 1
    cases = [
        (big, x + 2, UniPoly.constant(1, "x")),
        (big * (x - 3), (x - 3) * (x + 5), (x - 3).primitive()),
        (x + 5, big * (x + 5) * (x * x + 1), (x + 5).primitive()),
        (big * (x * x - 2), (2 * _PRIME * x + 7) * (x * x - 2),
         (x * x - 2).primitive()),
    ]
    for p, q, expected in cases:
        assert _ints(p)[-1] % _PRIME == 0 or _ints(q)[-1] % _PRIME == 0
        assert poly_gcd(p, q) == prs_gcd(p, q) == expected


def test_squarefree_part_of_non_squarefree_product():
    x = UniPoly.variable("x")
    rng = random.Random(62)
    for _ in range(15):
        p = UniPoly([rng.randrange(-9, 10) for _ in range(4)] + [1], "x")
        q = UniPoly([rng.randrange(-9, 10) for _ in range(3)] + [2], "x")
        f = p * q * q
        d = f.derivative()
        # gcd(f, f') carries q, so the modular test cannot decide
        assert _gcd_degree_mod(_ints(f), _ints(d), _PRIME) > 0
        assert poly_gcd(f, d) == prs_gcd(f, d)
        sf = squarefree_part(f)
        assert sf == (f.exact_divide(prs_gcd(f, d))).primitive()
        assert squarefree_part(sf) == sf
    # a repeated root next to a root that only meets it mod p
    f = (x - 1) ** 2 * (x - 1 - _PRIME)
    assert squarefree_part(f) == ((x - 1) * (x - 1 - _PRIME)).primitive()


def test_descartes_sign_changes():
    # x^2 - 3x + 2 = (x-1)(x-2): two positive roots, two changes
    assert descartes_sign_changes(UniPoly([2, -3, 1], "x")) == 2
    # x^2 + x + 1: no positive roots
    assert descartes_sign_changes(UniPoly([1, 1, 1], "x")) == 0
    # zeros in the middle are skipped
    assert descartes_sign_changes(UniPoly([-1, 0, 0, 1], "x")) == 1
    with pytest.raises(UndefinedInputError):
        descartes_sign_changes(UniPoly.zero("x"))


def test_product_helper():
    x = UniPoly.variable("x")
    factors = [x + k for k in range(1, 4)]
    assert product(factors, "x") == (x + 1) * (x + 2) * (x + 3)
    assert product([], "x") == UniPoly.constant(1, "x")


def test_int_linear_product_matches_polynomial_product():
    x = UniPoly.variable("x")
    sizes = (1, 3, 4, 9)
    assert (UniPoly(int_linear_product(sizes), "x")
            == product((x * n + 1 for n in sizes), "x"))
    assert int_linear_product(()) == [1]


def test_interpolate_recovers_polynomials_from_values_at_naturals():
    rng = random.Random(77)
    for deg in range(41):
        for rational in (False, True):
            coeffs = [Fraction(rng.randint(-10 ** 9, 10 ** 9),
                               rng.randint(1, 60) if rational else 1)
                      for _ in range(deg)]
            coeffs.append(Fraction(rng.choice([-1, 1]) * rng.randint(1, 99),
                                   rng.randint(1, 60) if rational else 1))
            f = UniPoly(coeffs, "x")
            assert f.degree == deg
            # D above the true degree: the high coefficients trim to zero
            for D in (deg, deg + 1, deg + rng.randint(2, 9)):
                assert interpolate([f(k) for k in range(D + 1)], "x") == f
    for D in (0, 1, 7):
        assert interpolate([0] * (D + 1)).is_zero()
    with pytest.raises(UndefinedInputError):
        interpolate([])


def test_immutability():
    p = UniPoly([1, 2], "x")
    with pytest.raises(AttributeError):
        p.coeffs = (Fraction(9),)


def test_variable_mismatch_rejected():
    p = UniPoly([1, 2], "x")
    q = UniPoly([1, 2], "y")
    with pytest.raises(ValueError):
        p * q
