"""Unit tests for multivariate polynomials and resultant elimination."""

import random
from fractions import Fraction

import pytest

from conftest import naive_determinant
from exactvc.errors import DivisibilityError, UndefinedInputError
from exactvc.multipoly import (
    MultiPoly,
    bareiss_determinant,
    resultant_eliminate,
    sylvester_matrix,
)
from exactvc.polynomials import UniPoly


X = MultiPoly.variable("x", ("x", "y"))
Y = MultiPoly.variable("y", ("x", "y"))


def rand_mpoly(rng, vars=("x", "y"), max_deg=2, max_terms=4):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        mono = tuple(rng.randrange(0, max_deg + 1) for _ in vars)
        terms[mono] = Fraction(rng.randrange(-6, 7))
    return MultiPoly(tuple(sorted(vars)), terms)


def test_basic_arithmetic_and_eval():
    p = X * X + 2 * X * Y - 3
    assert p.evaluate({"x": 2, "y": Fraction(1, 2)}) == 4 + 2 - 3
    assert (p - p).is_zero()
    assert p.degree_in("x") == 2
    assert p.degree_in("y") == 1


def test_variable_alignment():
    px = MultiPoly.variable("x")
    py = MultiPoly.variable("y")
    s = px + py
    assert s.vars == ("x", "y")
    assert s.evaluate({"x": 3, "y": 4}) == 7


def test_arithmetic_matches_pointwise():
    rng = random.Random(20250819)
    for _ in range(80):
        p = rand_mpoly(rng)
        q = rand_mpoly(rng)
        for _ in range(4):
            pt = {"x": Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)),
                  "y": Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))}
            assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)
            assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)


def test_partial_substitution():
    p = X ** 2 * Y + 3 * Y - 5
    q = p.substitute({"x": 2})
    assert q.vars == ("y",)
    assert q.to_unipoly("y") == UniPoly([-5, 7], "y")


def test_coeff_in_reassembles():
    rng = random.Random(3)
    for _ in range(30):
        p = rand_mpoly(rng)
        d = p.degree_in("x")
        x = MultiPoly.variable("x")
        rebuilt = MultiPoly.constant(0)
        for k in range(d + 1):
            c = p.coeff_in("x", k)
            rebuilt = rebuilt + c * x ** k
        assert rebuilt == p


def test_unipoly_roundtrip():
    t = MultiPoly.variable("t")
    p = 5 * t ** 3 - 2 * t + MultiPoly.constant(1, ("t",))
    assert p.to_unipoly("t") == UniPoly([1, -2, 0, 5], "t")
    assert MultiPoly.constant(7).to_unipoly("t") == UniPoly([7], "t")
    with pytest.raises(ValueError):
        (X + Y).to_unipoly("x")


def test_exact_divide_roundtrip_and_failure():
    rng = random.Random(7)
    for _ in range(60):
        p = rand_mpoly(rng)
        q = rand_mpoly(rng)
        if q.is_zero() or p.is_zero():
            continue
        assert (p * q).exact_divide(q) == p
    with pytest.raises(DivisibilityError):
        (X ** 2 + Y).exact_divide(X + 1)


def test_bareiss_matches_naive_determinant():
    rng = random.Random(11)
    zero = MultiPoly.constant(0, ("x", "y"))
    one = MultiPoly.constant(1, ("x", "y"))
    for _ in range(25):
        n = rng.randrange(1, 5)
        m = [[rand_mpoly(rng, max_deg=1, max_terms=2)._embed(("x", "y"))
              for _ in range(n)] for _ in range(n)]
        assert bareiss_determinant(m, zero, one) == naive_determinant(m, zero, one)


def test_bareiss_handles_zero_pivot():
    zero = MultiPoly.constant(0, ("x",))
    one = MultiPoly.constant(1, ("x",))
    x = MultiPoly.variable("x")
    m = [[zero, one], [x, zero]]
    assert bareiss_determinant(m, zero, one) == -x
    # singular matrix
    m2 = [[zero, zero], [x, x]]
    assert bareiss_determinant(m2, zero, one) == zero


def test_bareiss_on_rationals():
    zero, one = Fraction(0), Fraction(1)
    m = [[Fraction(2), Fraction(1)], [Fraction(5), Fraction(3)]]
    det = bareiss_determinant(m, zero, one, exact_div=lambda a, b: a / b)
    assert det == 1


def test_sylvester_shape_and_precondition():
    p = X ** 2 + Y
    q = X * Y - 1
    rows = sylvester_matrix(p, q, "x")
    assert len(rows) == 3 and all(len(r) == 3 for r in rows)
    with pytest.raises(UndefinedInputError):
        sylvester_matrix(p, MultiPoly.variable("y"), "x")


def test_resultant_simple():
    # Res_y(x - y, y - 1) = x - 1 up to sign
    p = X - Y
    q = Y - 1
    r = resultant_eliminate(p, q, "y").to_unipoly("x")
    assert r.primitive() == UniPoly([-1, 1], "x")


def test_resultant_of_poly_with_itself_vanishes():
    p = X ** 2 + Y ** 2 - 1
    assert resultant_eliminate(p, p, "y").is_zero()


def test_resultant_vanishes_at_planted_common_solution():
    rng = random.Random(13)
    for _ in range(30):
        x0 = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        y0 = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        # random bilinear polynomials forced through (x0, y0)
        def through(rng):
            a = Fraction(rng.randrange(1, 6))
            b = Fraction(rng.randrange(-5, 6))
            c = Fraction(rng.randrange(-5, 6))
            const = -(a * x0 * y0 + b * x0 + c * y0)
            return a * X * Y + b * X + c * Y + const
        p = through(rng)
        q = through(rng)
        if p.degree_in("y") < 1 or q.degree_in("y") < 1:
            continue
        r = resultant_eliminate(p, q, "y")
        assert r.evaluate({"x": x0}) == 0


def test_resultant_matches_naive_determinant():
    rng = random.Random(17)
    for _ in range(20):
        p = rand_mpoly(rng, max_deg=1, max_terms=3)
        q = rand_mpoly(rng, max_deg=1, max_terms=3)
        if p.degree_in("y") < 1 or q.degree_in("y") < 1:
            continue
        rows = sylvester_matrix(p, q, "y")
        vs = rows[0][0].vars
        zero = MultiPoly(vs, {})
        one = MultiPoly.constant(1, vs)
        assert (resultant_eliminate(p, q, "y")
                == naive_determinant(rows, zero, one))


def test_immutability():
    with pytest.raises(AttributeError):
        X.terms = {}
