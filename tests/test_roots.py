"""Tests for Descartes-certified root isolation and refinement.

Isolation and refinement certify with Descartes counts on Moebius-mapped
intervals: 0 or 1 sign variation proves 0 or 1 root in the interval; the
continued-fraction count of negative roots rests on the same counts. They
work on the squarefree part, whose squarefreeness is proven when gcd(p, p')
mod a prime dividing neither leading coefficient has degree 0. These tests
check the results against two independent oracles: Sturm counts on
`roots.sturm_chain`, evaluated by the tests' own Fraction Horner
(`conftest.count_roots_between`), and, when sympy is installed, sympy's
`Poly.intervals`.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from conftest import (bisect_to_width_reference, cauchy_bound,
                      count_roots_between, ladder_stats, poly_range_reference,
                      product)
from exactvc.enclosure import Approx
from exactvc.errors import ContractViolationError, UndefinedInputError
from exactvc.oneway import ml_equation, reml_equation
from exactvc.polynomials import (
    UniPoly,
    descartes_sign_changes,
    int_on_interval,
    squarefree_part,
)
from exactvc.roots import (
    RootInterval,
    _bisect_to_width,
    _count_positive_roots,
    _descartes_01,
    isolate_real_roots,
    poly_range,
    refine_interval,
    sturm_chain,
)


def sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


_X = UniPoly([0, 1], "x")


def poly_with_roots(roots, var="x"):
    x = UniPoly([0, 1], var)
    return product([x - r for r in roots], var)


def test_cauchy_bound_contains_roots():
    p = poly_with_roots([Fraction(-7), Fraction(3), Fraction(11, 2)])
    b = cauchy_bound(p)
    assert b > Fraction(11, 2)
    assert b > Fraction(7)


def test_sturm_count_known_roots():
    p = poly_with_roots([-2, 1, 3])
    chain = sturm_chain(p)
    assert count_roots_between(chain, Fraction(-10), Fraction(10)) == 3
    assert count_roots_between(chain, Fraction(0), Fraction(10)) == 2
    assert count_roots_between(chain, Fraction(2), Fraction(10)) == 1
    assert count_roots_between(chain, Fraction(4), Fraction(10)) == 0


def test_isolate_sqrt2():
    p = UniPoly([-2, 0, 1], "x")
    ivs, _ = isolate_real_roots(p, domain="nonnegative")
    assert len(ivs) == 1
    iv = ivs[0]
    assert Fraction(1) <= iv.lo and iv.hi <= Fraction(2)
    assert sign(p(iv.lo)) == -sign(p(iv.hi)) != 0
    assert iv.poly is p


def test_isolate_all_domain_finds_both_signs():
    p = UniPoly([-2, 0, 1], "x")
    ivs = isolate_real_roots(p, domain="all")
    assert len(ivs) == 2
    assert ivs[0].hi < 0 < ivs[1].lo


def test_isolate_handles_root_at_zero():
    # x * (x - 2): nonnegative domain must report 0 as a point interval
    p = UniPoly([0, -2, 1], "x")
    ivs, _ = isolate_real_roots(p, domain="nonnegative")
    assert len(ivs) == 2
    assert ivs[0].is_exact and ivs[0].lo == 0 == p(ivs[0].lo)
    assert ivs[1].lo < 2 < ivs[1].hi or (ivs[1].lo > 0)


def test_isolate_no_nonnegative_roots():
    p = poly_with_roots([-1, Fraction(-5, 2)])
    assert isolate_real_roots(p, domain="nonnegative") == ([], 2)


def test_nonpositive_max_width_is_refused():
    # no dyadic level reaches a width of 0 or below, so isolation refuses
    # it as refinement does
    p = poly_with_roots([-1, 2])
    for width in (0, -1, Fraction(-1, 3)):
        for domain in ("all", "nonnegative"):
            with pytest.raises(ValueError):
                isolate_real_roots(p, domain=domain, max_width=width)
        with pytest.raises(ValueError):
            refine_interval(isolate_real_roots(p)[0], width)


def test_isolate_squarefree_reduction():
    # (x-1)^3 (x-4)^2 has two distinct roots
    x = UniPoly([0, 1], "x")
    p = (x - 1) ** 3 * (x - 4) ** 2
    ivs = isolate_real_roots(p, domain="all")
    assert len(ivs) == 2


def test_isolated_intervals_disjoint_and_complete():
    rng = random.Random(20250819)
    for _ in range(40):
        k = rng.randrange(1, 6)
        roots = sorted(rng.sample(range(-8, 9), k))
        p = poly_with_roots([Fraction(r) for r in roots])
        ivs = isolate_real_roots(p, domain="all")
        assert len(ivs) == k
        for iv, r in zip(ivs, roots):
            assert iv.lo < r < iv.hi or (iv.is_exact and iv.lo == r)
        for a, b in zip(ivs, ivs[1:]):
            assert a.hi <= b.lo


def test_descartes_dominates_positive_root_count():
    rng = random.Random(99)
    for _ in range(200):
        deg = rng.randrange(1, 7)
        p = UniPoly([rng.randrange(-9, 10) for _ in range(deg + 1)], "x")
        if p.is_zero() or p(Fraction(0)) == 0:
            continue
        npos = len(isolate_real_roots(p, domain="nonnegative")[0])
        changes = descartes_sign_changes(p)
        assert changes >= npos
        assert (changes - npos) % 2 == 0


def test_refine_interval_nests_and_narrows():
    p = UniPoly([-2, 0, 1], "x")
    iv = isolate_real_roots(p, domain="nonnegative")[0][0]
    target = Fraction(1, 1024)
    fine = refine_interval(iv, target)
    assert fine.width() <= target
    assert iv.lo <= fine.lo and fine.hi <= iv.hi
    # sqrt(2) still inside
    assert fine.lo ** 2 < 2 < fine.hi ** 2
    # refining an already-narrow interval does not widen it
    again = refine_interval(fine, Fraction(1, 2))
    assert again.width() <= fine.width()


def test_refine_interval_hits_exact_root():
    # root exactly at 3/2 inside the interval
    p = poly_with_roots([Fraction(3, 2)])
    iv = RootInterval(Fraction(1), Fraction(2), p)
    fine = refine_interval(iv, Fraction(1, 10 ** 12))
    assert fine.lo < Fraction(3, 2) < fine.hi
    assert fine.width() <= Fraction(1, 10 ** 12)


def test_refine_rejects_uncertified_interval():
    p = UniPoly([-2, 0, 1], "x")
    bogus = RootInterval(Fraction(5), Fraction(6), p)
    with pytest.raises(ContractViolationError):
        refine_interval(bogus, Fraction(1, 4))
    two_roots = RootInterval(Fraction(-2), Fraction(2), p)
    with pytest.raises(ContractViolationError):
        refine_interval(two_roots, Fraction(1, 4))


def test_refine_interval_keeps_a_point_interval_on_a_root():
    # a point interval is already as narrow as it gets: it comes back as
    # it is when it sits on a root, and is refused when it does not
    p = poly_with_roots([Fraction(0), Fraction(3, 2)])
    at_zero = isolate_real_roots(p, domain="nonnegative")[0][0]
    for iv in (at_zero, RootInterval(Fraction(3, 2), Fraction(3, 2), p)):
        assert iv.is_exact
        assert refine_interval(iv, Fraction(1, 10 ** 12)) is iv
    with pytest.raises(ContractViolationError):
        refine_interval(RootInterval(Fraction(1), Fraction(1), p),
                        Fraction(1, 4))


def test_zero_polynomial_rejected():
    with pytest.raises(UndefinedInputError):
        isolate_real_roots(UniPoly.zero("x"))
    with pytest.raises(UndefinedInputError):
        sturm_chain(UniPoly.zero("x"))


def test_poly_range_contains_sampled_values():
    rng = random.Random(5)
    for _ in range(60):
        p = UniPoly([Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                     for _ in range(rng.randrange(1, 7))], "x")
        lo = Fraction(rng.randrange(-4, 3))
        hi = lo + Fraction(rng.randrange(1, 5), 2)
        rlo, rhi = poly_range(p, lo, hi)
        for t in range(11):
            x = lo + (hi - lo) * Fraction(t, 10)
            assert rlo <= p(x) <= rhi


def test_poly_range_point_interval_exact():
    p = UniPoly([1, -3, 2], "x")
    v = p(Fraction(7, 3))
    assert poly_range(p, Fraction(7, 3), Fraction(7, 3)) == (v, v)


def test_poly_range_matches_fraction_horner():
    # the integer Horner sum must give the reference's Fraction pair
    rng = random.Random(6)
    big = Fraction(2 ** 1000 + 1, 3 ** 631)
    cases = [
        (UniPoly.zero("x"), Fraction(-1), Fraction(2)),
        (UniPoly.constant(Fraction(-7, 3), "x"), Fraction(0), Fraction(1)),
        (UniPoly.constant(5, "x"), Fraction(-3, 2), Fraction(-1, 2)),
        (UniPoly([1, -3, 2], "x"), Fraction(7, 3), Fraction(7, 3)),
        (UniPoly([1, -3, 2], "x"), Fraction(-5, 2), Fraction(-1, 3)),
        (UniPoly([1, -3, 2], "x"), Fraction(-5, 2), Fraction(4, 7)),
        (UniPoly([Fraction(1, 3), Fraction(-2, 5), Fraction(3, 7),
                  Fraction(5, 11)], "x"), Fraction(-1, 6), Fraction(1, 10)),
        (UniPoly([Fraction(-9, 4), 0, Fraction(1, 9), Fraction(2, 25)], "x"),
         big, big + Fraction(1, 2 ** 1000)),
        (UniPoly([Fraction(-9, 4), 0, Fraction(1, 9), Fraction(2, 25)], "x"),
         -big, big / 3),
    ]
    for _ in range(80):
        bits = rng.choice((4, 60, 1000))
        p = UniPoly([Fraction(rng.randrange(-99, 100), rng.randrange(1, 50))
                     for _ in range(rng.randrange(0, 9))], "x")
        lo = Fraction(rng.randrange(-2 ** bits, 2 ** bits),
                      rng.randrange(1, 2 ** bits))
        hi = lo + Fraction(rng.randrange(0, 2 ** bits),
                           rng.randrange(1, 2 ** bits))
        cases.append((p, lo, hi))
    for p, lo, hi in cases:
        got = poly_range(p, lo, hi)
        assert got == poly_range_reference(p, lo, hi), (p, lo, hi)
        assert all(type(v) is Fraction for v in got)


# ----------------------------------------------------------------------
# Differential isolation against sympy and the Sturm counter
# ----------------------------------------------------------------------

@pytest.fixture
def sympy():
    return pytest.importorskip("sympy")


def _frac(r) -> Fraction:
    return Fraction(int(r.p), int(r.q))


def _inside(iv: RootInterval, a: Fraction, b: Fraction) -> bool:
    """[a, b], which holds one root, lies in iv (a point iv must equal it)."""
    if iv.is_exact:
        return a == b == iv.lo
    return iv.lo < a and b < iv.hi


def assert_matches_oracles(sympy, p: UniPoly):
    """Both domains of isolate_real_roots against sympy and Sturm counts."""
    q = squarefree_part(p)
    chain = sturm_chain(q)
    x = sympy.Symbol("x")
    sp = sympy.Poly([int(c) for c in reversed(q.integer_coeffs())], x)
    oracle = []                          # (lo, hi) as sympy Rationals
    for (a, b), _ in sp.intervals():
        assert not (a < 0 < b)
        oracle.append((a, b))

    def in_domain(a, b, domain):
        return domain == "all" or a >= 0 and b >= 0

    for domain in ("all", "nonnegative"):
        ivs = isolate_real_roots(p, domain=domain)
        if domain == "nonnegative":
            ivs, negative = ivs
        expected = [ab for ab in oracle if in_domain(*ab, domain)]
        assert len(ivs) == len(expected), (domain, ivs, expected)
        for a, b in zip(ivs, ivs[1:]):
            assert a.hi <= b.lo and a.lo < b.lo
        for iv in ivs:
            if domain == "nonnegative":
                assert iv.lo >= 0
            if iv.is_exact:
                assert domain == "nonnegative" and iv.lo == 0 == q(0)
                continue
            assert sign(q(iv.lo)) == -sign(q(iv.hi)) != 0
            assert count_roots_between(chain, iv.lo, iv.hi) == 1
        # every sympy root lies in exactly one of our intervals
        for a, b in expected:
            eps = min((iv.width() for iv in ivs if not iv.is_exact),
                      default=Fraction(1)) / 4
            for _ in range(300):
                fa, fb = _frac(a), _frac(b)
                if any(_inside(iv, fa, fb) for iv in ivs):
                    break
                a, b = sp.refine_root(
                    a, b, eps=sympy.Rational(eps.numerator, eps.denominator),
                    fast=True)
                eps /= 16
            assert sum(_inside(iv, fa, fb) for iv in ivs) == 1, (fa, fb)
    bound = cauchy_bound(q)
    assert count_roots_between(chain, -bound, bound) == len(oracle)
    assert negative == sum(1 for a, _ in oracle if a < 0)
    assert _count_positive_roots(q.ints) == sum(1 for _, b in oracle if b > 0)


def test_differential_random_integer_polynomials(sympy):
    rng = random.Random(404)
    for deg in range(1, 41):
        bits = rng.choice((4, 16, 64))
        cs = [rng.randrange(-2 ** bits, 2 ** bits + 1) for _ in range(deg + 1)]
        cs[-1] = cs[-1] or 1
        assert_matches_oracles(sympy, UniPoly(cs, "x"))
    # Mignotte polynomials x^n - 2 (a x - 1)^2: two roots closer than
    # a^(-n/2), which bisection must separate
    for n, a in ((5, 10), (9, 30), (16, 100)):
        x = UniPoly([0, 1], "x")
        assert_matches_oracles(sympy, x ** n - 2 * (a * x - 1) ** 2)


def test_differential_dyadic_roots_and_root_at_zero(sympy):
    # roots on the bisection grid k/2^j are hit exactly by split points
    rng = random.Random(405)
    x = UniPoly([0, 1], "x")
    for _ in range(25):
        roots = {Fraction(rng.randrange(-64, 65), 2 ** rng.randrange(0, 7))
                 for _ in range(rng.randrange(1, 9))}
        roots.add(Fraction(0))
        extra = UniPoly([rng.randrange(1, 9), rng.randrange(-3, 4), 1], "x")
        assert_matches_oracles(sympy, poly_with_roots(sorted(roots), "x") * extra)
    for roots in ([0, 1], [0, Fraction(1, 2), 1, 2, 4], [Fraction(-1, 2), 0],
                  [Fraction(k, 8) for k in range(-8, 9)]):
        assert_matches_oracles(sympy, poly_with_roots(roots, "x"))
    # a lone root at 0, and 0 next to a tiny root
    assert_matches_oracles(sympy, x)
    assert_matches_oracles(sympy, x * (x * 2 ** 40 - 1) * (x * x + 1))


def test_differential_repeated_factors(sympy):
    rng = random.Random(406)
    x = UniPoly([0, 1], "x")
    for _ in range(15):
        p = UniPoly.constant(1, "x")
        for _ in range(rng.randrange(1, 5)):
            factor = UniPoly([rng.randrange(-20, 21) for _ in range(3)], "x")
            if factor.degree < 1:
                factor = x - rng.randrange(-5, 6)
            p = p * factor ** rng.randrange(1, 4)
        assert_matches_oracles(sympy, p * x ** rng.randrange(0, 3))


def test_differential_profile_numerators(sympy):
    rng = random.Random(407)
    for M in range(6, 13):
        stats = ladder_stats(rng, M)
        for build in (ml_equation, reml_equation):
            assert_matches_oracles(sympy, build(stats).numerator)


@hst.composite
def negative_side_polys(draw):
    """Squarefree integer polynomials that stress the negative-root count:
    real roots and complex pairs clustered beside the poles -1/n, exact
    roots at -1, -2^k and -1 - 2^-k (the counter's split points on
    q(-x)) and at 0, a Mignotte-type close pair, and 1,000-bit
    coefficients."""
    x = _X
    p = UniPoly([draw(hst.integers(-30, 30))
                 for _ in range(draw(hst.integers(1, 4)))], "x")
    if p.is_zero():
        p = UniPoly.constant(1, "x")
    for _ in range(draw(hst.integers(1, 4))):
        kind = draw(hst.sampled_from(
            ("cluster", "complex", "split", "mignotte", "wide")))
        n = draw(hst.integers(2, 64))
        b = draw(hst.integers(4, 64))
        if kind == "cluster":
            # a root -1/n + j / (n 2^b), a few of them per pole
            for j in draw(hst.sets(hst.integers(-3, 3), min_size=1,
                                   max_size=3)):
                p = p * (n * 2 ** b * x + 2 ** b - j)
        elif kind == "complex":
            # the pair -1/n +- i / (n 2^b)
            p = p * ((n * x + 1) ** 2 * 4 ** b + 1)
        elif kind == "split":
            k = draw(hst.integers(0, 12))
            root = draw(hst.sampled_from(
                (Fraction(-1), Fraction(-2 ** k), -1 - Fraction(1, 2 ** k),
                 Fraction(0))))
            p = p * (root.denominator * x - root.numerator)
        elif kind == "mignotte":
            # x^m - 2 (a x - 1)^2 at -x: two roots within a^(-m/2) of -1/a
            m, a = draw(hst.integers(3, 9)), draw(hst.integers(2, 100))
            p = p * ((-x) ** m - 2 * (a * x + 1) ** 2)
        else:
            big = hst.integers(-2 ** 1000, 2 ** 1000)
            wide = UniPoly([draw(big) for _ in range(draw(hst.integers(2, 4)))],
                           "x")
            if wide.degree >= 1:
                p = p * wide
    if p.degree < 1:
        p = p * (x + 1)
    return squarefree_part(p)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(p=negative_side_polys())
@example(p=_X * (_X + 1) * (2 * _X + 1) * (3 * _X + 1) * (_X + 2))
@example(p=(_X + 1) * (_X + 4) * (_X + 8) * (4 * _X + 5) * (8 * _X + 9))
@example(p=((65 * _X + 1) ** 2 * 2 ** 400 + 1) * (64 * _X + 1)
         * (2 ** 200 * (64 * _X + 1) + 1))
def test_differential_negative_side(p):
    assert_matches_oracles(pytest.importorskip("sympy"), p)


def test_refine_interval_matches_sturm_on_dyadic_split():
    # the certificate must see both roots beside a dyadic split point
    p = poly_with_roots([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
    with pytest.raises(ContractViolationError):
        refine_interval(RootInterval(Fraction(1, 8), Fraction(5, 8), p),
                        Fraction(1, 100))
    iv = refine_interval(RootInterval(Fraction(3, 8), Fraction(5, 8), p),
                         Fraction(1, 100))
    assert iv.lo < Fraction(1, 2) < iv.hi and iv.width() <= Fraction(1, 100)


def test_refine_interval_subdivides_an_inconclusive_count():
    # one real root at 1/3 under a complex pair at 1/2 +- i/10: the
    # Descartes count on (0, 1) is 3, so certification must bisect
    x = UniPoly([0, 1], "x")
    p = (3 * x - 1) * (x * x - x + Fraction(26, 100))
    q = p.primitive().integer_coeffs()
    assert _descartes_01(int_on_interval(q, Fraction(0), Fraction(1))) > 1
    iv = refine_interval(RootInterval(Fraction(0), Fraction(1), p),
                         Fraction(1, 1000))
    assert iv.lo < Fraction(1, 3) < iv.hi and iv.width() <= Fraction(1, 1000)


# ----------------------------------------------------------------------
# Refinement against plain bisection
# ----------------------------------------------------------------------

@hst.composite
def squarefree_polys(draw):
    """Squarefree integer polynomials, often with roots on the dyadic grid
    (factors 2^j x - m) and a root at 0."""
    x = UniPoly([0, 1], "x")
    p = UniPoly([draw(hst.integers(-30, 30))
                 for _ in range(draw(hst.integers(1, 5)))], "x")
    if p.is_zero():
        p = UniPoly.constant(1, "x")
    for _ in range(draw(hst.integers(0, 3))):
        m = draw(hst.integers(-64, 64))
        p = p * (2 ** draw(hst.integers(0, 8)) * x - m)
    if draw(hst.booleans()):
        p = p * x
    if p.degree < 1:
        p = p * (x - draw(hst.integers(-3, 3)))
    return squarefree_part(p)


WIDTHS = hst.one_of(
    hst.just(Fraction(1, 4)),
    hst.integers(1, 300).map(lambda k: Fraction(1, 10 ** k)),
    hst.integers(2, 1000).map(lambda k: Fraction(1, 2 ** k)),
    hst.integers(1, 630).map(lambda k: Fraction(1, 3 ** k)),
    hst.tuples(hst.integers(1, 10 ** 6), hst.integers(1, 10 ** 80)).map(
        lambda t: Fraction(*t)),
)

@settings(derandomize=True, deadline=None, max_examples=80)
@given(p=squarefree_polys(), width=WIDTHS, coarse=WIDTHS)
# a root at 0 and dyadic roots hit exactly at levels below and above S
@example(p=_X * (4 * _X - 1) * (_X * _X - 2), width=Fraction(1, 10 ** 300),
         coarse=Fraction(1, 4))
@example(p=(256 * _X - 3) * (_X + 5), width=Fraction(1, 3 ** 4),
         coarse=Fraction(1, 4))
@example(p=(256 * _X - 3) * (8 * _X + 1), width=Fraction(1, 2 ** 20),
         coarse=Fraction(1, 10 ** 6))
def test_refinement_matches_bisection(p, width, coarse):
    q = p.integer_coeffs()
    # isolation's own brackets (no refinement) against isolation to width
    brackets = isolate_real_roots(p, domain="all", max_width=Fraction(2 ** 64))
    ivs = isolate_real_roots(p, domain="all", max_width=width)
    assert len(ivs) == len(brackets)
    for br, iv in zip(brackets, ivs):
        assert (iv.lo, iv.hi) == bisect_to_width_reference(
            q, br.lo, br.hi, width)
    # intervals from isolation and from an earlier refinement
    for iv in isolate_real_roots(p, domain="nonnegative",
                                 max_width=coarse)[0]:
        if iv.is_exact:
            continue
        for start in (iv, refine_interval(iv, coarse / 7)):
            expected = bisect_to_width_reference(q, start.lo, start.hi, width)
            assert _bisect_to_width(q, start.lo, start.hi, width) == expected
            fine = refine_interval(start, width)
            assert (fine.lo, fine.hi) == expected



# ----------------------------------------------------------------------
# The record: an isolating interval is an Approx that carries its polynomial
# ----------------------------------------------------------------------

def test_a_root_interval_is_an_approx_with_the_same_ends():
    p = UniPoly([-2, 0, 1], "x")
    ivs = [RootInterval(Fraction(1), Fraction(3, 2), p),
           RootInterval(Fraction(-7, 5), Fraction(-4, 3), p),
           RootInterval(Fraction(5, 2), Fraction(5, 2), p),
           *isolate_real_roots(p, domain="all")]
    for iv in ivs:
        assert isinstance(iv, Approx)
        assert iv.width() == iv.hi - iv.lo
        assert iv.midpoint() == (iv.lo + iv.hi) / 2
        assert iv.is_exact == (iv.lo == iv.hi)
    assert [iv.is_exact for iv in ivs] == [False, False, True, False, False]
    # an out-of-order interval is an empty enclosure
    with pytest.raises(ValueError):
        RootInterval(Fraction(2), Fraction(1), p)


def test_root_interval_equality_hash_and_repr_ignore_the_polynomial():
    a = RootInterval(Fraction(1), Fraction(2), UniPoly([-2, 0, 1], "x"))
    b = RootInterval(Fraction(1), Fraction(2), UniPoly([-3, 0, 1], "x"))
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == (
        "RootInterval(lo=Fraction(1, 1), hi=Fraction(2, 1))")
    assert a != RootInterval(Fraction(1), Fraction(3), a.poly)
    # an Approx with the same ends is a different record
    assert a != Approx(Fraction(1), Fraction(2))
