"""Unit tests for the exact univariate polynomial core."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from conftest import (divides, frac_add, frac_compose, frac_derivative,
                      frac_divmod, frac_eval, frac_mul, frac_trim,
                      gcd_degree_mod_reference, ladder_stats, poly_divmod,
                      product, schoolbook_mul, strip_factor)
from exactvc import oneway
from exactvc.errors import DivisibilityError, UndefinedInputError
from exactvc.polynomials import (
    _PRIME,
    UniPoly,
    _gcd_degree_mod,
    _int_prs_gcd,
    descartes_sign_changes,
    int_derivative,
    int_linear_product,
    int_mul,
    int_on_interval,
    int_strip,
    int_sum,
    interpolate,
    poly_gcd,
    rat,
    squarefree_part,
)
from exactvc.profilefit import profile_equation


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


def test_rat_rejects_bool():
    for value in (True, False):
        with pytest.raises(TypeError, match="refusing to coerce bool"):
            rat(value)


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


def test_divmod_identity():
    # the Euclidean division the divisibility oracles use
    rng = random.Random(13)
    for _ in range(100):
        p = rand_poly(rng, max_deg=8)
        q = rand_poly(rng, max_deg=4)
        if q.is_zero():
            continue
        quot, rem = poly_divmod(p, q)
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
    with pytest.raises(ZeroDivisionError):
        UniPoly([1, 2], "x").exact_divide(UniPoly.zero("x"))


def test_exact_divide_by_a_constant():
    p = UniPoly([Fraction(3, 4), -6, 0, 9], "x")
    for c in (1, -3, Fraction(2, 3), Fraction(-5, 7)):
        q = p.exact_divide(UniPoly.constant(c, "x"))
        assert q * c == p
        assert q == poly_divmod(p, UniPoly.constant(c, "x"))[0]
    assert UniPoly.zero("x").exact_divide(UniPoly.constant(-2, "x")).is_zero()
    with pytest.raises(ValueError):
        p.exact_divide(UniPoly.constant(2, "y"))


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
    x = UniPoly([0, 1], "x")
    p = (x - 1) ** 2 * (x + 2)
    q = (x - 1) * (x + 3)
    g = poly_gcd(p, q)
    assert g == (x - 1).primitive()


def test_squarefree_part_strips_multiplicities():
    x = UniPoly([0, 1], "x")
    p = (x - 1) ** 3 * (x + 2) ** 2 * (2 * x + 5)
    sf = squarefree_part(p)
    expected = ((x - 1) * (x + 2) * (2 * x + 5)).primitive()
    assert sf == expected
    # already squarefree input is only normalized
    q = (x - 1) * (x + 4)
    assert squarefree_part(q) == q.primitive()


def test_strip_factor_counts_and_caps_the_multiplicity():
    x = UniPoly([0, 1], "x")
    lin = UniPoly([1, 3], "x")
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
    x = UniPoly([0, 1], "x")
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
    x = UniPoly([0, 1], "x")
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
    x = UniPoly([0, 1], "x")
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



def residue_coeffs(rng, k):
    """k coefficients mixing big random values with ones that are 0, 1 or
    m - 1 mod m = _PRIME, in several representatives."""
    m = _PRIME
    special = (0, m, -m, 1, m + 1, m - 1, -1, 2 * m - 1)
    return [rng.choice(special) if rng.random() < 0.4
            else rng.randint(-(1 << 200), 1 << 200) for _ in range(k)]


def with_lead(rng, cs):
    """cs with a leading coefficient that is nonzero mod _PRIME."""
    while cs[-1] % _PRIME == 0:
        cs[-1] += rng.randint(1, 5)
    return cs


def test_packed_gcd_degree_matches_the_scalar_loop():
    # random pairs of any lengths (a constant b and len b > len a among
    # them), planted common factors, factors shared only mod m, and
    # remainders whose leading coefficient vanishes mod m mid-run
    rng = random.Random(2525)
    m = _PRIME
    nontrivial = 0
    for trial in range(400):
        kind = ("random", "planted", "mod_only", "vanishing")[trial % 4]
        def part(lo, hi):
            return with_lead(rng, residue_coeffs(rng, rng.randint(lo, hi)))

        if kind == "random":
            a, b = part(1, 40), part(1, 40)
        elif kind == "planted":
            # a long first pass fills the slots the most
            f = part(2, 6)
            a, b = int_mul(f, part(1, 60)), int_mul(f, part(1, 8))
        elif kind == "mod_only":
            # (x - r) times a cofactor, plus m times noise in each
            r = rng.randrange(m)
            a, b = (int_sum([(1, int_mul([-r, 1], part(k, k))),
                             (m, residue_coeffs(rng, k + 1))])
                    for k in (12, 9))
        else:
            # a = q b + rem with rem's top coefficient a multiple of m: the
            # first remainder mod m is shorter than deg b by two or more
            b = part(3, 15)
            rem = residue_coeffs(rng, len(b) - 1)
            rem[-1] = m * rng.randint(-3, 3)
            a = int_sum([(1, int_mul(part(1, 10), b)), (1, rem)])
        got = _gcd_degree_mod(a, b, m)
        assert got == gcd_degree_mod_reference(a, b, m), (kind, a, b)
        nontrivial += got > 0
    assert nontrivial > 100
    assert _gcd_degree_mod([5, 7, 1], [3], m) == 0
    assert _gcd_degree_mod([3], [5, 7, 1], m) == 0
    assert _gcd_degree_mod([-1, 0, 1], [1, 1], m) == 1


@pytest.mark.parametrize("M", [6, 12, 24, 32, 64, 96])
def test_packed_gcd_certifies_ladder_numerators(M):
    # the coprimality and squarefree certificates of the benchmark
    # ladder's ML and REML numerators come out of the modular test
    prof = oneway.gls_profile(ladder_stats(random.Random(f"x{M}"), M))
    for method in ("ML", "REML"):
        eq = profile_equation(prof, method)
        num = list(eq.numerator.ints)
        for other in (int_derivative(num), list(eq.denominator.ints)):
            assert _gcd_degree_mod(num, other, _PRIME) == 0
            assert gcd_degree_mod_reference(num, other, _PRIME) == 0


def test_the_modulus_is_prime():
    # deterministic Miller-Rabin: bases 2..37 decide every n < 3.3e24
    n = _PRIME
    assert n < 1 << 31
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            pytest.fail(f"{base} witnesses that {n} is composite")

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
    x = UniPoly([0, 1], "x")
    factors = [x + k for k in range(1, 4)]
    assert product(factors, "x") == (x + 1) * (x + 2) * (x + 3)
    assert product([], "x") == UniPoly.constant(1, "x")


def test_int_linear_product_matches_polynomial_product():
    x = UniPoly([0, 1], "x")
    sizes = (1, 3, 4, 9)
    assert (UniPoly(int_linear_product(sizes), "x")
            == product((x * n + 1 for n in sizes), "x"))
    assert int_linear_product(()) == [1]


def int_coeffs(rng, n):
    """n integers of mixed signs and sizes: zeros, +-2^k, +-(2^k - 1) and
    random values up to about 200 bits."""
    out = []
    for _ in range(n):
        k, sgn = rng.randrange(0, 200), rng.choice((-1, 1))
        out.append(rng.choice((0, sgn << k, sgn * ((1 << k) - 1),
                               rng.randint(-(1 << k), 1 << k))))
    return out


def test_int_mul_matches_the_schoolbook_product():
    rng = random.Random(5151)
    for n in range(1, 251):
        a = int_coeffs(rng, n)
        m = n if n % 10 == 0 else rng.randrange(1, min(n, 30) + 1)
        b = int_coeffs(rng, m)
        if n % 3 == 0:
            a[0] = a[-1] = 0            # trailing and leading zeros
        for x, y in ((a, b), (b, a)) + (((a, a),) if m == n else ()):
            assert int_mul(x, y) == schoolbook_mul(x, y)
    assert int_mul([], [1, 2]) == [] == int_mul([3], [])
    assert int_mul([0, 0], [0, 5, 0]) == [0, 0, 0, 0]


def test_int_mul_at_the_slot_boundaries():
    # the coefficient bound min(len) max|a| max|b| is attained, and lands
    # on, just under and just over a power of two and a byte boundary,
    # with every sign pattern: the unpack's offset must undo each borrow
    for k in (0, 1, 6, 7, 8, 15, 16, 63, 64, 200):
        for n in (1, 2, 3, 4, 17):
            for v in ((1 << k), (1 << k) - 1, (1 << k) + 1):
                for a in ([v] * n, [-v] * n,
                          [v if i % 2 else -v for i in range(n)],
                          [v if i < n // 2 else -v for i in range(n)]):
                    for b in (a, [-c for c in a], [v] * n, [-v, v]):
                        assert int_mul(a, b) == schoolbook_mul(a, b)


def test_unipoly_product_goes_through_the_integer_kernel():
    rng = random.Random(3)
    for _ in range(200):
        p, q = rand_poly(rng, 12), rand_poly(rng, 12)
        expected = UniPoly(schoolbook_mul(p.coeffs, q.coeffs), "x")
        assert p * q == expected == q * p
        assert p * p == UniPoly(schoolbook_mul(p.coeffs, p.coeffs), "x")
    # operands over different denominators
    half = UniPoly([Fraction(1, 2), 1], "x")
    third = UniPoly([1, Fraction(-1, 3)], "x")
    assert half * third == UniPoly(
        [Fraction(1, 2), Fraction(5, 6), Fraction(-1, 3)], "x")
    zero = UniPoly.zero("x")
    assert (zero * half).is_zero() and (half * zero).is_zero()
    assert (half * zero).var == "x"
    with pytest.raises(ValueError):
        half * UniPoly([1, 2], "y")


def test_int_strip_linear_matches_strip_factor():
    rng = random.Random(99)
    for n in (1, 2, 3, 7, 64):
        lin = UniPoly([1, n], "x")
        for mult in range(4):
            for cap in (0, 1, None):
                for _ in range(8):
                    rest = UniPoly(int_coeffs(rng, rng.randrange(1, 8)), "x")
                    if rest.is_zero():
                        continue
                    p = rest * lin ** mult
                    q, k = int_strip(p.integer_coeffs(), [1, n], cap)
                    ref, ref_k = strip_factor(p, lin, cap)
                    assert (UniPoly(q, "x"), k) == (ref, ref_k)
                    if cap is None:
                        assert k >= mult
    # a constant and the zero list have no linear factor to lose
    assert int_strip([5], [1, 3]) == ([5], 0)
    assert int_strip([], [1, 3]) == ([], 0)
    # 2 divides the top coefficient but the division fails further down
    assert int_strip([1, 0, 2], [1, 2]) == ([1, 0, 2], 0)
    assert int_strip([1, 3, 2], [1, 2]) == ([1, 1], 1)


def test_int_strip_linear_takes_any_primitive_linear_factor():
    # c0 = 0, c0 < 0, |c1| > 1 in either sign, and (1, n) as the profile
    # equation uses it, each against repeated division over Q
    rng = random.Random(1515)
    factors = [(0, 1), (0, -1), (-3, 1), (-7, 4), (5, -6), (2, 9), (1, 5),
               (-1, -2), (-12, 35)]
    for c0, c1 in factors:
        lin = UniPoly([c0, c1], "x")
        for mult in range(4):
            for cap in (0, 1, None):
                for _ in range(6):
                    rest = UniPoly(int_coeffs(rng, rng.randrange(1, 7)), "x")
                    if rest.is_zero():
                        continue
                    p = rest * lin ** mult
                    q, k = int_strip(p.integer_coeffs(), [c0, c1], cap)
                    ref, ref_k = strip_factor(p, lin, cap)
                    assert (UniPoly(q, "x"), k) == (ref, ref_k), (c0, c1)
                    if cap is None:
                        assert k >= mult
        for cs in ([], [7], [-4]):
            assert int_strip(cs, [c0, c1]) == (cs, 0)
    # 4 divides the top coefficient but not the next carry, 10 + 7 * 1;
    # after two quotients of (4x - 7)^2 (8x^2 + 1) it stops at 0 + 7 * 2
    assert int_strip([-7, 10, 4], [-7, 4]) == ([-7, 10, 4], 0)
    p = UniPoly([-7, 4], "x") ** 2 * UniPoly([1, 0, 8], "x")
    assert strip_factor(p, UniPoly([-7, 4], "x"))[1] == 2
    assert int_strip(p.integer_coeffs(), [-7, 4]) == ([1, 0, 8], 2)
    assert int_strip(p.integer_coeffs(), [-7, 4], 1) == (
        (UniPoly([-7, 4], "x") * UniPoly([1, 0, 8], "x")).integer_coeffs(), 1)


def test_interpolate_recovers_polynomials_from_values_at_naturals():
    rng = random.Random(77)
    for deg in range(41):
        for rational in (False, True):
            coeffs = [Fraction(rng.randint(-10 ** 9, 10 ** 9),
                               rng.randint(1, 60) if rational else 1)
                      for _ in range(deg)]
            coeffs.append(Fraction(rng.choice([-1, 1]) * rng.randint(1, 99),
                                   rng.randint(1, 60) if rational else 1))
            f = UniPoly(coeffs)
            assert f.degree == deg
            # D above the true degree: the high coefficients trim to zero
            for D in (deg, deg + 1, deg + rng.randint(2, 9)):
                vals = [f(k) for k in range(D + 1)]
                den = lcm(*(v.denominator for v in vals))
                ints = [v.numerator * (den // v.denominator) for v in vals]
                assert interpolate(ints, den) == f
    for D in (0, 1, 7):
        assert interpolate([0] * (D + 1), 7).is_zero()
    with pytest.raises(UndefinedInputError):
        interpolate([], 1)


def test_immutability():
    p = UniPoly([1, 2], "x")
    with pytest.raises(AttributeError):
        p.coeffs = (Fraction(9),)


def test_variable_mismatch_rejected():
    p = UniPoly([1, 2], "x")
    q = UniPoly([1, 2], "y")
    with pytest.raises(ValueError):
        p * q


# ----------------------------------------------------------------------
# Integers over one denominator against the Fraction-list oracle
# ----------------------------------------------------------------------

RATIONALS = hst.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                          max_denominator=90)
FRACTION_LISTS = hst.lists(RATIONALS | hst.just(Fraction(0)), max_size=7)


def canonical(p):
    """ints trimmed, den > 0, gcd(content, den) = 1, zero over den 1."""
    if not p.ints:
        return p.den == 1
    return p.ints[-1] != 0 and p.den > 0 and gcd(p.den, *p.ints) == 1


@settings(derandomize=True, deadline=None, max_examples=150)
@given(a=FRACTION_LISTS, k=hst.integers(-10 ** 30, 10 ** 30).filter(bool))
def test_unipoly_has_one_form_from_ints_or_rationals(a, k):
    p = UniPoly(a, "x")
    assert canonical(p)
    assert list(p.coeffs) == frac_trim(a)
    # the same value from scaled integers over a scaled denominator,
    # from its Fraction view and from strings
    for q in (UniPoly([c * k for c in p.ints], "x", p.den * k),
              UniPoly(p.coeffs, "x"), UniPoly([str(c) for c in a], "x")):
        assert canonical(q)
        assert q == p and hash(q) == hash(p)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(a=FRACTION_LISTS, b=FRACTION_LISTS, c=RATIONALS, x=RATIONALS,
       k=hst.integers(0, 4))
def test_unipoly_arithmetic_matches_the_fraction_oracle(a, b, c, x, k):
    p, q = UniPoly(a, "x"), UniPoly(b, "x")
    power = [Fraction(1)]
    for _ in range(k):
        power = frac_mul(power, a)
    results = [(p + q, frac_add(a, b)), (p - q, frac_add(a, b, -1)),
               (p * q, frac_mul(a, b)), (p * p, frac_mul(a, a)),
               (p * c, frac_mul(a, [c])), (c * p, frac_mul(a, [c])),
               (p + c, frac_add(a, [c])), (p ** k, power),
               (-p, frac_add([], a, -1)), (p.derivative(), frac_derivative(a))]
    for got, want in results:
        assert canonical(got)
        assert list(got.coeffs) == want
    assert p(x) == frac_eval(a, x)
    assert p.leading_coeff() == (frac_trim(a) or [0])[-1]
    if not p.is_zero():
        # integer coefficients, content 1, positive lead, a rational
        # multiple of p
        prim = p.primitive()
        assert prim.den == 1 and gcd(*prim.ints) == 1 and prim.ints[-1] > 0
        r = prim.leading_coeff() / p.leading_coeff()
        assert list(prim.coeffs) == frac_mul(a, [r])


@settings(derandomize=True, deadline=None, max_examples=150)
@given(cs=hst.lists(hst.integers(-10 ** 40, 10 ** 40), min_size=1,
                    max_size=7), a=RATIONALS, b=RATIONALS)
def test_int_on_interval_matches_fraction_composition(cs, a, b):
    # a positive multiple of p(a + (b - a) x), against Fraction Horner
    got = int_on_interval(cs, a, b)
    want = frac_trim(frac_compose(cs, [a, b - a]))
    assert all(type(c) is int for c in got)
    got = frac_trim([Fraction(c) for c in got])
    if not want:
        assert got == []
        return
    r = got[-1] / want[-1]
    assert r > 0 and got == [r * c for c in want]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(a=FRACTION_LISTS, b=FRACTION_LISTS.filter(lambda b: frac_trim(b)))
def test_exact_divide_matches_euclidean_division(a, b):
    p, q = UniPoly(a, "x"), UniPoly(b, "x")
    assert (p * q).exact_divide(q) == p
    quot, rem = frac_divmod(a, b)
    if rem:
        with pytest.raises(DivisibilityError):
            p.exact_divide(q)
    else:
        assert list(p.exact_divide(q).coeffs) == quot


def primitive_divisors(degree):
    lists = hst.lists(hst.integers(-40, 40), min_size=degree + 1,
                      max_size=degree + 1).filter(lambda f: f[-1])
    return lists.map(lambda f: [v // gcd(*f) for v in f])


@settings(derandomize=True, deadline=None, max_examples=150)
@given(rest=hst.lists(hst.integers(-10 ** 12, 10 ** 12), max_size=6),
       f=primitive_divisors(1) | primitive_divisors(2),
       mult=hst.integers(0, 3), cap=hst.sampled_from([0, 1, None]))
def test_int_strip_matches_strip_factor_on_linear_and_quadratic_divisors(
        rest, f, mult, cap):
    p = UniPoly(rest, "x") * UniPoly(f, "x") ** mult
    q, k = int_strip(p.integer_coeffs(), f, cap)
    ref, ref_k = strip_factor(p, UniPoly(f, "x"), cap)
    assert (UniPoly(q, "x"), k) == (ref, ref_k)
    if cap is None and not p.is_zero():
        assert k >= mult
