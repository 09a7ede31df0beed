"""Tests for the rigorous log enclosures the ranking compares."""

import random
from fractions import Fraction

import mpmath
import pytest

from conftest import (interval_difference, interval_product,
                      interval_scale, interval_sum, log_interval, reciprocal)
from exactvc.enclosure import (Approx, _log_bracket, criterion, log_enclosure,
                               quotient_ends, range_quotient)
from exactvc.polynomials import _common_denominator

# the ranking rounds' log precisions, and the defaults of the estimates
# and of log_enclosure
PRECISIONS = list(range(192, 1201, 96)) + [128, 256]


def log_pairs(rng, count):
    """count integer pairs (p, q > 0): values next to 1, magnitudes up to
    11,000 bits, powers of two and small ratios. One draw in 50 has
    thousands of bits; those cost the oracle most."""
    def bits(top):
        return round(top ** rng.random())

    pairs = [(1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (2 ** 11000, 1),
             (1, 2 ** 11000), (2 ** 11000 + 1, 2 ** 11000),
             (2 ** 11000 - 1, 2 ** 11000)]
    while len(pairs) < count:
        huge = rng.random() < 0.02
        kind = rng.randrange(4)
        if kind == 0:                       # p = q +- 1
            q = rng.randrange(2, 2 ** rng.randrange(1000, 5000) if huge
                              else 2 ** bits(1000) + 3)
            pairs.append(rng.choice([(q + 1, q), (q - 1, q), (q, q + 1)]))
        elif kind == 1:                     # powers of two
            top = 11000 if huge else 1000
            pairs.append((2 ** rng.randrange(top), 2 ** rng.randrange(top)))
        elif kind == 2:                     # small ratios
            pairs.append((rng.randrange(1, 1000), rng.randrange(1, 1000)))
        else:
            pairs.append(tuple(
                rng.randrange(1, 2 ** (rng.randrange(2000, 11001) if huge
                                       else bits(1000)) + 1)
                for _ in range(2)))
    return pairs


def mp_log_scaled(p, q, g):
    """2^g log(p / q) by mpmath at 2 g + 64 + bits(p) + bits(q) bits: p and
    q convert exactly, so the only error is mpmath's far below 2^-g."""
    with mpmath.workprec(2 * g + 64 + p.bit_length() + q.bit_length()):
        return mpmath.ldexp(mpmath.log(mpmath.mpf(p) / mpmath.mpf(q)), g)


def test_log_bracket_contains_the_mpmath_value():
    # the certificate's one non-algebraic step, against an independent
    # oracle: every bracket holds the value and is narrow, its width under
    # (|k| + 1)(3 g + 18) units for the 2^k reduction, |k| <= max bits.
    # Most draws use the workloads' precisions, g = 160, 224 and 288.
    rng = random.Random(2026)
    for p, q in log_pairs(rng, 10_000):
        g = (rng.choice([160, 224, 288]) if rng.random() < 0.7 else
             rng.choice([prec + 32 for prec in PRECISIONS]
                        + [rng.randrange(64, 1233)]))
        lo, hi = _log_bracket(p, q, g)
        assert lo <= mp_log_scaled(p, q, g) <= hi
        bits = max(p.bit_length(), q.bit_length())
        assert hi - lo <= (bits + 1) * (3 * g + 18)


def test_log_enclosure_keeps_its_margin_around_the_log():
    # a point enclosure holds the log with the margin (|v| + 1) 2^(8-prec)
    # on each side, and is wider only by the two outward roundings
    rng = random.Random(17)
    for p, q in log_pairs(rng, 400):
        prec = rng.choice(PRECISIONS)
        point = log_enclosure((p, q), (p, q), prec)
        sign, man, exp, _ = mp_log_scaled(p, q, prec)._mpf_
        v = Fraction(-man if sign else man) * Fraction(2) ** (exp - prec)
        margin = (abs(v) + 1) * Fraction(1, 2 ** (prec - 8))
        assert point.lo <= v - margin and v + margin <= point.hi
        assert point.width() <= 2 * margin + Fraction(4, 2 ** prec)


def test_unreduced_pair_encloses_like_its_fraction():
    # an integer pair p/q is not reduced; the bracket depends only on the
    # value p/q, so the enclosure is the one of Fraction(p, q)
    rng = random.Random(13)
    for _ in range(40):
        g = rng.randrange(1, 2 ** rng.randrange(1, 400))
        p = rng.randrange(1, 2 ** rng.randrange(1, 900))
        q = rng.randrange(1, 2 ** rng.randrange(1, 900))
        lo = Fraction(p, q)
        hi = lo + Fraction(1, rng.randrange(1, 2 ** 300))
        for prec in (192, 672):
            want = log_enclosure(lo, hi, prec)
            pair_hi = (hi.numerator * g, hi.denominator * g)
            assert log_enclosure((p * g, q * g), pair_hi, prec) == want
            assert log_enclosure((p * g, q * g), (p * g, q * g), prec) == \
                log_enclosure(lo, lo, prec)
    # values next to 1, huge magnitudes and powers of two
    for p, q in log_pairs(rng, 400):
        prec = rng.choice(PRECISIONS)
        g = rng.randrange(1, 2 ** rng.randrange(1, 400))
        x = Fraction(p, q)
        assert log_enclosure((p * g, q * g), (p * g, q * g), prec) == \
            log_enclosure(x, x, prec)
    assert log_enclosure((0, 5), (1, 5)) is None
    assert log_enclosure((-1, 5), (1, 5)) is None


def general_divide(num, den):
    """num * (1 / den) by interval products: the formula for intervals of
    any sign."""
    return interval_product(Approx(*num), reciprocal(Approx(*den)))


def test_sign_aware_divide_matches_the_general_formula():
    # range_quotient takes integer ranges (L, H, E) over a positive
    # denominator range; a negative one is divided as (-num) / (-den)
    rng = random.Random(14)

    def value():
        return Fraction(rng.randrange(-50, 50), rng.randrange(1, 20))

    def interval():
        kind = rng.randrange(4)
        if kind == 0:                       # zero width
            v = value()
            return v, v
        if kind == 1:                       # touching zero from above
            return Fraction(0), abs(value())
        a, b = sorted((value(), value()))
        return a, b

    def as_range(iv, scale=1):
        # unreduced: both ends and their denominator times scale
        return tuple(v * scale for v in _common_denominator(*iv))

    checked = 0
    for _ in range(3000):
        num, den = interval(), interval()
        if den[1] < 0:
            num_r, den_r = (-num[1], -num[0]), (-den[1], -den[0])
        else:
            num_r, den_r = num, den
        got = range_quotient(as_range(num_r, rng.randrange(1, 9)),
                             as_range(den_r, rng.randrange(1, 9)))
        if den[0] <= 0 <= den[1]:
            assert got is None
            continue
        assert got == general_divide(num, den)
        checked += num[0] >= 0 and den[0] > 0
    assert checked > 200
    assert range_quotient((0, 0, 1), (2, 3, 1)) == Approx.exact(0)


def random_ends(rng):
    """(lo, hi) of a positive x, each end a Fraction or an unreduced integer
    pair, one draw in four of zero width; and the two ends as Fractions."""
    p = rng.randrange(1, 2 ** rng.randrange(1, 400))
    q = rng.randrange(1, 2 ** rng.randrange(1, 400))
    lo = Fraction(p, q)
    hi = lo if rng.random() < 0.25 else \
        lo + Fraction(rng.randrange(1, 2 ** 40), rng.randrange(1, 2 ** 300))

    def form(v):
        if rng.random() < 0.5:
            return v
        g = rng.randrange(1, 2 ** rng.randrange(1, 100))
        return (v.numerator * g, v.denominator * g)

    return (form(lo), form(hi)), (lo, hi)


def criterion_reference(const, terms, prec):
    """const + sum c log x - sum S / x by interval arithmetic on Fractions,
    each log conftest.log_interval."""
    total = Approx.exact(const)
    for c, ends, s in terms:
        lg = None if ends is None else log_interval(*ends, prec)
        if lg is None:
            return None
        total = (interval_sum(total, interval_scale(lg, c)) if c >= 0 else
                 interval_difference(total, interval_scale(lg, -c)))
        x = Approx(*(Fraction(*e) if isinstance(e, tuple) else e
                     for e in ends))
        total = interval_difference(
            total, interval_product(Approx.exact(s), reciprocal(x)))
    return total


def test_criterion_sums_its_terms_like_interval_arithmetic():
    # c of either sign, S = 0 and S > 0, Fraction and pair ends, zero width
    rng = random.Random(34)
    signs, zero_s, widths = set(), set(), set()
    for _ in range(300):
        prec = rng.choice(PRECISIONS)
        terms = []
        for _ in range(rng.randrange(1, 6)):
            ends, (lo, hi) = random_ends(rng)
            c = rng.randrange(-10 ** 5, 10 ** 5)
            s = 0 if rng.random() < 0.4 else Fraction(
                rng.randrange(1, 2 ** 200), rng.randrange(1, 2 ** 90))
            terms.append((c, ends, s))
            signs.add(c > 0)
            zero_s.add(s == 0)
            widths.add(lo == hi)
        const = rng.randrange(-10 ** 6, 10 ** 6)
        got = criterion(const, terms, prec)
        assert got == criterion_reference(const, terms, prec)
    assert signs == zero_s == widths == {True, False}


def test_criterion_refuses_ends_at_or_below_zero():
    rng = random.Random(35)
    for bad in (None, ((0, 5), (1, 5)), ((-1, 5), (1, 5)),
                (Fraction(0), Fraction(1)), (Fraction(-1, 3), Fraction(2))):
        for _ in range(20):
            terms = [(rng.randrange(-5, 6), random_ends(rng)[0],
                      rng.choice([0, Fraction(1, 3)]))
                     for _ in range(rng.randrange(0, 4))]
            terms.insert(rng.randrange(len(terms) + 1),
                         (rng.choice([-2, 1]), bad, Fraction(7)))
            assert criterion(rng.randrange(9), terms, 192) is None
    assert log_enclosure(Fraction(0), Fraction(1)) is None


def test_log_enclosure_is_criterion_of_one_term():
    rng = random.Random(36)
    for _ in range(100):
        ends, _ = random_ends(rng)
        prec = rng.choice(PRECISIONS)
        assert log_enclosure(*ends, prec) == log_interval(*ends, prec) == \
            criterion(0, [(1, ends, 0)], prec)


def test_quotient_ends_are_range_quotient_unreduced():
    # the same two values as range_quotient, for numerator ranges of any
    # sign, and no gcd taken: each pair is the plain product of ends
    rng = random.Random(37)

    def int_range(low):
        a = rng.randrange(low, 2 ** rng.randrange(1, 200))
        b = a if rng.random() < 0.25 else a + rng.randrange(2 ** 100)
        return a, b, rng.randrange(1, 2 ** rng.randrange(1, 100))

    negative = 0
    for _ in range(2000):
        num = int_range(-2 ** rng.randrange(1, 200))
        den = int_range(1)
        ends, want = quotient_ends(num, den), range_quotient(num, den)
        assert Approx(Fraction(*ends[0]), Fraction(*ends[1])) == want
        assert ends[0][1] > 0 and ends[1][1] > 0
        negative += num[0] < 0
    assert negative > 200
    assert quotient_ends((2, 4, 6), (3, 9, 12)) == ((24, 54), (48, 18))
    assert quotient_ends((-2, -1, 6), (3, 9, 12)) == ((-24, 18), (-12, 54))
    for den in ((0, 5, 1), (-3, 5, 2), (-3, -1, 7)):
        assert quotient_ends((1, 2, 3), den) is None
        assert range_quotient((1, 2, 3), den) is None


def test_exact_goes_through_rat():
    # an exact point is never a binary float: 0.1 and True are refused as
    # rat refuses them, and an int, a decimal string and a Fraction of the
    # same value give the same point
    for bad in (0.1, 2.0, True):
        with pytest.raises(TypeError):
            Approx.exact(bad)
    point = Approx(Fraction(5, 2), Fraction(5, 2))
    assert Approx.exact("2.5") == Approx.exact("5/2") == point
    assert Approx.exact(Fraction(5, 2)) == point
    assert Approx.exact(3) == Approx(Fraction(3), Fraction(3))
    assert isinstance(Approx.exact(3).lo, Fraction)
