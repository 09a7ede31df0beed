"""Tests for the rigorous log enclosures the ranking compares."""

import random
from fractions import Fraction

import mpmath

from exactvc import enclosure
from exactvc.enclosure import Approx, interval_divide, log_enclosure

# the ranking rounds' log precisions, and the defaults of the estimates
# and of log_enclosure
PRECISIONS = list(range(192, 1201, 96)) + [128, 256]


def test_log_inputs_are_mpmathify_roundings(monkeypatch):
    # log_enclosure builds its mpf without mpmathify's gcd; the value
    # handed to mpmath.log must be the one mpmathify would have made
    seen = []
    log = mpmath.log

    def spy(x):
        seen.append((x._mpf_, mpmath.mp.prec))
        return log(x)

    monkeypatch.setattr(enclosure.mpmath, "log", spy)
    rng = random.Random(77)
    values = [Fraction(1), Fraction(1, 3), Fraction(2 ** 2000 - 1, 3 ** 1200),
              Fraction(3 ** 1261, 2 ** 2000 + 1)]
    for _ in range(30):
        values.append(Fraction(rng.randrange(1, 2 ** rng.randrange(1, 2001)),
                               rng.randrange(1, 2 ** rng.randrange(1, 2001))))
    for x in values:
        for prec in PRECISIONS:
            seen.clear()
            assert log_enclosure(x, x + Fraction(1, 7), prec) is not None
            with mpmath.workprec(prec):
                expected = [(mpmath.mpmathify(v)._mpf_, prec)
                            for v in (x, x + Fraction(1, 7))]
            assert seen == expected


def test_unreduced_pair_encloses_like_its_fraction():
    # an integer pair p/q is not reduced; mpmath's rounding of p/q is
    # correctly rounded, so the enclosure is the one of Fraction(p, q)
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
    assert log_enclosure((0, 5), (1, 5)) is None
    assert log_enclosure((-1, 5), (1, 5)) is None


def general_divide(num, den):
    """num * (1 / den) by interval products: the formula interval_divide
    uses for intervals of any sign."""
    return Approx(*num) * Approx(*den).reciprocal()


def test_sign_aware_divide_matches_the_general_formula():
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

    checked = 0
    for _ in range(3000):
        num, den = interval(), interval()
        got = interval_divide(num, den)
        if den[0] <= 0 <= den[1]:
            assert got is None
            continue
        assert got == general_divide(num, den)
        checked += num[0] >= 0 and den[0] > 0
    assert checked > 200
    assert interval_divide((Fraction(0), Fraction(0)),
                           (Fraction(2), Fraction(3))) == Approx.exact(0)
