"""Tests for the rigorous log enclosures the ranking compares."""

import random
from fractions import Fraction

import mpmath

from exactvc import enclosure
from exactvc.enclosure import log_enclosure

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
