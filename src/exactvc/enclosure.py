"""Rigorous numeric enclosures on top of exact rational intervals.

Rational quantities stay exact as long as possible; only logarithms force a
move to finite precision. A log is bracketed in pure integers by the atanh
series with a log 2 reduction (Brent & Zimmermann, Modern Computer
Arithmetic, 2010, sec. 4.4), whose error the code counts, and then widened
by a generous margin, so every Approx produced here is a true enclosure and
comparisons between disjoint enclosures are certified. Approx is a record,
with no arithmetic: the objective stays in integers up to its reported ends.
log_bounds returns integers over 4^prec, which callers sum as they are, and
range_quotient reduces each end of a quotient of integer ranges once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Optional, Tuple

from .polynomials import rat


@dataclass(frozen=True)
class Approx:
    """A real number known to lie in [lo, hi], endpoints exact rationals."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty enclosure")

    @classmethod
    def exact(cls, v) -> "Approx":
        v = rat(v)
        return cls(v, v)

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def width(self) -> Fraction:
        return self.hi - self.lo


def _ratio(x) -> Tuple[int, int]:
    """(p, q) of a Fraction or int; an integer pair (p, q > 0) as it is."""
    return x if isinstance(x, tuple) else (x.numerator, x.denominator)


def _atanh_floor(num: int, den: int, g: int) -> Tuple[int, int]:
    """(s, e) with s <= 2^g atanh(num / den) <= s + e, 0 <= num / den <= 1/3.

    Flooring z = num / den to g bits moves atanh(z) by at most 9/8 of a
    unit. The odd powers of z, floored as they are formed, stay under 3/2
    of a unit low, so each floored term z^(2j+1)/(2j+1) is under 4 low;
    once a power floors to 0, the tail is under 3.
    """
    z = (num << g) // den
    z2 = (z * z) >> g
    s, t, j = 0, z, 1
    while t:
        s += t // j
        t = (t * z2) >> g
        j += 2
    return s, 4 * (j // 2) + 3 + 2  # 2 > 9/8 for z's floor


@lru_cache(maxsize=64)
def _atanh_third(g: int) -> Tuple[int, int]:
    """_atanh_floor(1, 3, g), cached: log 2 = 2 atanh(1/3)."""
    return _atanh_floor(1, 3, g)


def _log_bracket(p: int, q: int, g: int) -> Tuple[int, int]:
    """Integers L <= 2^g log(p / q) <= H for integers p, q > 0.

    p / q = 2^k y with y in [1, 2), k read from the value, so an unreduced
    pair and its Fraction give the same bracket; then log(p / q) =
    2 atanh(z) + 2 k atanh(1/3) with z = (y - 1)/(y + 1) in [0, 1/3).
    """
    k = p.bit_length() - q.bit_length()
    P, Q = (p, q << k) if k >= 0 else (p << -k, q)
    if P < Q:
        P, k = P << 1, k - 1
    s, e = _atanh_floor(P - Q, P + Q, g)
    t, f = _atanh_third(g)
    return (2 * (s + k * t + min(k, 0) * f),
            2 * (s + e + k * t + max(k, 0) * f))


def log_bounds(lo, hi, prec: int = 128) -> Optional[Tuple[int, int]]:
    """Integers (A, B), A <= 4^prec log x <= B for every x in [lo, hi], or
    None when lo <= 0, signalling the caller to refine its inputs.

    Brackets each endpoint's log at prec + 32 bits, rounds the bracket
    outward to multiples of 2^-prec and widens each end by a margin of
    (|v| + 1) 2^(8-prec), far beyond the bracket's own width. Each endpoint
    is a Fraction or an unreduced integer pair (p, q > 0).
    """
    lo, hi = _ratio(lo), _ratio(hi)
    if lo[0] <= 0:
        return None
    g = prec + 32
    bot, top = _log_bracket(*lo, g)
    top = top if hi == lo else _log_bracket(*hi, g)[1]
    # a / 2^prec <= log lo and log hi <= b / 2^prec; each end then moves
    # out by its margin (|v| + 1) 2^(8-prec), all over 2^(2 prec)
    a, b, unit = bot >> 32, -(-top >> 32), 1 << prec
    return ((a << prec) - ((abs(a) + unit) << 8),
            (b << prec) + ((abs(b) + unit) << 8))


def log_enclosure(lo, hi, prec: int = 128) -> Optional[Approx]:
    """log_bounds as an Approx, or None."""
    ends = log_bounds(lo, hi, prec)
    return None if ends is None else Approx(
        Fraction(ends[0], 1 << 2 * prec), Fraction(ends[1], 1 << 2 * prec))


def range_quotient(num: Tuple[int, int, int],
                   den: Tuple[int, int, int]) -> Optional[Approx]:
    """x / y for integer ranges (L, H, E > 0) of x and y, as int_range gives
    them, or None unless y's L > 0. The two E share a power of the interval's
    denominator: cancelled first, it halves what each Fraction reduces."""
    (nl, nh, ne), (dl, dh, de) = num, den
    if dl <= 0:
        return None
    g = gcd(ne, de)
    ne, de = ne // g, de // g
    return Approx(Fraction(nl * de, ne * (dl if nl < 0 else dh)),
                  Fraction(nh * de, ne * (dh if nh < 0 else dl)))
