"""Rigorous numeric enclosures on top of exact rational intervals.

Rational quantities stay exact as long as possible; only logarithms force a
move to finite precision. A log is bracketed in pure integers by the atanh
series with a log 2 reduction (Brent & Zimmermann, Modern Computer
Arithmetic, 2010, sec. 4.4), whose error the code counts, and then widened
by a generous margin, so every Approx produced here is a true enclosure and
comparisons between disjoint enclosures are certified. Approx is a record,
with no arithmetic: the objective stays in integers up to its reported ends.
criterion alone sums a fit's c0 + sum c log x - sum S / x, its logs as the
integers over 4^prec of log_bounds; quotient_ends gives x / y of integer
ranges as unreduced end pairs, which range_quotient reduces once.
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


def criterion(const: int, terms, prec: int) -> Optional[Approx]:
    """const + sum c log x - sum S / x over terms (c, ends, S), S >= 0 and
    ends x's (lo, hi) as log_bounds takes them, or None when any ends are
    None or start at or below 0. The logs sum as integers over 4^prec, a
    negative c taking the other end; x > 0 then puts S / x in [S/hi, S/lo]."""
    unit = 1 << 2 * prec
    bot = top = const * unit
    low = high = 0
    for c, ends, s in terms:
        bounds = None if ends is None else log_bounds(*ends, prec)
        if bounds is None:
            return None
        bot += c * bounds[c < 0]
        top += c * bounds[c > 0]
        if s:
            (p, q), (P, Q) = _ratio(ends[0]), _ratio(ends[1])
            low += Fraction(s.numerator * Q, s.denominator * P)
            high += Fraction(s.numerator * q, s.denominator * p)
    return Approx(Fraction(bot, unit) - high, Fraction(top, unit) - low)


def log_enclosure(lo, hi, prec: int = 128) -> Optional[Approx]:
    """log x over [lo, hi]: the criterion of one term, or None."""
    return criterion(0, [(1, (lo, hi), 0)], prec)


def quotient_ends(num: Tuple[int, int, int], den: Tuple[int, int, int]):
    """x / y as unreduced integer pairs (lo, hi), for integer ranges (L, H,
    E > 0) of x and y, or None unless y's L > 0: no gcd is taken."""
    (nl, nh, ne), (dl, dh, de) = num, den
    if dl <= 0:
        return None
    return ((nl * de, ne * (dl if nl < 0 else dh)),
            (nh * de, ne * (dh if nh < 0 else dl)))


def range_quotient(num: Tuple[int, int, int],
                   den: Tuple[int, int, int]) -> Optional[Approx]:
    """quotient_ends as an Approx, or None. The E share a power of the
    interval's denominator; cancelled first, it halves each reduction."""
    g = gcd(num[2], den[2])
    ends = quotient_ends((*num[:2], num[2] // g), (*den[:2], den[2] // g))
    return None if ends is None else Approx(Fraction(*ends[0]),
                                            Fraction(*ends[1]))
