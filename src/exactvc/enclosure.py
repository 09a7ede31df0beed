"""Rigorous numeric enclosures on top of exact rational intervals.

Rational quantities stay exact as long as possible; only logarithms force a
move to finite precision. Those are evaluated with mpmath and then widened
by a generous slack (hundreds of ulps), so every Approx produced here is a
true enclosure and comparisons between disjoint enclosures are certified.
A log's rational argument, a Fraction or an unreduced integer pair, is
rounded to the working precision by mpmath's own `from_rational`, as
`mpmathify` rounds it, and is never reduced by a gcd.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import mpmath
from mpmath.libmp import from_rational

from .errors import ContractViolationError


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
        v = Fraction(v)
        return cls(v, v)

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def width(self) -> Fraction:
        return self.hi - self.lo

    # -- interval arithmetic -------------------------------------------------

    def __add__(self, other: "Approx") -> "Approx":
        return Approx(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Approx") -> "Approx":
        return Approx(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "Approx":
        return Approx(-self.hi, -self.lo)

    def __mul__(self, other: "Approx") -> "Approx":
        cands = (self.lo * other.lo, self.lo * other.hi,
                 self.hi * other.lo, self.hi * other.hi)
        return Approx(min(cands), max(cands))

    def scale(self, c) -> "Approx":
        c = Fraction(c)
        if c >= 0:
            return Approx(self.lo * c, self.hi * c)
        return Approx(self.hi * c, self.lo * c)

    def reciprocal(self) -> "Approx":
        if self.lo <= 0 <= self.hi:
            raise ContractViolationError("reciprocal of interval through 0")
        return Approx(1 / self.hi, 1 / self.lo)

    def contains(self, v) -> bool:
        v = Fraction(v)
        return self.lo <= v <= self.hi


def _mpf_to_fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    if man == 0:
        if exp == 0:
            return Fraction(0)
        raise ValueError("non-finite value in enclosure")
    v = Fraction(man) * Fraction(2) ** exp
    return -v if sign else v


def _ratio(x) -> Tuple[int, int]:
    """(p, q) of a Fraction or int; an integer pair (p, q > 0) as it is."""
    return x if isinstance(x, tuple) else (x.numerator, x.denominator)


def _to_mpf(x: Tuple[int, int], prec: int):
    """p / q rounded to `prec` bits as mpmathify(Fraction(p, q)) rounds it;
    the division is correctly rounded, so p and q need no reduction."""
    return mpmath.mp.make_mpf(from_rational(x[0], x[1], prec))


def log_enclosure(lo, hi, prec: int = 128) -> Optional[Approx]:
    """Enclosure of {log x : x in [lo, hi]} for a positive rational interval.

    Uses mpmath at `prec` bits and widens each endpoint by a slack of
    roughly 2^(8-prec) relative, far beyond mpmath's actual rounding
    error. Returns None when the interval touches the nonpositive axis,
    signalling the caller to refine its inputs. Each endpoint is a Fraction
    or an unreduced integer pair (p, q > 0): reducing a product of
    thousands of bits by its gcd costs more than its logarithm.
    """
    lo, hi = _ratio(lo), _ratio(hi)
    if lo[0] <= 0:
        return None
    with mpmath.workprec(prec):
        vlo = _mpf_to_fraction(mpmath.log(_to_mpf(lo, prec)))
        vhi = vlo if hi == lo else _mpf_to_fraction(mpmath.log(_to_mpf(hi, prec)))
    slack_lo = (abs(vlo) + 1) * Fraction(1, 2 ** (prec - 8))
    slack_hi = (abs(vhi) + 1) * Fraction(1, 2 ** (prec - 8))
    return Approx(vlo - slack_lo, vhi + slack_hi)


def interval_divide(num: Tuple[Fraction, Fraction],
                    den: Tuple[Fraction, Fraction]) -> Optional[Approx]:
    """Quotient enclosure; None when the denominator interval straddles 0.
    A nonnegative numerator over a positive denominator needs no reciprocal."""
    dlo, dhi = den
    if dlo <= 0 <= dhi:
        return None
    if num[0] >= 0 and dlo > 0:
        return Approx(num[0] / dhi, num[1] / dlo)
    return Approx(*num) * Approx(dlo, dhi).reciprocal()
