"""Certified real-root isolation for exact rational polynomials.

Every routine works on the integer coefficients (`UniPoly.ints`) of the
primitive squarefree part q of its input (`polynomials.squarefree_part`,
which certifies squarefreeness by a gcd mod a prime). Roots are isolated
by Descartes bisection with integer Taylor shifts, the
Vincent-Collins-Akritas method (Collins & Akritas 1976; Rouillier &
Zimmermann 2004), never by numeric eigenvalues.

The certificate is Descartes' rule of signs on a Moebius-mapped interval.
For an interval (a, b), let V be the number of sign variations in the
coefficients of (1 + x)^n q((a + b x)/(1 + x)). V bounds the number of
roots of q in (a, b) from above and has the same parity, so V = 0 proves
that (a, b) holds no root and V = 1 proves that it holds exactly one.
An interval returned here carries that proof, and the polynomial it was
certified for (`RootInterval.poly`): its endpoints are not roots, q
changes sign across it, and it holds exactly one root. A `RootInterval`
is an `enclosure.Approx`, whose ends, width, midpoint, exactness and
printed form it shares, plus that polynomial. Refinement reads the
polynomial off the interval, so no caller passes it along.
Refinement is quadratic interval refinement (Abbott 2006) on the dyadic
grid of the bisection it replaces: it returns the interval bisection
would, moves only to a subinterval across which q changes sign, and so
keeps the certificate.

The number of negative roots, a diagnostic of the nonnegative domain, is
counted without isolating them (`_count_positive_roots` on q(-x)), by
Vincent-Akritas-Strzebonski continued fractions. The same certificate
stands behind each count: a node is q under a Moebius map of (0, inf)
onto an open interval, and a node's Descartes count of 0 or 1 is its
number of roots. Vincent's theorem guarantees that the expansion of a
squarefree polynomial reaches such nodes everywhere, so the count
terminates. The count is never refined and no interval is built for it.

`sturm_chain` is not used by isolation or refinement. It stays here
because the benchmark traces it by name; the tests count roots on its
chains with their own Fraction arithmetic, an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

from .enclosure import Approx
from .errors import ContractViolationError, UndefinedInputError
from .polynomials import (UniPoly, _common_denominator, _int_primitive,
                          _int_pseudo_rem, int_derivative, int_eval,
                          int_on_interval, int_sign_changes, rat,
                          squarefree_part)


def _sign_at(int_coeffs: Sequence[int], x: Fraction) -> int:
    """Sign of an integer polynomial at a rational point, integer-only:
    the sign of int_eval's d^deg p(n/d)."""
    v = int_eval(int_coeffs, x)[0]
    return (v > 0) - (v < 0)


# ----------------------------------------------------------------------
# Sturm chains
# ----------------------------------------------------------------------

def sturm_chain(p: UniPoly) -> List[List[int]]:
    """Canonical Sturm chain as primitive integer coefficient lists.

    Built with positive pseudo-remainder multipliers and positive content
    division, both of which preserve the sign pattern the variation count
    depends on.
    """
    if p.is_zero():
        raise UndefinedInputError("Sturm chain of the zero polynomial")
    p0 = list(p.primitive().ints)
    chain = [p0]
    if len(p0) > 1:
        p1 = _int_primitive(int_derivative(p0))
        chain.append(p1)
        while len(chain[-1]) > 0:
            r = _int_pseudo_rem(chain[-2], chain[-1])
            if not r:
                break
            chain.append(_int_primitive([-v for v in r]))
    return chain


# ----------------------------------------------------------------------
# Isolation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RootInterval(Approx):
    """Isolating interval for one simple real root of poly: an Approx,
    whose ordered ends, width, midpoint and exactness it shares.

    A point interval (lo == hi) records an exact rational root; for a
    regular interval lo < hi and the enclosed root is strictly interior.
    poly is the polynomial the interval was isolated for, the one
    refine_interval certifies it against; it takes no part in equality,
    hashing or repr, which see (lo, hi) only.
    """

    poly: UniPoly = field(compare=False, repr=False)


def _bisect_to_width(q_int, lo: Fraction, hi: Fraction,
                     width: Fraction) -> Tuple[Fraction, Fraction]:
    """Shrink a sign-change interval below the target width.

    Precondition: q(lo) and q(hi) are nonzero with opposite signs, and
    exactly one root of q lies between them; both stay true on return.

    The result is the interval plain bisection returns: the cell holding
    the root at the least level S of the dyadic grid of (lo, hi) (cells of
    width (hi - lo) / 2^S) whose width is at most `width`, or, when the
    root r is a grid point of level L <= S, the straddle (r - delta,
    r + delta) with delta = min(width / 2, (hi - lo) / 2^(L + 1)).

    It gets there by quadratic interval refinement (Abbott, "Quadratic
    Interval Refinement for Real Roots", ISSAC 2006) on that grid. The
    current interval is a cell of level s; the secant through its
    endpoint values picks one of its 2^k subcells, and a sign change
    across that subcell moves there and doubles k. Otherwise one plain
    halving is taken and k is halved. k never takes the level past S, so
    every cell visited is a bisection cell and the sign change is the same
    certificate. Endpoints are integer numerators over one shared
    denominator d * 2^s, and values come from an integer-only homogeneous
    Horner sum, so no Fraction is normalised inside the loop.
    """
    a, b, d = _common_denominator(lo, hi)
    # the numerators at every level differ by `step`, one cell of the grid
    a0, step = a, b - a
    # w[j] = q_(n-j) * d^j, so q(m / (d 2^s)) * (d 2^s)^n is
    # sum_j w[j] * m^(n-j) * 2^(s j)
    w = []
    dp = 1
    for c in reversed(q_int):
        w.append(c * dp)
        dp *= d
    n = len(w) - 1

    def value_at(m: int, s: int) -> int:
        acc = 0
        for j, c in enumerate(w):
            acc = acc * m + (c << (s * j))
        return acc

    def straddle(m: int, s: int) -> Tuple[Fraction, Fraction]:
        # m / (d 2^s) is the root; it is grid point i of level s, and
        # first appears on the grid at level s - v2(i)
        i = (m - (a0 << s)) // step
        level = s - ((i & -i).bit_length() - 1)
        r = Fraction(m, d << s)
        delta = min(width / 2, Fraction(step, d << (level + 1)))
        return r - delta, r + delta

    # S: the least level whose cells are at most `width` wide
    num, den = step * width.denominator, d * width.numerator
    target = max(0, num.bit_length() - den.bit_length())
    while num > den << target:
        target += 1

    s, k = 0, 1
    fa, fb = value_at(a, 0), value_at(b, 0)
    while s < target:
        k = min(k, target - s)
        t = s + k
        # secant cell j of the 2^k cells of level t (fa / (fa - fb) is
        # in (0, 1))
        j = (fa << k) // (fa - fb)
        x0 = (a << k) + j * step
        f0 = fa << (k * n) if j == 0 else value_at(x0, t)
        if f0 == 0:
            return straddle(x0, t)
        f1 = fb << (k * n) if j == (1 << k) - 1 else value_at(x0 + step, t)
        if f1 == 0:
            return straddle(x0 + step, t)
        if (f0 > 0) != (f1 > 0):
            a, b, fa, fb, s, k = x0, x0 + step, f0, f1, t, 2 * k
            continue
        # one plain halving; for k = 1 the midpoint was just evaluated
        m = a + b
        fm = (f1 if j == 0 else f0) if k == 1 else value_at(m, s + 1)
        if fm == 0:
            return straddle(m, s + 1)
        a, b, fa, fb = a << 1, b << 1, fa << n, fb << n
        s, k = s + 1, max(1, k // 2)
        if (fm > 0) == (fa > 0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return Fraction(a, d << s), Fraction(b, d << s)


# ----------------------------------------------------------------------
# Descartes bisection
# ----------------------------------------------------------------------

def _descartes_01(cs: Sequence[int]) -> int:
    """Descartes bound, capped at 2, on the roots of p in (0, 1).

    Counts the sign variations of (1 + x)^n p(1/(1 + x)). Its coefficients,
    highest first, come from n prefix-sum passes over the ascending
    coefficients of p (a Taylor shift by 1 of the reversed polynomial).
    Each pass fixes one more trailing entry for good, so the count stops
    as soon as the fixed entries show two variations.
    """
    d = list(cs)
    v = prev = 0
    for k in range(len(d), 0, -1):
        d[:k] = accumulate(d[:k])
        c = d[k - 1]
        if c:
            if prev and (c > 0) != (prev > 0):
                v += 1
                if v > 1:
                    return v
            prev = c
    return v


def _taylor_shift1(cs: Sequence[int]) -> list:
    """Ascending coefficients of p(x + 1), by n prefix-sum passes."""
    d = list(reversed(cs))
    for k in range(len(d), 1, -1):
        d[:k] = accumulate(d[:k])
    d.reverse()
    return d


def _unit_roots(cs: Sequence[int]) -> List[Tuple[int, int, int]]:
    """Roots in (0, 1) of a squarefree integer polynomial, as (lo, hi, j)
    for the interval (lo / 2^j, hi / 2^j); lo == hi marks an exact root.

    Vincent-Collins-Akritas bisection: a node is the polynomial
    2^(nj) p((x + c) / 2^j) on (0, 1); its halves are 2^n node(x / 2) and
    that polynomial shifted by 1. A node is a leaf when its Descartes
    count is 0, or 1 with neither endpoint a root; a split point that is a
    root is reported exactly.
    """
    n = len(cs) - 1
    out = []
    todo = [(list(cs), 0, 0)]
    while todo:
        p, c, j = todo.pop()
        v = _descartes_01(p)
        if v == 0:
            continue
        if v == 1 and p[0] and sum(p):
            out.append((c, c + 1, j))
            continue
        left = [a << (n - i) for i, a in enumerate(p)]
        right = _taylor_shift1(left)
        if right[0] == 0:
            out.append((2 * c + 1, 2 * c + 1, j + 1))
        todo.append((right, 2 * c + 1, j + 1))
        todo.append((left, 2 * c, j + 1))
    return out


def _dyadic(m: int, e: int) -> Fraction:
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def _root_bound_exp(q_int: Sequence[int]) -> Optional[int]:
    """k with every positive root of a nonconstant integer polynomial
    below 2^k, or None when no coefficient has the sign opposite to the
    leading one, so that there is no positive root.

    Positive roots lie below 2 max |a_(n-i) / a_n|^(1/i) over the
    coefficients of sign opposite to a_n (Kioustelidis' bound), taken here
    as a power of 2.
    """
    n = len(q_int) - 1
    lc = q_int[-1]
    k = None
    for i in range(1, n + 1):
        c = q_int[n - i]
        if c and (c > 0) != (lc > 0):
            # ceil((bits(c) - bits(lc) + 1) / i) bounds log2 |c / lc|^(1/i)
            e = -((lc.bit_length() - c.bit_length() - 1) // i)
            k = e if k is None else max(k, e)
    return None if k is None else k + 1


def _positive_roots(q_int: Sequence[int]) -> List[Tuple[Fraction, Fraction]]:
    """Sorted isolating items for the positive roots of a squarefree
    integer polynomial; (m, m) is an exact root m.

    With 2^k the root bound of `_root_bound_exp`, q(2^k x) has its
    positive roots in (0, 1).
    """
    k = _root_bound_exp(q_int)
    if k is None:
        return []
    n = len(q_int) - 1
    if k >= 0:
        scaled = [c << (k * i) for i, c in enumerate(q_int)]
    else:
        scaled = [c << (-k * (n - i)) for i, c in enumerate(q_int)]
    return sorted((_dyadic(lo, k - j), _dyadic(hi, k - j))
                  for lo, hi, j in _unit_roots(scaled))


def _count_positive_roots(q_int: Sequence[int]) -> int:
    """Number of positive roots of a squarefree integer polynomial.

    Continued fractions (Vincent-Akritas-Strzebonski; Akritas, Strzebonski
    & Vigklas, Nonlinear Analysis: Modelling and Control 13, 2008), with
    no interval built. A node is a polynomial p, p(0) != 0, whose positive
    roots correspond one to one to the roots of q in one open interval;
    the first node is q with a root at 0 divided out. With V the sign
    variations of p, V = 0 and V = 1 are leaves holding that many roots.
    Otherwise, when the strict root bound 2^-e of the reversed polynomial
    shows that no root of p lies in (0, 2^e] for some e >= 0, p moves to
    p(x + 2^e). Then p splits at 1 into p(x + 1), for the roots above 1,
    and (1 + x)^n p(1 / (1 + x)), for those in (0, 1); a root at exactly
    1 is counted once and divided out of both. Budan's theorem bounds the
    roots in (0, 1) by b = V(p) - V(p(x + 1)) - [p(1) = 0], with the same
    parity, so b = 0 and b = 1 settle that branch without building it.
    """
    p = list(q_int)
    if not p[0]:
        p = p[1:]
    count = 0
    todo = [(p, int_sign_changes(p))]
    while todo:
        p, v = todo.pop()
        if v < 2:
            count += v
            continue
        k = _root_bound_exp(p[::-1])
        if k <= 0:
            # p(x + 2^e) = t(x / 2^e) with t(x) = p(2^e (x + 1))
            e = -k
            t = _taylor_shift1([c << (e * i) for i, c in enumerate(p)])
            p = [c >> (e * i) for i, c in enumerate(t)]
            v = int_sign_changes(p)
            if v < 2:
                count += v
                continue
        right = _taylor_shift1(p)
        at_one = not right[0]
        if at_one:
            count += 1
            right = right[1:]
        v_right = int_sign_changes(right)
        todo.append((right, v_right))
        budan = v - v_right - at_one
        if budan == 1:
            count += 1
        elif budan:
            left = _taylor_shift1(p[::-1])
            if at_one:
                left = left[1:]
            todo.append((left, int_sign_changes(left)))
    return count


def _brackets(items: List[Tuple[Fraction, Fraction]],
              floor) -> List[Tuple[Fraction, Fraction]]:
    """Isolating intervals with non-root endpoints for sorted items.

    An exact root m becomes the interval between the midpoints to its
    neighbours: the items beside it, else floor on the left (m - 1 when
    floor is None) and m + 1 on the right. Every real root is an item, so
    the gaps between items hold none and the midpoints are not roots.
    """
    out = []
    for i, (lo, hi) in enumerate(items):
        if lo == hi:
            left = (items[i - 1][1] if i else
                    lo - 1 if floor is None else floor)
            right = items[i + 1][0] if i + 1 < len(items) else hi + 1
            lo, hi = (left + lo) / 2, (hi + right) / 2
        out.append((lo, hi))
    return out


def isolate_real_roots(p: UniPoly, domain: str = "all",
                       max_width: Fraction = Fraction(1, 4)):
    """Isolate the distinct real roots of p in the requested domain.

    Args:
        p: nonzero polynomial; reduced to its squarefree part internally.
        domain: "all" for the whole line, "nonnegative" for [0, inf).
        max_width: positive; each returned interval is tightened below
            this width.

    Returns:
        Disjoint RootIntervals of p, one per distinct root, sorted by
        position; for "nonnegative", the pair (intervals, number of
        distinct negative roots), counted by `_count_positive_roots` and
        never isolated. A root exactly at 0 is a degenerate point interval
        at 0 in the nonnegative domain; every other interval, including
        one around a dyadic root hit by a split point or a root at 0 in
        the whole-line domain, has endpoints that are not roots of p.
    """
    if p.is_zero():
        raise UndefinedInputError("cannot isolate roots of the zero polynomial")
    if domain not in ("all", "nonnegative"):
        raise ValueError(f"unknown domain {domain!r}")
    width = rat(max_width)
    if width <= 0:
        raise ValueError("max_width must be positive")
    q_int = squarefree_part(p).ints
    deg = len(q_int) - 1
    positive = negative = []
    reflected = [-c if i % 2 else c for i, c in enumerate(q_int)]
    if deg > 0:
        positive = _positive_roots(q_int)
        if domain == "all":
            negative = [(-hi, -lo)
                        for lo, hi in reversed(_positive_roots(reflected))]
    zero = [(Fraction(0), Fraction(0))] if deg > 0 and q_int[0] == 0 else []

    results: List[RootInterval] = []
    if domain == "nonnegative":
        if zero:
            results.append(RootInterval(Fraction(0), Fraction(0), p))
        brackets = _brackets(positive, Fraction(0))
    else:
        brackets = _brackets(negative + zero + positive, None)
    for a, b in brackets:
        results.append(RootInterval(*_bisect_to_width(q_int, a, b, width), p))
    if domain == "nonnegative":
        return results, _count_positive_roots(reflected)
    return results


def refine_interval(iv: RootInterval, width: Fraction) -> RootInterval:
    """Shrink a certified isolating interval of iv.poly to the requested
    width.

    Args:
        iv: interval to refine; iv.poly is the polynomial it is certified
            against.
        width: positive target width.

    Returns:
        A nested RootInterval of iv.poly, of width <= width, containing
        the same root.

    Raises:
        ContractViolationError: the interval does not certify exactly one
            root of iv.poly's squarefree part (for example, a hand-built
            interval around two roots or none).
    """
    width = rat(width)
    if width <= 0:
        raise ValueError("target width must be positive")
    q_int = squarefree_part(iv.poly).ints

    if iv.is_exact:
        if _sign_at(q_int, iv.lo) != 0:
            raise ContractViolationError(
                "point interval does not sit on a root of the polynomial")
        return iv

    if (_sign_at(q_int, iv.lo) == 0 or _sign_at(q_int, iv.hi) == 0
            or len(_unit_roots(int_on_interval(q_int, iv.lo, iv.hi))) != 1):
        raise ContractViolationError(
            "interval is not a certified isolation for this polynomial")

    lo, hi = _bisect_to_width(q_int, iv.lo, iv.hi, width)
    return RootInterval(lo, hi, iv.poly)


# ----------------------------------------------------------------------
# Rigorous range enclosure
# ----------------------------------------------------------------------

def int_range(p: UniPoly, lo: Fraction, hi: Fraction) -> Tuple[int, int, int]:
    """Integers (L, H, E), E > 0, with L / E <= p(x) <= H / E on [lo, hi],
    by interval Horner; L = H = E p(lo) when lo == hi.

    The Horner sum runs on integers: with lo = A/D, hi = B/D and p =
    ints / den, the accumulator after j steps is den D^j times the rational
    one (step j adds ints_k D^j), a positive scale, so the same candidate
    wins each min/max. Nothing is reduced: callers that only compare or
    take logs need no gcd. The ends go through rat, so a float or bool is
    refused, and are ordered as A <= B.
    """
    a, b, d = _common_denominator(rat(lo), rat(hi))
    if a > b:
        raise ValueError("interval endpoints out of order")
    if p.is_zero():
        return 0, 0, 1
    acc_lo = acc_hi = 0
    dp = 1
    for c in reversed(p.ints):
        cands = (acc_lo * a, acc_lo * b, acc_hi * a, acc_hi * b)
        c *= dp
        acc_lo, acc_hi = min(cands) + c, max(cands) + c
        dp *= d
    return acc_lo, acc_hi, p.den * (dp // d)


def poly_range(p: UniPoly, lo: Fraction, hi: Fraction) -> Tuple[Fraction, Fraction]:
    """Enclosure of {p(x) : x in [lo, hi]}: int_range as Fractions."""
    L, H, E = int_range(p, lo, hi)
    return Fraction(L, E), Fraction(H, E)
