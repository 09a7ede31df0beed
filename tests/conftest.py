"""Shared helpers for the test suite."""

import csv
import json
import os
import random
from fractions import Fraction
from math import lcm
from types import SimpleNamespace
from typing import Iterable, Optional, Tuple

from exactvc import io as xio
from exactvc import profilefit, twoway
from exactvc.covariates import DesignProblem
from exactvc.enclosure import Approx, log_bounds
from exactvc.errors import InputError, NongenericDataError
from exactvc.multipoly import MultiPoly, bareiss_determinant
from exactvc.polynomials import (UniPoly, _int_primitive, int_mul,
                                 int_on_interval, int_strip, int_sum, rat,
                                 squarefree_part)
from exactvc.profilefit import ProfilePolys, certified_argmax
from exactvc.roots import isolate_real_roots, refine_interval
from exactvc.stats import GroupedData, OneWayStats, summarize_ints
from exactvc.twoway import TwoWayStats, twoway_stats_ints

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name):
    return os.path.join(FIXTURES, name)


def product(polys: Iterable[UniPoly], var: str = "theta") -> UniPoly:
    out = UniPoly.constant(1, var)
    for p in polys:
        out = out * p
    return out


def schoolbook_mul(a, b) -> list:
    """Coefficient list of the product of two ascending coefficient lists
    by the double loop, untrimmed; the oracle of polynomials.int_mul."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out



def gcd_degree_mod_reference(a, b, m) -> int:
    """Degree of gcd(a mod m, b mod m) over Z/m by the scalar Euclid loop,
    one reduction per coefficient update; the oracle of
    polynomials._gcd_degree_mod. Both leading coefficients must be
    nonzero mod m."""
    a = [v % m for v in a]
    b = [v % m for v in b]
    while b:
        inv = pow(b[-1], -1, m)
        db = len(b) - 1
        while len(a) > db:
            c = a[-1] * inv % m
            if c:
                off = len(a) - 1 - db
                for j in range(db):
                    a[off + j] = (a[off + j] - c * b[j]) % m
            a.pop()
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) - 1

# -- the Fraction-list oracle ------------------------------------------------
#
# Polynomials as ascending lists of Fractions, trimmed, with the schoolbook
# operations written out. UniPoly, which stores integers over one
# denominator, is checked against them.

def frac_trim(cs) -> list:
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def frac_add(a, b, sign=1) -> list:
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return frac_trim(x + sign * y for x, y in zip(a, b))


def frac_mul(a, b) -> list:
    return frac_trim(schoolbook_mul(a, b))


def frac_derivative(a) -> list:
    return frac_trim(k * c for k, c in enumerate(a) if k)


def frac_eval(a, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def frac_compose(a, inner) -> list:
    acc = []
    for c in reversed(a):
        acc = frac_add(frac_mul(acc, inner), [c])
    return acc


def frac_divmod(a, b) -> Tuple[list, list]:
    """Euclidean division over Q: (quotient, remainder) lists."""
    if not frac_trim(b):
        raise ZeroDivisionError("polynomial division by zero")
    rem, b = frac_trim(a), frac_trim(b)
    db = len(b) - 1
    if len(rem) - 1 < db:
        return [], rem
    quot = [Fraction(0)] * (len(rem) - db)
    for k in range(len(rem) - db - 1, -1, -1):
        c = rem[k + db] / b[-1]
        if c != 0:
            quot[k] = c
            for j, v in enumerate(b):
                rem[k + j] -= c * v
    return frac_trim(quot), frac_trim(rem[:db])


def poly_divmod(poly: UniPoly, divisor: UniPoly) -> Tuple[UniPoly, UniPoly]:
    """Euclidean division of UniPolys over Q, by frac_divmod."""
    quot, rem = frac_divmod(poly.coeffs, divisor.coeffs)
    return UniPoly(quot, poly.var), UniPoly(rem, poly.var)


def strip_factor(poly: UniPoly, factor: UniPoly,
                 cap: Optional[int] = None) -> Tuple[UniPoly, int]:
    """(poly / factor^k, k) for the largest k, at most cap, such that
    factor^k divides poly, by repeated division over Q; factor must have
    positive degree, or be a nonzero constant under a cap. The oracle of
    polynomials.int_strip."""
    if factor.degree < (0 if cap is not None else 1):
        raise ValueError("strip_factor needs a factor of positive degree, "
                         "or a nonzero constant and a cap")
    k = 0
    while poly.degree >= factor.degree and (cap is None or k < cap):
        quot, rem = poly_divmod(poly, factor)
        if not rem.is_zero():
            break
        poly, k = quot, k + 1
    return poly, k


def divides(divisor: UniPoly, poly: UniPoly) -> bool:
    """Whether divisor divides poly exactly in Q[x]."""
    if divisor.is_zero():
        return poly.is_zero()
    return poly_divmod(poly, divisor)[1].is_zero()


# -- an independent root counter ----------------------------------------------
#
# Sturm's theorem on the chains of roots.sturm_chain, evaluated with
# frac_eval: the root-count oracle of the isolation tests, which shares no
# evaluation code with exactvc.

def cauchy_bound(p: UniPoly) -> Fraction:
    """Strict bound B with every real root of the nonzero p inside (-B, B)."""
    biggest = max((abs(c) for c in p.ints[:-1]), default=0)
    return 1 + Fraction(biggest, abs(p.ints[-1]))


def sign_variations(chain, x: Fraction) -> int:
    """Sign changes along the chain's values at x, zeros skipped."""
    signs = [v > 0 for v in (frac_eval(cs, x) for cs in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def count_roots_between(chain, a: Fraction, b: Fraction) -> int:
    """Distinct real roots in (a, b) of the chain's head; a and b must not
    be roots."""
    return sign_variations(chain, a) - sign_variations(chain, b)


def naive_determinant(rows, zero, one):
    """Cofactor-expansion determinant; independent cross-check of the
    fraction-free Bareiss determinant."""
    n = len(rows)
    if n == 0:
        return one
    if n == 1:
        return rows[0][0]
    total = zero
    for j in range(n):
        a = rows[0][j]
        if a == zero:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = a * naive_determinant(minor, zero, one)
        total = total + (term if j % 2 == 0 else -term)
    return total


def load_stats_fixture(name) -> OneWayStats:
    with open(fixture_path(name)) as f:
        d = json.load(f)
    return OneWayStats(
        tuple(d["sizes"]),
        tuple(d["mults"]),
        tuple(Fraction(str(v)) for v in d["means"]),
        tuple(Fraction(str(v)) for v in d["betweenSS"]),
        Fraction(str(d["withinSS"])))


def random_oneway_stats(rng: random.Random, max_q: int = 10,
                        max_size: int = 30) -> OneWayStats:
    """Random generic sufficient statistics.

    Rational means and positive sums of squares with moderate numerators
    and denominators; generic with overwhelming probability.
    """
    while True:
        M = rng.randrange(1, 6)
        sizes = sorted(rng.sample(range(1, max_size + 1), M))
        if max(sizes) < 2:
            continue
        mults = []
        budget = max_q
        for i in range(M):
            hi = max(1, min(4, budget - (M - 1 - i)))
            m = rng.randrange(1, hi + 1)
            mults.append(m)
            budget -= m
        if sum(mults) < 2:
            continue
        means = tuple(Fraction(rng.randrange(-400, 401), rng.randrange(1, 40))
                      for _ in range(M))
        between = tuple(
            Fraction(rng.randrange(1, 900), rng.randrange(1, 30))
            if m >= 2 else Fraction(0)
            for m in mults)
        within = Fraction(rng.randrange(1, 2000), rng.randrange(1, 20))
        return OneWayStats(tuple(sizes), tuple(mults), means, between, within)


def ladder_stats(rng: random.Random, M: int) -> OneWayStats:
    """The benchmark's one-way ladder: sizes 2, ..., M + 1, every second
    size shared by two groups, two-decimal values drawn from rng."""
    mults = tuple(1 + (i % 2) for i in range(M))
    return OneWayStats(
        tuple(range(2, M + 2)), mults,
        tuple(Fraction(rng.randrange(-5000, 5000), 100) for _ in range(M)),
        tuple(Fraction(rng.randrange(100, 50000), 100) if m >= 2
              else Fraction(0) for m in mults),
        Fraction(rng.randrange(10000, 100000), 100))


# -- the paper's closed forms ------------------------------------------------
#
# The one-way stationarity numerators as the paper writes them, from a
# simple-pole family f_a and a double-pole family g_a of weighted sums,
# built term by term. They are the reference the library's profile
# equations are checked against; nothing here calls the library's
# equation machinery.

def _cleared_sum(stats, weights, power):
    """d^power * sum_i w_i / (1 + n_i theta)^power as a polynomial."""
    lin = [UniPoly([1, n], "theta") for n in stats.sizes]
    acc = UniPoly.zero("theta")
    for i, w in enumerate(weights):
        term = UniPoly.constant(w, "theta")
        for j, l in enumerate(lin):
            if j != i:
                term = term * l ** power
        acc = acc + term
    return acc


def closed_forms(stats: OneWayStats) -> SimpleNamespace:
    """The paper's basis and raw ML/REML numerators for one-way stats.

    d = prod (1 + n_i theta) = d1 d2 over singleton and repeated size
    classes; f_a and g_a clear sum m_i n_i a_i / (1 + n_i theta) and
    sum m_i n_i^2 a_i / (1 + n_i theta)^2 for a = 1, Y, Y^2 and B/m;
    bracket = W f1 d + fY2 f1 - fY^2 + f1 fBm. With
    h = f1^2 gY2 - 2 fY f1 gY + fY^2 g1 + f1^2 gBm,

        raw_ml = N h - f1^2 bracket,
        raw_reml = (g1 - f1^2) bracket + (N - 1) h,

    each the numerator of the derivative over a denominator positive on
    [0, inf). d1 divides raw_ml and d1^2 divides raw_reml.
    """
    n, m, Y, B = stats.sizes, stats.mults, stats.means, stats.betweenSS
    cf = SimpleNamespace()
    one = UniPoly.constant(1, "theta")
    cf.d1, cf.d2 = one, one
    for size, mult in zip(n, m):
        if mult == 1:
            cf.d1 = cf.d1 * UniPoly([1, size], "theta")
        else:
            cf.d2 = cf.d2 * UniPoly([1, size], "theta")
    cf.d = cf.d1 * cf.d2
    families = {
        "1": [Fraction(mi * ni) for mi, ni in zip(m, n)],
        "Y": [mi * ni * y for mi, ni, y in zip(m, n, Y)],
        "Y2": [mi * ni * y * y for mi, ni, y in zip(m, n, Y)],
        "Bm": [ni * b for ni, b in zip(n, B)],
    }
    for a, w in families.items():
        setattr(cf, "f" + a, _cleared_sum(stats, w, 1))
        setattr(cf, "g" + a, _cleared_sum(
            stats, [wi * ni for wi, ni in zip(w, n)], 2))
    cf.bracket = (cf.f1 * cf.d * stats.withinSS + cf.fY2 * cf.f1
                  - cf.fY * cf.fY + cf.f1 * cf.fBm)
    cf.h = (cf.f1 * cf.f1 * cf.gY2 - 2 * cf.fY * cf.f1 * cf.gY
            + cf.fY * cf.fY * cf.g1 + cf.f1 * cf.f1 * cf.gBm)
    cf.raw_ml = cf.h * stats.N - cf.f1 * cf.f1 * cf.bracket
    cf.raw_reml = ((cf.g1 - cf.f1 * cf.f1) * cf.bracket
                   + cf.h * (stats.N - 1))
    return cf


def summarize_reference(data: GroupedData) -> OneWayStats:
    """stats.summarize by per-value Fraction sums around each mean; the
    oracle of the integer-totals summary."""
    by_size = {}
    within = Fraction(0)
    for g in data.groups:
        n = len(g)
        gm = sum(g, Fraction(0)) / n
        within += sum((v - gm) ** 2 for v in g)
        by_size.setdefault(n, []).append(gm)
    sizes = sorted(by_size)
    mults, means, between = [], [], []
    for n in sizes:
        gms = by_size[n]
        m = len(gms)
        mu = sum(gms, Fraction(0)) / m
        mults.append(m)
        means.append(mu)
        between.append(sum((v - mu) ** 2 for v in gms))
    return OneWayStats(tuple(sizes), tuple(mults), tuple(means),
                       tuple(between), within)


def twoway_stats_reference(array) -> TwoWayStats:
    """twoway.twoway_stats by Fraction means and centred squares; the
    oracle of the integer-totals decomposition. Takes a valid layout."""
    r, q, n = len(array), len(array[0]), len(array[0][0])
    y = [[[rat(v) for v in cell] for cell in row] for row in array]
    cell_mean = [[sum(c, Fraction(0)) / n for c in row] for row in y]
    row_mean = [sum(cm, Fraction(0)) / q for cm in cell_mean]
    col_mean = [sum(cell_mean[i][j] for i in range(r)) / r for j in range(q)]
    grand = sum(row_mean, Fraction(0)) / r

    ssa = sum(q * n * (rm - grand) ** 2 for rm in row_mean)
    ssb = sum(r * n * (cm - grand) ** 2 for cm in col_mean)
    ssab = sum(n * (cell_mean[i][j] - row_mean[i] - col_mean[j] + grand) ** 2
               for i in range(r) for j in range(q))
    sse = sum((v - cell_mean[i][j]) ** 2
              for i in range(r) for j in range(q) for v in y[i][j])
    return TwoWayStats(r, q, n, ssa, ssb, ssab, sse, grand)


def random_summary_value(rng: random.Random, big: list):
    """One observation as callers may pass it: an int, a decimal or "p/q"
    string, a Fraction, zero, or a Fraction over one of the large
    denominators in big."""
    kind = rng.randrange(7)
    if kind == 0:
        return rng.randint(-50, 50)
    if kind == 1:
        return f"{rng.randint(-99999, 99999) / 1000:.3f}"
    if kind == 2:
        return f"{rng.randint(-60, 60)}/{rng.randint(1, 48)}"
    if kind == 3:
        return Fraction(rng.randint(-999, 999), rng.randint(1, 97))
    if kind == 4:
        return 0
    if kind == 5:
        return "-1e-3"
    return Fraction(rng.randint(-10 ** 40, 10 ** 40), rng.choice(big))


def random_twoway_stats(rng):
    def ss():
        return Fraction(rng.randint(1, 400), rng.randint(1, 40))
    r, q = rng.randint(2, 5), rng.randint(2, 5)
    n = rng.randint(1, 3)
    sse = Fraction(0) if n == 1 else ss()
    return TwoWayStats(r, q, n, ss(), ss(), ss(), sse)


# -- the cleared two-way system ----------------------------------------------
#
# The three two-way stationarity equations with their denominators cleared,
# as sparse polynomials in (omega, tau1, tau2). They are the reference the
# library's one-variable elimination is checked against: tests evaluate them
# at planted points and fitted boxes and rebuild the Sylvester resultant
# cascade from them.

TWOWAY_VARS = ("omega", "tau1", "tau2")


def twoway_residual(stats, model="additive"):
    """Residual log weight e and sum of squares E of a two-way model."""
    r, q, n = stats.r, stats.q, stats.n
    if model == "additive":
        return r * q * n - r - q + 1, stats.SSAB + stats.SSE
    return (r - 1) * (q - 1), stats.SSAB


def twoway_cleared_system(stats, model="additive"):
    """The cleared equations (P0, P1, P2). With a = omega + qn tau1,
    b = omega + rn tau2 and c = a + b - omega,

        P0 = c (e omega - E) - omega^2
        P1 = (r-1) a c + a^2 - SSA c
        P2 = (q-1) b c + b^2 - SSB c

    For the interaction model omega stands for w = omega_hat + n tau12.
    """
    r, q, n = stats.r, stats.q, stats.n
    e, E = twoway_residual(stats, model)
    om, t1, t2 = (MultiPoly.variable(v, TWOWAY_VARS) for v in TWOWAY_VARS)
    a = om + t1 * Fraction(q * n)
    b = om + t2 * Fraction(r * n)
    c = a + t2 * Fraction(r * n)
    p0 = c * (om * e - E) - om * om
    p1 = a * c * (r - 1) + a * a - c * stats.SSA
    p2 = b * c * (q - 1) + b * b - c * stats.SSB
    return p0, p1, p2


# -- the two-quadratic elimination -------------------------------------------
#
# twoway.eliminate_to_quartic as it was when the eliminant was the
# closed-form resultant of two full quadratics in a: A, and B with all three
# of its coefficient lists. eliminate_to_quartic must give the same
# eliminated polynomial, quartic, tau relations and NongenericDataError.

def twoway_elimination_reference(system):
    """(eliminated, quartic, tau1_relation, tau2_relation, note) of a
    TwoWaySystem, or the NongenericDataError the elimination raises.

    s A = a2 a^2 + a1 a + a0 and s^2 B = b2 a^2 + b1 a + b0 with L = e omega
    - E, S = omega^2 + omega L and s the lcm of the denominators of SSA,
    SSB and E, as in twoway._quadratics' docstring. Res_a(A, B) = (a2 b0 -
    a0 b2)^2 - (a2 b1 - a1 b2)(a1 b0 - a0 b1); b2 = a2^2, so a2 A - B is
    linear in a and gives the tau relations.
    """
    stats = system.stats
    ss = (stats.SSA, stats.SSB, system.resid_ss)
    s = lcm(*(v.denominator for v in ss))
    alpha, beta, eps = (v.numerator * (s // v.denominator) for v in ss)
    ell = [-eps, s * system.weight]
    big_s = [0, -eps, s * (system.weight + 1)]
    om2_ell = [0, 0] + ell
    q1 = s * (stats.q - 1)
    a0, a1, a2 = [0, 0, -alpha], [0, 0, s * (stats.r - 1)], ell
    b0 = int_sum([(1, int_mul(big_s, big_s)), (q1, [0, 0] + big_s),
                  (-beta, om2_ell)])
    b1 = int_sum([(-2, int_mul(big_s, ell)), (-q1, om2_ell)])
    b2 = int_mul(ell, ell)
    x = int_sum([(1, int_mul(a2, b0)), (-1, int_mul(a0, b2))])
    y = int_sum([(1, int_mul(a2, b1)), (-1, int_mul(a1, b2))])
    z = int_sum([(1, int_mul(a1, b0)), (-1, int_mul(a0, b1))])
    res = int_sum([(1, int_mul(x, x)), (-1, int_mul(y, z))])
    if not res:
        raise NongenericDataError(
            "resultant vanished identically; the equations share a "
            "positive-dimensional component")
    low = next(i for i, c in enumerate(res) if c)
    res, _ = int_strip(_int_primitive(res[low:]), _int_primitive(a2))
    poly = squarefree_part(UniPoly(res, twoway.VAR))
    note = None
    if poly.degree != 4:
        note = (f"eliminated polynomial has degree {poly.degree}, not 4; "
                "data lies outside the generic stratum")
    t1 = t2 = None
    if poly.degree >= 1:
        slope = int_sum([(1, int_mul(a2, a1)), (-1, b1)])
        offset = int_sum([(1, int_mul(a2, a0)), (-1, b0)])
        f = poly.ints
        t1 = twoway._quotient_mod(
            int_sum([(-1, offset), (-1, [0] + slope)]),
            [stats.q * stats.n * v for v in slope], f)
        if t1 is None:
            raise NongenericDataError(
                "no linear back-substitution relation exists: tau1 is not "
                "a rational function of the eliminated variable on this "
                "data")
        t2 = twoway._quotient_mod(
            int_sum([(s, [0, 0] + slope), (1, int_mul(offset, a2))]),
            [stats.r * stats.n * v for v in int_mul(a2, slope)], f)
    presented = poly
    if system.model == "interaction" and poly.degree >= 1:
        oh = system.omega_hat
        presented = UniPoly(int_on_interval(poly.ints, oh, oh + stats.n),
                            "tau12").primitive()
    return poly, presented, t1, t2, note


def log_interval(lo, hi, prec: int) -> Optional[Approx]:
    """The enclosure of log x over [lo, hi] that log_bounds' integers over
    4^prec give, or None with them: a log for the oracles that shares no
    code with enclosure.criterion."""
    ends = log_bounds(lo, hi, prec)
    if ends is None:
        return None
    return Approx(Fraction(ends[0], 4 ** prec), Fraction(ends[1], 4 ** prec))


def reciprocal(a: Approx) -> Approx:
    """The enclosure 1 / a of an enclosure a that excludes 0."""
    if a.lo <= 0 <= a.hi:
        raise ValueError("reciprocal of an interval through 0")
    return Approx(1 / a.hi, 1 / a.lo)


def contains(a: Approx, v) -> bool:
    """Whether the enclosure a holds the rational v."""
    return a.lo <= Fraction(v) <= a.hi


def interval_sum(a: Approx, b: Approx) -> Approx:
    """The enclosure a + b."""
    return Approx(a.lo + b.lo, a.hi + b.hi)


def interval_difference(a: Approx, b: Approx) -> Approx:
    """The enclosure a - b."""
    return Approx(a.lo - b.hi, a.hi - b.lo)


def interval_scale(a: Approx, c) -> Approx:
    """The enclosure c a for a rational c >= 0."""
    c = Fraction(c)
    if c < 0:
        raise ValueError("interval_scale takes a nonnegative factor")
    return Approx(a.lo * c, a.hi * c)


def interval_product(a: Approx, b: Approx) -> Approx:
    """The general interval product: the least and greatest of the four
    products of ends, for ends of any sign."""
    cands = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return Approx(min(cands), max(cands))


def multi_range(mp, bounds):
    """Rigorous range enclosure (lo, hi) of a sparse polynomial over a box."""
    total = Approx.exact(0)
    for mono, coef in mp.terms.items():
        term = Approx.exact(coef)
        for var, exp in zip(mp.vars, mono):
            for _ in range(exp):
                term = interval_product(term, Approx(*bounds[var]))
        total = interval_sum(total, term)
    return total.lo, total.hi


def solution_residuals(equations, sol):
    """Enclosures of the cleared equations at a solution box.

    sol needs var_value (the eliminated variable), tau1 and tau2, each
    with lo and hi bounds.
    """
    bounds = {
        "omega": (sol.var_value.lo, sol.var_value.hi),
        "tau1": (sol.tau1.lo, sol.tau1.hi),
        "tau2": (sol.tau2.lo, sol.tau2.hi),
    }
    return tuple(Approx(*multi_range(eq, bounds)) for eq in equations)


# ----------------------------------------------------------------------
# Covariate profile reference
#
# The profile record of a covariate design built the direct way, as
# polynomial matrices: the cleared normal equations A = d X'KX, b = d X'KY
# and c = d Y'KY with UniPoly entries, and their determinants by Bareiss
# over UniPoly. covariates.gls_profile must give the same record.

def gls_profile_reference(design) -> ProfilePolys:
    """G = det A, the Cramer numerators of beta_hat and the bordered
    determinant P = c G - b' adj(A) b, from polynomial matrices."""
    sizes, mults = design.size_classes()
    lin = {n: UniPoly([1, n]) for n in sizes}
    d = product(lin[n] for n in sizes)
    t = UniPoly([0, 1])
    # theta * d/(1 + n theta), the coefficient that clears each J block
    toff = {n: t * d.exact_divide(lin[n]) for n in sizes}

    p = design.p
    zero = UniPoly.zero()
    A = [[zero] * p for _ in range(p)]
    b = [zero] * p
    c = zero
    row = 0
    for ng in design.group_sizes:
        Xg = design.x[row:row + ng]
        Yg = design.y[row:row + ng]
        row += ng
        colsum = [sum(r[j] for r in Xg) for j in range(p)]
        ysum = sum(Yg, Fraction(0))
        tko = toff[ng]
        for j in range(p):
            for k in range(j, p):
                dot = sum(r[j] * r[k] for r in Xg)
                entry = d * dot - tko * (colsum[j] * colsum[k])
                A[j][k] = A[j][k] + entry
                if k != j:
                    A[k][j] = A[k][j] + entry
            bdot = sum(r[j] * v for r, v in zip(Xg, Yg))
            b[j] = b[j] + d * bdot - tko * (colsum[j] * ysum)
        c = c + d * sum(v * v for v in Yg) - tko * (ysum * ysum)

    one = UniPoly.constant(1)
    G = bareiss_determinant([list(r) for r in A], zero, one)
    cramer = []
    for j in range(p):
        cols = [[b[i] if k == j else A[i][k] for k in range(p)]
                for i in range(p)]
        cramer.append(bareiss_determinant(cols, zero, one))
    bordered = [list(A[i]) + [b[i]] for i in range(p)] + [list(b) + [c]]
    P = bareiss_determinant(bordered, zero, one)
    return ProfilePolys(N=design.N, p=p, sizes=sizes, mults=mults, d=d,
                        gram_det=G, p_poly=P, cramer=tuple(cramer))


# ----------------------------------------------------------------------
# Rank reference
#
# Fraction Gauss-Jordan elimination with row pivoting over every row.
# covariates.DesignProblem decides full column rank and has_intercept from
# an integer Gram matrix instead; they must agree with this rank.

def column_rank_reference(rows) -> int:
    """Exact rank by fraction Gaussian elimination with row pivoting."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


# ----------------------------------------------------------------------
# Refinement and range references
#
# Plain bisection on the sign change, halving once per step, and interval
# Horner in Fraction arithmetic. roots._bisect_to_width must return the
# same interval and roots.poly_range the same enclosure.

def bisect_to_width_reference(q_int, lo: Fraction, hi: Fraction,
                              width: Fraction) -> Tuple[Fraction, Fraction]:
    """Shrink a sign-change interval below the target width.

    Precondition: q(lo) and q(hi) are nonzero with opposite signs, and
    exactly one root of q lies between them; both stay true on return.

    The endpoints are kept as integer numerators a, b over one shared
    denominator d * 2^s, and the sign at the midpoint (a + b) / (d * 2^(s+1))
    comes from an integer-only homogeneous Horner sum, so no Fraction is
    normalised inside the loop.
    """
    d = lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (d // lo.denominator)
    b = hi.numerator * (d // hi.denominator)
    # w[j] = q_(n-j) * d^j, so q(m / (d 2^s)) * (d 2^s)^n is
    # sum_j w[j] * m^(n-j) * 2^(s j)
    w = []
    dp = 1
    for c in reversed(q_int):
        w.append(c * dp)
        dp *= d

    def sign_at(m: int, s: int) -> int:
        acc = 0
        for j, c in enumerate(w):
            acc = acc * m + (c << (s * j))
        return (acc > 0) - (acc < 0)

    wn, wd = width.numerator, width.denominator
    s = 0
    s_lo = sign_at(a, 0)
    while (b - a) * wd > wn * (d << s):
        m = a + b
        a, b, s = a << 1, b << 1, s + 1
        s_mid = sign_at(m, s)
        if s_mid == 0:
            # landed exactly on the root: return a tight straddle
            den = d << s
            lo, mid, hi = Fraction(a, den), Fraction(m, den), Fraction(b, den)
            delta = min(width / 2, (hi - mid) / 2, (mid - lo) / 2)
            return mid - delta, mid + delta
        if s_mid == s_lo:
            a = m
        else:
            b = m
    return Fraction(a, d << s), Fraction(b, d << s)


def poly_range_reference(p: UniPoly, lo: Fraction,
                         hi: Fraction) -> Tuple[Fraction, Fraction]:
    """Rigorous enclosure of {p(x) : x in [lo, hi]} by interval Horner.

    The returned rational interval contains the exact range (it may be
    wider). Exact endpoints for degenerate input lo == hi.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError("interval endpoints out of order")
    if lo == hi:
        v = p(lo)
        return v, v
    acc_lo = acc_hi = Fraction(0)
    for c in reversed(p.coeffs):
        cands = (acc_lo * lo, acc_lo * hi, acc_hi * lo, acc_hi * hi)
        acc_lo, acc_hi = min(cands) + c, max(cands) + c
    return acc_lo, acc_hi


# ----------------------------------------------------------------------
# The two-way feasibility pass on rational enclosures
#
# fit_twoway's driver as it was before feasibility was read off integer
# ranges: each root's signs come from Fraction enclosures of the eliminated
# variable, tau1, tau2 and (interaction) tau12, and the feasible roots are
# then ranked. fit_twoway must report the same intervals and flags.

def _enclosure_sign(a: Approx):
    """+1 or -1 when a excludes 0, 0 when a is exactly 0, else None."""
    if a.lo > 0:
        return 1
    if a.hi < 0:
        return -1
    return 0 if a.lo == a.hi == 0 else None


def twoway_feasibility_reference(stats, model, width):
    """[(interval, feasible)] for each root of fit_twoway(stats, model,
    width). A root's interval is refined 32x, under the ranking caps, while
    one of its enclosures straddles 0; the feasible roots' intervals are
    then refined by one certified_argmax on twoway._loglik_box."""
    system = twoway.ml_system(stats, model)
    rep = twoway.eliminate_to_quartic(system)
    if rep.eliminated.degree < 1:
        return []
    t1, t2 = rep.tau1_relation, rep.tau2_relation
    out = []
    for iv in isolate_real_roots(rep.eliminated, domain="all",
                                 max_width=width):
        for _ in range(profilefit._MAX_RANK_ROUNDS):
            encl = [Approx(iv.lo, iv.hi),
                    Approx(*poly_range_reference(t1, iv.lo, iv.hi)),
                    Approx(*poly_range_reference(t2, iv.lo, iv.hi))]
            if model == "interaction":
                oh, n = system.omega_hat, stats.n
                encl.append(Approx((iv.lo - oh) / n, (iv.hi - oh) / n))
            signs = [_enclosure_sign(a) for a in encl]
            if None not in signs or iv.width() <= profilefit._TIE_WIDTH_CAP:
                break
            iv = refine_interval(iv, iv.width() / 32)
        out.append([iv, False if signs[0] == 0 or -1 in signs
                    else None if None in signs else True])
    idxs = [i for i, (_, f) in enumerate(out) if f]
    if idxs:
        ranked = certified_argmax(
            [out[i][0] for i in idxs],
            lambda lo, hi, prec: twoway._loglik_box(
                system, twoway._ranges(system, t1, t2, lo, hi), prec))[0]
        for i, iv in zip(idxs, ranked):
            out[i][0] = iv
    return [tuple(pair) for pair in out]


# ----------------------------------------------------------------------
# Per-row CSV loaders
#
# The CSV loaders as they were before rows were read a block at a time:
# a lazy reader of one row per step and, in each loader, one io._pair (or
# io.parse_rational) call per cell, so every refusal is raised at its row.
# The block loaders of exactvc.io must give the same stats, or the same
# InputError message, on every file.

def csv_rows_reference(path: str):
    """(line, stripped cells) of each non-blank row, read lazily; a row
    must be as wide as the first, the header."""
    width = None
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader, line = csv.reader(fh), 1
            try:
                for row in reader:
                    if row:
                        width = width or len(row)
                        if len(row) != width:
                            raise InputError(f"{path} line {line}: "
                                             f"expected {width} fields")
                        yield line, [cell.strip() for cell in row]
                    line = reader.line_num + 1
            except UnicodeDecodeError as exc:
                if not fh.seekable():
                    raise InputError(f"{path}: malformed CSV: {exc}") from exc
                at = fh.buffer.tell() - len(exc.object) + exc.start
                raise InputError(
                    f"{path}: malformed CSV: 'utf-8' codec can't decode "
                    f"byte 0x{exc.object[exc.start]:02x} at file offset "
                    f"{at}: {exc.reason}") from exc
            except csv.Error as exc:
                raise InputError(
                    f"{path} line {line}: malformed CSV: {exc}") from exc
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if width is None:
        raise InputError(f"{path}: empty CSV file")


def _pair_at(path, line, text):
    try:
        return xio._pair(text)
    except InputError as exc:
        raise InputError(f"{path} line {line}: {exc}") from None


def load_oneway_csv_reference(path: str) -> OneWayStats:
    rows = csv_rows_reference(path)
    if next(rows)[1] != xio.ONEWAY_HEADER:
        raise InputError(f"{path}: header must be exactly group,value")
    groups = {}
    for line, row in rows:
        groups.setdefault(row[0], []).append(_pair_at(path, line, row[1]))
    s = lcm(*{d for g in groups.values() for _, d in g})
    return summarize_ints(
        [[n * (s // d) for n, d in g] for g in groups.values()], s)


def load_covariates_csv_reference(path: str,
                                  add_intercept: bool = False):
    rows = csv_rows_reference(path)
    if not xio._is_covariates_header(next(rows)[1]):
        raise InputError(f"{path}: header must be group,y,x1,...")
    by_group = {}
    for line, row in rows:
        try:
            vals = [xio.parse_rational(v) for v in row[1:]]
        except InputError as exc:
            raise InputError(f"{path} line {line}: {exc}") from None
        by_group.setdefault(row[0], []).append(vals)
    y, x, sizes = [], [], []
    for group in by_group.values():
        sizes.append(len(group))
        for vals in group:
            y.append(vals[0])
            x.append([Fraction(1)] + vals[1:] if add_intercept else vals[1:])
    return DesignProblem(tuple(y), tuple(tuple(r) for r in x), tuple(sizes))


def load_twoway_csv_reference(path: str) -> TwoWayStats:
    rows = csv_rows_reference(path)
    if next(rows)[1] != xio.TWOWAY_HEADER:
        raise InputError(f"{path}: header must be exactly row,col,rep,value")
    cells = {}
    for line, row in rows:
        key = (row[0], row[1], row[2])
        if key in cells:
            raise InputError(f"{path} line {line}: duplicate cell {key}")
        cells[key] = _pair_at(path, line, row[3])
    levels = [sorted({k[i] for k in cells}) for i in range(3)]
    if len(cells) != len(levels[0]) * len(levels[1]) * len(levels[2]):
        raise InputError(
            f"{path}: incomplete layout; {len(cells)} cells, expected "
            + "x".join(str(len(v)) for v in levels))
    s = lcm(*{d for _, d in cells.values()})
    x = {key: n * (s // d) for key, (n, d) in cells.items()}
    rows_, cols, reps = levels
    return twoway_stats_ints(
        [[[x[a, b, c] for c in reps] for b in cols] for a in rows_], s)
