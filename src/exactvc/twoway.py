"""Balanced two-way layouts: exact elimination of the ML system.

The crossed random-effects model with r row levels, q column levels and
n replicates per cell has a covariance matrix whose eigenvalues are
affine in the variance components, so the likelihood splits over four
sums of squares. The stationarity conditions are three rational
equations in omega and a = omega + qn tau1, b = omega + rn tau2,
c = a + b - omega. The first fixes c = omega^2/(e omega - E); then a and
b each satisfy a quadratic over Q[omega], and a + b = c + omega turns
the b-quadratic into a second quadratic in a. Their resultant in a is a
polynomial in omega alone; division removes every power of the known
extraneous factors omega and e omega - E, and the squarefree part is a
quartic for generic data. The two quadratics have proportional leading
coefficients, so one combination of them is linear in a: tau1 is its
solution modulo the quartic and tau2 follows from c. Every solution is a
polynomial image of a quartic root and can be enclosed exactly. All of
this runs on integer lists: with s the lcm of the denominators of SSA,
SSB and E, the quadratics times s and s^2 lie in Z[omega].

The interaction model separates: the error variance is estimated in
closed form and the remaining three equations are the additive system
in the inflated variance w = omega_hat + n tau12, with its own residual
weight and sum of squares. The same elimination runs in w and the
quartic is presented in tau12 by composition.

fit_twoway makes one pass over the isolated roots: each root's
feasibility is decided by profilefit.certified_signs on the integer
ranges of the eliminated variable and the taus, the feasible roots are
ranked in one certified_argmax call, and each root's TwoWaySolution is
built once, by _solution over its final interval.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm
from typing import List, Optional, Sequence, Tuple

from .enclosure import Approx, log_bounds
from .errors import (
    DegenerateDataError,
    InputError,
    ModelAssumptionError,
    NongenericDataError,
)
from .polynomials import (UniPoly, _common_denominator, _int_primitive,
                          _int_pseudo_rem, int_mul, int_on_interval, int_strip,
                          int_sum, rat, squarefree_part)
from .profilefit import REFINE_WIDTH, certified_argmax, certified_signs
from .roots import RootInterval, int_range, isolate_real_roots, poly_range
from .stats import as_fraction, exact_count

VAR = "omega"


# ----------------------------------------------------------------------
# Sufficient statistics
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TwoWayStats:
    """Exact sums of squares for a balanced r x q x n layout.

    grand_mean is None when the statistics were supplied directly
    rather than computed from data; only the mean estimate depends
    on it.
    """

    r: int
    q: int
    n: int
    SSA: Fraction
    SSB: Fraction
    SSAB: Fraction
    SSE: Fraction
    grand_mean: Optional[Fraction] = None

    def __post_init__(self):
        for name in ("r", "q", "n"):
            object.__setattr__(self, name,
                               exact_count(getattr(self, name), name))
        for name in ("SSA", "SSB", "SSAB", "SSE"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        if self.grand_mean is not None:
            object.__setattr__(self, "grand_mean",
                               as_fraction(self.grand_mean))
        if self.r < 2 or self.q < 2:
            raise ModelAssumptionError(
                "both factors need at least two levels")
        if self.n < 1:
            raise InputError("replicate count must be positive")
        for name in ("SSA", "SSB", "SSAB", "SSE"):
            if getattr(self, name) < 0:
                raise InputError(f"{name} must be nonnegative")
        if self.n == 1 and self.SSE != 0:
            raise InputError(
                "SSE must vanish when there is a single replicate per cell")


def _layout(array) -> Tuple[int, int, int]:
    """(r, q, n) of a balanced r x q x n array, r, q >= 2 and n >= 1."""
    r = len(array)
    if r == 0 or len(array[0]) == 0:
        raise InputError("empty layout")
    q = len(array[0])
    if any(len(row) != q for row in array):
        raise InputError("ragged layout: unequal column counts")
    n = len(array[0][0])
    if n == 0 or any(len(cell) != n for row in array for cell in row):
        raise InputError("ragged layout: unequal cell sizes")
    if r < 2 or q < 2:
        raise ModelAssumptionError("both factors need at least two levels")
    return r, q, n


def twoway_stats(array: Sequence[Sequence[Sequence]]) -> TwoWayStats:
    """Exact SS decomposition of a balanced r x q x n array.

    array[i][j][k] is the k-th replicate in row level i and column level
    j; all cells have the same size. SSA + SSB + SSAB + SSE equals the
    total centered sum of squares. twoway_stats_ints sums x = s v, s the
    lcm of the value denominators."""
    _layout(array)
    y = [[[rat(v) for v in cell] for cell in row] for row in array]
    s = lcm(*{v.denominator for row in y for cell in row for v in cell})
    return twoway_stats_ints(
        [[[v.numerator * (s // v.denominator) for v in cell] for cell in row]
         for row in y], s)


def twoway_stats_ints(array, s: int) -> TwoWayStats:
    """twoway_stats of the observations x / s, x integers, s > 0. With
    cell, row, column and grand totals C, R, K, T and N = rqn, SSE =
    (n sum x^2 - sum C^2)/(n s^2), SSA = (r sum R^2 - T^2)/(N s^2), SSB =
    (q sum K^2 - T^2)/(N s^2), SSAB = (rq sum C^2 - r sum R^2 - q sum K^2
    + T^2)/(N s^2) and grand_mean = T/(N s), each built as one Fraction."""
    r, q, n = _layout(array)
    sum_sq = sum(x * x for row in array for cell in row for x in cell)
    totals = [[sum(cell) for cell in row] for row in array]
    t = sum(map(sum, totals))
    cell_sq = sum(c * c for row in totals for c in row)
    row_sq = sum(sum(row) ** 2 for row in totals)
    col_sq = sum(sum(col) ** 2 for col in zip(*totals))
    den = r * q * n * s * s
    return TwoWayStats(
        r, q, n, Fraction(r * row_sq - t * t, den),
        Fraction(q * col_sq - t * t, den),
        Fraction(r * q * cell_sq - r * row_sq - q * col_sq + t * t, den),
        Fraction(n * sum_sq - cell_sq, n * s * s), Fraction(t * s, den))


# ----------------------------------------------------------------------
# The cleared critical equations
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TwoWaySystem:
    """The data of one model's stationarity system.

    For the interaction model the variable named omega stands for the
    inflated variance w = omega_hat + n tau12 and the error variance is
    fixed at omega_hat. weight is the residual log weight e (rqn-r-q+1
    additive, (r-1)(q-1) interaction) and resid_ss the matching sum of
    squares E.
    """

    model: str
    stats: TwoWayStats
    weight: int
    resid_ss: Fraction
    omega_hat: Optional[Fraction]


def ml_system(stats: TwoWayStats, model: str = "additive") -> TwoWaySystem:
    """The stationarity system of the chosen model.

    The rational stationarity conditions, with a = omega + qn tau1,
    b = omega + rn tau2, c = omega + qn tau1 + rn tau2 and E the
    residual sum of squares with weight e, are

        e/omega - 1/c = E/omega^2
        (r-1)/a + 1/c = SSA/a^2
        (q-1)/b + 1/c = SSB/b^2

    At any solution with c > 0 the factor e omega - E equals
    omega^2/c, so neither omega nor e omega - E can vanish there; both
    are safe to divide out of the eliminant. eliminate_to_quartic
    builds the equations from the e and E recorded.
    """
    if model not in ("additive", "interaction"):
        raise ValueError("model must be additive or interaction")
    r, q, n = stats.r, stats.q, stats.n
    omega_hat = None
    if model == "additive":
        weight = r * q * n - r - q + 1
        resid = stats.SSAB + stats.SSE
    else:
        if n < 2:
            raise ModelAssumptionError(
                "the interaction model needs replicated cells")
        weight = (r - 1) * (q - 1)
        resid = stats.SSAB
        denom = r * q * (n - 1)
        if stats.SSE == 0:
            raise DegenerateDataError(
                "no within-cell variation; the error variance estimate "
                "is zero")
        omega_hat = stats.SSE / denom
    return TwoWaySystem(
        model=model, stats=stats, weight=weight, resid_ss=resid,
        omega_hat=omega_hat)


# ----------------------------------------------------------------------
# Elimination
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TwoWaySolution:
    """One stationary point: a quartic root with its back-substituted taus.

    var_value encloses the eliminated variable (omega for additive, w
    for interaction). feasible is None when refinement hit its effort
    cap before every sign was decided.
    """

    var_value: RootInterval
    omega: Approx
    tau1: Approx
    tau2: Approx
    tau12: Optional[Approx]
    feasible: Optional[bool]
    loglik: Optional[Approx] = None


@dataclass(frozen=True)
class TwoWayFitReport:
    """One model's elimination and fit.

    tau1_relation and tau2_relation are UniPolys t, reduced modulo
    eliminated, with tau = t(v) at each root v of eliminated; None when
    eliminated is constant. By UniPoly's normal form, t.den * tau =
    t.ints(v) is the relation in coprime integers, as the JSON report
    writes it. mu is the stats' grand mean, None for direct stats.
    """

    model: str
    mu: Optional[Fraction]
    omega_hat: Optional[Fraction]       # interaction only
    quartic: UniPoly                    # presented variable (omega or tau12)
    eliminated: UniPoly                 # always in the eliminated variable
    tau1_relation: Optional[UniPoly]
    tau2_relation: Optional[UniPoly]
    solutions: Tuple[TwoWaySolution, ...]
    global_solution: Optional[TwoWaySolution]
    boundary: bool
    nongeneric: Optional[str]
    tie: bool = False

    @property
    def observed_degree(self) -> int:
        return self.eliminated.degree


Quadratic = Tuple[List[int], List[int], List[int]]


def _quadratics(system: TwoWaySystem) -> Tuple[int, Quadratic, Quadratic]:
    """The a- and b-equations as quadratics in a over Z[omega].

    With L = e omega - E the first equation gives c = omega^2/L, and
    L times the second is A = L a^2 + (r-1) omega^2 a - SSA omega^2.
    Since a + b = c + omega, L b = S - L a with S = omega^2 + omega L,
    and L^2 times the third is B = (S - L a)^2 + (q-1) omega^2 (S - L a)
    - SSB omega^2 L. Returns s, the lcm of the denominators of SSA, SSB
    and E, and the integer coefficients of s A and s^2 B in a, low degree
    first, each an ascending list in omega: A and B with s(r-1), s(q-1),
    s SSA, s SSB, s E, s L, s S in place of r-1, q-1, SSA, SSB, E, L, S.
    """
    stats = system.stats
    ss = (stats.SSA, stats.SSB, system.resid_ss)
    s = lcm(*(v.denominator for v in ss))
    alpha, beta, eps = (v.numerator * (s // v.denominator) for v in ss)
    ell = [-eps, s * system.weight]                      # s L
    big_s = [0, -eps, s * (system.weight + 1)]           # s S
    om2_ell = [0, 0] + ell
    q1 = s * (stats.q - 1)
    quad_a = ([0, 0, -alpha], [0, 0, s * (stats.r - 1)], ell)
    quad_b = (int_sum([(1, int_mul(big_s, big_s)), (q1, [0, 0] + big_s),
                       (-beta, om2_ell)]),
              int_sum([(-2, int_mul(big_s, ell)), (-q1, om2_ell)]),
              int_mul(ell, ell))
    return s, quad_a, quad_b


def _eliminated_poly(quad_a: Quadratic, quad_b: Quadratic
                     ) -> Tuple[UniPoly, Optional[str]]:
    """Resultant in a of the two quadratics, cleaned.

    Returns (squarefree primitive polynomial in the omega slot, note)
    where the note reports a nongeneric degree. The resultant of two
    quadratics is (a2 b0 - a0 b2)^2 - (a2 b1 - a1 b2)(a1 b0 - a0 b1), a
    positive multiple of the unscaled one; every power of omega and of
    the primitive part of a2 = s L is divided out before the squarefree
    part is taken.
    """
    (a0, a1, a2), (b0, b1, b2) = quad_a, quad_b
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
    poly = squarefree_part(UniPoly(res, VAR))
    note = None
    if poly.degree != 4:
        note = (f"eliminated polynomial has degree {poly.degree}, not 4; "
                "data lies outside the generic stratum")
    return poly, note


def _quotient_mod(num: List[int], den: List[int],
                  f: Sequence[int]) -> Optional[UniPoly]:
    """num/den mod f, or None when den is not a unit mod f.

    The pseudo-remainders l^k p mod f (l = lc f > 0) of omega^j den,
    j < deg f, and of num are the columns and right side of an integer
    system, singular exactly when den is not a unit. Bareiss elimination
    leaves D = +-det as the last pivot; D x is integral (Cramer's rule).
    """
    d, lc, ks, cols = len(f) - 1, f[-1], [], []
    for p in [[0] * j + den for j in range(d)] + [num]:
        ks.append(max(0, len(p) - d))
        r = _int_pseudo_rem(p, f) if ks[-1] else list(p)
        cols.append(r + [0] * (d - len(r)))
    m, prev = [list(row) for row in zip(*cols)], 1
    for k in range(d):
        p = next((i for i in range(k, d) if m[i][k]), None)
        if p is None:
            return None
        m[k], m[p] = m[p], m[k]
        for i in range(k + 1, d):
            for j in range(k + 1, d + 1):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    y = [0] * d
    for i in range(d - 1, -1, -1):
        y[i] = (prev * m[i][d] - sum(m[i][j] * y[j]
                                     for j in range(i + 1, d))) // m[i][i]
    return UniPoly([v * lc ** k for v, k in zip(y, ks)], VAR,
                   prev * lc ** ks[-1])


def eliminate_to_quartic(system: TwoWaySystem) -> TwoWayFitReport:
    """Eliminate to the univariate polynomial and solve for both taus.

    Returns a report skeleton: quartic and the tau polynomials t1, t2
    filled in (tau = t(omega) modulo the cleaned polynomial), solutions
    empty. tau1 = (a - omega)/(qn) with a the common root of the two
    quadratics; tau2 = (c - a)/(rn) with c = omega^2/L, where L = e omega
    - E is a unit modulo the cleaned polynomial because it was divided
    out.
    """
    s, quad_a, quad_b = _quadratics(system)
    poly, note = _eliminated_poly(quad_a, quad_b)
    stats = system.stats
    t1 = t2 = None
    if poly.degree >= 1:
        (a0, a1, a2), (b0, b1, _) = quad_a, quad_b
        # b2 = a2^2, so a2 A - B = slope a + offset; a slope that is not
        # a unit means A and B agree up to scale over some root, as on
        # the tau-swap symmetric strata (r = q, SSA = SSB)
        slope = int_sum([(1, int_mul(a2, a1)), (-1, b1)])
        offset = int_sum([(1, int_mul(a2, a0)), (-1, b0)])
        f = poly.ints
        # tau1 = (a - omega)/(qn) with a = -offset/slope, and
        # tau2 = (c - a)/(rn) with c = omega^2/L = s omega^2/a2
        t1 = _quotient_mod(int_sum([(-1, offset), (-1, [0] + slope)]),
                           [stats.q * stats.n * v for v in slope], f)
        if t1 is None:
            raise NongenericDataError(
                "no linear back-substitution relation exists: tau1 is not "
                "a rational function of the eliminated variable on this "
                "data")
        t2 = _quotient_mod(
            int_sum([(s, [0, 0] + slope), (1, int_mul(offset, a2))]),
            [stats.r * stats.n * v for v in int_mul(a2, slope)], f)

    presented = poly
    if system.model == "interaction" and poly.degree >= 1:
        oh = system.omega_hat
        presented = UniPoly(int_on_interval(poly.ints, oh, oh + stats.n),
                            "tau12").primitive()
    return TwoWayFitReport(
        model=system.model, mu=stats.grand_mean, omega_hat=system.omega_hat,
        quartic=presented, eliminated=poly,
        tau1_relation=t1, tau2_relation=t2,
        solutions=(), global_solution=None, boundary=False,
        nongeneric=note)


# ----------------------------------------------------------------------
# Fitting
# ----------------------------------------------------------------------

def _solution(system: TwoWaySystem, iv: RootInterval, t1: UniPoly,
              t2: UniPoly, feasible: Optional[bool],
              loglik: Optional[Approx] = None) -> TwoWaySolution:
    """The solution at iv: every enclosure is taken over iv itself."""
    omega, tau12 = Approx(iv.lo, iv.hi), None
    if system.model == "interaction":
        oh, n = system.omega_hat, system.stats.n
        omega, tau12 = Approx.exact(oh), Approx((iv.lo - oh) / n,
                                                (iv.hi - oh) / n)
    return TwoWaySolution(
        var_value=iv, omega=omega, tau1=Approx(*poly_range(t1, iv.lo, iv.hi)),
        tau2=Approx(*poly_range(t2, iv.lo, iv.hi)), tau12=tau12,
        feasible=feasible, loglik=loglik)


def _loglik_box(system: TwoWaySystem, lo: Fraction, hi: Fraction,
                t1: UniPoly, t2: UniPoly, prec: int) -> Optional[Approx]:
    """Twice the profile log-likelihood (up to an additive constant).

    -[(r-1)log a + (q-1)log b + weight*log v + log c]
    - [SSA/a + SSB/b + resid_ss/v] with v the eliminated variable;
    the interaction model adds its fixed error-variance terms, which
    are constant across candidates but kept for comparability.
    """
    stats = system.stats
    r, q, n = stats.r, stats.q, stats.n
    (l1, h1, e1), (l2, h2, e2) = int_range(t1, lo, hi), int_range(t2, lo, hi)
    vl, vh, d = v = _common_denominator(lo, hi)
    # integer ranges of a = v + qn tau1, b = v + rn tau2, c = a + rn tau2
    f, s1, s2 = e1 * e2, q * n * d * e2, r * n * d * e1
    a = (vl * f + s1 * l1, vh * f + s1 * h1, d * f)
    b = (vl * f + s2 * l2, vh * f + s2 * h2, d * f)
    c = (a[0] + s2 * l2, a[1] + s2 * h2, d * f)
    terms = [(a, r - 1, stats.SSA), (b, q - 1, stats.SSB),
             (v, system.weight, system.resid_ss), (c, 1, Fraction(0))]
    if system.model == "interaction":
        oh = system.omega_hat
        terms.append((_common_denominator(oh, oh), r * q * (n - 1), stats.SSE))
    # the logs are summed as integers over 4^prec; once its log is bounded
    # x > 0, so with ss >= 0 each quotient ss/x lies in [ss e/xh, ss e/xl]
    bot, top, low, high = 0, 0, 0, 0
    for (xl, xh, e), wt, ss in terms:
        ends = log_bounds((xl, e), (xh, e), prec)
        if ends is None:
            return None
        bot, top = bot - wt * ends[1], top - wt * ends[0]
        low += Fraction(ss.numerator * e, ss.denominator * xh)
        high += Fraction(ss.numerator * e, ss.denominator * xl)
    unit = 1 << 2 * prec
    return Approx(Fraction(bot, unit) - high, Fraction(top, unit) - low)


def _feasibility_ranges(system: TwoWaySystem, t1: UniPoly, t2: UniPoly,
                        j: RootInterval) -> List[Tuple[int, int, int]]:
    """Integer ranges (L, H, E) over j of the eliminated variable, tau1, tau2
    and, for the interaction model, w - omega_hat: a root is feasible when
    the first is positive (so omega > 0) and the rest are nonnegative."""
    out = [_common_denominator(j.lo, j.hi), int_range(t1, j.lo, j.hi),
           int_range(t2, j.lo, j.hi)]
    if system.model == "interaction":
        oh = system.omega_hat
        out.append(_common_denominator(j.lo - oh, j.hi - oh))
    return out


def fit_twoway(stats: TwoWayStats, model: str = "additive",
               refine_width: Fraction = REFINE_WIDTH) -> TwoWayFitReport:
    """Solve the critical equations and certify the feasible optimum.

    Args:
        stats: balanced-layout sums of squares.
        model: "additive" or "interaction".
        refine_width: width to which root enclosures are refined.

    Returns:
        TwoWayFitReport listing every real root of the eliminated
        polynomial with back-substituted variance enclosures and
        feasibility flags (omega > 0, every tau >= 0); the feasible
        solution with the largest certified objective is selected, or
        the boundary flag is set when no interior point is feasible.
    """
    refine_width = rat(refine_width)
    if refine_width <= 0:
        raise ValueError("refine_width must be positive")
    system = ml_system(stats, model)
    skeleton = eliminate_to_quartic(system)
    poly = skeleton.eliminated
    if poly.degree < 1:
        return replace(skeleton, boundary=True)
    t1, t2 = skeleton.tau1_relation, skeleton.tau2_relation
    ivs, feasible = [], []
    for iv in isolate_real_roots(poly, domain="all", max_width=refine_width):
        iv, signs = certified_signs(
            iv, lambda j: _feasibility_ranges(system, t1, t2, j))
        ivs.append(iv)
        feasible.append(False if signs[0] == 0 or -1 in signs
                        else None if None in signs else True)
    # the feasible roots are ranked in one call, which also encloses the
    # objective of a lone one
    idxs = [i for i, f in enumerate(feasible) if f]
    logliks, best, tied = [None] * len(ivs), None, []
    if idxs:
        ranked, encl, top, tied = certified_argmax(
            [ivs[i] for i in idxs],
            lambda lo, hi, prec: _loglik_box(system, lo, hi, t1, t2, prec))
        for i, iv, e in zip(idxs, ranked, encl):
            ivs[i], logliks[i] = iv, e
        best = idxs[top]
    sols = tuple(_solution(system, iv, t1, t2, f, e)
                 for iv, f, e in zip(ivs, feasible, logliks))
    # boundary is only asserted when every stationary point is certifiably
    # infeasible; an undecided feasibility flag leaves it unset and marks
    # the fit tied instead
    return replace(skeleton, solutions=sols,
                   global_solution=None if best is None else sols[best],
                   boundary=all(f is False for f in feasible),
                   tie=bool(tied) or (best is None and None in feasible))
