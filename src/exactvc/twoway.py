"""Balanced two-way layouts: exact elimination of the ML system.

The crossed random-effects model with r row levels, q column levels and
n replicates per cell has a covariance matrix whose eigenvalues are
affine in the variance components, so the likelihood splits over four
sums of squares. The stationarity conditions are three rational
equations in omega and a = omega + qn tau1, b = omega + rn tau2,
c = a + b - omega. The first fixes c = omega^2/(e omega - E); then a
satisfies a quadratic A over Q[omega], and a + b = c + omega turns the
b-equation into a quadratic B in a whose leading coefficient is
proportional to A's. So one combination of them is a relation linear in
a, and its resultant with A in a, Res(A, B) over A's leading
coefficient, is a polynomial in omega alone. Division removes every
power of the known extraneous factors omega and e omega - E, and the
squarefree part is a quartic for generic data. tau1 solves the relation
modulo the quartic and tau2 follows from c. Every solution is a
polynomial image of a quartic root and can be enclosed exactly. All of
this runs on integer lists: with s the lcm of the denominators of SSA,
SSB and E, s A and s^2 times the relation lie in Z[omega][a].

The interaction model separates: the error variance is estimated in
closed form and the remaining three equations are the additive system
in the inflated variance w = omega_hat + n tau12, with its own residual
weight and sum of squares. The same elimination runs in w and the
quartic is presented in tau12 by composition.

fit_twoway makes one pass over the isolated roots, and each step reads
the integer ranges of _ranges over an interval, kept per interval so
each is evaluated once: profilefit.certified_signs decides each root's
feasibility, one certified_argmax call on _loglik_box ranks the feasible
roots, and _solution builds each root's TwoWaySolution once, over its
final interval.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, partial
from math import lcm
from typing import List, Optional, Sequence, Tuple

from .enclosure import Approx, criterion, range_quotient
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
from .roots import RootInterval, int_range, isolate_real_roots
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


def _quadratics(system: TwoWaySystem
                ) -> Tuple[int, Quadratic, Tuple[List[int], List[int]]]:
    """The a-equation as a quadratic in a over Z[omega], and the relation
    linear in a that the b-equation gives with it.

    With L = e omega - E the first equation gives c = omega^2/L, and
    L times the second is A = L a^2 + (r-1) omega^2 a - SSA omega^2.
    Since a + b = c + omega, L b = S - L a with S = omega^2 + omega L,
    and L^2 times the third is B = (S - L a)^2 + (q-1) omega^2 (S - L a)
    - SSB omega^2 L, of leading coefficient L^2 in a. So L A - B = slope a
    + offset, slope = L omega ((r+q) omega + 2L) and offset = (SSB - SSA)
    omega^2 L - S (S + (q-1) omega^2). Returns s, the lcm of the
    denominators of SSA, SSB and E, s A's coefficients in a, low degree
    first, and s^2 (slope, offset), each an ascending integer list in omega.
    """
    stats = system.stats
    ss = (stats.SSA, stats.SSB, system.resid_ss)
    s = lcm(*(v.denominator for v in ss))
    alpha, beta, eps = (v.numerator * (s // v.denominator) for v in ss)
    w = system.weight
    ell = [-eps, s * w]                                  # s L
    big_s = [0, -eps, s * (w + 1)]                       # s S
    quad_a = ([0, 0, -alpha], [0, 0, s * (stats.r - 1)], ell)
    slope = int_mul(ell, [0, -2 * eps, s * (stats.r + stats.q + 2 * w)])
    offset = int_sum([(beta - alpha, [0, 0] + ell),
                      (-1, int_mul(big_s, [0, -eps, s * (w + stats.q)]))])
    return s, quad_a, (slope, offset)


def _eliminated_poly(quad_a: Quadratic, slope: List[int], offset: List[int]
                     ) -> Tuple[UniPoly, Optional[str]]:
    """Resultant in a of A and slope a + offset, cleaned.

    Returns (squarefree primitive polynomial in the omega slot, note)
    where the note reports a nongeneric degree. Res(A, slope a + offset)
    = a2 offset^2 - a1 offset slope + a0 slope^2 is Res(A, B) / a2, and
    every power of omega and of the primitive part of a2 = s L is divided
    out before the squarefree part is taken.
    """
    a0, a1, a2 = quad_a
    res = int_sum([(1, int_mul(a2, int_mul(offset, offset))),
                   (-1, int_mul(a1, int_mul(offset, slope))),
                   (1, int_mul(a0, int_mul(slope, slope)))])
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
    s, quad_a, (slope, offset) = _quadratics(system)
    poly, note = _eliminated_poly(quad_a, slope, offset)
    stats = system.stats
    t1 = t2 = None
    if poly.degree >= 1:
        # a slope that is not a unit means A and B agree up to scale over
        # some root, as on the tau-swap symmetric strata (r = q, SSA = SSB)
        a2, f = quad_a[2], poly.ints
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

def _ranges(system: TwoWaySystem, t1: UniPoly, t2: UniPoly, lo: Fraction,
            hi: Fraction) -> Tuple[tuple, ...]:
    """Integer ranges (L, H, E) over [lo, hi] of the eliminated variable,
    tau1, tau2 and, for the interaction model, w - omega_hat: a root is
    feasible when the first is positive and the rest are nonnegative."""
    out = (_common_denominator(lo, hi), int_range(t1, lo, hi),
           int_range(t2, lo, hi))
    if system.model == "interaction":
        oh = system.omega_hat
        out += (_common_denominator(lo - oh, hi - oh),)
    return out


def _solution(system: TwoWaySystem, iv: RootInterval,
              ranges: Sequence[tuple], feasible: Optional[bool],
              loglik: Optional[Approx] = None) -> TwoWaySolution:
    """The solution at iv from the _ranges over iv: tau1 and tau2 are
    those ranges over 1, tau12 the range of w - omega_hat over n."""
    omega, tau12 = Approx(iv.lo, iv.hi), None
    if system.model == "interaction":
        n = system.stats.n
        omega = Approx.exact(system.omega_hat)
        tau12 = range_quotient(ranges[3], (n, n, 1))
    return TwoWaySolution(
        var_value=iv, omega=omega, tau1=range_quotient(ranges[1], (1, 1, 1)),
        tau2=range_quotient(ranges[2], (1, 1, 1)), tau12=tau12,
        feasible=feasible, loglik=loglik)


def _loglik_box(system: TwoWaySystem, ranges: Sequence[tuple],
                prec: int) -> Optional[Approx]:
    """Twice the profile log-likelihood (up to an additive constant), over
    the interval whose _ranges are given: the enclosure.criterion of

    -[(r-1)log a + (q-1)log b + weight*log v + log c]
    - [SSA/a + SSB/b + resid_ss/v] with v the eliminated variable;
    the interaction model adds its fixed error-variance terms, which
    are constant across candidates but kept for comparability.
    """
    stats = system.stats
    r, q, n = stats.r, stats.q, stats.n
    (vl, vh, d), (l1, h1, e1), (l2, h2, e2) = ranges[:3]
    # integer ranges of a = v + qn tau1, b = v + rn tau2, c = a + rn tau2
    f, s1, s2 = e1 * e2, q * n * d * e2, r * n * d * e1
    a = (vl * f + s1 * l1, vh * f + s1 * h1, d * f)
    b = (vl * f + s2 * l2, vh * f + s2 * h2, d * f)
    c = (a[0] + s2 * l2, a[1] + s2 * h2, d * f)
    terms = [(-wt, ((xl, e), (xh, e)), ss) for (xl, xh, e), wt, ss in (
        (a, r - 1, stats.SSA), (b, q - 1, stats.SSB),
        (ranges[0], system.weight, system.resid_ss), (c, 1, 0))]
    if system.model == "interaction":
        oh = system.omega_hat
        terms.append((-r * q * (n - 1), (oh, oh), stats.SSE))
    return criterion(0, terms, prec)


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
    # each interval's ranges are built once, whichever step reads them first
    ranges = cache(partial(_ranges, system, t1, t2))
    ivs, feasible = [], []
    for iv in isolate_real_roots(poly, domain="all", max_width=refine_width):
        iv, signs = certified_signs(iv, ranges)
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
            lambda lo, hi, prec: _loglik_box(system, ranges(lo, hi), prec))
        for i, iv, e in zip(idxs, ranked, encl):
            ivs[i], logliks[i] = iv, e
        best = idxs[top]
    sols = tuple(_solution(system, iv, ranges(iv.lo, iv.hi), f, e)
                 for iv, f, e in zip(ivs, feasible, logliks))
    # boundary is only asserted when every stationary point is certifiably
    # infeasible; an undecided feasibility flag leaves it unset and marks
    # the fit tied instead
    return replace(skeleton, solutions=sols,
                   global_solution=None if best is None else sols[best],
                   boundary=all(f is False for f in feasible),
                   tie=bool(tied) or (best is None and None in feasible))
