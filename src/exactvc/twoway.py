"""Balanced two-way layouts: exact elimination of the ML system.

The crossed random-effects model with r row levels, q column levels and
n replicates per cell has a covariance matrix whose eigenvalues are
affine in the variance components, so the likelihood splits over four
sums of squares. The stationarity conditions are three rational
equations in omega and a = omega + qn tau1, b = omega + rn tau2,
c = a + b - omega. The first fixes c = omega^2/(e omega - E); then a and
b each satisfy a quadratic over Q[omega], and a + b = c + omega turns
the b-quadratic into a second quadratic in a. Their resultant in a is a
polynomial in omega alone; trial division removes the known clearing
factors and the squarefree part is a quartic for generic data. The two
quadratics have proportional leading coefficients, so one combination
of them is linear in a: tau1 is its solution modulo the quartic and
tau2 follows from c. Every solution is a polynomial image of a quartic
root and can be enclosed exactly.

The interaction model separates: the error variance is estimated in
closed form and the remaining three equations are the additive system
in the inflated variance w = omega_hat + n tau12, with its own residual
weight and sum of squares. The same elimination runs in w and the
quartic is presented in tau12 by composition.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

from .enclosure import Approx, interval_divide, log_enclosure
from .errors import (
    DegenerateDataError,
    InputError,
    ModelAssumptionError,
    NongenericDataError,
)
from .polynomials import UniPoly, rat, squarefree_part
from .profilefit import _MAX_RANK_ROUNDS, _TIE_WIDTH_CAP, certified_argmax
from .roots import RootInterval, isolate_real_roots, poly_range, refine_interval
from .stats import exact_count

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
            object.__setattr__(self, name, rat(getattr(self, name)))
        if self.grand_mean is not None:
            object.__setattr__(self, "grand_mean", rat(self.grand_mean))
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


def twoway_stats(array: Sequence[Sequence[Sequence]]) -> TwoWayStats:
    """Exact SS decomposition of a balanced r x q x n array.

    Args:
        array: nested sequences, array[i][j][k] the k-th replicate in
            row level i and column level j; all cells the same size.

    Returns:
        TwoWayStats with SSA + SSB + SSAB + SSE equal to the total
        centered sum of squares.
    """
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
    squares E. clearing lists omega and the primitive e omega - E, whose
    powers are extraneous after elimination.
    """

    model: str
    stats: TwoWayStats
    weight: int
    resid_ss: Fraction
    clearing: Tuple[UniPoly, ...]
    mu_hat: Optional[Fraction]
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
    builds the equations from the e, E and clearing factors recorded.
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

    omega_factor = UniPoly.variable(VAR)
    resid_factor = UniPoly([-resid, weight], VAR).primitive()
    return TwoWaySystem(
        model=model, stats=stats, weight=weight, resid_ss=resid,
        clearing=(omega_factor, resid_factor),
        mu_hat=stats.grand_mean, omega_hat=omega_hat)


# ----------------------------------------------------------------------
# Elimination
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TauRelation:
    """Linear relation tau_coeff * tau + omega_part(omega) = 0.

    Coefficients are coprime integers with tau_coeff > 0; value_poly
    is the solved rational form tau = value_poly(omega).
    """

    tau_coeff: int
    omega_part: UniPoly

    def value_poly(self) -> UniPoly:
        return self.omega_part * Fraction(-1, self.tau_coeff)

    def integer_coeffs(self) -> List[int]:
        return [self.tau_coeff] + self.omega_part.integer_coeffs()


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
    model: str
    mu: Optional[Fraction]
    omega_hat: Optional[Fraction]       # interaction only
    quartic: UniPoly                    # presented variable (omega or tau12)
    eliminated: UniPoly                 # always in the eliminated variable
    observed_degree: int
    tau1_relation: Optional[TauRelation]
    tau2_relation: Optional[TauRelation]
    solutions: Tuple[TwoWaySolution, ...]
    global_solution: Optional[TwoWaySolution]
    boundary: bool
    nongeneric: Optional[str]
    tie: bool = False


def _strip_factor(p: UniPoly, factor: UniPoly) -> UniPoly:
    while p.degree >= factor.degree:
        quot, rem = p.divmod(factor)
        if not rem.is_zero():
            break
        p = quot
    return p


Quadratic = Tuple[UniPoly, UniPoly, UniPoly]


def _quadratics(system: TwoWaySystem) -> Tuple[Quadratic, Quadratic]:
    """The a- and b-equations as quadratics in a over Q[omega].

    With L = e omega - E the first equation gives c = omega^2/L, and
    L times the second is A = L a^2 + (r-1) omega^2 a - SSA omega^2.
    Since a + b = c + omega, L b = S - L a with S = omega^2 + omega L,
    and L^2 times the third is B = (S - L a)^2 + (q-1) omega^2 (S - L a)
    - SSB omega^2 L. Returns the coefficients of A and of B in a, low
    degree first.
    """
    stats = system.stats
    om = UniPoly.variable(VAR)
    om2 = om * om
    ell = UniPoly([-system.resid_ss, system.weight], VAR)
    s = om2 + om * ell
    quad_a = (om2 * -stats.SSA, om2 * (stats.r - 1), ell)
    quad_b = (s * s + om2 * s * (stats.q - 1) - om2 * ell * stats.SSB,
              ell * s * -2 - om2 * ell * (stats.q - 1),
              ell * ell)
    return quad_a, quad_b


def _eliminated_poly(quad_a: Quadratic, quad_b: Quadratic,
                     clearing: Sequence[UniPoly]
                     ) -> Tuple[UniPoly, Optional[str]]:
    """Resultant in a of the two quadratics, cleaned.

    Returns (squarefree primitive polynomial in the omega slot, note)
    where the note reports a nongeneric degree. The resultant of two
    quadratics is (a2 b0 - a0 b2)^2 - (a2 b1 - a1 b2)(a1 b0 - a0 b1);
    the stored clearing factors are divided out before the squarefree
    part is taken.
    """
    (a0, a1, a2), (b0, b1, b2) = quad_a, quad_b
    res = ((a2 * b0 - a0 * b2) ** 2
           - (a2 * b1 - a1 * b2) * (a1 * b0 - a0 * b1))
    if res.is_zero():
        raise NongenericDataError(
            "resultant vanished identically; the equations share a "
            "positive-dimensional component")
    poly = res.primitive()
    for factor in clearing:
        poly = _strip_factor(poly, factor)
    poly = squarefree_part(poly).primitive()
    note = None
    if poly.degree != 4:
        note = (f"eliminated polynomial has degree {poly.degree}, not 4; "
                "data lies outside the generic stratum")
    return poly, note


def _mod_inverse(p: UniPoly, modulus: UniPoly) -> Optional[UniPoly]:
    """Inverse of p modulo a squarefree modulus, or None if not a unit."""
    r0, s0 = modulus, UniPoly.zero(VAR)
    r1, s1 = p.rem(modulus), UniPoly.constant(1, VAR)
    if r1.is_zero():
        return None
    while not r1.is_zero():
        quot, rem = r0.divmod(r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 - quot * s1
    if r0.degree != 0:
        return None
    return (s0 * (1 / r0.coeff(0))).rem(modulus)


def _relation_from_value(t: UniPoly) -> TauRelation:
    """Normalize tau = t(omega) to coprime integers u*tau + v = 0."""
    u = lcm(*(c.denominator for c in t.coeffs))
    ints = [int(c) for c in (t * Fraction(-u)).coeffs]
    g = gcd(u, *ints)
    return TauRelation(tau_coeff=u // g,
                       omega_part=UniPoly([c // g for c in ints], VAR))


def eliminate_to_quartic(system: TwoWaySystem) -> TwoWayFitReport:
    """Eliminate to the univariate polynomial and solve for both taus.

    Returns a report skeleton: quartic and tau relations filled in,
    solutions empty. tau1 = (a - omega)/(qn) with a the common root of
    the two quadratics; tau2 = (c - a)/(rn) with c = omega^2/L, where
    L = e omega - E is a unit modulo the cleaned polynomial because it
    was divided out.
    """
    quad_a, quad_b = _quadratics(system)
    poly, note = _eliminated_poly(quad_a, quad_b, system.clearing)
    stats = system.stats
    tau1_rel = tau2_rel = None
    if poly.degree >= 1:
        (a0, a1, ell), (b0, b1, _) = quad_a, quad_b
        # b2 = L a2, so L A - B = (L a1 - b1) a + (L a0 - b0); a slope
        # that is not a unit means A and B agree up to scale over some
        # root, as on the tau-swap symmetric strata (r = q, SSA = SSB)
        inv = _mod_inverse(ell * a1 - b1, poly)
        if inv is None:
            raise NongenericDataError(
                "no linear back-substitution relation exists: tau1 is not "
                "a rational function of the eliminated variable on this "
                "data")
        a_poly = ((ell * a0 - b0) * inv).rem(poly) * Fraction(-1)
        om = UniPoly.variable(VAR)
        c_poly = (om * om * _mod_inverse(ell, poly)).rem(poly)
        t1 = ((a_poly - om) * Fraction(1, stats.q * stats.n)).rem(poly)
        t2 = ((c_poly - a_poly) * Fraction(1, stats.r * stats.n)).rem(poly)
        tau1_rel = _relation_from_value(t1)
        tau2_rel = _relation_from_value(t2)

    presented = poly
    if system.model == "interaction" and poly.degree >= 1:
        inner = UniPoly([system.omega_hat, Fraction(stats.n)], "tau12")
        presented = poly.compose(inner).primitive()
    return TwoWayFitReport(
        model=system.model, mu=system.mu_hat, omega_hat=system.omega_hat,
        quartic=presented, eliminated=poly, observed_degree=poly.degree,
        tau1_relation=tau1_rel, tau2_relation=tau2_rel,
        solutions=(), global_solution=None, boundary=False,
        nongeneric=note)


# ----------------------------------------------------------------------
# Fitting
# ----------------------------------------------------------------------

def _tau_box(t_poly: UniPoly, iv: RootInterval) -> Approx:
    return Approx(*poly_range(t_poly, iv.lo, iv.hi))


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
    v = (lo, hi)
    tau1 = Approx(*poly_range(t1, lo, hi))
    tau2 = Approx(*poly_range(t2, lo, hi))
    a = (v[0] + q * n * tau1.lo, v[1] + q * n * tau1.hi)
    b = (v[0] + r * n * tau2.lo, v[1] + r * n * tau2.hi)
    c = (a[0] + r * n * tau2.lo, a[1] + r * n * tau2.hi)
    total = Approx.exact(0)
    for box, wt, ss in ((a, r - 1, stats.SSA), (b, q - 1, stats.SSB),
                        (v, system.weight, system.resid_ss), (c, 1, None)):
        lg = log_enclosure(box[0], box[1], prec)
        if lg is None:
            return None
        total = total - lg.scale(wt)
        if ss is not None:
            quad = interval_divide((ss, ss), box)
            if quad is None:
                return None
            total = total - quad
    if system.model == "interaction":
        oh = system.omega_hat
        lg = log_enclosure(oh, oh, prec)
        total = total - lg.scale(r * q * (n - 1)) - Approx.exact(
            stats.SSE / oh)
    return total


def _decide_nonneg(value_fn, iv: RootInterval, modulus: UniPoly,
                   strict: bool) -> Tuple[Optional[bool], RootInterval]:
    """Sign decision for a quantity over a shrinking root interval.

    Returns (decision, refined interval); None when the effort cap is
    reached before the sign of the quantity is determined.
    """
    for _ in range(_MAX_RANK_ROUNDS):
        lo, hi = value_fn(iv)
        if lo > 0:
            return True, iv
        if hi < 0:
            return False, iv
        if lo == hi == 0:
            return (not strict), iv
        if iv.is_point() or iv.width() <= _TIE_WIDTH_CAP:
            break
        iv = refine_interval(modulus, iv, iv.width() / 32)
    return None, iv


def _build_solution(system: TwoWaySystem, iv: RootInterval, poly: UniPoly,
                    t1: UniPoly, t2: UniPoly) -> TwoWaySolution:
    stats = system.stats
    decisions = []
    # the eliminated variable must be positive (w > 0 covers omega > 0)
    dec, iv = _decide_nonneg(lambda j: (j.lo, j.hi), iv, poly, strict=True)
    decisions.append(dec)
    for tp in (t1, t2):
        dec, iv = _decide_nonneg(
            lambda j, tp=tp: poly_range(tp, j.lo, j.hi), iv, poly,
            strict=False)
        decisions.append(dec)
    tau12 = None
    if system.model == "interaction":
        oh = system.omega_hat
        dec, iv = _decide_nonneg(
            lambda j: (j.lo - oh, j.hi - oh), iv, poly, strict=False)
        decisions.append(dec)
        tau12 = (Approx(iv.lo, iv.hi) - Approx.exact(oh)).scale(
            Fraction(1, stats.n))
        omega = Approx.exact(oh)
    else:
        omega = Approx(iv.lo, iv.hi)
    feasible: Optional[bool]
    if any(d is False for d in decisions):
        feasible = False
    elif any(d is None for d in decisions):
        feasible = None
    else:
        feasible = True
    return TwoWaySolution(
        var_value=iv, omega=omega, tau1=_tau_box(t1, iv),
        tau2=_tau_box(t2, iv), tau12=tau12, feasible=feasible)


def _rank_feasible(system: TwoWaySystem, sols: List[TwoWaySolution],
                   poly: UniPoly, t1: UniPoly,
                   t2: UniPoly) -> Tuple[List[TwoWaySolution], Optional[int], bool]:
    """Attach objective enclosures and pick the certified best index."""
    idxs = [i for i, s in enumerate(sols) if s.feasible]
    if not idxs:
        return sols, None, False
    ivs, encl, best, tied = certified_argmax(
        [sols[i].var_value for i in idxs], poly,
        lambda lo, hi, prec: _loglik_box(system, lo, hi, t1, t2, prec))
    for i, iv, e in zip(idxs, ivs, encl):
        sols[i] = replace(sols[i], var_value=iv, tau1=_tau_box(t1, iv),
                          tau2=_tau_box(t2, iv), loglik=e)
    return sols, idxs[best], bool(tied)


def fit_twoway(stats: TwoWayStats, model: str = "additive",
               refine_width: Fraction = Fraction(1, 10 ** 12)) -> TwoWayFitReport:
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
    refine_width = Fraction(refine_width)
    if refine_width <= 0:
        raise ValueError("refine_width must be positive")
    system = ml_system(stats, model)
    skeleton = eliminate_to_quartic(system)
    poly = skeleton.eliminated
    if poly.degree < 1:
        return replace(skeleton, boundary=True)
    t1 = skeleton.tau1_relation.value_poly()
    t2 = skeleton.tau2_relation.value_poly()
    ivs = isolate_real_roots(poly, domain="all", max_width=refine_width)
    sols = [_build_solution(system, iv, poly, t1, t2) for iv in ivs]
    sols, best, tie = _rank_feasible(system, sols, poly, t1, t2)
    # boundary is only asserted when every stationary point is certifiably
    # infeasible; an undecided feasibility flag leaves it unset and marks
    # the fit tied instead
    boundary = best is None and all(s.feasible is False for s in sols)
    if best is None and any(s.feasible is None for s in sols):
        tie = True
    return replace(
        skeleton,
        solutions=tuple(sols),
        global_solution=None if best is None else sols[best],
        boundary=boundary,
        tie=tie)
