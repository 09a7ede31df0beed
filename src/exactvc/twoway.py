"""Balanced two-way layouts: exact elimination of the ML system.

The crossed random-effects model with r row levels, q column levels and
n replicates per cell has a covariance matrix whose eigenvalues are
affine in the variance components, so the likelihood splits over four
sums of squares. The stationarity conditions are three rational
equations; clearing denominators gives three polynomials in (omega,
tau1, tau2) whose extraneous factors are known in closed form. Two
Sylvester resultants eliminate tau2 and tau1, trial division removes
the clearing factors, and the squarefree part is a quartic for generic
data. Back-substitution reduces each tau to a linear relation modulo
the quartic, so every solution is a polynomial image of a quartic root
and can be enclosed exactly.

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
from typing import Dict, List, Optional, Sequence, Tuple

from .enclosure import Approx, interval_divide, log_enclosure
from .errors import (
    DegenerateDataError,
    InputError,
    ModelAssumptionError,
    NongenericDataError,
    UndefinedInputError,
)
from .multipoly import MultiPoly, resultant_eliminate
from .polynomials import UniPoly, rat, squarefree_part
from .profilefit import _MAX_RANK_ROUNDS, _TIE_WIDTH_CAP, certified_argmax
from .roots import RootInterval, isolate_real_roots, poly_range, refine_interval

VAR = "omega"
SYSTEM_VARS = ("omega", "tau1", "tau2")


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
        object.__setattr__(self, "r", int(self.r))
        object.__setattr__(self, "q", int(self.q))
        object.__setattr__(self, "n", int(self.n))
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
    """Cleared stationarity system in (omega, tau1, tau2).

    For the interaction model the variable named omega stands for the
    inflated variance w = omega_hat + n tau12 and the error variance is
    fixed at omega_hat. weight is the residual log weight (rqn-r-q+1
    additive, (r-1)(q-1) interaction) and resid_ss the matching sum of
    squares. clearing lists the univariate factors whose powers are
    extraneous after elimination.
    """

    model: str
    stats: TwoWayStats
    weight: int
    resid_ss: Fraction
    equations: Tuple[MultiPoly, MultiPoly, MultiPoly]
    clearing: Tuple[UniPoly, ...]
    mu_hat: Optional[Fraction]
    omega_hat: Optional[Fraction]


def ml_system(stats: TwoWayStats, model: str = "additive") -> TwoWaySystem:
    """Cleared critical equations for the chosen model.

    The rational stationarity conditions, with a = omega + qn tau1,
    b = omega + rn tau2, c = omega + qn tau1 + rn tau2 and E the
    residual sum of squares with weight e, are

        e/omega - 1/c = E/omega^2
        (r-1)/a + 1/c = SSA/a^2
        (q-1)/b + 1/c = SSB/b^2

    cleared to P0 = c(e omega - E) - omega^2, P1 = (r-1)ac + a^2 - SSA c,
    P2 = (q-1)bc + b^2 - SSB c. At any solution with c > 0 the factor
    e omega - E equals omega^2/c, so neither omega nor e omega - E can
    vanish there; both are safe to divide out of resultants.
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

    om = MultiPoly.variable("omega", SYSTEM_VARS)
    t1 = MultiPoly.variable("tau1", SYSTEM_VARS)
    t2 = MultiPoly.variable("tau2", SYSTEM_VARS)
    a = om + t1 * Fraction(q * n)
    b = om + t2 * Fraction(r * n)
    c = om + t1 * Fraction(q * n) + t2 * Fraction(r * n)

    p0 = c * (om * Fraction(weight) - MultiPoly.constant(resid, SYSTEM_VARS)) - om * om
    p1 = a * c * Fraction(r - 1) + a * a - c * stats.SSA
    p2 = b * c * Fraction(q - 1) + b * b - c * stats.SSB

    omega_factor = UniPoly.variable(VAR)
    resid_factor = UniPoly([-resid, weight], VAR).primitive()
    return TwoWaySystem(
        model=model, stats=stats, weight=weight, resid_ss=resid,
        equations=(p0, p1, p2),
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


def _unify(mp: MultiPoly) -> UniPoly:
    return mp.to_unipoly(VAR)


def _strip_factor(p: UniPoly, factor: UniPoly) -> UniPoly:
    while p.degree >= factor.degree:
        quot, rem = p.divmod(factor)
        if not rem.is_zero():
            break
        p = quot
    return p


def _eliminated_poly(system: TwoWaySystem) -> Tuple[UniPoly, MultiPoly, MultiPoly, Optional[str]]:
    """Resultant cascade to a univariate polynomial in the omega slot.

    Returns (cleaned squarefree primitive polynomial, R01, R02, note)
    where the note reports a nongeneric degree. Eliminates tau2 from
    (P0, P1) and (P0, P2), then tau1; divides out the stored clearing
    factors and takes the squarefree part.
    """
    p0, p1, p2 = system.equations
    try:
        r01 = resultant_eliminate(p0, p1, "tau2")
        r02 = resultant_eliminate(p0, p2, "tau2")
        rfinal = resultant_eliminate(r01, r02, "tau1")
    except UndefinedInputError as exc:
        raise NongenericDataError(
            f"elimination degenerated: {exc}") from exc
    if rfinal.is_zero():
        raise NongenericDataError(
            "resultant vanished identically; the equations share a "
            "positive-dimensional component")
    poly = _unify(rfinal).primitive()
    for factor in system.clearing:
        poly = _strip_factor(poly, factor)
    poly = squarefree_part(poly).primitive()
    note = None
    if poly.degree != 4:
        note = (f"eliminated polynomial has degree {poly.degree}, not 4; "
                "data lies outside the generic stratum")
    return poly, r01, r02, note


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


def _tau_coeffs(rpoly: MultiPoly, modulus: UniPoly) -> List[UniPoly]:
    out = []
    for k in range(rpoly.degree_in("tau1") + 1):
        out.append(rpoly.coeff_in("tau1", k).to_unipoly(VAR).rem(modulus))
    while len(out) > 1 and out[-1].is_zero():
        out.pop()
    return out


def _vanishes_at(coeffs: Sequence[UniPoly], t: UniPoly,
                 modulus: UniPoly) -> bool:
    acc = UniPoly.zero(VAR)
    power = UniPoly.constant(1, VAR)
    for coef in coeffs:
        acc = (acc + coef * power).rem(modulus)
        power = (power * t).rem(modulus)
    return acc.is_zero()


def _linear_relation(r01: MultiPoly, r02: MultiPoly,
                     modulus: UniPoly) -> UniPoly:
    """Solve the pair of bivariate relations for tau1 modulo the quartic.

    A Euclid-style descent on the tau1 coefficient vectors (cross
    multiplying leading coefficients, since the quotient ring is not a
    field) produces linear candidates u*tau1 + v; each is accepted only
    when u is a unit and both original eliminants vanish at -v/u. When
    every candidate fails, tau1 is genuinely not a rational function of
    the eliminated variable. That happens on symmetric strata, e.g.
    equal factor dimensions with SSA = SSB, where solutions come in
    tau-swapped pairs over a shared root.
    """
    orig = (_tau_coeffs(r01, modulus), _tau_coeffs(r02, modulus))
    A, B = list(orig[0]), list(orig[1])
    candidates = [list(c) for c in (A, B) if len(c) == 2]
    while True:
        if len(A) < len(B):
            A, B = B, A
        if len(B) < 2:
            break
        # kill A's leading coefficient: A*lc(B) - B*lc(A)*tau1^(dA-dB)
        shift = len(A) - len(B)
        lcA, lcB = A[-1], B[-1]
        newA = [(coef * lcB).rem(modulus) for coef in A[:-1]]
        for i, coef in enumerate(B[:-1]):
            newA[i + shift] = (newA[i + shift] - coef * lcA).rem(modulus)
        while newA and newA[-1].is_zero():
            newA.pop()
        if not newA:
            break
        A = newA
        if len(A) == 2:
            candidates.append(list(A))
    for lin in candidates:
        u, v = lin[1], lin[0]
        inv = _mod_inverse(u, modulus)
        if inv is None:
            continue
        t = ((v * inv).rem(modulus)) * Fraction(-1)
        if all(_vanishes_at(coeffs, t, modulus) for coeffs in orig):
            return t
    raise NongenericDataError(
        "no linear back-substitution relation exists: tau1 is not a "
        "rational function of the eliminated variable on this data")


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
    solutions empty. The tau1 relation comes from the eliminant pair;
    tau2 is recovered through c = omega^2/(e omega - E), which is
    invertible modulo the cleaned polynomial because the linear
    clearing factor was divided out.
    """
    poly, r01, r02, note = _eliminated_poly(system)
    stats = system.stats
    tau1_rel = tau2_rel = None
    if poly.degree >= 1:
        t1 = _linear_relation(r01, r02, poly)
        inv_clear = _mod_inverse(system.clearing[1], poly)
        if inv_clear is None:
            raise NongenericDataError(
                "clearing factor is a zero divisor modulo the "
                "eliminated polynomial")
        om = UniPoly.variable(VAR)
        weight_c = system.clearing[1].coeff(1)   # primitive scale of e
        # c = omega^2/(e omega - E); the primitive clearing factor is
        # (e omega - E)/content, so multiply the inverse back down
        c_poly = ((om * om * inv_clear).rem(poly)
                  * (weight_c / Fraction(system.weight)))
        t2 = ((c_poly - om - t1 * Fraction(stats.q * stats.n))
              * Fraction(1, stats.r * stats.n)).rem(poly)
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
# Interval evaluation helpers
# ----------------------------------------------------------------------

Pair = Tuple[Fraction, Fraction]


def multi_range(mp: MultiPoly, bounds: Dict[str, Pair]) -> Pair:
    """Rigorous range enclosure of a sparse polynomial over a box."""
    total = Approx.exact(0)
    for mono, coef in mp.terms.items():
        term = Approx.exact(coef)
        for var, exp in zip(mp.vars, mono):
            for _ in range(exp):
                term = term * Approx(*bounds[var])
        total = total + term
    return total.lo, total.hi


def solution_residuals(system: TwoWaySystem,
                       sol: TwoWaySolution) -> Tuple[Approx, ...]:
    """Enclosures of the three cleared equations at a solution box."""
    bounds = {
        "omega": (sol.var_value.lo, sol.var_value.hi),
        "tau1": (sol.tau1.lo, sol.tau1.hi),
        "tau2": (sol.tau2.lo, sol.tau2.hi),
    }
    return tuple(Approx(*multi_range(eq, bounds)) for eq in system.equations)


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
