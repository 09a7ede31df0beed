"""Shared machinery for univariate profile criteria in the variance ratio.

Both estimation methods, with or without covariates, reduce to the same
situation: the derivative of a profile objective in theta equals a rational
function whose denominator is strictly positive on [0, inf). Everything
here works off that one fact. The raw numerator sheds the denominator's
known linear factors (1 + n theta) and one gcd cancels the rest. The one
global orientation sign is read off the leading coefficient: every factor
of the denominator is positive on [0, inf) with a positive leading
coefficient, so cancelling never changes the sign of the derivative there.
Roots are isolated and classified by exact derivative signs, and the
global optimum is chosen by comparing rigorous objective enclosures that
are refined until the comparison is decisive.

The objective and its stationarity equation are defined here once for
both one-way fits: a ProfilePolys record of the design X (the plain layout
is X = 1) is all they need.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple, Union

from .enclosure import Approx, interval_divide, log_enclosure
from .errors import ContractViolationError, DegenerateDesignError
from .polynomials import UniPoly, descartes_sign_changes, poly_gcd, strip_factor
from .roots import (
    RootInterval,
    cauchy_bound,
    isolate_real_roots,
    poly_range,
    refine_interval,
    sign,
)

LOCAL_MAX = "local_max"
LOCAL_MIN = "local_min"
SADDLE = "saddle"

# Ranking effort caps: interval widths shrink by 32x per round while the
# log precision climbs; past the cap the report carries a tie flag.
_TIE_WIDTH_CAP = Fraction(1, 10 ** 40)
_MAX_RANK_ROUNDS = 40


@dataclass(frozen=True)
class ProfileEquation:
    """Cancelled stationarity condition for a profile objective.

    numerator is in primitive normal form (coprime integer coefficients,
    positive leading coefficient). denominator is what remains of the raw
    denominator after cancellation; it is strictly positive on [0, inf).
    orientation is the sign s such that

        sign(d/dtheta objective) = s * sign(numerator(theta))

    for every theta >= 0 off the numerator's roots.
    """

    numerator: UniPoly
    denominator: UniPoly
    expected_degree: Optional[int]
    observed_degree: int
    method_tag: str
    orientation: int

    def degree_matches(self) -> bool:
        return (self.expected_degree is None
                or self.expected_degree == self.observed_degree)


@dataclass(frozen=True)
class Estimates:
    """Point estimates at one value of theta, each with a certified bound.

    theta is an isolating interval, or an exact rational for boundary and
    degenerate cases. beta is only populated by covariate fits.
    """

    theta: Union[RootInterval, Fraction]
    mu: Optional[Approx]
    kappa: Approx
    omega: Approx
    tau: Approx
    loglik: Approx
    beta: Optional[Tuple[Approx, ...]] = None


@dataclass(frozen=True)
class FitReport:
    equation: ProfileEquation
    stationary_points: Tuple[Tuple[RootInterval, str], ...]
    boundary_is_max: bool
    global_estimates: Estimates
    sign_changes: int
    tie: bool = False
    negative_roots: int = 0     # diagnostic only; domain of interest is [0, inf)


@dataclass(frozen=True)
class ProfilePolys:
    """A one-way layout with fixed-effect design X, profiled in theta.

    d = prod (1 + n theta) over the distinct sizes; G = det(d X'KX) and the
    bordered determinant P are positive on [0, inf), rss = P / (d G) and
    beta_j = cramer[j] / G. covariates.profile_from_sums is the one builder
    of the record, for a covariate design and for the plain layout X = 1,
    whose one Cramer numerator is reported as mu (mean is set).
    """

    N: int
    p: int
    sizes: Tuple[int, ...]
    mults: Tuple[int, ...]
    d: UniPoly
    gram_det: UniPoly
    p_poly: UniPoly
    cramer: Tuple[UniPoly, ...]
    mean: bool = False

    def rss_pair(self) -> Tuple[UniPoly, UniPoly]:
        """(P, D) with rss(theta) = P/D and D = d * G."""
        return self.p_poly, self.d * self.gram_det


# ----------------------------------------------------------------------
# Equation construction
# ----------------------------------------------------------------------

def build_profile_equation(num: UniPoly, den: UniPoly,
                           expected_degree: Optional[int],
                           method_tag: str) -> ProfileEquation:
    """Cancel, normalize and orient a profile derivative num / den.

    Every factor of den is positive on [0, inf) with a positive leading
    coefficient, so the orientation is the sign of lc(num) (see the module
    docstring); one that is not negative leaves no maximizer and breaks
    the caller's contract. One gcd cancels the fraction: in Q[theta] the
    quotients by a gcd are coprime. expected_degree is the counting
    formulas' prediction, or None; method_tag is "ML" or "REML".
    """
    orientation = sign(num.leading_coeff())
    if orientation >= 0:
        raise ContractViolationError(
            "objective does not decrease for large theta")
    g = poly_gcd(num, den)
    num, den = num.exact_divide(g), den.exact_divide(g)
    num_p = num.primitive()
    return ProfileEquation(
        numerator=num_p,
        denominator=den,
        expected_degree=expected_degree,
        observed_degree=num_p.degree,
        method_tag=method_tag,
        orientation=orientation)


def profile_equation(prof: ProfilePolys, method: str,
                     expected_degree: Optional[int] = None) -> ProfileEquation:
    """Cancelled stationarity numerator of one method's profile objective.

    With w = N (ML) or N - p (REML), D = d G and f1 = d * sum m_i n_i /
    (1 + n_i theta), the derivative of the objective is

        objective'(theta) = [P u - w P' D] / (P d G),   u = w D' - f1 G,

    and REML also subtracts G' d - p d' G, which is d G times the
    derivative of log(G / d^p), from u. The denominator is positive on
    [0, inf).

    Raises DegenerateDesignError when P or the numerator vanishes
    identically, or when the objective does not fall off for large theta:
    it behaves like growth * log(theta) there, so a positive leading
    coefficient means growth > 0 (unbounded) or growth = 0 with the
    supremum at the large-theta limit. No finite maximizer exists then.
    """
    P, D = prof.rss_pair()
    if P.is_zero():
        raise DegenerateDesignError(
            "response lies in the covariate span; the residual sum of "
            "squares vanishes identically")
    d, G = prof.d, prof.gram_det
    w = prof.N if method == "ML" else prof.N - prof.p
    f1 = UniPoly.zero(d.var)
    for n, m in zip(prof.sizes, prof.mults):
        f1 = f1 + d.exact_divide(UniPoly.linear(1, n, d.var)) * (m * n)
    u = D.derivative() * w - f1 * G
    if method == "REML":
        u = u - G.derivative() * d + d.derivative() * G * prof.p
    raw = P * u - P.derivative() * D * w
    if raw.is_zero():
        raise DegenerateDesignError(
            "criterion is constant in theta; the variance ratio is not "
            "identified")
    if raw.leading_coeff() > 0:
        growth = w * (D.degree - P.degree) - sum(prof.mults)
        if method == "REML":
            growth -= G.degree - prof.p * d.degree
        raise DegenerateDesignError(
            "criterion increases without bound as theta grows; "
            "no maximizer exists" if growth > 0 else
            "criterion approaches its supremum only in the large-theta "
            "limit; no finite maximizer exists beyond the last "
            "stationary point")
    # P d G = prod (1 + n theta)^(1 + kp + kg) * core_P * core_G: raw loses
    # each known linear factor as often as it divides, one gcd the rest
    den, core_p, core_g = UniPoly.constant(1, d.var), P, G
    for n in prof.sizes:
        lin = UniPoly.linear(1, n, d.var)
        core_p, kp = strip_factor(core_p, lin)
        core_g, kg = strip_factor(core_g, lin)
        raw, k = strip_factor(raw, lin, 1 + kp + kg)
        den = den * lin ** (1 + kp + kg - k)
    return build_profile_equation(raw, den * core_g * core_p,
                                  expected_degree, method)


# ----------------------------------------------------------------------
# Classification
# ----------------------------------------------------------------------

def classify_stationary_points(eq: ProfileEquation,
                               ivs: Sequence[RootInterval]) -> List[str]:
    """Label each isolated nonnegative root by the derivative's sign flip.

    The derivative sign just left/right of a root is the orientation times
    the numerator's sign at the isolating interval's endpoints (which are
    never roots). A +/- flip is a local maximum of the profile; a -/+ flip
    is a profile minimum, which the full objective sees as a saddle; no
    flip is a degenerate saddle.
    """
    num = eq.numerator
    labels = []
    for i, iv in enumerate(ivs):
        if iv.is_point():
            # exact root (at the origin): only the right side is in-domain
            if i + 1 < len(ivs):
                right_probe = (iv.hi + ivs[i + 1].lo) / 2
            else:
                right_probe = cauchy_bound(num) + 1
            s_right = eq.orientation * sign(num(right_probe))
            labels.append(LOCAL_MAX if s_right < 0 else SADDLE)
            continue
        s_left = eq.orientation * sign(num(iv.lo))
        s_right = eq.orientation * sign(num(iv.hi))
        if s_left > 0 and s_right < 0:
            labels.append(LOCAL_MAX)
        elif s_left < 0 and s_right > 0:
            labels.append(SADDLE)   # profile minimum = saddle of the objective
        else:
            labels.append(SADDLE)   # no sign flip: degenerate
    return labels


# ----------------------------------------------------------------------
# Certified selection
# ----------------------------------------------------------------------

Theta = Union[RootInterval, Fraction]
# (theta_lo, theta_hi, prec) -> objective enclosure over the interval
LoglikFn = Callable[[Fraction, Fraction, int], Optional[Approx]]
# (theta_lo, theta_hi) -> (mu, kappa, beta) enclosures
ValuesFn = Callable[[Fraction, Fraction], Optional[tuple]]

# An isolating interval is narrowed 32x per failed enclosure, at most this
# many times.
_MAX_RETRIES = 80


def theta_pair(theta: Theta) -> Tuple[Fraction, Fraction]:
    """(lo, hi) of an isolating interval, or (t, t) for an exact theta."""
    if isinstance(theta, RootInterval):
        return theta.lo, theta.hi
    t = Fraction(theta)
    return t, t


def enclose_at(fn: Callable, theta: Theta, poly: Optional[UniPoly]):
    """(theta, fn(lo, hi)), narrowing theta while fn returns None.

    fn returns None when its rational-interval step degenerates; an
    isolating interval is then refined 32x against poly, the polynomial it
    isolates a root of. An exact theta cannot be narrowed, so a None there
    is a broken contract, as is a None after _MAX_RETRIES refinements.
    """
    for _ in range(_MAX_RETRIES):
        out = fn(*theta_pair(theta))
        if out is not None:
            return theta, out
        if not isinstance(theta, RootInterval) or theta.is_point():
            raise ContractViolationError(
                "enclosure failed at an exact theta")
        theta = refine_interval(poly, theta, theta.width() / 32)
    raise ContractViolationError("enclosures did not converge")


def _leader(thetas: Sequence[Theta], encl: Sequence[Approx]):
    """Index with the greatest lower bound (lowest left endpoint on equal
    bounds), and every index whose enclosure reaches that bound."""
    best = max(range(len(thetas)),
               key=lambda i: (encl[i].lo, -theta_pair(thetas[i])[0]))
    return best, [i for i, e in enumerate(encl)
                  if i == best or e.hi >= encl[best].lo]


def certified_argmax(thetas: Sequence[Theta], poly: UniPoly,
                     loglik: LoglikFn):
    """Certify which theta carries the greatest objective value.

    Each round encloses the objective at every theta, at a log precision
    of 192 bits plus 96 per round. The leader wins once its lower bound
    clears every rival's upper bound. Otherwise every isolating interval
    still overlapping the leader is refined 32x, down to _TIE_WIDTH_CAP.
    After _MAX_RANK_ROUNDS rounds, or once nothing is left to refine and
    the precision is past 1200 bits, the overlap is reported as a tie.

    Args:
        thetas: isolating intervals of roots of poly, or exact rationals.
        poly: the polynomial the intervals isolate roots of.
        loglik: (theta_lo, theta_hi, prec) -> objective enclosure, or None
            when theta must be narrowed first.

    Returns:
        (thetas, enclosures, winner, tie): the refined thetas, their last
        enclosures, the leader's index, and the indices still overlapping
        the leader (empty when the winner is certified).
    """
    thetas = list(thetas)
    encl: List[Approx] = [None] * len(thetas)
    prec = 192
    for _ in range(_MAX_RANK_ROUNDS):
        for i, theta in enumerate(thetas):
            thetas[i], encl[i] = enclose_at(
                lambda lo, hi: loglik(lo, hi, prec), theta, poly)
        best, tied = _leader(thetas, encl)
        if tied == [best]:
            return thetas, encl, best, []
        stuck = True
        for i in tied:
            theta = thetas[i]
            if (isinstance(theta, RootInterval) and not theta.is_point()
                    and theta.width() > _TIE_WIDTH_CAP):
                thetas[i] = refine_interval(
                    poly, theta, max(theta.width() / 32, _TIE_WIDTH_CAP))
                stuck = False
        prec += 96
        if stuck and prec > 1200:
            break
    best, tied = _leader(thetas, encl)
    return thetas, encl, best, tied


def certified_estimates(theta: Theta, poly: Optional[UniPoly],
                        loglik: LoglikFn, values: ValuesFn,
                        prec: int = 256) -> Estimates:
    """Estimates at theta, narrowing an isolating interval against poly
    until the objective and every value have a certified enclosure."""
    if not isinstance(theta, RootInterval):
        theta = Fraction(theta)

    def both(lo, hi):
        ll, vals = loglik(lo, hi, prec), values(lo, hi)
        return None if ll is None or vals is None else (ll, vals)

    theta, (ll, (mu, kappa, beta)) = enclose_at(both, theta, poly)
    omega = kappa.reciprocal()
    return Estimates(theta=theta, mu=mu, kappa=kappa, omega=omega,
                     tau=Approx(*theta_pair(theta)) * omega, loglik=ll,
                     beta=beta)


def fit_profile(eq: ProfileEquation, loglik: LoglikFn, values: ValuesFn,
                refine_width: Fraction = Fraction(1, 10 ** 12)) -> FitReport:
    """Shared fitting driver: isolate, classify, select, estimate.

    Args:
        eq: cancelled and oriented profile equation.
        loglik: (theta_lo, theta_hi, prec) -> objective enclosure, or
            None when the rational-interval step degenerates and a
            narrower theta interval is needed.
        values: (theta_lo, theta_hi) -> (mu, kappa, beta) enclosures, or
            None likewise.
        refine_width: width to which reported root intervals are refined.

    Returns:
        FitReport with every nonnegative root classified and the global
        optimum certified (or tie-flagged at the effort cap).
    """
    refine_width = Fraction(refine_width)
    if refine_width <= 0:
        raise ValueError("refine_width must be positive")
    num = eq.numerator
    ivs, n_negative = isolate_real_roots(
        num, domain="nonnegative", max_width=refine_width, count_negative=True)
    labels = classify_stationary_points(eq, ivs)

    # candidates: every local maximum (an exact root as its rational) and,
    # when the objective is nonincreasing from the boundary, theta = 0
    slots = [i for i, label in enumerate(labels) if label == LOCAL_MAX]
    thetas: List[Theta] = [ivs[i].lo if ivs[i].is_point() else ivs[i]
                           for i in slots]
    s_at_zero = sign(num(Fraction(0)))
    if s_at_zero != 0 and eq.orientation * s_at_zero < 0:
        thetas.append(Fraction(0))
    if not thetas:
        raise ContractViolationError(
            "no maximum candidate found; orientation contract broken")

    thetas, _, best, tied = certified_argmax(thetas, num, loglik)

    # fold ranking-driven refinements back into the reported intervals
    ivs = list(ivs)
    for i, theta in zip(slots, thetas):
        if isinstance(theta, RootInterval):
            ivs[i] = theta

    winner = thetas[best]
    return FitReport(
        equation=eq,
        stationary_points=tuple(zip(ivs, labels)),
        boundary_is_max=not isinstance(winner, RootInterval) and winner == 0,
        global_estimates=certified_estimates(winner, num, loglik, values),
        sign_changes=descartes_sign_changes(num),
        tie=bool(tied),
        negative_roots=n_negative)


# ----------------------------------------------------------------------
# The profile objective and its drivers
# ----------------------------------------------------------------------

# method -> the model's cancelled profile equation
EquationFn = Callable[[str], ProfileEquation]


def profile_objective(prof: ProfilePolys, method: str):
    """(loglik, values) of one method's objective over theta intervals.

    With weight w = N (ML) or N - p (REML) and kappa_hat = w d G / P,
    loglik(lo, hi, prec) encloses w log kappa_hat - sum m_i log(1 + n_i
    theta) - w, less log(G / d^p) = log det(X'KX) for REML. values(lo, hi)
    encloses (mu, kappa, beta). Either returns None when its interval step
    degenerates, or when P or G is not positive.
    """
    if method not in ("ML", "REML"):
        raise ValueError("method must be ML or REML")
    weight = prof.N if method == "ML" else prof.N - prof.p
    P, D = prof.rss_pair()
    G = prof.gram_det
    dp = prof.d ** prof.p
    kd_weighted = D * Fraction(weight)

    def loglik(lo: Fraction, hi: Fraction, prec: int) -> Optional[Approx]:
        if lo < 0:
            raise ValueError("theta must be nonnegative")
        kap = interval_divide(poly_range(D, lo, hi), poly_range(P, lo, hi))
        lk = None if kap is None else log_enclosure(
            kap.lo * weight, kap.hi * weight, prec)
        if lk is None:
            return None
        total = lk.scale(weight) - Approx.exact(weight)
        for n, m in zip(prof.sizes, prof.mults):
            le = log_enclosure(1 + n * lo, 1 + n * hi, prec)
            total = total - le.scale(m)
        if method == "REML":
            r = interval_divide(poly_range(G, lo, hi), poly_range(dp, lo, hi))
            lr = None if r is None else log_enclosure(r.lo, r.hi, prec)
            if lr is None:
                return None
            total = total - lr
        return total

    def values(lo: Fraction, hi: Fraction):
        prange, grange = poly_range(P, lo, hi), poly_range(G, lo, hi)
        if prange[0] <= 0 or grange[0] <= 0:
            return None
        kappa = interval_divide(poly_range(kd_weighted, lo, hi), prange)
        if kappa.lo <= 0:
            return None
        coef = tuple(interval_divide(poly_range(c, lo, hi), grange)
                     for c in prof.cramer)
        return (coef[0], kappa, None) if prof.mean else (None, kappa, coef)

    return loglik, values


def profile_fit(prof: ProfilePolys, equation: EquationFn, method: str,
                refine_width) -> FitReport:
    """Global optimum of one method's objective, certified by fit_profile."""
    loglik, values = profile_objective(prof, method)
    return fit_profile(equation(method), loglik, values, refine_width)


def profile_estimates(prof: ProfilePolys, equation: EquationFn, theta,
                      method: str, prec: int) -> Estimates:
    """Estimates at theta; only an isolating interval builds the equation."""
    loglik, values = profile_objective(prof, method)
    poly = equation(method).numerator if isinstance(theta, RootInterval) else None
    return certified_estimates(theta, poly, loglik, values, prec)


def profile_value(prof: ProfilePolys, equation: EquationFn, theta,
                  method: str, prec: int) -> Approx:
    """Enclosure of one method's objective at theta, as profile_estimates."""
    loglik, _ = profile_objective(prof, method)
    poly = equation(method).numerator if isinstance(theta, RootInterval) else None
    return enclose_at(lambda lo, hi: loglik(lo, hi, prec), theta, poly)[1]
