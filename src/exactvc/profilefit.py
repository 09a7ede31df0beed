"""Shared machinery for univariate profile criteria in the variance ratio.

Both estimation methods, with or without covariates, reduce to the same
situation: the derivative of a profile objective in theta equals a rational
function whose denominator is strictly positive on [0, inf). Everything
here works off that one fact. The raw numerator is built on integer
coefficient lists with Kronecker products, sheds the denominator's known
factors (1 + n theta) by synthetic division and one gcd cancels the rest.
Every factor of the denominator is positive on [0, inf) with a positive
leading coefficient, so cancelling never changes the sign of the
derivative there; a fittable objective falls off for large theta, so the
derivative's sign is minus the numerator's (see ProfileEquation).
Roots are isolated and classified by exact derivative signs, and the
global optimum is chosen by comparing rigorous objective enclosures that
are refined until the comparison is decisive; a lone candidate needs no
comparison. The log-determinant in each enclosure takes one logarithm
per distinct group multiplicity. Every refinement cap, the two-way
fit's included, is applied here alone.

The objective, its stationarity equation and the three drivers
(profile_fit, profile_estimates, profile_value) are defined here once for
every model with one variance ratio: a ProfilePolys record of the design X
and a method are all they take. The plain layout (X = 1, mean set on the
record) also gets the one-way degree law of its cancelled numerator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Callable, List, Optional, Sequence, Tuple

from .enclosure import Approx, log_bounds, range_quotient
from .errors import ContractViolationError, DegenerateDesignError
from .polynomials import (
    UniPoly,
    int_derivative,
    int_linear_product,
    int_mul,
    int_strip,
    int_sum,
    poly_gcd,
)
from .roots import (
    RootInterval,
    _sign_at,
    int_range,
    isolate_real_roots,
    refine_interval,
)
from .stats import ml_degree, reml_degree

LOCAL_MAX = "local_max"
SADDLE = "saddle"

# Width to which every fit refines its reported root enclosures unless
# told otherwise.
REFINE_WIDTH = Fraction(1, 10 ** 12)
# Refinement effort caps of ranking and sign decisions: widths shrink 32x
# per round; past the cap a tie or an undecided sign is reported.
_TIE_WIDTH_CAP = Fraction(1, 10 ** 40)
_MAX_RANK_ROUNDS = 40


@dataclass(frozen=True)
class ProfileEquation:
    """Cancelled stationarity condition for a profile objective.

    numerator is in primitive normal form (coprime integer coefficients,
    positive leading coefficient). denominator is what remains of the raw
    denominator after cancellation, up to a positive constant; it is
    strictly positive on [0, inf). The raw numerator's leading coefficient
    is negative, so for every theta >= 0 off the numerator's roots

        sign(d/dtheta objective) = -sign(numerator(theta)).
    """

    numerator: UniPoly
    denominator: UniPoly
    expected_degree: Optional[int]

    @property
    def observed_degree(self) -> int:
        return self.numerator.degree

    def degree_matches(self) -> bool:
        return (self.expected_degree is None
                or self.expected_degree == self.observed_degree)


@dataclass(frozen=True)
class Estimates:
    """Point estimates at one value of theta, each with a certified bound.

    theta is an Approx: an isolating interval, or a point for the
    boundary, a root at 0 or a theta the caller gives exactly. beta is only
    populated by covariate fits.
    """

    theta: Approx
    mu: Optional[Approx]
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
    tie: bool = False
    # distinct roots below 0, counted (not isolated) by continued
    # fractions; diagnostic only, the domain of interest is [0, inf)
    negative_roots: int = 0


@dataclass(frozen=True)
class ProfilePolys:
    """A one-way layout with fixed-effect design X, profiled in theta.

    d = prod (1 + n theta) over the distinct sizes; G = det(d X'KX) and the
    bordered determinant P are positive on [0, inf), rss = P / (d G) and
    beta_j = cramer[j] / G. covariates.profile_from_sums builds the record
    of a covariate design and oneway.gls_profile that of the plain layout
    X = 1, whose one Cramer numerator is reported as mu (mean is set).
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


# ----------------------------------------------------------------------
# Equation construction
# ----------------------------------------------------------------------

def build_profile_equation(num: UniPoly, den: UniPoly, prof: ProfilePolys,
                           method: str) -> ProfileEquation:
    """Cancel and normalize the derivative num / den of prof's objective
    under method ("ML" or "REML").

    lc(num) must be negative (see ProfileEquation): any other leaves no
    maximizer and breaks the caller's contract. One gcd cancels the
    fraction: in Q[theta] the quotients by a gcd are coprime. Only the
    plain layout (prof.mean) has a degree law: ml_degree or reml_degree of
    its M sizes, M2 repeated.
    """
    if num.leading_coeff() >= 0:
        raise ContractViolationError(
            "objective does not decrease for large theta")
    g = poly_gcd(num, den)
    num, den = num.exact_divide(g), den.exact_divide(g)
    num_p = num.primitive()
    expected = None
    if prof.mean:
        law = ml_degree if method == "ML" else reml_degree
        expected = law(len(prof.sizes), sum(m >= 2 for m in prof.mults))
    return ProfileEquation(
        numerator=num_p,
        denominator=den,
        expected_degree=expected)


def _weight(prof: ProfilePolys, method: str) -> int:
    """w = N (ML) or N - p (REML); any other method is refused."""
    if method not in ("ML", "REML"):
        raise ValueError("method must be ML or REML")
    return prof.N if method == "ML" else prof.N - prof.p


def profile_equation(prof: ProfilePolys, method: str) -> ProfileEquation:
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
    if prof.p_poly.is_zero():
        raise DegenerateDesignError(
            "response lies in the covariate span; the residual sum of "
            "squares vanishes identically")
    # raw is bilinear in (P, G): on their integer numerators it only
    # scales by a positive constant, which keeps its sign and primitive part
    P, G, d = prof.p_poly.ints, prof.gram_det.ints, prof.d.ints
    w = _weight(prof, method)
    D = int_mul(d, G)
    f1 = int_sum((m * n, int_strip(d, (1, n), 1)[0])
                 for n, m in zip(prof.sizes, prof.mults))
    u = [(w, int_derivative(D)), (-1, int_mul(f1, G))]
    if method == "REML":
        u += [(-1, int_mul(int_derivative(G), d)),
              (prof.p, int_mul(int_derivative(d), G))]
    raw = int_sum([(1, int_mul(P, int_sum(u))),
                   (-w, int_mul(int_derivative(P), D))])
    if not raw:
        raise DegenerateDesignError(
            "criterion is constant in theta; the variance ratio is not "
            "identified")
    if raw[-1] > 0:
        growth = w * (len(D) - len(P)) - sum(prof.mults)
        if method == "REML":
            growth -= len(G) - 1 - prof.p * (len(d) - 1)
        raise DegenerateDesignError(
            "criterion increases without bound as theta grows; "
            "no maximizer exists" if growth > 0 else
            "criterion approaches its supremum only in the large-theta "
            "limit; no finite maximizer exists beyond the last "
            "stationary point")
    # P d G = prod (1 + n theta)^(1 + kp + kg) * core_P * core_G: raw loses
    # each known linear factor as often as it divides, one gcd the rest
    den_sizes, core_p, core_g = [], P, G
    for n in prof.sizes:
        core_p, kp = int_strip(core_p, (1, n))
        core_g, kg = int_strip(core_g, (1, n))
        raw, k = int_strip(raw, (1, n), 1 + kp + kg)
        den_sizes += [n] * (1 + kp + kg - k)
    den = int_mul(int_mul(int_linear_product(den_sizes), core_g), core_p)
    return build_profile_equation(UniPoly(raw, prof.d.var),
                                  UniPoly(den, prof.d.var), prof, method)


# ----------------------------------------------------------------------
# Classification
# ----------------------------------------------------------------------

def classify_stationary_points(eq: ProfileEquation,
                               ivs: Sequence[RootInterval]) -> List[str]:
    """Label each isolated nonnegative root by the derivative's sign flip.

    The derivative sign just left/right of a root is minus the numerator's
    sign at the isolating interval's endpoints (which are never roots). A
    +/- flip is a local maximum of the profile; a -/+ flip is a profile
    minimum, which the full objective sees as a saddle; no flip is a
    degenerate saddle. The one exact root, at the origin, has only a right
    side in the domain, where the numerator takes the sign of its lowest
    nonzero coefficient.
    """
    cs = eq.numerator.ints
    labels = []
    for iv in ivs:
        if iv.is_exact:
            s_left, s_right = 1, -next(c for c in cs if c)
        else:
            s_left, s_right = -_sign_at(cs, iv.lo), -_sign_at(cs, iv.hi)
        labels.append(LOCAL_MAX if s_left > 0 > s_right else SADDLE)
    return labels


# ----------------------------------------------------------------------
# Certified selection
# ----------------------------------------------------------------------

# (theta_lo, theta_hi, prec) -> objective enclosure over the interval
LoglikFn = Callable[[Fraction, Fraction, int], Optional[Approx]]
# (theta_lo, theta_hi) -> (mu, omega, beta) enclosures
ValuesFn = Callable[[Fraction, Fraction], Optional[tuple]]

# An isolating interval is narrowed 32x per failed enclosure, at most this
# many times.
_MAX_RETRIES = 80
# Log precision, in bits, of the reported estimates' objective enclosure.
_ESTIMATE_PREC = 256


def enclose_at(fn: Callable, theta):
    """(theta, fn(lo, hi)), narrowing theta while fn returns None.

    theta is an isolating interval, an exact Approx or an exact rational,
    taken as its point Approx. fn returns None when its rational-interval
    step degenerates; an isolating interval is then refined 32x against
    the polynomial it carries. No other Approx can be narrowed, so one is
    refused, as is a None at an exact theta or after _MAX_RETRIES.
    """
    if not isinstance(theta, Approx):
        theta = Approx.exact(theta)
    elif not (theta.is_exact or isinstance(theta, RootInterval)):
        raise ContractViolationError("theta cannot be narrowed")
    for _ in range(_MAX_RETRIES):
        out = fn(theta.lo, theta.hi)
        if out is not None:
            return theta, out
        if theta.is_exact:
            raise ContractViolationError(
                "enclosure failed at an exact theta")
        theta = refine_interval(theta, theta.width() / 32)
    raise ContractViolationError("enclosures did not converge")


def _leader(thetas: Sequence[Approx], encl: Sequence[Approx]):
    """Index with the greatest lower bound (lowest left endpoint on equal
    bounds), and every index whose enclosure reaches that bound."""
    best = max(range(len(thetas)),
               key=lambda i: (encl[i].lo, -thetas[i].lo))
    return best, [i for i, e in enumerate(encl)
                  if i == best or e.hi >= encl[best].lo]


def certified_argmax(thetas: Sequence, loglik: LoglikFn):
    """Certify which theta carries the greatest objective value.

    Each round encloses the objective at every theta, at a log precision
    of 192 bits plus 96 per round. The leader wins once its lower bound
    clears every rival's upper bound. Otherwise every isolating interval
    still overlapping the leader is refined 32x, down to _TIE_WIDTH_CAP.
    After _MAX_RANK_ROUNDS rounds, or once nothing is left to refine and
    the precision is past 1200 bits, the overlap is reported as a tie.
    Each interval is refined against its own polynomial, so candidates
    isolated from different equations rank together.

    Args:
        thetas: isolating intervals, or exact thetas (each a point
            Approx or a rational, returned as its point Approx).
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
                lambda lo, hi: loglik(lo, hi, prec), theta)
        best, tied = _leader(thetas, encl)
        if tied == [best]:
            return thetas, encl, best, []
        stuck = True
        for i in tied:
            theta = thetas[i]
            if theta.width() > _TIE_WIDTH_CAP:
                thetas[i] = refine_interval(
                    theta, max(theta.width() / 32, _TIE_WIDTH_CAP))
                stuck = False
        prec += 96
        if stuck and prec > 1200:
            break
    best, tied = _leader(thetas, encl)
    return thetas, encl, best, tied


def _sign(lo: int, hi: int, _den: int) -> Optional[int]:
    """The sign of the integer range (L, H, E): +1 or -1 when it excludes
    0, 0 when L = H = 0, else None."""
    return 1 if lo > 0 else -1 if hi < 0 else 0 if lo == hi == 0 else None


def certified_signs(theta: RootInterval,
                    ranges: Callable[[RootInterval], Sequence[tuple]]
                    ) -> Tuple[RootInterval, List[Optional[int]]]:
    """(theta, signs): theta refined 32x, under the ranking caps, while an
    integer range (L, H, E) in ranges(theta) straddles 0, and each range's
    sign (+1, -1, 0 when L = H = 0, None past the caps). Refined intervals
    are nested, so a decided sign stays decided: one pass serves every
    quantity, and no rational enclosure is built to read a sign."""
    for _ in range(_MAX_RANK_ROUNDS):
        signs = [_sign(*r) for r in ranges(theta)]
        if None not in signs or theta.width() <= _TIE_WIDTH_CAP:
            break
        theta = refine_interval(theta, theta.width() / 32)
    return theta, signs


def certified_estimates(theta, loglik: LoglikFn,
                        values: ValuesFn) -> Estimates:
    """Estimates at theta (as enclose_at takes it), narrowing an isolating
    interval until the objective and every value have a certified
    enclosure."""

    def both(lo, hi):
        ll, vals = loglik(lo, hi, _ESTIMATE_PREC), values(lo, hi)
        return None if ll is None or vals is None else (ll, vals)

    theta, (ll, (mu, omega, beta)) = enclose_at(both, theta)
    # theta >= 0 and omega > 0: the product's ends are the ends' products
    return Estimates(theta=theta, mu=mu, omega=omega,
                     tau=Approx(theta.lo * omega.lo, theta.hi * omega.hi),
                     loglik=ll, beta=beta)


def fit_profile(eq: ProfileEquation, loglik: LoglikFn, values: ValuesFn,
                refine_width: Fraction) -> FitReport:
    """Shared fitting driver: isolate, classify, select, estimate.

    Args:
        eq: cancelled profile equation.
        loglik: (theta_lo, theta_hi, prec) -> objective enclosure, or
            None when the rational-interval step degenerates and a
            narrower theta interval is needed.
        values: (theta_lo, theta_hi) -> (mu, omega, beta) enclosures, or
            None likewise.
        refine_width: positive width to which reported root intervals
            are refined (isolate_real_roots refuses any other).

    Returns:
        FitReport with every nonnegative root classified and the global
        optimum certified (or tie-flagged at the effort cap).
    """
    num = eq.numerator
    ivs, n_negative = isolate_real_roots(
        num, domain="nonnegative", max_width=refine_width)
    labels = classify_stationary_points(eq, ivs)

    # candidates: every local maximum and, when the objective is
    # nonincreasing from the boundary (the numerator is positive there),
    # theta = 0
    slots = [i for i, label in enumerate(labels) if label == LOCAL_MAX]
    thetas: List[Approx] = [ivs[i] for i in slots]
    if num.ints[0] > 0:
        thetas.append(Approx.exact(0))
    if not thetas:
        raise ContractViolationError(
            "no maximum candidate found; sign contract broken")

    # no supremum at theta -> inf (the objective falls off there): a lone
    # candidate is global
    best, tied = 0, []
    if len(thetas) > 1:
        thetas, _, best, tied = certified_argmax(thetas, loglik)

    # fold ranking-driven refinements back into the reported intervals
    ivs = list(ivs)
    for i, theta in zip(slots, thetas):
        ivs[i] = theta

    winner = thetas[best]
    return FitReport(
        equation=eq,
        stationary_points=tuple(zip(ivs, labels)),
        boundary_is_max=winner.hi == 0,
        global_estimates=certified_estimates(winner, loglik, values),
        tie=bool(tied),
        negative_roots=n_negative)


# ----------------------------------------------------------------------
# The profile objective and its drivers
# ----------------------------------------------------------------------

def profile_objective(prof: ProfilePolys, method: str):
    """(loglik, values) of one method's objective over theta intervals.

    With weight w = N (ML) or N - p (REML) and omega_hat = P / (w d G),
    loglik(lo, hi, prec) encloses -w log omega_hat - sum m_i log(1 + n_i
    theta) - w, less log(G / d^p) = log det(X'KX) for REML. The sum takes
    one log per distinct multiplicity m, of the product of (1 + n_i theta)
    over that class, scaled by m; so a log's argument does not grow with m,
    and the objective needs 1 + (distinct multiplicities) logs, plus 1 for
    REML. values(lo, hi) encloses (mu, omega, beta). Either returns None when
    its interval step degenerates, or when P or G is not positive. Both read
    the polynomials' integer ranges through one store kept for the last
    interval asked, so values right after loglik at the same theta (as in
    certified_estimates) evaluates each of D, P and G once.
    """
    weight = _weight(prof, method)
    P, G = prof.p_poly, prof.gram_det
    D = prof.d * G
    dp = prof.d ** prof.p
    by_mult = {}
    for n, m in zip(prof.sizes, prof.mults):
        by_mult.setdefault(m, []).append(n)
    classes = sorted(by_mult.items())
    last = {}

    def range_at(f: UniPoly, lo: Fraction, hi: Fraction):
        # int_range(f, lo, hi), kept until another interval is asked for
        if last.get("at") != (lo, hi):
            last.clear()
            last["at"] = (lo, hi)
        if id(f) not in last:
            last[id(f)] = int_range(f, lo, hi)
        return last[id(f)]

    def log_det_args(t: Fraction) -> List[Tuple[int, int]]:
        # prod (1 + n t) over b^k per class of k sizes, for t = a/b: each
        # increases on t >= 0, so its values at lo and hi bound it there
        a, b = t.numerator, t.denominator
        return [(prod(b + n * a for n in ns), b ** len(ns))
                for _, ns in classes]

    def ratio_args(num: UniPoly, den: UniPoly, lo, hi, scale: int = 1):
        # unreduced (lo, hi) pairs of scale * num / den, or None unless the
        # integer range of den starts above 0 (log_bounds checks num's)
        (nl, nh, ne), (dl, dh, de) = (range_at(f, lo, hi) for f in (num, den))
        if dl > 0:
            return (scale * nl * de, dh * ne), (scale * nh * de, dl * ne)

    def loglik(lo: Fraction, hi: Fraction, prec: int) -> Optional[Approx]:
        # every log term is summed as an integer over 4^prec
        if lo < 0:
            raise ValueError("theta must be nonnegative")
        terms = [(weight, ratio_args(D, P, lo, hi, weight))]
        terms += [(-m, args) for (m, _), args in zip(
            classes, zip(log_det_args(lo), log_det_args(hi)))]
        if method == "REML":
            terms.append((-1, ratio_args(G, dp, lo, hi)))
        unit = 1 << 2 * prec
        bot = top = -weight * unit
        for c, args in terms:
            ends = None if args is None else log_bounds(*args, prec)
            if ends is None:
                return None
            bot += c * ends[c < 0]  # a negative c takes the other end
            top += c * ends[c > 0]
        return Approx(Fraction(bot, unit), Fraction(top, unit))

    def values(lo: Fraction, hi: Fraction):
        prange, grange = range_at(P, lo, hi), range_at(G, lo, hi)
        dl, dh, de = range_at(D, lo, hi)
        if prange[0] <= 0 or grange[0] <= 0 or dl <= 0:
            return None
        omega = range_quotient(prange, (weight * dl, weight * dh, de))
        coef = tuple(range_quotient(range_at(c, lo, hi), grange)
                     for c in prof.cramer)
        return (coef[0], omega, None) if prof.mean else (None, omega, coef)

    return loglik, values


def profile_fit(prof: ProfilePolys, method: str, refine_width) -> FitReport:
    """Global optimum of one method's objective, certified by fit_profile."""
    loglik, values = profile_objective(prof, method)
    return fit_profile(profile_equation(prof, method), loglik, values,
                       refine_width)


def profile_estimates(prof: ProfilePolys, theta, method: str) -> Estimates:
    """Estimates at an exact theta or an isolating interval of the method's
    equation, which is refined against its own polynomial when an
    enclosure needs a narrower theta; no equation is built."""
    loglik, values = profile_objective(prof, method)
    return certified_estimates(theta, loglik, values)


def profile_value(prof: ProfilePolys, theta, method: str) -> Approx:
    """Enclosure of one method's objective at theta, as profile_estimates."""
    loglik, _ = profile_objective(prof, method)
    return enclose_at(lambda lo, hi: loglik(lo, hi, _ESTIMATE_PREC), theta)[1]
