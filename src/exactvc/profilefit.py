"""Shared machinery for univariate profile criteria in the variance ratio.

Both estimation methods, with or without covariates, reduce to the same
situation: the derivative of a profile objective in theta equals a rational
function whose denominator is strictly positive on [0, inf). Everything
here works off that one fact. The raw numerator is cancelled against the
known denominator factorization, a single global orientation sign is fixed
by evaluation, roots are isolated and classified by exact derivative signs,
and the global optimum is chosen by comparing rigorous objective enclosures
that are refined until the comparison is decisive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple, Union

from .enclosure import Approx
from .errors import ContractViolationError
from .polynomials import UniPoly, descartes_sign_changes, poly_gcd, product
from .roots import RootInterval, cauchy_bound, isolate_real_roots, refine_interval, sign

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

    def theta_enclosure(self) -> Tuple[Fraction, Fraction]:
        if isinstance(self.theta, RootInterval):
            return self.theta.lo, self.theta.hi
        return self.theta, self.theta


@dataclass(frozen=True)
class FitReport:
    equation: ProfileEquation
    stationary_points: Tuple[Tuple[RootInterval, str], ...]
    boundary_is_max: bool
    global_estimates: Estimates
    sign_changes: int
    tie: bool = False
    tie_candidates: Tuple[Tuple[Fraction, Fraction], ...] = ()
    negative_roots: int = 0     # diagnostic only; domain of interest is [0, inf)


# ----------------------------------------------------------------------
# Equation construction
# ----------------------------------------------------------------------

def _orientation_probe(num: UniPoly) -> Fraction:
    """A nonnegative rational where the cancelled numerator is nonzero."""
    t = Fraction(0)
    step = Fraction(1)
    while num(t) == 0:
        t += step
        step += Fraction(1, 2)
        if t > cauchy_bound(num) + 2:
            raise ContractViolationError(
                "could not find a nonroot probe point")
    return t


def build_profile_equation(raw_numerator: UniPoly,
                           den_factors: Sequence[Tuple[UniPoly, int]],
                           den_constant: Fraction,
                           expected_degree: Optional[int],
                           method_tag: str,
                           base_sign: int) -> ProfileEquation:
    """Cancel, normalize, orient, and certify a profile derivative.

    Args:
        raw_numerator: uncancelled numerator of the derivative identity.
        den_factors: the denominator's known factorization as (poly, mult)
            pairs; every factor is strictly positive on [0, inf).
        den_constant: positive constant completing the denominator.
        expected_degree: degree predicted by the counting formulas, or None
            when no formula applies.
        method_tag: "ML" or "REML".
        base_sign: sign s0 with sign(objective') = s0 * sign(raw numerator)
            on [0, inf), given the positive denominator.

    Returns:
        ProfileEquation with a primitive numerator, coprime to the
        remaining denominator, and a certified orientation.
    """
    if raw_numerator.is_zero():
        raise ContractViolationError("profile numerator is identically zero")
    num = raw_numerator
    remaining: List[Tuple[UniPoly, int]] = []
    for piece, mult in den_factors:
        left = mult
        while left > 0:
            quot, rem = num.divmod(piece)
            if not rem.is_zero():
                break
            num = quot
            left -= 1
        if left:
            remaining.append((piece, left))
    den = UniPoly.constant(den_constant, raw_numerator.var)
    for piece, mult in remaining:
        den = den * piece ** mult
    # insurance: the closed-form factor list is expected to exhaust the
    # gcd, but proper factors of a composite piece could in principle slip
    # through, so sweep until provably coprime
    g = poly_gcd(num, den)
    while g.degree > 0:
        num = num.exact_divide(g)
        den = den.exact_divide(g)
        g = poly_gcd(num, den)

    num_p = num.primitive()
    t = _orientation_probe(num_p)
    cof_sign = sign(raw_numerator(t)) * sign(num_p(t))
    if cof_sign == 0:
        raise ContractViolationError("cancelled factor vanishes on [0, inf)")
    orientation = base_sign * cof_sign

    # certificate: beyond every root the objective must be decreasing
    far = cauchy_bound(num_p) + 1
    if orientation * sign(num_p(far)) != -1:
        raise ContractViolationError(
            "orientation check failed: objective does not decay at infinity")
    return ProfileEquation(
        numerator=num_p,
        denominator=den,
        expected_degree=expected_degree,
        observed_degree=num_p.degree,
        method_tag=method_tag,
        orientation=orientation)


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
# Global selection
# ----------------------------------------------------------------------

LoglikFn = Callable[[Fraction, Fraction, int], Optional[Approx]]
EstimatesFn = Callable[[Union[RootInterval, Fraction], int], Estimates]


@dataclass
class _Candidate:
    theta: Union[RootInterval, Fraction]
    iv_index: Optional[int]          # index into the stationary list, if interior
    enclosure: Optional[Approx] = field(default=None)

    def sort_key(self) -> Fraction:
        if isinstance(self.theta, RootInterval):
            return self.theta.lo
        return self.theta

    def theta_pair(self) -> Tuple[Fraction, Fraction]:
        if isinstance(self.theta, RootInterval):
            return self.theta.lo, self.theta.hi
        return self.theta, self.theta


def _enclose(cand: _Candidate, eq: ProfileEquation, loglik_fn: LoglikFn,
             prec: int) -> Approx:
    """Objective enclosure for a candidate, refining theta on demand."""
    while True:
        lo, hi = cand.theta_pair()
        encl = loglik_fn(lo, hi, prec)
        if encl is not None:
            return encl
        if not isinstance(cand.theta, RootInterval):
            raise ContractViolationError(
                "objective enclosure failed at an exact theta")
        cand.theta = refine_interval(eq.numerator, cand.theta,
                                     cand.theta.width() / 32)


def _rank_candidates(eq: ProfileEquation, cands: List[_Candidate],
                     loglik_fn: LoglikFn):
    """Pick the candidate with the greatest objective value, certified.

    Returns (winner, tie, tie_set). Enclosures are refined until the
    winner's lower bound clears every rival's upper bound, or the effort
    cap is reached, in which case tie is True and tie_set lists the
    unresolved contenders.
    """
    if len(cands) == 1:
        cands[0].enclosure = _enclose(cands[0], eq, loglik_fn, 192)
        return cands[0], False, []
    prec = 192
    for round_no in range(_MAX_RANK_ROUNDS):
        for c in cands:
            c.enclosure = _enclose(c, eq, loglik_fn, prec)
        best = max(cands, key=lambda c: (c.enclosure.lo, -c.sort_key()))
        rivals = [c for c in cands if c is not best]
        if all(best.enclosure.lo > r.enclosure.hi for r in rivals):
            return best, False, []
        # shrink every contender still overlapping the leader
        contenders = [best] + [r for r in rivals
                               if r.enclosure.hi >= best.enclosure.lo]
        hit_cap = True
        for c in contenders:
            if isinstance(c.theta, RootInterval) and not c.theta.is_point():
                w = c.theta.width()
                if w > _TIE_WIDTH_CAP:
                    c.theta = refine_interval(
                        eq.numerator, c.theta, max(w / 32, _TIE_WIDTH_CAP))
                    hit_cap = False
        prec += 96
        if hit_cap and prec > 1200:
            break
    best = max(cands, key=lambda c: (c.enclosure.lo, -c.sort_key()))
    tie_set = [c for c in cands
               if c is best or c.enclosure.hi >= best.enclosure.lo]
    return best, True, tie_set


def fit_profile(eq: ProfileEquation, loglik_fn: LoglikFn,
                estimates_fn: EstimatesFn,
                refine_width: Fraction = Fraction(1, 10 ** 12)) -> FitReport:
    """Shared fitting driver: isolate, classify, select, estimate.

    Args:
        eq: cancelled and oriented profile equation.
        loglik_fn: (theta_lo, theta_hi, prec) -> objective enclosure, or
            None when the rational-interval step degenerates and a
            narrower theta interval is needed.
        estimates_fn: (theta, prec) -> Estimates at the winning theta.
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

    candidates: List[_Candidate] = []
    for i, (iv, label) in enumerate(zip(ivs, labels)):
        if label != LOCAL_MAX:
            continue
        if iv.is_point():
            candidates.append(_Candidate(theta=iv.lo, iv_index=i))
        else:
            candidates.append(_Candidate(theta=iv, iv_index=i))
    s_at_zero = sign(num(Fraction(0)))
    boundary_candidate = None
    if s_at_zero != 0 and eq.orientation * s_at_zero < 0:
        # objective nonincreasing from the boundary: theta = 0 competes
        boundary_candidate = _Candidate(theta=Fraction(0), iv_index=None)
        candidates.append(boundary_candidate)
    if not candidates:
        raise ContractViolationError(
            "no maximum candidate found; orientation contract broken")

    winner, tie, tie_set = _rank_candidates(eq, candidates, loglik_fn)

    # fold ranking-driven refinements back into the reported intervals
    ivs = list(ivs)
    for c in candidates:
        if c.iv_index is not None and isinstance(c.theta, RootInterval):
            ivs[c.iv_index] = c.theta

    final_prec = 256
    estimates = estimates_fn(winner.theta, final_prec)
    boundary_is_max = (not isinstance(winner.theta, RootInterval)
                       and winner.theta == 0)
    return FitReport(
        equation=eq,
        stationary_points=tuple(zip(ivs, labels)),
        boundary_is_max=boundary_is_max,
        global_estimates=estimates,
        sign_changes=descartes_sign_changes(num),
        tie=tie,
        tie_candidates=tuple(c.theta_pair() for c in tie_set) if tie else (),
        negative_roots=n_negative)
