"""Exact profile equations for the one-way layout, both estimation methods.

With kappa = 1/omega and theta = tau/omega, profiling the mean and kappa
out of the (scaled) log-likelihood leaves a univariate objective in theta
whose derivative is a rational function with an everywhere-positive
denominator on [0, inf). The numerators are assembled here from four
families of basis polynomials and handed to the shared profilefit
machinery. The restricted objective differs only in its N-1 weights and an
extra log term, and its numerator carries a guaranteed square factor from
the singleton size classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import List, Optional, Tuple, Union

from .enclosure import Approx, interval_divide, log_enclosure
from .errors import ContractViolationError, DegenerateDataError
from .polynomials import UniPoly
from .profilefit import (
    Estimates,
    FitReport,
    ProfileEquation,
    build_profile_equation,
    fit_profile,
)
from .roots import RootInterval, poly_range, refine_interval
from .stats import OneWayStats, ml_degree, reml_degree

VAR = "theta"


@dataclass(frozen=True)
class BasisPolys:
    """The exact polynomial basis of the one-way profile equations.

    d is the product of (1 + n_i theta) over distinct sizes; d1 collects
    the singleton size classes and d2 the repeated ones. For a weight
    family a, f_a clears the denominator of the weighted sum with simple
    poles and g_a the one with double poles:

        f_a = sum_i m_i n_i a_i prod_{j != i} (1 + n_j theta)
        g_a = sum_i m_i n_i^2 a_i prod_{j != i} (1 + n_j theta)^2

    with a ranging over 1, the class means, their squares, and the
    between-group sums of squares divided by the multiplicities.
    """

    d: UniPoly
    d1: UniPoly
    d2: UniPoly
    f1: UniPoly
    fY: UniPoly
    fY2: UniPoly
    fBm: UniPoly
    g1: UniPoly
    gY: UniPoly
    gY2: UniPoly
    gBm: UniPoly


def _int_linear_product(sizes) -> list:
    """Integer coefficients of prod (1 + n theta) over the given sizes."""
    out = [1]
    for n in sizes:
        out = [a + n * b for a, b in zip(out + [0], [0] + out)]
    return out


def _int_square(cs: list) -> list:
    """Integer coefficients of the square of an integer polynomial."""
    out = [0] * (2 * len(cs) - 1)
    for i, a in enumerate(cs):
        for j, b in enumerate(cs):
            out[i + j] += a * b
    return out


def _combine(weights, polys) -> UniPoly:
    """sum_i w_i polys_i for rational weights and integer coefficient
    lists, over the weights' common denominator."""
    den = lcm(*(w.denominator for w in weights))
    acc = [0] * len(polys[0])
    for w, cs in zip(weights, polys):
        wi = w.numerator * (den // w.denominator)
        if wi:
            for k, c in enumerate(cs):
                acc[k] += wi * c
    return UniPoly((Fraction(c, den) for c in acc), VAR)


def basis_polynomials(stats: OneWayStats) -> BasisPolys:
    d = _int_linear_product(stats.sizes)
    # prod_{j != i} (1 + n_j theta) = d / (1 + n_i theta), dividing from
    # the constant term: o_k = d_k - n_i o_(k-1)
    off = []
    for n_i in stats.sizes:
        o, prev = [], 0
        for c in d[:-1]:
            prev = c - n_i * prev
            o.append(prev)
        off.append(o)
    off2 = [_int_square(o) for o in off]

    m, n, Y, B = stats.mults, stats.sizes, stats.means, stats.betweenSS
    M = stats.M
    return BasisPolys(
        d=UniPoly(d, VAR),
        d1=UniPoly(_int_linear_product(
            s for s, k in zip(n, m) if k == 1), VAR),
        d2=UniPoly(_int_linear_product(
            s for s, k in zip(n, m) if k >= 2), VAR),
        f1=_combine([m[i] * n[i] for i in range(M)], off),
        fY=_combine([m[i] * n[i] * Y[i] for i in range(M)], off),
        fY2=_combine([m[i] * n[i] * Y[i] ** 2 for i in range(M)], off),
        fBm=_combine([n[i] * B[i] for i in range(M)], off),
        g1=_combine([m[i] * n[i] ** 2 for i in range(M)], off2),
        gY=_combine([m[i] * n[i] ** 2 * Y[i] for i in range(M)], off2),
        gY2=_combine([m[i] * n[i] ** 2 * Y[i] ** 2 for i in range(M)], off2),
        gBm=_combine([n[i] ** 2 * B[i] for i in range(M)], off2),
    )


def bracket_poly(stats: OneWayStats, basis: BasisPolys) -> UniPoly:
    """The cleared profile sum of squares: d * f1 * (rss at mu_hat(theta)).

    Equals W f1 d + fY2 f1 - fY^2 + f1 fBm; strictly positive on
    [0, inf) by Cauchy-Schwarz, which makes kappa_hat well defined there.
    """
    b = basis
    return (b.f1 * b.d * stats.withinSS + b.fY2 * b.f1
            - b.fY * b.fY + b.f1 * b.fBm)


def h_poly(basis: BasisPolys) -> UniPoly:
    """Numerator of -(d^2 f1^2) * d/dtheta (bracket/(d f1)): the part of the
    derivative contributed by the double-pole sums."""
    b = basis
    return (b.f1 * b.f1 * b.gY2 - 2 * b.fY * b.f1 * b.gY
            + b.fY * b.fY * b.g1 + b.f1 * b.f1 * b.gBm)


@dataclass(frozen=True)
class RemlObjective:
    """Restricted-criterion ingredients: kappa_hat as a rational function."""

    stats: OneWayStats
    kappa_num: UniPoly      # (N-1) * f1 * d
    kappa_den: UniPoly      # the bracket polynomial


def reml_objective(stats: OneWayStats) -> RemlObjective:
    basis = basis_polynomials(stats)
    return RemlObjective(
        stats=stats,
        kappa_num=basis.f1 * basis.d * Fraction(stats.N - 1),
        kappa_den=bracket_poly(stats, basis))


# ----------------------------------------------------------------------
# Profile equations
# ----------------------------------------------------------------------

def _require_generic(stats: OneWayStats):
    if stats.withinSS == 0:
        raise DegenerateDataError(
            "within-group sum of squares is zero; the profile analysis "
            "assumes residual variation")


def ml_equation(stats: OneWayStats,
                basis: Optional[BasisPolys] = None) -> ProfileEquation:
    """Cancelled stationarity numerator of the profile criterion.

    The raw identity is

        objective'(theta) * kappa_hat(theta)^{-1}
            = [N*H - f1^2 * bracket] / (N d^2 f1^2),

    so the numerator's sign equals the derivative's sign on [0, inf).
    The singleton factor d1 always divides the numerator; the expected
    cancelled degree is 3M + M2 - 3. A caller that already holds
    basis_polynomials(stats) passes it as basis.
    """
    _require_generic(stats)
    if basis is None:
        basis = basis_polynomials(stats)
    bracket = bracket_poly(stats, basis)
    raw = h_poly(basis) * Fraction(stats.N) - basis.f1 * basis.f1 * bracket
    lin = [UniPoly.linear(1, n, VAR) for n in stats.sizes]
    den_factors = [(l, 2) for l in lin] + [(basis.f1, 2)]
    return build_profile_equation(
        raw, den_factors, Fraction(stats.N),
        expected_degree=ml_degree(stats.M, stats.M2),
        method_tag="ML", base_sign=1)


def reml_equation(stats: OneWayStats,
                  basis: Optional[BasisPolys] = None) -> ProfileEquation:
    """Cancelled stationarity numerator of the restricted criterion.

    The raw identity is exact:

        objective'(theta) = [(g1 - f1^2) * bracket + (N-1)*H] / (d f1 bracket).

    The square d1^2 of the singleton factor divides the numerator (d1
    divides both g1 - f1^2 and bracket); expected cancelled degree
    2M + 2M2 - 3. A caller that already holds basis_polynomials(stats)
    passes it as basis.
    """
    _require_generic(stats)
    if basis is None:
        basis = basis_polynomials(stats)
    bracket = bracket_poly(stats, basis)
    raw = ((basis.g1 - basis.f1 * basis.f1) * bracket
           + h_poly(basis) * Fraction(stats.N - 1))
    lin = [UniPoly.linear(1, n, VAR) for n in stats.sizes]
    # bracket itself carries one copy of d1, so split it out to expose the
    # full square in the denominator's factor list
    bracket_core = bracket.exact_divide(basis.d1)
    den_factors = ([(l, 2) for l, m in zip(lin, stats.mults) if m == 1]
                   + [(l, 1) for l, m in zip(lin, stats.mults) if m >= 2]
                   + [(basis.f1, 1), (bracket_core, 1)])
    return build_profile_equation(
        raw, den_factors, Fraction(1),
        expected_degree=reml_degree(stats.M, stats.M2),
        method_tag="REML", base_sign=1)


# ----------------------------------------------------------------------
# Values at a given theta
# ----------------------------------------------------------------------

def _theta_pair(theta) -> Tuple[Fraction, Fraction]:
    if isinstance(theta, RootInterval):
        return theta.lo, theta.hi
    t = Fraction(theta)
    return t, t


def _loglik_enclosure(stats: OneWayStats, basis: BasisPolys,
                      bracket: UniPoly, lo: Fraction, hi: Fraction,
                      method: str, prec: int) -> Optional[Approx]:
    """Objective enclosure over a theta interval; None asks for refinement.

    ML:    N log kappa_hat - sum m_i log(1+n_i theta) - N
    REML:  (N-1) log kappa_hat - sum m_i log(1+n_i theta)
           - log(f1/d) - (N-1)
    """
    if lo < 0:
        raise ValueError("theta must be nonnegative")
    weight = stats.N if method == "ML" else stats.N - 1
    kd = basis.f1 * basis.d
    kap = interval_divide(poly_range(kd, lo, hi), poly_range(bracket, lo, hi))
    if kap is None or kap.lo <= 0:
        return None
    kap = kap.scale(weight)
    lk = log_enclosure(kap.lo, kap.hi, prec)
    if lk is None:
        return None
    total = lk.scale(weight) - Approx.exact(weight)
    for n, m in zip(stats.sizes, stats.mults):
        le = log_enclosure(1 + n * lo, 1 + n * hi, prec)
        total = total - le.scale(m)
    if method == "REML":
        r1 = interval_divide(poly_range(basis.f1, lo, hi),
                             poly_range(basis.d, lo, hi))
        if r1 is None or r1.lo <= 0:
            return None
        lr = log_enclosure(r1.lo, r1.hi, prec)
        total = total - lr
    return total


def _estimates(stats: OneWayStats, basis: BasisPolys, bracket: UniPoly,
               theta, method: str, prec: int,
               refine_against: Optional[UniPoly] = None) -> Estimates:
    """Estimates at theta; refines interval thetas when enclosures degenerate."""
    weight = Fraction(stats.N if method == "ML" else stats.N - 1)
    kd = basis.f1 * basis.d * weight
    for _ in range(80):
        lo, hi = _theta_pair(theta)
        if lo == hi:
            f1v = basis.f1(lo)
            brv = bracket(lo)
            if f1v == 0 or brv <= 0:
                raise ContractViolationError(
                    "kappa denominator not positive at theta; "
                    "inconsistent statistics")
            mu = Approx.exact(basis.fY(lo) / f1v)
            kappa = Approx.exact(kd(lo) / brv)
        else:
            mu = interval_divide(poly_range(basis.fY, lo, hi),
                                 poly_range(basis.f1, lo, hi))
            kappa = interval_divide(poly_range(kd, lo, hi),
                                    poly_range(bracket, lo, hi))
        loglik = _loglik_enclosure(stats, basis, bracket, lo, hi, method, prec)
        if (mu is not None and kappa is not None and kappa.lo > 0
                and loglik is not None):
            omega = kappa.reciprocal()
            tau = Approx(lo, hi) * omega
            return Estimates(theta=theta, mu=mu, kappa=kappa,
                             omega=omega, tau=tau, loglik=loglik)
        # enclosure too loose: certified refinement against the equation
        if not isinstance(theta, RootInterval) or theta.is_point():
            raise ContractViolationError(
                "value enclosure failed at an exact theta")
        if refine_against is None:
            refine_against = (ml_equation(stats) if method == "ML"
                              else reml_equation(stats)).numerator
        theta = refine_interval(refine_against, theta, theta.width() / 32)
    raise ContractViolationError("value enclosures did not converge")


def estimates_at(stats: OneWayStats,
                 theta: Union[RootInterval, Fraction, int, str],
                 method: str = "ML", prec: int = 256) -> Estimates:
    """Point estimates at a given variance ratio.

    Args:
        stats: sufficient statistics.
        theta: exact nonnegative rational, or an isolating interval from
            the corresponding profile equation.
        method: "ML" or "REML" (selects the kappa weighting).
        prec: working precision in bits for the objective value.

    Returns:
        Estimates with mu = fY/f1, kappa = weight*f1*d/bracket, omega the
        reciprocal, tau = theta*omega, each as a certified enclosure.
    """
    if method not in ("ML", "REML"):
        raise ValueError("method must be ML or REML")
    if not isinstance(theta, RootInterval):
        theta = Fraction(theta)
        if theta < 0:
            raise ValueError("theta must be nonnegative")
    basis = basis_polynomials(stats)
    bracket = bracket_poly(stats, basis)
    return _estimates(stats, basis, bracket, theta, method, prec)


def profile_loglik(stats: OneWayStats, theta, prec: int = 256) -> Approx:
    """Profile objective N log kappa_hat - sum m_i log(1+n_i theta) - N."""
    return _loglik_at(stats, theta, "ML", prec)


def restricted_loglik(stats: OneWayStats, theta, prec: int = 256) -> Approx:
    """Restricted profile objective with the N-1 weighting and the extra
    -log(f1/d) term."""
    return _loglik_at(stats, theta, "REML", prec)


def _loglik_at(stats: OneWayStats, theta, method: str, prec: int) -> Approx:
    basis = basis_polynomials(stats)
    bracket = bracket_poly(stats, basis)
    refine_against = None
    for _ in range(80):
        lo, hi = _theta_pair(theta)
        if lo < 0:
            raise ValueError("theta must be nonnegative")
        out = _loglik_enclosure(stats, basis, bracket, lo, hi, method, prec)
        if out is not None:
            return out
        if not isinstance(theta, RootInterval) or theta.is_point():
            raise ContractViolationError(
                "objective enclosure failed at an exact theta")
        if refine_against is None:
            refine_against = (ml_equation(stats) if method == "ML"
                              else reml_equation(stats)).numerator
        theta = refine_interval(refine_against, theta, theta.width() / 32)
    raise ContractViolationError("objective enclosure did not converge")


# ----------------------------------------------------------------------
# Fits
# ----------------------------------------------------------------------

def _fit(stats: OneWayStats, method: str,
         refine_width: Fraction) -> FitReport:
    basis = basis_polynomials(stats)
    eq = (ml_equation if method == "ML" else reml_equation)(stats, basis)
    bracket = bracket_poly(stats, basis)

    def loglik_fn(lo, hi, prec):
        return _loglik_enclosure(stats, basis, bracket, lo, hi, method, prec)

    def estimates_fn(theta, prec):
        return _estimates(stats, basis, bracket, theta, method, prec,
                          refine_against=eq.numerator)

    return fit_profile(eq, loglik_fn, estimates_fn, refine_width)


def ml_fit(stats: OneWayStats,
           refine_width: Fraction = Fraction(1, 10 ** 12)) -> FitReport:
    """Global profile-criterion optimum with certified classification."""
    return _fit(stats, "ML", Fraction(refine_width))


def reml_fit(stats: OneWayStats,
             refine_width: Fraction = Fraction(1, 10 ** 12)) -> FitReport:
    """Global restricted-criterion optimum with certified classification."""
    return _fit(stats, "REML", Fraction(refine_width))
