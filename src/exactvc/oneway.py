"""Exact profile equations for the one-way layout, both estimation methods.

With kappa = 1/omega and theta = tau/omega, profiling the mean and kappa
out of the (scaled) log-likelihood leaves a univariate objective in theta
whose derivative is a rational function with an everywhere-positive
denominator on [0, inf). The plain layout is the covariate model with
design X = 1: gls_profile hands the sufficient statistics' cross-product
sums to covariates.profile_from_sums, the one builder of the profilefit
record, and profilefit derives the one objective and its stationarity
numerator from that record for both fits. What stays here is the degree
law of the cancelled numerator: 3M + M2 - 3 (ML) and 2M + 2M2 - 3
(REML), the singleton size classes dividing out once and twice.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional, Union

from .covariates import profile_from_sums
from .enclosure import Approx
from .errors import DegenerateDataError
from .profilefit import (
    Estimates,
    FitReport,
    ProfileEquation,
    ProfilePolys,
    profile_equation,
    profile_estimates,
    profile_fit,
    profile_value,
)
from .roots import RootInterval
from .stats import OneWayStats, ml_degree, reml_degree


def basis_polynomials(stats: OneWayStats):
    """(Z, Vs, L): the X = 1 cross-product sums that profile_from_sums
    reads, scaled to integers by one common denominator L.

    Over the groups of a size class, sum (1, ybar, ybar^2) is
    (m, m Y, m Y^2 + B), so V_n = n^2 [[m, m Y], [m Y, m Y^2 + B]], and
    Z = [[N, sum n m Y], [sum n m Y, W + sum n (m Y^2 + B)]] with W the
    within-group SS. The name predates this meaning and is kept because
    the benchmark's span recorder traces the one-way stage under it.
    """
    n, W = stats.sizes, stats.withinSS
    firsts = [mi * yi for mi, yi in zip(stats.mults, stats.means)]
    seconds = [mi * yi * yi + b for mi, yi, b in
               zip(stats.mults, stats.means, stats.betweenSS)]
    L = lcm(W.denominator, *(v.denominator for v in firsts + seconds))
    sy = sum(ni * v for ni, v in zip(n, firsts))
    syy = W + sum(ni * v for ni, v in zip(n, seconds))
    Z = [[stats.N * L, int(sy * L)], [int(sy * L), int(syy * L)]]
    Vs = [[[ni * ni * mi * L, int(ni * ni * a * L)],
           [int(ni * ni * a * L), int(ni * ni * b * L)]]
          for ni, mi, a, b in zip(n, stats.mults, firsts, seconds)]
    return Z, Vs, L


# ----------------------------------------------------------------------
# Profile equations
# ----------------------------------------------------------------------

def _require_generic(stats: OneWayStats):
    if stats.withinSS == 0:
        raise DegenerateDataError(
            "within-group sum of squares is zero; the profile analysis "
            "assumes residual variation")


def ml_equation(stats: OneWayStats,
                prof: Optional[ProfilePolys] = None) -> ProfileEquation:
    """Cancelled stationarity numerator of the profile criterion.

    The singleton factors (1 + n theta) always divide the raw numerator;
    the expected cancelled degree is 3M + M2 - 3. A caller that already
    holds gls_profile(stats) passes it as prof.
    """
    _require_generic(stats)
    return profile_equation(prof or gls_profile(stats), "ML",
                            ml_degree(stats.M, stats.M2))


def reml_equation(stats: OneWayStats,
                  prof: Optional[ProfilePolys] = None) -> ProfileEquation:
    """Cancelled stationarity numerator of the restricted criterion.

    The square of each singleton factor (1 + n theta) divides the raw
    numerator; the expected cancelled degree is 2M + 2M2 - 3. A caller
    that already holds gls_profile(stats) passes it as prof.
    """
    _require_generic(stats)
    return profile_equation(prof or gls_profile(stats), "REML",
                            reml_degree(stats.M, stats.M2))


# ----------------------------------------------------------------------
# The profile record, values and fits
# ----------------------------------------------------------------------

def gls_profile(stats: OneWayStats) -> ProfilePolys:
    """The X = 1 profile record: G = d sum m n / (1 + n theta),
    P = d G rss(mu_hat) and mu = cramer[0] / G."""
    Z, Vs, L = basis_polynomials(stats)
    return profile_from_sums(stats.N, stats.sizes, stats.mults, Z, Vs, L,
                             mean=True)


def model(stats: OneWayStats):
    """(record, method -> equation) for profile_fit, sharing one basis."""
    prof = gls_profile(stats)
    return prof, lambda method: (
        ml_equation if method == "ML" else reml_equation)(stats, prof)


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
        Estimates with mu = cramer[0]/G, kappa = weight*d*G/P, omega the
        reciprocal, tau = theta*omega, each as a certified enclosure.
    """
    return profile_estimates(*model(stats), theta, method, prec)


def profile_loglik(stats: OneWayStats, theta, prec: int = 256) -> Approx:
    """Profile objective N log kappa_hat - sum m_i log(1+n_i theta) - N."""
    return profile_value(*model(stats), theta, "ML", prec)


def restricted_loglik(stats: OneWayStats, theta, prec: int = 256) -> Approx:
    """Restricted profile objective with the N-1 weighting and the extra
    -log(G/d) term."""
    return profile_value(*model(stats), theta, "REML", prec)


def ml_fit(stats: OneWayStats,
           refine_width: Fraction = Fraction(1, 10 ** 12)) -> FitReport:
    """Global profile-criterion optimum with certified classification."""
    return profile_fit(*model(stats), "ML", refine_width)


def reml_fit(stats: OneWayStats,
             refine_width: Fraction = Fraction(1, 10 ** 12)) -> FitReport:
    """Global restricted-criterion optimum with certified classification."""
    return profile_fit(*model(stats), "REML", refine_width)
