"""The one-way layout as a profilefit record, both estimation methods.

With theta = tau/omega, profiling the mean and the error variance omega
out of the (scaled) log-likelihood leaves a univariate objective in theta
whose derivative is a rational function with an everywhere-positive
denominator on [0, inf). The plain layout is the covariate model with
design X = 1: gls_profile refuses data without residual variation and
hands the cross-product sums to covariates.profile_from_sums, the one
builder of the record. The profilefit drivers take it from there, and
profile_equation attaches the degree law 3M + M2 - 3 (ML) or 2M + 2M2 - 3
(REML) to a record marked as the plain layout.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .covariates import profile_from_sums
from .errors import DegenerateDataError
from .profilefit import (
    REFINE_WIDTH,
    FitReport,
    ProfileEquation,
    ProfilePolys,
    profile_equation,
    profile_fit,
)
from .stats import OneWayStats


def basis_polynomials(stats: OneWayStats):
    """(Z, Vs, L): the X = 1 cross-product sums that profile_from_sums
    reads, scaled to integers by one common denominator L.

    Over the groups of a size class, sum (1, ybar, ybar^2) is
    (m, m Y, m Y^2 + B), so V_n = n^2 [[m, m Y], [m Y, m Y^2 + B]], and
    Z = [[N, sum n m Y], [sum n m Y, W + sum n (m Y^2 + B)]] with W the
    within-group SS. With every Y = a / s over one s, L = lcm(s^2, the
    denominators of W and the B's) makes each sum an integer; the record
    does not depend on which such L is used. The name predates this
    meaning and is kept because the benchmark's span recorder traces the
    one-way stage under it.
    """
    n, W = stats.sizes, stats.withinSS
    s = lcm(*(y.denominator for y in stats.means))
    L = lcm(s * s, W.denominator, *(b.denominator for b in stats.betweenSS))
    a = [y.numerator * (s // y.denominator) for y in stats.means]
    firsts = [mi * ai * (L // s) for mi, ai in zip(stats.mults, a)]
    seconds = [mi * ai * ai * (L // (s * s))
               + b.numerator * (L // b.denominator)
               for mi, ai, b in zip(stats.mults, a, stats.betweenSS)]
    sy = sum(ni * v for ni, v in zip(n, firsts))
    syy = W.numerator * (L // W.denominator) + sum(
        ni * v for ni, v in zip(n, seconds))
    Z = [[stats.N * L, sy], [sy, syy]]
    Vs = [[[ni * ni * mi * L, ni * ni * f], [ni * ni * f, ni * ni * g]]
          for ni, mi, f, g in zip(n, stats.mults, firsts, seconds)]
    return Z, Vs, L


# ----------------------------------------------------------------------
# The profile record and the module-level entry points
# ----------------------------------------------------------------------

def gls_profile(stats: OneWayStats) -> ProfilePolys:
    """The X = 1 profile record: G = d sum m n / (1 + n theta),
    P = d G rss(mu_hat) and mu = cramer[0] / G. Data with a zero
    within-group sum of squares raise DegenerateDataError."""
    if stats.withinSS == 0:
        raise DegenerateDataError(
            "within-group sum of squares is zero; the profile analysis "
            "assumes residual variation")
    Z, Vs, L = basis_polynomials(stats)
    return profile_from_sums(stats.N, stats.sizes, stats.mults, Z, Vs, L,
                             mean=True)


def ml_equation(stats: OneWayStats) -> ProfileEquation:
    """Cancelled ML stationarity numerator, of degree 3M + M2 - 3."""
    return profile_equation(gls_profile(stats), "ML")


def reml_equation(stats: OneWayStats) -> ProfileEquation:
    """Cancelled REML stationarity numerator, of degree 2M + 2M2 - 3."""
    return profile_equation(gls_profile(stats), "REML")


def ml_fit(stats: OneWayStats,
           refine_width: Fraction = REFINE_WIDTH) -> FitReport:
    """Global profile-criterion optimum with certified classification."""
    return profile_fit(gls_profile(stats), "ML", refine_width)


def reml_fit(stats: OneWayStats,
             refine_width: Fraction = REFINE_WIDTH) -> FitReport:
    """Global restricted-criterion optimum with certified classification."""
    return profile_fit(gls_profile(stats), "REML", refine_width)
