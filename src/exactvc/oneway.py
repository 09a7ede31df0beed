"""The one-way layout as a profilefit record, both estimation methods.

With theta = tau/omega, profiling the mean and the error variance omega
out of the (scaled) log-likelihood leaves a univariate objective in theta
whose derivative is a rational function with an everywhere-positive
denominator on [0, inf). The plain layout is the covariate model with
design X = 1: gls_profile refuses data without residual variation and
builds the record from the paper's simple-pole sums, with no evaluation
or interpolation. The profilefit drivers take it from there, and attach
the degree law 3M + M2 - 3 (ML) or 2M + 2M2 - 3 (REML) to it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import DegenerateDataError
from .polynomials import (UniPoly, int_linear_product, int_mul, int_strip,
                          int_sum)
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
    """(d, G, F, H, s, L): the paper's simple-pole sums as integer lists.

    With d = prod (1 + n_k theta), d_k = d / (1 + n_k theta), Y_k = a_k / s
    and L = lcm(s^2, the denominators of W and the B's), the design X = 1
    has G = d X'KX = sum m_k n_k d_k, s F = s d X'KY = sum m_k n_k a_k d_k
    and L H = L d Y'KY = L W d + sum n_k (m_k a_k^2 L / s^2 + L B_k) d_k,
    as a size class's groups sum (1, ybar, ybar^2) to (m, m Y, m Y^2 + B).
    """
    n, W = stats.sizes, stats.withinSS
    s = lcm(*(y.denominator for y in stats.means))
    L = lcm(s * s, W.denominator, *(b.denominator for b in stats.betweenSS))
    a = [y.numerator * (s // y.denominator) for y in stats.means]
    d = int_linear_product(n)
    dk = [int_strip(d, (1, nk), 1)[0] for nk in n]
    G = int_sum((mk * nk, c) for nk, mk, c in zip(n, stats.mults, dk))
    F = int_sum((mk * nk * ak, c)
                for nk, mk, ak, c in zip(n, stats.mults, a, dk))
    H = int_sum([(W.numerator * (L // W.denominator), d)] + [
        (nk * (mk * ak * ak * (L // (s * s))
               + b.numerator * (L // b.denominator)), c)
        for nk, mk, ak, b, c in zip(n, stats.mults, a, stats.betweenSS, dk)])
    return d, G, F, H, s, L


# ----------------------------------------------------------------------
# The profile record and the module-level entry points
# ----------------------------------------------------------------------

def gls_profile(stats: OneWayStats) -> ProfilePolys:
    """The X = 1 profile record from basis_polynomials: G, P = G H - F^2
    = d G rss(mu_hat) and mu = F / G. Data with a zero within-group sum
    of squares raise DegenerateDataError."""
    if stats.withinSS == 0:
        raise DegenerateDataError(
            "within-group sum of squares is zero; the profile analysis "
            "assumes residual variation")
    d, G, F, H, s, L = basis_polynomials(stats)
    P = int_sum([(1, int_mul(G, H)), (-(L // (s * s)), int_mul(F, F))])
    return ProfilePolys(stats.N, 1, stats.sizes, stats.mults, UniPoly(d),
                        UniPoly(G), UniPoly(P, den=L), (UniPoly(F, den=s),),
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
