"""Exact profile equations for the one-way layout, both estimation methods.

With kappa = 1/omega and theta = tau/omega, profiling the mean and kappa
out of the (scaled) log-likelihood leaves a univariate objective in theta
whose derivative is a rational function with an everywhere-positive
denominator on [0, inf). The plain layout is the covariate model with
design X = 1: gls_profile builds, from the simple-pole basis below, the
profilefit record a covariate design gives, and profilefit derives the
one objective and its stationarity numerator from that record for both
fits. What stays here is the degree law of the cancelled numerator:
3M + M2 - 3 (ML) and 2M + 2M2 - 3 (REML), the singleton size classes
dividing out once and twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Union

from .enclosure import Approx
from .errors import DegenerateDataError
from .polynomials import UniPoly, int_linear_product
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

VAR = "theta"


@dataclass(frozen=True)
class BasisPolys:
    """The exact polynomial basis of the one-way profile record.

    d is the product of (1 + n_i theta) over distinct sizes. For a weight
    family a, f_a clears the denominator of the weighted sum

        f_a = sum_i m_i n_i a_i prod_{j != i} (1 + n_j theta)

    with a ranging over 1, the class means, their squares, and the
    between-group sums of squares divided by the multiplicities.

    bracket = W f1 d + fY2 f1 - fY^2 + f1 fBm = d f1 rss(mu_hat), with W
    the within-group SS, is positive on [0, inf) by Cauchy-Schwarz.
    """

    d: UniPoly
    f1: UniPoly
    fY: UniPoly
    fY2: UniPoly
    fBm: UniPoly
    bracket: UniPoly


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
    d = int_linear_product(stats.sizes)
    # prod_{j != i} (1 + n_j theta) = d / (1 + n_i theta), dividing from
    # the constant term: o_k = d_k - n_i o_(k-1)
    off = []
    for n_i in stats.sizes:
        o, prev = [], 0
        for c in d[:-1]:
            prev = c - n_i * prev
            o.append(prev)
        off.append(o)

    m, n, Y, B = stats.mults, stats.sizes, stats.means, stats.betweenSS
    M = stats.M
    d = UniPoly(d, VAR)
    f1 = _combine([m[i] * n[i] for i in range(M)], off)
    fY = _combine([m[i] * n[i] * Y[i] for i in range(M)], off)
    fY2 = _combine([m[i] * n[i] * Y[i] ** 2 for i in range(M)], off)
    fBm = _combine([n[i] * B[i] for i in range(M)], off)
    return BasisPolys(
        d=d, f1=f1, fY=fY, fY2=fY2, fBm=fBm,
        bracket=f1 * d * stats.withinSS + fY2 * f1 - fY * fY + f1 * fBm,
    )


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
    """The X = 1 profile record: G = f1, P = the bracket, mu = fY/f1."""
    basis = basis_polynomials(stats)
    return ProfilePolys(N=stats.N, p=1, sizes=stats.sizes, mults=stats.mults,
                        d=basis.d, gram_det=basis.f1, p_poly=basis.bracket,
                        cramer=(basis.fY,), mean=True)


def _model(stats: OneWayStats):
    """(record, method -> equation), sharing one basis."""
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
        Estimates with mu = fY/f1, kappa = weight*f1*d/bracket, omega the
        reciprocal, tau = theta*omega, each as a certified enclosure.
    """
    return profile_estimates(*_model(stats), theta, method, prec)


def profile_loglik(stats: OneWayStats, theta, prec: int = 256) -> Approx:
    """Profile objective N log kappa_hat - sum m_i log(1+n_i theta) - N."""
    return profile_value(*_model(stats), theta, "ML", prec)


def restricted_loglik(stats: OneWayStats, theta, prec: int = 256) -> Approx:
    """Restricted profile objective with the N-1 weighting and the extra
    -log(f1/d) term."""
    return profile_value(*_model(stats), theta, "REML", prec)


def ml_fit(stats: OneWayStats,
           refine_width: Fraction = Fraction(1, 10 ** 12)) -> FitReport:
    """Global profile-criterion optimum with certified classification."""
    return profile_fit(*_model(stats), "ML", refine_width)


def reml_fit(stats: OneWayStats,
             refine_width: Fraction = Fraction(1, 10 ** 12)) -> FitReport:
    """Global restricted-criterion optimum with certified classification."""
    return profile_fit(*_model(stats), "REML", refine_width)
