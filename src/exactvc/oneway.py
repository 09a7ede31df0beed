"""Exact profile equations for the one-way layout, both estimation methods.

With kappa = 1/omega and theta = tau/omega, profiling the mean and kappa
out of the (scaled) log-likelihood leaves a univariate objective in theta
whose derivative is a rational function with an everywhere-positive
denominator on [0, inf). The numerators are assembled here from four
families of basis polynomials and handed to the shared profilefit
machinery. The restricted objective differs only in its N-1 weights and an
extra log term, and its numerator carries a guaranteed square factor from
the singleton size classes.

The plain layout is the covariate model with design X = 1: gls_profile
hands profilefit the record a covariate design gives, so one profile
objective serves both fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Union

from .enclosure import Approx
from .errors import DegenerateDataError
from .polynomials import UniPoly
from .profilefit import (
    Estimates,
    FitReport,
    ProfileEquation,
    ProfilePolys,
    build_profile_equation,
    profile_estimates,
    profile_fit,
    profile_value,
)
from .roots import RootInterval
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

    bracket = W f1 d + fY2 f1 - fY^2 + f1 fBm = d f1 rss(mu_hat), with W
    the within-group SS, is positive on [0, inf) by Cauchy-Schwarz.
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
    bracket: UniPoly


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
    d = UniPoly(d, VAR)
    f1 = _combine([m[i] * n[i] for i in range(M)], off)
    fY = _combine([m[i] * n[i] * Y[i] for i in range(M)], off)
    fY2 = _combine([m[i] * n[i] * Y[i] ** 2 for i in range(M)], off)
    fBm = _combine([n[i] * B[i] for i in range(M)], off)
    return BasisPolys(
        d=d,
        d1=UniPoly(_int_linear_product(
            s for s, k in zip(n, m) if k == 1), VAR),
        d2=UniPoly(_int_linear_product(
            s for s, k in zip(n, m) if k >= 2), VAR),
        f1=f1, fY=fY, fY2=fY2, fBm=fBm,
        g1=_combine([m[i] * n[i] ** 2 for i in range(M)], off2),
        gY=_combine([m[i] * n[i] ** 2 * Y[i] for i in range(M)], off2),
        gY2=_combine([m[i] * n[i] ** 2 * Y[i] ** 2 for i in range(M)], off2),
        gBm=_combine([n[i] ** 2 * B[i] for i in range(M)], off2),
        bracket=f1 * d * stats.withinSS + fY2 * f1 - fY * fY + f1 * fBm,
    )


def h_poly(basis: BasisPolys) -> UniPoly:
    """Numerator of -(d^2 f1^2) * d/dtheta (bracket/(d f1)): the part of the
    derivative contributed by the double-pole sums."""
    b = basis
    return (b.f1 * b.f1 * b.gY2 - 2 * b.fY * b.f1 * b.gY
            + b.fY * b.fY * b.g1 + b.f1 * b.f1 * b.gBm)


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
    raw = (h_poly(basis) * Fraction(stats.N)
           - basis.f1 * basis.f1 * basis.bracket)
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
    raw = ((basis.g1 - basis.f1 * basis.f1) * basis.bracket
           + h_poly(basis) * Fraction(stats.N - 1))
    lin = [UniPoly.linear(1, n, VAR) for n in stats.sizes]
    # bracket itself carries one copy of d1, so split it out to expose the
    # full square in the denominator's factor list
    bracket_core = basis.bracket.exact_divide(basis.d1)
    den_factors = ([(l, 2) for l, m in zip(lin, stats.mults) if m == 1]
                   + [(l, 1) for l, m in zip(lin, stats.mults) if m >= 2]
                   + [(basis.f1, 1), (bracket_core, 1)])
    return build_profile_equation(
        raw, den_factors, Fraction(1),
        expected_degree=reml_degree(stats.M, stats.M2),
        method_tag="REML", base_sign=1)


# ----------------------------------------------------------------------
# The profile record, values and fits
# ----------------------------------------------------------------------

def gls_profile(stats: OneWayStats) -> ProfilePolys:
    """The X = 1 profile record: G = f1, P = the bracket, mu = fY/f1."""
    return _model(stats)[0]


def _model(stats: OneWayStats):
    """(record, method -> equation), sharing one basis."""
    basis = basis_polynomials(stats)
    prof = ProfilePolys(N=stats.N, p=1, sizes=stats.sizes, mults=stats.mults,
                        d=basis.d, gram_det=basis.f1, p_poly=basis.bracket,
                        cramer=(basis.fY,), mean=True)
    return prof, lambda method: (
        ml_equation if method == "ML" else reml_equation)(stats, basis)


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
