"""Profile equations when the constant mean is replaced by covariates.

For a full-column-rank design X the generalized least squares step at
fixed theta is rational in theta: each within-group weight matrix is
I - theta/(1 + n theta) J, so clearing by d = prod(1 + n_i theta) turns
the normal equations into a linear system with polynomial entries. Two
determinants then carry the whole profile: G = det(d X' K X) and the
bordered determinant P with the response attached, giving the profiled
residual sum of squares as P / (d G). They form the profilefit record,
and profile_from_sums is its one builder, by evaluation at integer theta
and exact interpolation: gls_profile reduces a design to integer
cross-product sums and oneway.gls_profile feeds it the sums of the plain
layout, the design X = 1. So one profile objective and one stationarity
equation, profilefit.profile_equation, serve both fits. No closed-form
degree law is known here, so the expected degree is left open and
observed degrees are reported as data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import List, Optional, Sequence, Tuple, Union

from .enclosure import Approx
from .errors import (
    ContractViolationError,
    InputError,
    ModelAssumptionError,
    RankDeficiencyError,
)
from .polynomials import UniPoly, int_linear_product, interpolate, rat
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
from .stats import exact_count

VAR = "theta"


def _column_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank by fraction Gaussian elimination with row pivoting."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


@dataclass(frozen=True)
class DesignProblem:
    """Response, covariate rows, and the group layout, all exact.

    Rows are ordered group by group: the first group_sizes[0] rows form
    the first group, and so on. The design must have full column rank
    with strictly fewer columns than observations.
    """

    y: Tuple[Fraction, ...]
    x: Tuple[Tuple[Fraction, ...], ...]
    group_sizes: Tuple[int, ...]

    def __post_init__(self):
        y = tuple(rat(v) for v in self.y)
        x = tuple(tuple(rat(v) for v in row) for row in self.x)
        gs = tuple(exact_count(n, "group sizes") for n in self.group_sizes)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "group_sizes", gs)
        if not y or not x or not gs:
            raise InputError("empty design")
        if any(n <= 0 for n in gs):
            raise InputError("group sizes must be positive")
        if sum(gs) != len(y) or len(x) != len(y):
            raise InputError("row count does not match the group layout")
        p = len(x[0])
        if p == 0 or any(len(row) != p for row in x):
            raise InputError("covariate rows must share one positive width")
        if len(gs) < 2:
            raise ModelAssumptionError(
                "at least two groups are required to separate the variance "
                "components")
        if max(gs) < 2:
            raise ModelAssumptionError(
                "every group is a singleton; the within-group variance is "
                "not estimable")
        if p >= len(y):
            raise RankDeficiencyError(
                "design has at least as many columns as observations")
        if _column_rank(x) < p:
            raise RankDeficiencyError("design does not have full column rank")

    @property
    def N(self) -> int:
        return len(self.y)

    @property
    def p(self) -> int:
        return len(self.x[0])

    @property
    def q(self) -> int:
        return len(self.group_sizes)

    def size_classes(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Distinct group sizes in increasing order with multiplicities."""
        sizes = sorted(set(self.group_sizes))
        mults = [sum(1 for n in self.group_sizes if n == s) for s in sizes]
        return tuple(sizes), tuple(mults)

    def has_intercept(self) -> bool:
        """Whether the all-ones vector lies in the column span."""
        augmented = [list(row) + [Fraction(1)] for row in self.x]
        return _column_rank(augmented) == self.p


def _bordered_values(m: List[List[int]], p: int) -> Tuple[int, int, List[int]]:
    """(det A, det B, det A * A^-1 b) for the symmetric integer matrix
    B = [[A, b], [b', c]] of order p + 1, upper triangle stored in m.

    Fraction-free Bareiss without row swaps: step k pivots on the leading
    (k+1)-minor of A, which is positive when A is positive definite, so a
    pivot <= 0 is a broken contract. Each update keeps the trailing block
    symmetric, and a row is final once it has been the pivot row. After
    the last step the last entry is det B. Back-substitution on the first
    p rows then gives each det A * x_j in integers: every division is exact
    because det A * x_j is itself an integer determinant (Cramer's rule).
    """
    prev = 1
    for k in range(p):
        rk = m[k]
        pivot = rk[k]
        if pivot <= 0:
            raise ContractViolationError(
                "X'KX is not positive definite at a nonnegative theta")
        for i in range(k + 1, p + 1):
            ri, a = m[i], rk[i]
            for j in range(i, p + 1):
                ri[j] = (pivot * ri[j] - a * rk[j]) // prev
        prev = pivot
    y = [0] * p
    for k in range(p - 1, -1, -1):
        rk = m[k]
        acc = prev * rk[p] - sum(rk[j] * y[j] for j in range(k + 1, p))
        y[k] = acc // rk[k]
    return prev, m[p][p], y


def profile_from_sums(N: int, sizes: Tuple[int, ...], mults: Tuple[int, ...],
                      Z: List[List[int]], Vs: Sequence[List[List[int]]],
                      L: int, mean: bool) -> ProfilePolys:
    """The profile record of a design from its scaled cross-product sums:
    G = det A, the Cramer numerators of beta_hat and the bordered
    determinant P = det [[A, b], [b', c]] of the cleared normal equations
    A = d X'KX, b = d X'KY and c = d Y'KY, by evaluation and interpolation.

    Z is L times sum r r' over the rows r = [x y], and Vs[k] is L times
    sum u u' over the groups of size sizes[k], u the group's column sum;
    both are integer matrices of order p + 1 (the upper triangle is read).
    The scaled bordered matrix is then

        L B(theta) = d(theta) Z - theta sum_n d(theta)/(1 + n theta) V_n,

    an integer matrix at every integer theta. One Bareiss elimination per
    theta = 0..(p+1)M gives L^p G, L^(p+1) P and the L^p cramer_j there.
    Every entry of B has degree at most M, so G and each cramer_j have
    degree at most pM and P at most (p+1)M: the (p+1)M + 1 nodes determine
    all of them exactly. mean marks the design X = 1, whose one Cramer
    numerator is reported as mu.
    """
    p = len(Z) - 1
    order = range(p + 1)
    gram, bordered, cramer = [], [], []
    for t in range((p + 1) * len(sizes) + 1):
        lin = [1 + n * t for n in sizes]
        dt = prod(lin)
        w = [t * (dt // f) for f in lin]
        m = [[dt * Z[i][j] - sum(wn * Vn[i][j] for wn, Vn in zip(w, Vs))
              if j >= i else 0 for j in order] for i in order]
        g, pv, y = _bordered_values(m, p)
        gram.append(g)
        bordered.append(pv)
        cramer.append(y)

    def unscale(vals, scale):
        return interpolate([Fraction(v, scale) for v in vals], VAR)

    Lp = L ** p
    return ProfilePolys(
        N=N, p=p, sizes=sizes, mults=mults,
        d=UniPoly(int_linear_product(sizes), VAR),
        gram_det=unscale(gram, Lp), p_poly=unscale(bordered, Lp * L),
        cramer=tuple(unscale(col, Lp) for col in zip(*cramer)), mean=mean)


def gls_profile(design: DesignProblem) -> ProfilePolys:
    """The covariate profile record, from profile_from_sums.

    Integer rows r = s [x y], s clearing every denominator of the data,
    give the cross-product sums over the scale L = s^2.
    """
    sizes, mults = design.size_classes()
    p = design.p
    s = lcm(*(v.denominator for row in design.x for v in row),
            *(v.denominator for v in design.y))
    rows = [[v.numerator * (s // v.denominator) for v in row + (yv,)]
            for row, yv in zip(design.x, design.y)]
    order = range(p + 1)
    Z = [[sum(r[i] * r[j] for r in rows) for j in order] for i in order]
    V = {n: [[0] * (p + 1) for _ in order] for n in sizes}
    start = 0
    for ng in design.group_sizes:
        u = [sum(col) for col in zip(*rows[start:start + ng])]
        start += ng
        Vn = V[ng]
        for i in order:
            for j in range(i, p + 1):
                Vn[i][j] += u[i] * u[j]
    return profile_from_sums(design.N, sizes, mults, Z, [V[n] for n in sizes],
                             s * s, mean=False)


# ----------------------------------------------------------------------
# Profile equations
# ----------------------------------------------------------------------

def ml_equation(design: DesignProblem,
                prof: Optional[ProfilePolys] = None) -> ProfileEquation:
    """Cancelled stationarity numerator of the covariate profile criterion.

    No degree formula is asserted. A caller that already holds
    gls_profile(design) passes it as prof.
    """
    return profile_equation(prof or gls_profile(design), "ML")


def reml_equation(design: DesignProblem,
                  prof: Optional[ProfilePolys] = None) -> ProfileEquation:
    """Cancelled stationarity numerator of the restricted criterion, which
    subtracts log det(X'KX) = log G - p log d from the profile criterion."""
    return profile_equation(prof or gls_profile(design), "REML")


def conjecture_bound(design: DesignProblem, method: str) -> Optional[int]:
    """Conjectured degree ceiling for intercept-spanning designs.

    Returns 3q-3 (ML) or 2q-3 (REML) in the number of groups q when the
    all-ones vector lies in the column span, else None. Reported as a
    diagnostic only; nothing in the fitting path asserts it.
    """
    if not design.has_intercept():
        return None
    q = design.q
    return 3 * q - 3 if method == "ML" else 2 * q - 3


# ----------------------------------------------------------------------
# Values and fits
# ----------------------------------------------------------------------

def model(design: DesignProblem):
    """(record, method -> equation) for profile_fit, sharing one profile."""
    prof = gls_profile(design)
    return prof, lambda method: (
        ml_equation if method == "ML" else reml_equation)(design, prof)


def estimates_at(design: DesignProblem,
                 theta: Union[RootInterval, Fraction, int, str],
                 method: str = "ML", prec: int = 256) -> Estimates:
    """Coefficient and variance estimates at a given variance ratio.

    beta is the exact GLS solution Cramer numerator over G; kappa is
    weight * D / P with the method's weight; mu is None since the mean
    is carried by the design.
    """
    return profile_estimates(*model(design), theta, method, prec)


def profile_loglik(design: DesignProblem, theta, prec: int = 256) -> Approx:
    return profile_value(*model(design), theta, "ML", prec)


def restricted_loglik(design: DesignProblem, theta, prec: int = 256) -> Approx:
    return profile_value(*model(design), theta, "REML", prec)


def ml_fit(design: DesignProblem,
           refine_width: Fraction = Fraction(1, 10 ** 12)) -> FitReport:
    """Global covariate profile optimum with certified classification."""
    return profile_fit(*model(design), "ML", refine_width)


def reml_fit(design: DesignProblem,
             refine_width: Fraction = Fraction(1, 10 ** 12)) -> FitReport:
    """Global restricted optimum with certified classification."""
    return profile_fit(*model(design), "REML", refine_width)
