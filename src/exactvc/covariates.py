"""Profile equations when the constant mean is replaced by covariates.

For a full-column-rank design X the generalized least squares step at
fixed theta is rational in theta: each within-group weight matrix is
I - theta/(1 + n theta) J, so clearing by d = prod(1 + n_i theta) turns
the normal equations into a linear system with polynomial entries. Two
determinants then carry the whole profile: G = det(d X' K X) and the
bordered determinant P with the response attached, giving the profiled
residual sum of squares as P / (d G). They form the profilefit record,
which profile_from_sums builds by evaluation at integer theta and exact
interpolation from the integer cross-product sums gls_profile reduces a
design to; the plain layout X = 1 has closed forms instead
(oneway.gls_profile). So one profile objective, one stationarity
equation and one set of profilefit drivers serve both fits, each taking
the record and a method; ml_equation, reml_equation, ml_fit and reml_fit
remain as one-line entry points. No closed-form degree law is known for
a general design, so the expected degree is left open and observed
degrees are reported as data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import List, Optional, Sequence, Tuple

from .errors import (
    ContractViolationError,
    InputError,
    RankDeficiencyError,
)
from .polynomials import UniPoly, int_linear_product, interpolate, rat
from .profilefit import (
    REFINE_WIDTH,
    FitReport,
    ProfileEquation,
    ProfilePolys,
    profile_equation,
    profile_fit,
)
from .stats import check_layout, exact_count


def _full_column_rank(rows: Sequence[Sequence[Fraction]]) -> bool:
    """Whether rational rows have full column rank: exactly when the
    Gram matrix A = R'R of the rows R cleared by one scale is positive
    definite, which _bordered_values decides on A read as bordered at
    order p - 1: every leading minor, det A last, must be positive."""
    s = lcm(*(v.denominator for row in rows for v in row))
    R = [[v.numerator * (s // v.denominator) for v in row] for row in rows]
    p = len(R[0])
    a = [[sum(r[i] * r[j] for r in R) for j in range(p)] for i in range(p)]
    out = _bordered_values(a, p - 1)
    return out is not None and out[1] > 0


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
        check_layout(len(gs), max(gs))
        if p >= len(y):
            raise RankDeficiencyError(
                "design has at least as many columns as observations")
        if not _full_column_rank(x):
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
        """Whether the all-ones vector lies in the (full-rank) column span."""
        return not _full_column_rank([row + (Fraction(1),) for row in self.x])


def _bordered_values(m: List[List[int]], p: int
                     ) -> Optional[Tuple[int, int, List[int]]]:
    """(det A, det B, det A * A^-1 b) for the symmetric integer matrix
    B = [[A, b], [b', c]] of order p + 1, upper triangle stored in m, or
    None when A is not positive definite.

    Fraction-free Bareiss without row swaps: step k pivots on the leading
    (k+1)-minor of A, all of which are positive exactly when A is positive
    definite, so a pivot <= 0 ends it. Each update keeps the trailing block
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
            return None
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
                      L: int) -> ProfilePolys:
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
    all of them exactly.
    """
    p = len(Z) - 1
    order = range(p + 1)
    values = []
    for t in range((p + 1) * len(sizes) + 1):
        lin = [1 + n * t for n in sizes]
        dt = prod(lin)
        w = [t * (dt // f) for f in lin]
        m = [[dt * Z[i][j] - sum(wn * Vn[i][j] for wn, Vn in zip(w, Vs))
              if j >= i else 0 for j in order] for i in order]
        out = _bordered_values(m, p)
        if out is None:
            raise ContractViolationError(
                "X'KX is not positive definite at a nonnegative theta")
        values.append(out)
    gram, bordered, cramer = zip(*values)

    Lp = L ** p
    return ProfilePolys(
        N=N, p=p, sizes=sizes, mults=mults,
        d=UniPoly(int_linear_product(sizes)),
        gram_det=interpolate(gram, Lp),
        p_poly=interpolate(bordered, Lp * L),
        cramer=tuple(interpolate(col, Lp) for col in zip(*cramer)))


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
                             s * s)


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
# Module-level entry points
# ----------------------------------------------------------------------

def ml_equation(design: DesignProblem) -> ProfileEquation:
    """Cancelled ML stationarity numerator; no degree law is asserted."""
    return profile_equation(gls_profile(design), "ML")


def reml_equation(design: DesignProblem) -> ProfileEquation:
    """Cancelled REML stationarity numerator; no degree law is asserted."""
    return profile_equation(gls_profile(design), "REML")


def ml_fit(design: DesignProblem,
           refine_width: Fraction = REFINE_WIDTH) -> FitReport:
    """Global covariate profile optimum with certified classification."""
    return profile_fit(gls_profile(design), "ML", refine_width)


def reml_fit(design: DesignProblem,
             refine_width: Fraction = REFINE_WIDTH) -> FitReport:
    """Global restricted optimum with certified classification."""
    return profile_fit(gls_profile(design), "REML", refine_width)
