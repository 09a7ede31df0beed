"""Profile equations when the constant mean is replaced by covariates.

For a full-column-rank design X the generalized least squares step at
fixed theta is rational in theta: each within-group weight matrix is
I - theta/(1 + n theta) J, so clearing by d = prod(1 + n_i theta) turns
the normal equations into a linear system with polynomial entries. Two
determinants then carry the whole profile: G = det(d X' K X) and the
bordered determinant P with the response attached, giving the profiled
residual sum of squares as P / (d G). They form the profilefit record
that the plain one-way fit, the design X = 1, also builds, so one profile
objective and one stationarity equation, profilefit.profile_equation,
serve both fits. No closed-form degree law is known here, so the expected
degree is left open and observed degrees are reported as data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .enclosure import Approx
from .errors import (
    InputError,
    ModelAssumptionError,
    RankDeficiencyError,
)
from .multipoly import bareiss_determinant
from .polynomials import UniPoly, product, rat
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
        gs = tuple(int(n) for n in self.group_sizes)
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


def gls_profile(design: DesignProblem) -> ProfilePolys:
    """Assemble the cleared normal equations A = d X'KX, b = d X'KY and
    c = d Y'KY, and their determinants: G = det A, the Cramer numerators
    of beta_hat, and the bordered determinant P = c G - b' adj(A) b."""
    sizes, mults = design.size_classes()
    lin = {n: UniPoly.linear(1, n, VAR) for n in sizes}
    d = product((lin[n] for n in sizes), VAR)
    t = UniPoly.variable(VAR)
    # theta * d/(1 + n theta), the coefficient that clears each J block
    toff = {n: t * d.exact_divide(lin[n]) for n in sizes}

    p = design.p
    zero = UniPoly.zero(VAR)
    A: List[List[UniPoly]] = [[zero] * p for _ in range(p)]
    b: List[UniPoly] = [zero] * p
    c = zero
    row = 0
    for ng in design.group_sizes:
        Xg = design.x[row:row + ng]
        Yg = design.y[row:row + ng]
        row += ng
        colsum = [sum(r[j] for r in Xg) for j in range(p)]
        ysum = sum(Yg, Fraction(0))
        tko = toff[ng]
        for j in range(p):
            for k in range(j, p):
                dot = sum(r[j] * r[k] for r in Xg)
                entry = d * dot - tko * (colsum[j] * colsum[k])
                A[j][k] = A[j][k] + entry
                if k != j:
                    A[k][j] = A[k][j] + entry
            bdot = sum(r[j] * v for r, v in zip(Xg, Yg))
            b[j] = b[j] + d * bdot - tko * (colsum[j] * ysum)
        c = c + d * sum(v * v for v in Yg) - tko * (ysum * ysum)

    one = UniPoly.constant(1, VAR)
    G = bareiss_determinant([list(r) for r in A], zero, one)
    cramer = []
    for j in range(p):
        cols = [[b[i] if k == j else A[i][k] for k in range(p)]
                for i in range(p)]
        cramer.append(bareiss_determinant(cols, zero, one))
    bordered = [list(A[i]) + [b[i]] for i in range(p)] + [list(b) + [c]]
    P = bareiss_determinant(bordered, zero, one)
    return ProfilePolys(N=design.N, p=p, sizes=sizes, mults=mults, d=d,
                        gram_det=G, p_poly=P, cramer=tuple(cramer))


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

def _model(design: DesignProblem):
    """(record, method -> equation), sharing one GLS profile."""
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
    return profile_estimates(*_model(design), theta, method, prec)


def profile_loglik(design: DesignProblem, theta, prec: int = 256) -> Approx:
    return profile_value(*_model(design), theta, "ML", prec)


def restricted_loglik(design: DesignProblem, theta, prec: int = 256) -> Approx:
    return profile_value(*_model(design), theta, "REML", prec)


def ml_fit(design: DesignProblem,
           refine_width: Fraction = Fraction(1, 10 ** 12)) -> FitReport:
    """Global covariate profile optimum with certified classification."""
    return profile_fit(*_model(design), "ML", refine_width)


def reml_fit(design: DesignProblem,
             refine_width: Fraction = Fraction(1, 10 ** 12)) -> FitReport:
    """Global restricted optimum with certified classification."""
    return profile_fit(*_model(design), "REML", refine_width)
