"""Profile equations when the constant mean is replaced by covariates.

For a full-column-rank design X the generalized least squares step at
fixed theta is rational in theta: each within-group weight matrix is
I - theta/(1 + n theta) J, so clearing by d = prod(1 + n_i theta) turns
the normal equations into a linear system with polynomial entries. Two
determinants then carry the whole profile: G = det(d X' K X) and the
bordered determinant P with the response attached, giving the profiled
residual sum of squares as P / (d G). The stationarity numerators built
from P and G feed the same oriented-equation machinery as the plain
one-way fit; no closed-form degree law is known here, so the expected
degree is left open and observed degrees are reported as data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .enclosure import Approx, interval_divide, log_enclosure
from .errors import (
    DegenerateDesignError,
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
    build_profile_equation,
    certified_estimates,
    enclose_at,
    fit_profile,
)
from .roots import RootInterval, cauchy_bound, poly_range, sign

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


@dataclass(frozen=True)
class GlsProfile:
    """Cleared generalized least squares pieces as polynomials in theta.

    gram is A = d X'KX entrywise, moment is b = d X'KY, square is
    c = d Y'KY. gram_det G stays positive on [0, inf); beta_hat_j equals
    cramer[j] / G, and the profiled residual sum of squares is
    P / (d G) with P the bordered determinant c G - b' adj(A) b.
    """

    design: DesignProblem
    d: UniPoly
    gram: Tuple[Tuple[UniPoly, ...], ...]
    moment: Tuple[UniPoly, ...]
    square: UniPoly
    gram_det: UniPoly
    cramer: Tuple[UniPoly, ...]
    p_poly: UniPoly

    def rss_pair(self) -> Tuple[UniPoly, UniPoly]:
        """(P, D) with rss(theta) = P/D and D = d * G."""
        return self.p_poly, self.d * self.gram_det


def gls_profile(design: DesignProblem) -> GlsProfile:
    """Assemble the cleared normal equations and their determinants."""
    sizes, _ = design.size_classes()
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
    return GlsProfile(design=design, d=d, gram=tuple(tuple(r) for r in A),
                      moment=tuple(b), square=c, gram_det=G,
                      cramer=tuple(cramer), p_poly=P)


def _f1_poly(design: DesignProblem, d: UniPoly) -> UniPoly:
    """d * sum over groups of n_g/(1 + n_g theta)."""
    sizes, mults = design.size_classes()
    acc = UniPoly.zero(VAR)
    for n, m in zip(sizes, mults):
        acc = acc + d.exact_divide(UniPoly.linear(1, n, VAR)) * Fraction(m * n)
    return acc


def _require_varying_rss(prof: GlsProfile) -> UniPoly:
    """The numerator of rss', rejecting designs where rss is constant."""
    P, D = prof.rss_pair()
    if P.is_zero():
        raise DegenerateDesignError(
            "response lies in the covariate span; the residual sum of "
            "squares vanishes identically")
    S = P.derivative() * D - P * D.derivative()
    if S.is_zero():
        raise DegenerateDesignError(
            "profiled residual sum of squares does not vary with theta")
    return S


def _require_decay(design: DesignProblem, prof: GlsProfile, raw: UniPoly,
                   method: str):
    """Reject designs whose criterion does not fall off for large theta.

    The criterion behaves like growth * log(theta) at infinity, with
    growth computable exactly from degrees: rss ~ theta^(deg P - deg D)
    and log det(X'KX) ~ (deg G - p deg d) log theta. A positive growth
    means the likelihood is unbounded (the centered covariates absorb
    the within-group variation); zero growth with a climbing tail means
    the supremum sits at the large-theta limit. Either way no finite
    maximizer can be certified.
    """
    P, D = prof.rss_pair()
    drop = D.degree - P.degree
    if method == "ML":
        growth = design.N * drop - design.q
    else:
        growth = ((design.N - design.p) * drop - design.q
                  - prof.gram_det.degree + design.p * prof.d.degree)
    if growth > 0:
        raise DegenerateDesignError(
            "criterion increases without bound as theta grows; "
            "no maximizer exists")
    if growth == 0:
        far = cauchy_bound(raw) + 1
        if -sign(raw(far)) > 0:
            raise DegenerateDesignError(
                "criterion approaches its supremum only in the "
                "large-theta limit; no finite maximizer exists beyond "
                "the last stationary point")


# ----------------------------------------------------------------------
# Profile equations
# ----------------------------------------------------------------------

def ml_equation(design: DesignProblem,
                prof: Optional[GlsProfile] = None) -> ProfileEquation:
    """Cancelled stationarity numerator of the covariate profile criterion.

    With rss = P/D the derivative identity is

        objective'(theta) = -[N (P'D - PD') d + P D f1] / (P D d),

    and the denominator P G d^2 is positive on [0, inf), so base_sign
    is -1. No degree formula is asserted.
    """
    prof = prof or gls_profile(design)
    S = _require_varying_rss(prof)
    P, D = prof.rss_pair()
    f1 = _f1_poly(design, prof.d)
    raw = S * prof.d * Fraction(design.N) + P * D * f1
    _require_decay(design, prof, raw, "ML")
    sizes, _ = design.size_classes()
    den_factors = ([(UniPoly.linear(1, n, VAR), 2) for n in sizes]
                   + [(prof.gram_det, 1), (prof.p_poly, 1)])
    return build_profile_equation(
        raw, den_factors, Fraction(1),
        expected_degree=None, method_tag="ML", base_sign=-1)


def reml_equation(design: DesignProblem,
                  prof: Optional[GlsProfile] = None) -> ProfileEquation:
    """Cancelled stationarity numerator of the restricted criterion.

    The restricted objective subtracts log det(X'KX) = log G - p log d,
    so the raw numerator gains gram-determinant terms:

        (N-p)(P'D - PD') d G + P D (f1 G + G' d - p d' G)

    over the positive denominator P G^2 d^2; base_sign is -1.
    """
    prof = prof or gls_profile(design)
    S = _require_varying_rss(prof)
    P, D = prof.rss_pair()
    d, G = prof.d, prof.gram_det
    f1 = _f1_poly(design, d)
    w = Fraction(design.N - design.p)
    raw = (S * d * G * w
           + P * D * (f1 * G + G.derivative() * d
                      - d.derivative() * G * Fraction(design.p)))
    _require_decay(design, prof, raw, "REML")
    sizes, _ = design.size_classes()
    den_factors = ([(UniPoly.linear(1, n, VAR), 2) for n in sizes]
                   + [(G, 2), (prof.p_poly, 1)])
    return build_profile_equation(
        raw, den_factors, Fraction(1),
        expected_degree=None, method_tag="REML", base_sign=-1)


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
# Values at a given theta
# ----------------------------------------------------------------------

def _objective(design: DesignProblem, method: str,
               prof: Optional[GlsProfile] = None):
    """(loglik, values) of one method's objective over theta intervals.

    loglik(lo, hi, prec) encloses

        ML:    N log kappa_hat - sum_g log(1 + n_g theta) - N
        REML:  (N-p) log kappa_hat - sum_g log(1 + n_g theta)
               - log G + p sum_i log(1 + n_i theta) - (N-p)

    with kappa_hat = weight * D / P, and values(lo, hi) encloses
    (None, kappa, beta) with beta the Cramer numerators over G. Either
    returns None when its interval step degenerates, or when P or G is
    not positive.
    """
    if method not in ("ML", "REML"):
        raise ValueError("method must be ML or REML")
    if prof is None:
        prof = gls_profile(design)
    weight = design.N if method == "ML" else design.N - design.p
    P, D = prof.rss_pair()
    G = prof.gram_det
    kd_weighted = D * Fraction(weight)
    sizes, mults = design.size_classes()

    def loglik(lo: Fraction, hi: Fraction, prec: int) -> Optional[Approx]:
        if lo < 0:
            raise ValueError("theta must be nonnegative")
        kap = interval_divide(poly_range(D, lo, hi), poly_range(P, lo, hi))
        if kap is None or kap.lo <= 0:
            return None
        kap = kap.scale(weight)
        lk = log_enclosure(kap.lo, kap.hi, prec)
        if lk is None:
            return None
        total = lk.scale(weight) - Approx.exact(weight)
        for n, m in zip(sizes, mults):
            le = log_enclosure(1 + n * lo, 1 + n * hi, prec)
            total = total - le.scale(m)
        if method == "REML":
            glo, ghi = poly_range(G, lo, hi)
            lg = log_enclosure(glo, ghi, prec)
            if lg is None:
                return None
            total = total - lg
            for n in sizes:
                le = log_enclosure(1 + n * lo, 1 + n * hi, prec)
                total = total + le.scale(design.p)
        return total

    def values(lo: Fraction, hi: Fraction):
        prange, grange = poly_range(P, lo, hi), poly_range(G, lo, hi)
        if prange[0] <= 0 or grange[0] <= 0:
            return None
        kappa = interval_divide(poly_range(kd_weighted, lo, hi), prange)
        beta = tuple(interval_divide(poly_range(cj, lo, hi), grange)
                     for cj in prof.cramer)
        return None if kappa.lo <= 0 else (None, kappa, beta)

    return loglik, values


def _at(design: DesignProblem, theta, method: str):
    """(poly, loglik, values) for evaluating one method at theta; poly is
    the equation an isolating interval is narrowed against, None for an
    exact theta."""
    prof = gls_profile(design)
    loglik, values = _objective(design, method, prof)
    poly = None
    if isinstance(theta, RootInterval):
        poly = (ml_equation if method == "ML"
                else reml_equation)(design, prof).numerator
    return poly, loglik, values


def estimates_at(design: DesignProblem,
                 theta: Union[RootInterval, Fraction, int, str],
                 method: str = "ML", prec: int = 256) -> Estimates:
    """Coefficient and variance estimates at a given variance ratio.

    beta is the exact GLS solution Cramer numerator over G; kappa is
    weight * D / P with the method's weight; mu is None since the mean
    is carried by the design.
    """
    return certified_estimates(theta, *_at(design, theta, method), prec)


def profile_loglik(design: DesignProblem, theta, prec: int = 256) -> Approx:
    poly, loglik, _ = _at(design, theta, "ML")
    return enclose_at(lambda lo, hi: loglik(lo, hi, prec), theta, poly)[1]


def restricted_loglik(design: DesignProblem, theta, prec: int = 256) -> Approx:
    poly, loglik, _ = _at(design, theta, "REML")
    return enclose_at(lambda lo, hi: loglik(lo, hi, prec), theta, poly)[1]


# ----------------------------------------------------------------------
# Fits
# ----------------------------------------------------------------------

def _fit_x(design: DesignProblem, method: str,
           refine_width: Fraction) -> FitReport:
    prof = gls_profile(design)
    eq = (ml_equation if method == "ML" else reml_equation)(design, prof)
    return fit_profile(eq, *_objective(design, method, prof), refine_width)


def ml_fit(design: DesignProblem,
           refine_width: Fraction = Fraction(1, 10 ** 12)) -> FitReport:
    """Global covariate profile optimum with certified classification."""
    return _fit_x(design, "ML", Fraction(refine_width))


def reml_fit(design: DesignProblem,
             refine_width: Fraction = Fraction(1, 10 ** 12)) -> FitReport:
    """Global restricted optimum with certified classification."""
    return _fit_x(design, "REML", Fraction(refine_width))
