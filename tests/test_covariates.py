"""Tests for the covariate extension: exact GLS reduction, the plain
one-way model as the all-ones special case, degeneracy detection, and
end-to-end fits."""

import random
from dataclasses import replace
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from exactvc import oneway
from exactvc.covariates import (
    DesignProblem,
    conjecture_bound,
    estimates_at,
    gls_profile,
    ml_equation,
    ml_fit,
    profile_loglik,
    reml_equation,
    reml_fit,
)
from exactvc.errors import (
    DegenerateDesignError,
    InputError,
    ModelAssumptionError,
    RankDeficiencyError,
)
from exactvc.polynomials import poly_gcd
from exactvc.stats import GroupedData, summarize

from conftest import gls_profile_reference


# -- oracles -----------------------------------------------------------------

def solve_dense(a, b):
    """Exact linear solve by Gaussian elimination with partial pivoting."""
    n = len(b)
    m = [list(row) + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        piv = next(i for i in range(col, n) if m[i][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [u - f * v for u, v in zip(m[i], m[col])]
    return [m[i][n] for i in range(n)]


def weight_matrix(design, theta):
    """Dense within-group weight matrix I - theta/(1+n theta) J."""
    N = design.N
    K = [[Fraction(0)] * N for _ in range(N)]
    r = 0
    for ng in design.group_sizes:
        shrink = theta / (1 + ng * theta)
        for i in range(ng):
            for j in range(ng):
                K[r + i][r + j] = Fraction(int(i == j)) - shrink
        r += ng
    return K


def gls_dense(design, theta):
    """(beta, rss) by direct exact GLS at a fixed rational theta."""
    K = weight_matrix(design, theta)
    N, p = design.N, design.p
    x, y = design.x, design.y
    kx = [[sum(K[i][j] * x[j][b] for j in range(N)) for b in range(p)]
          for i in range(N)]
    a = [[sum(x[i][aa] * kx[i][b] for i in range(N)) for b in range(p)]
         for aa in range(p)]
    rhs = [sum(x[i][aa] * sum(K[i][j] * y[j] for j in range(N))
               for i in range(N)) for aa in range(p)]
    beta = solve_dense(a, rhs)
    resid = [y[i] - sum(x[i][b] * beta[b] for b in range(p))
             for i in range(N)]
    rss = sum(resid[i] * K[i][j] * resid[j]
              for i in range(N) for j in range(N))
    return beta, rss, resid, K


def random_design(rng, with_intercept=True, max_extra=2):
    extra = rng.randint(1, max_extra)
    while True:
        q = rng.randint(2, 4)
        sizes = [rng.randint(1, 4) for _ in range(q)]
        if max(sizes) < 2:
            sizes[rng.randrange(q)] = 2
        rows, y = [], []
        for ng in sizes:
            for _ in range(ng):
                row = [Fraction(1)] if with_intercept else []
                row += [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                        for _ in range(extra)]
                rows.append(tuple(row))
                y.append(Fraction(rng.randint(-20, 20), rng.randint(1, 5)))
        try:
            return DesignProblem(tuple(y), tuple(rows), tuple(sizes))
        except RankDeficiencyError:
            continue


def random_decaying_design(rng, **kw):
    """A random design whose criteria admit finite maximizers."""
    while True:
        d = random_design(rng, **kw)
        try:
            ml_equation(d)
            reml_equation(d)
        except DegenerateDesignError:
            continue
        return d


def random_grouped(rng):
    while True:
        q = rng.randint(2, 5)
        sizes = [rng.choice([1, 2, 2, 3, 4]) for _ in range(q)]
        if max(sizes) < 2:
            sizes[0] = 2
        groups = tuple(tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 4))
                             for _ in range(n)) for n in sizes)
        data = GroupedData(groups)
        if summarize(data).withinSS > 0:
            return data


# -- construction and validation ---------------------------------------------

def test_design_validation():
    one = Fraction(1)
    with pytest.raises(InputError):
        DesignProblem((one,), ((one,),), (2,))
    with pytest.raises(ModelAssumptionError):
        DesignProblem((one, one), ((one,), (one,)), (2,))
    with pytest.raises(ModelAssumptionError):
        DesignProblem((one, one), ((one,), (one,)), (1, 1))
    # duplicate column
    with pytest.raises(RankDeficiencyError):
        DesignProblem((one, one, one),
                      ((one, one), (one, one), (one, one)), (2, 1))
    # as many columns as rows
    with pytest.raises(RankDeficiencyError):
        DesignProblem(
            (one, one, one),
            ((one, 0, 0), (0, one, 0), (0, 0, one)), (2, 1))


def test_group_sizes_are_refused_not_truncated():
    # (2.9, True, 7/2) was once read as the layout (2, 1, 3)
    y = tuple(Fraction(v) for v in (1, 4, 2, 8, 5, 7))
    x = tuple((Fraction(1), Fraction(k)) for k in (0, 1, 2, 0, 1, 3))
    for sizes in ((2.9, True, Fraction(7, 2)), (2, 1.0, 3), (2, True, 3)):
        with pytest.raises(InputError, match="must hold integers"):
            DesignProblem(y, x, sizes)
    d = DesignProblem(y, x, (2, Fraction(1), Fraction(6, 2)))
    assert d.group_sizes == (2, 1, 3)
    assert all(type(n) is int for n in d.group_sizes)


def test_size_classes_and_intercept_detection():
    y = tuple(Fraction(v) for v in (1, 2, 3, 4, 5, 6, 7))
    x = tuple((Fraction(1), Fraction(k)) for k in (0, 1, 2, 0, 1, 0, 3))
    d = DesignProblem(y, x, (3, 2, 2))
    assert d.size_classes() == ((2, 3), (2, 1))
    assert d.has_intercept()
    # two centered columns cannot span the constant vector
    x2 = tuple((Fraction(v), Fraction(v * v - 4)) for v in (-2, -1, 0, 1, 2, 3, -3))
    d2 = DesignProblem(y, x2, (3, 2, 2))
    assert not d2.has_intercept()


# -- GLS reduction against the dense oracle ----------------------------------

def test_gls_matches_dense_solve_at_rational_theta():
    rng = random.Random(41)
    for _ in range(8):
        d = random_design(rng)
        prof = gls_profile(d)
        theta = Fraction(rng.randint(0, 12), rng.randint(1, 7))
        beta_oracle, rss_oracle, _, _ = gls_dense(d, theta)
        g = prof.gram_det(theta)
        assert g > 0
        assert [cj(theta) / g for cj in prof.cramer] == beta_oracle
        P, D = prof.rss_pair()
        assert P(theta) / D(theta) == rss_oracle


def test_gls_residual_orthogonality():
    rng = random.Random(42)
    for _ in range(6):
        d = random_design(rng)
        theta = Fraction(rng.randint(1, 9), rng.randint(2, 5))
        _, _, resid, K = gls_dense(d, theta)
        for a in range(d.p):
            total = sum(d.x[i][a] * K[i][j] * resid[j]
                        for i in range(d.N) for j in range(d.N))
            assert total == 0


def test_theta_zero_is_ordinary_least_squares():
    rng = random.Random(43)
    d = random_design(rng)
    prof = gls_profile(d)
    xt_x = [[sum(r[a] * r[b] for r in d.x) for b in range(d.p)]
            for a in range(d.p)]
    xt_y = [sum(r[a] * v for r, v in zip(d.x, d.y)) for a in range(d.p)]
    beta = solve_dense(xt_x, xt_y)
    g = prof.gram_det(Fraction(0))
    assert [cj(Fraction(0)) / g for cj in prof.cramer] == beta


# -- evaluation and interpolation against polynomial matrices -----------------

def make_design(sizes, x, y):
    return DesignProblem(tuple(Fraction(v) for v in y),
                         tuple(tuple(Fraction(v) for v in row) for row in x),
                         tuple(sizes))


def shaped_design(rng, q, p):
    """q groups of 2, 3, 4, 5, 2, ... rows, an intercept and p integer
    covariates, like the covariate shapes the benchmark times."""
    sizes = [2 + i % 4 for i in range(q)]
    while True:
        x = [[1] + [rng.randrange(-9, 10) for _ in range(p)]
             for _ in range(sum(sizes))]
        y = [Fraction(rng.randrange(-500, 500), 10) for _ in x]
        try:
            return make_design(sizes, x, y)
        except RankDeficiencyError:
            continue


@pytest.mark.parametrize("q, p", [(6, 4), (8, 3), (10, 2), (14, 1)])
def test_gls_profile_matches_reference_on_shaped_designs(q, p):
    d = shaped_design(random.Random(q * 100 + p), q, p)
    assert gls_profile(d) == gls_profile_reference(d)


def test_gls_profile_matches_reference_on_edge_designs():
    rng = random.Random(50)
    cases = []
    # singleton groups beside larger ones
    cases.append(make_design(
        (1, 3, 1, 2, 1),
        [(1, rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(8)],
        [rng.randint(-9, 9) for _ in range(8)]))
    # a single distinct size
    cases.append(make_design(
        (3, 3, 3), [(1, rng.randint(-5, 5)) for _ in range(9)],
        [Fraction(rng.randint(-99, 99), 7) for _ in range(9)]))
    # the design X = 1
    cases.append(make_design(
        (2, 4, 1, 3), [(1,)] * 10, [rng.randint(-9, 9) for _ in range(10)]))
    # a response in the column span: P vanishes identically
    x = [(1, k, k * k % 5) for k in range(7)]
    d = make_design((2, 2, 3), x, [3 - 2 * a + Fraction(1, 3) * b
                                   for _, a, b in x])
    assert gls_profile(d).p_poly.is_zero()
    cases.append(d)
    # denominators whose scale L is far past 2^64
    big = [2 ** 61 - 1, 10 ** 12 + 39, 3 ** 25]
    d = make_design(
        (2, 3, 2), [(Fraction(rng.randint(1, 9), rng.choice(big)),
                     Fraction(rng.randint(-9, 9), rng.choice(big)))
                    for _ in range(7)],
        [Fraction(rng.randint(-99, 99), rng.choice(big)) for _ in range(7)])
    assert lcm(*(v.denominator for row in d.x for v in row)) ** 2 > 2 ** 64
    cases.append(d)
    for d in cases:
        assert gls_profile(d) == gls_profile_reference(d)


@hst.composite
def rational_designs(draw):
    """Random rational designs with and without an intercept; groups of
    1..4 rows, so singleton groups appear."""
    sizes = draw(hst.lists(hst.integers(1, 4), min_size=2, max_size=5))
    intercept = draw(hst.booleans())
    width = draw(hst.integers(1, 3))
    entry = hst.fractions(min_value=-9, max_value=9, max_denominator=6)
    n = sum(sizes)
    x = [([1] if intercept else [])
         + draw(hst.lists(entry, min_size=width, max_size=width))
         for _ in range(n)]
    y = draw(hst.lists(entry, min_size=n, max_size=n))
    try:
        return make_design(sizes, x, y)
    except (RankDeficiencyError, ModelAssumptionError):
        assume(False)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(d=rational_designs())
def test_gls_profile_matches_reference_on_random_designs(d):
    assert gls_profile(d) == gls_profile_reference(d)


# -- the all-ones design reproduces the plain one-way equations ----------------

def test_ones_design_reduces_to_oneway():
    rng = random.Random(44)
    for _ in range(8):
        data = random_grouped(rng)
        y = tuple(v for g in data.groups for v in g)
        ones = DesignProblem(y, tuple((Fraction(1),) for _ in y),
                             tuple(len(g) for g in data.groups))
        s = summarize(data)
        assert replace(gls_profile(ones), mean=True) == oneway.gls_profile(s)
        for mine, plain in ((ml_equation(ones), oneway.ml_equation(s)),
                            (reml_equation(ones), oneway.reml_equation(s))):
            assert mine.numerator == plain.numerator
            assert mine.orientation == plain.orientation
        for mine, plain in ((ml_fit(ones), oneway.ml_fit(s)),
                            (reml_fit(ones), oneway.reml_fit(s))):
            assert mine.stationary_points == plain.stationary_points
            assert mine.boundary_is_max == plain.boundary_is_max
            g, h = mine.global_estimates, plain.global_estimates
            assert g.theta == h.theta
            assert g.loglik == h.loglik
            assert g.mu is None and h.beta is None
            assert g.beta == (h.mu,)


# -- equation structure --------------------------------------------------------

def test_equation_coprime_and_positive_denominator():
    rng = random.Random(45)
    for _ in range(5):
        d = random_decaying_design(rng)
        for eq in (ml_equation(d), reml_equation(d)):
            assert poly_gcd(eq.numerator, eq.denominator).degree == 0
            for t in (Fraction(0), Fraction(1, 3), Fraction(2), Fraction(17)):
                assert eq.denominator(t) > 0
            assert eq.expected_degree is None


def test_conjecture_bound_values():
    rng = random.Random(46)
    d = random_design(rng, with_intercept=True)
    assert conjecture_bound(d, "ML") == 3 * d.q - 3
    assert conjecture_bound(d, "REML") == 2 * d.q - 3
    d2 = random_design(rng, with_intercept=False)
    while d2.has_intercept():
        d2 = random_design(rng, with_intercept=False)
    assert conjecture_bound(d2, "ML") is None


# -- degeneracy ----------------------------------------------------------------

def test_response_in_span_raises():
    x = tuple((Fraction(1), Fraction(k)) for k in (0, 1, 2, 3, 4, 5))
    y = tuple(Fraction(2) + 3 * row[1] for row in x)
    d = DesignProblem(y, x, (3, 3))
    with pytest.raises(DegenerateDesignError):
        ml_equation(d)


def test_constant_rss_fits_like_oneway():
    # balanced one-way data with identical group means: the profiled rss
    # is flat in theta, so the criterion falls from theta = 0 and both
    # fits put the maximum on the boundary, as the plain one-way fits do
    groups = ((1, 3), (0, 4), (2, 2))
    y = tuple(Fraction(v) for g in groups for v in g)
    ones = DesignProblem(y, tuple((Fraction(1),) for _ in y), (2, 2, 2))
    s = summarize(GroupedData(tuple(tuple(Fraction(v) for v in g)
                                    for g in groups)))
    for mine, plain in ((ml_fit(ones), oneway.ml_fit(s)),
                        (reml_fit(ones), oneway.reml_fit(s))):
        assert mine.boundary_is_max and plain.boundary_is_max
        assert mine.global_estimates.theta == plain.global_estimates.theta == 0
        assert mine.global_estimates.loglik == plain.global_estimates.loglik


def test_unbounded_criterion_raises():
    # one free column per non-singleton group absorbs all the centered
    # variation, so rss -> 0 and the criterion climbs forever
    y = tuple(Fraction(v) for v in (3, 7, 5, 2, 9))
    x = ((1, 1, 0), (1, 0, 0), (1, 0, 0), (1, 0, 1), (1, 0, 0))
    d = DesignProblem(y, tuple(tuple(Fraction(v) for v in r) for r in x),
                      (2, 1, 2))
    with pytest.raises(DegenerateDesignError):
        ml_equation(d)


# -- values and fits -----------------------------------------------------------

def test_estimates_at_exact_theta_match_oracle():
    rng = random.Random(47)
    d = random_design(rng)
    theta = Fraction(3, 7)
    est = estimates_at(d, theta, method="ML")
    beta_oracle, rss_oracle, _, _ = gls_dense(d, theta)
    assert est.mu is None
    assert [b.lo for b in est.beta] == beta_oracle
    assert all(b.is_exact for b in est.beta)
    assert est.kappa.lo == Fraction(d.N) / rss_oracle
    with pytest.raises(ValueError):
        estimates_at(d, Fraction(-1))


def test_profile_loglik_decays():
    rng = random.Random(48)
    d = random_design(rng)
    a = profile_loglik(d, Fraction(50))
    b = profile_loglik(d, Fraction(500))
    assert a.lo > b.hi


def test_fit_end_to_end():
    rng = random.Random(49)
    for _ in range(4):
        d = random_decaying_design(rng)
        for rep in (ml_fit(d), reml_fit(d)):
            g = rep.global_estimates
            assert g.beta is not None and len(g.beta) == d.p
            prod = g.omega * g.kappa
            assert prod.lo <= 1 <= prod.hi
            assert g.tau.lo >= 0
            for iv, label in rep.stationary_points:
                assert iv.lo >= 0
                assert label in ("local_max", "local_min", "saddle")
            if rep.boundary_is_max:
                assert g.theta == 0
