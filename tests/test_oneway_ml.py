"""Tests for the ML profile equation: the X = 1 profile record, cancellation
structure, degree law, classification, and estimate consistency."""

import random
from fractions import Fraction
from math import lcm

import pytest

from conftest import (
    closed_forms,
    divides,
    fixture_path,
    interval_product,
    ladder_stats,
    load_stats_fixture,
    random_oneway_stats,
)
from exactvc.covariates import profile_from_sums
from exactvc.errors import DegenerateDataError
from exactvc.oneway import (
    basis_polynomials,
    gls_profile,
    ml_equation,
    ml_fit,
    reml_fit,
)
from exactvc.polynomials import UniPoly, descartes_sign_changes, poly_gcd
from exactvc.profilefit import profile_estimates, profile_value, theta_pair
from exactvc.roots import isolate_real_roots
from exactvc.stats import GroupedData, OneWayStats, ml_degree, summarize


# -- the X = 1 profile record ------------------------------------------------

def record_cases():
    """Random stats, the two hand cases, a single-size layout, all-singleton
    classes, and data with coprime odd denominators (a large scale L)."""
    rng = random.Random(20250819)
    cases = [random_oneway_stats(rng) for _ in range(15)]
    cases += [
        OneWayStats((4,), (3,), (Fraction(2),), (Fraction(5),), Fraction(9)),
        OneWayStats((2, 3), (1, 1), (Fraction(1), Fraction(2)),
                    (Fraction(0), Fraction(0)), Fraction(4)),
        OneWayStats((6,), (5,), (Fraction(-7, 3),), (Fraction(11, 5),),
                    Fraction(13, 7)),
        OneWayStats((2, 3, 5, 7), (1, 1, 1, 1),
                    tuple(Fraction(k, 3) for k in (1, -2, 4, 5)),
                    (Fraction(0),) * 4, Fraction(3)),
        OneWayStats((1, 2, 4), (2, 3, 2),
                    (Fraction(1, 3), Fraction(-2, 5), Fraction(4, 7)),
                    (Fraction(1, 11), Fraction(3, 13), Fraction(5, 17)),
                    Fraction(19, 23)),
    ]
    return cases


def test_basis_balanced_single_class():
    s = OneWayStats((4,), (3,), (Fraction(2),), (Fraction(5),), Fraction(9))
    prof = gls_profile(s)
    assert prof.d == UniPoly([1, 4], "theta")
    assert prof.gram_det == UniPoly.constant(12, "theta")
    assert prof.cramer == (UniPoly.constant(24, "theta"),)
    assert prof.mean and prof.p == 1


def test_basis_two_classes_hand_expansion():
    s = OneWayStats((2, 3), (1, 1), (Fraction(1), Fraction(2)),
                    (Fraction(0), Fraction(0)), Fraction(4))
    prof = gls_profile(s)
    assert prof.d == UniPoly([1, 5, 6], "theta")          # (1+2t)(1+3t)
    assert prof.gram_det == UniPoly([5, 12], "theta")     # 2(1+3t) + 3(1+2t)
    assert prof.cramer == (UniPoly([8, 18], "theta"),)    # 2(1+3t) + 6(1+2t)


def test_basis_matches_rational_sum_oracle():
    # G = d sum m n / (1 + n t), the Cramer numerator d sum m n Y / (1 + n t)
    # and P = d G rss(mu_hat), rss from the model: W plus, per size class,
    # n (m (Y - mu)^2 + B) / (1 + n t)
    rng = random.Random(29)
    for s in record_cases():
        prof, cf = gls_profile(s), closed_forms(s)
        for _ in range(5):
            t = Fraction(rng.randrange(0, 50), rng.randrange(1, 9))
            dv = prof.d(t)
            f1 = sum(Fraction(m * n) / (1 + n * t)
                     for m, n in zip(s.mults, s.sizes))
            fy = sum(m * n * y / (1 + n * t)
                     for m, n, y in zip(s.mults, s.sizes, s.means))
            mu = fy / f1
            rss = s.withinSS + sum(
                n * (m * (y - mu) ** 2 + b) / (1 + n * t)
                for m, n, y, b in zip(s.mults, s.sizes, s.means, s.betweenSS))
            assert prof.gram_det(t) == dv * f1
            assert prof.cramer[0](t) == dv * fy
            assert prof.p_poly(t) == dv * prof.gram_det(t) * rss
            # the closed forms' double-pole family, one spot check
            sv = sum(m * n * n / (1 + n * t) ** 2
                     for m, n in zip(s.mults, s.sizes))
            assert cf.g1(t) == dv * dv * sv


def test_profile_record_matches_closed_forms():
    for s in record_cases():
        prof, cf = gls_profile(s), closed_forms(s)
        assert prof.d == cf.d1 * cf.d2
        assert prof.gram_det == cf.f1
        assert prof.cramer == (cf.fY,)
        assert prof.p_poly == cf.bracket
    # coprime odd denominators give the sums a large common scale: the
    # squared means', B's and W's
    L = basis_polynomials(record_cases()[-1])[2]
    assert L == (3 * 5 * 7) ** 2 * 11 * 13 * 17 * 23



def basis_reference(stats):
    """basis_polynomials' sums by Fraction arithmetic, scaled by the lcm
    of the reduced sums' denominators."""
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


def test_integer_sums_match_the_fraction_formulas():
    # the same sums over a possibly different scale, and the same record
    rng = random.Random(2525)
    cases = record_cases() + [ladder_stats(random.Random(f"x{M}"), M)
                              for M in (4, 8, 12, 32)]
    cases += [random_oneway_stats(rng, max_size=60) for _ in range(20)]
    for s in cases:
        (Z, Vs, L), (rZ, rVs, rL) = basis_polynomials(s), basis_reference(s)
        for got, ref in zip([Z] + Vs, [rZ] + rVs):
            assert [[Fraction(v, L) for v in row] for row in got] == \
                [[Fraction(v, rL) for v in row] for row in ref]
        assert gls_profile(s) == profile_from_sums(
            s.N, s.sizes, s.mults, rZ, rVs, rL, mean=True)

def test_basis_positivity():
    # d and G have no root on [0, inf) and are positive at 0
    for s in record_cases():
        prof = gls_profile(s)
        for poly in (prof.d, prof.gram_det):
            assert poly(0) > 0
            if poly.degree > 0:
                assert isolate_real_roots(poly, domain="nonnegative")[0] == []
        g1 = closed_forms(s).g1
        for k in range(-8, 9):
            assert g1(Fraction(k, 2)) > 0


def test_degrees_of_basis():
    for s in record_cases():
        prof = gls_profile(s)
        assert prof.d.degree == s.M
        assert prof.gram_det.degree == s.M - 1
        assert closed_forms(s).g1.degree == 2 * (s.M - 1)


# -- equation structure ------------------------------------------------------

def test_ml_equation_rejects_zero_within():
    s = OneWayStats((2, 3), (1, 1), (1, 2), (0, 0), 0)
    with pytest.raises(DegenerateDataError):
        ml_equation(s)


def test_ml_degree_law_random_instances():
    rng = random.Random(20250819)
    for _ in range(25):
        s = random_oneway_stats(rng)
        eq = ml_equation(s)
        assert eq.observed_degree == ml_degree(s.M, s.M2)
        assert eq.expected_degree == eq.observed_degree


def test_singleton_factor_divides_raw_numerator():
    rng = random.Random(13)
    for _ in range(20):
        s = random_oneway_stats(rng)
        cf = closed_forms(s)
        assert divides(cf.d1, cf.raw_ml)
        # repeated classes with positive between-SS must NOT divide out
        for n, m, bb in zip(s.sizes, s.mults, s.betweenSS):
            if m >= 2 and bb > 0:
                assert not divides(UniPoly([1, n], "theta"), cf.raw_ml)


def test_cancelled_equation_is_coprime():
    rng = random.Random(17)
    for _ in range(15):
        s = random_oneway_stats(rng)
        eq = ml_equation(s)
        assert poly_gcd(eq.numerator, eq.denominator).degree == 0
        assert eq.numerator == eq.numerator.primitive()


def test_denominator_positive_on_domain():
    rng = random.Random(19)
    for _ in range(10):
        s = random_oneway_stats(rng)
        eq = ml_equation(s)
        for k in range(10):
            assert eq.denominator(Fraction(k, 3)) > 0


def test_balanced_layout_degree_one_closed_form():
    m, n = 4, 3
    B, W = Fraction(25, 2), Fraction(18)
    s = OneWayStats((n,), (m,), (Fraction(1),), (B,), W)
    eq = ml_equation(s)
    assert eq.observed_degree == 1
    rep = ml_fit(s)
    # 1 + n*theta_hat = (1 - 1/m) * MSA / MSE for an interior optimum
    MSA, MSE = n * B / (m - 1), W / (m * (n - 1))
    predicted = ((1 - Fraction(1, m)) * MSA / MSE - 1) / n
    iv = rep.global_estimates.theta
    assert iv.lo <= predicted <= iv.hi


def test_balanced_no_between_variation_boundary():
    s = OneWayStats((3,), (4,), (Fraction(2),), (Fraction(0),), Fraction(10))
    rep = ml_fit(s)
    assert rep.boundary_is_max
    assert rep.global_estimates.theta == 0
    assert rep.global_estimates.tau.lo == rep.global_estimates.tau.hi == 0


# -- Example 7.1 fixture -----------------------------------------------------

def sigdigits(x, k=6):
    return float(f"%.{k}g" % x)


def test_trimodal_fixture_ml_roots_and_classes():
    s = load_stats_fixture("trimodal.json")
    rep = ml_fit(s)
    assert rep.equation.observed_degree == 12
    pts = rep.stationary_points
    assert len(pts) == 3
    mids = [float(iv.midpoint()) for iv, _ in pts]
    assert [sigdigits(v) for v in mids] == [0.00838738, 0.118458, 0.338944]
    assert [label for _, label in pts] == ["local_max", "saddle", "local_max"]
    assert not rep.boundary_is_max and not rep.tie
    g = rep.global_estimates
    assert g.theta.lo <= Fraction("0.00838739") and g.theta.hi >= Fraction("0.00838737")
    assert g.tau.lo > 0 and g.omega.lo > 0


def test_trimodal_fixture_loglik_ordering():
    s = load_stats_fixture("trimodal.json")
    rep = ml_fit(s)
    pts = [iv for iv, label in rep.stationary_points if label == "local_max"]
    l1 = profile_value(gls_profile(s), pts[0], "ML")
    l3 = profile_value(gls_profile(s), pts[1], "ML")
    assert l1.lo > l3.hi


def test_boundary_fixture_ml_at_zero():
    s = load_stats_fixture("boundary.json")
    rep = ml_fit(s)
    assert rep.stationary_points == ()
    assert rep.boundary_is_max
    assert rep.global_estimates.theta == 0
    assert rep.negative_roots == 4


@pytest.mark.parametrize("M", [6, 8, 10, 12, 24, 32])
def test_ladder_negative_root_counts(M):
    # the benchmark ladder: ML has M/2 negative roots, REML none
    s = ladder_stats(random.Random(f"x{M}"), M)
    assert ml_fit(s).negative_roots == M // 2
    assert reml_fit(s).negative_roots == 0


# -- estimates ---------------------------------------------------------------

def test_estimates_mean_equation_residual_is_zero():
    rng = random.Random(23)
    for _ in range(10):
        s = random_oneway_stats(rng)
        t = Fraction(rng.randrange(0, 20), rng.randrange(1, 7))
        est = profile_estimates(gls_profile(s), t, "ML")
        mu = est.mu.lo   # exact at rational theta
        assert est.mu.is_exact
        residual = sum(
            Fraction(m * n, 1) * (y - mu) / (1 + n * t)
            for m, n, y in zip(s.mults, s.sizes, s.means))
        assert residual == 0


def test_estimates_invariants():
    s = load_stats_fixture("trimodal.json")
    rep = ml_fit(s)
    g = rep.global_estimates
    # omega = 1/kappa and tau = theta*omega as enclosure identities
    prod = interval_product(g.omega, g.omega.reciprocal())
    assert prod.lo <= 1 <= prod.hi
    tlo, thi = theta_pair(g.theta)
    assert g.tau.lo <= thi * g.omega.hi and g.tau.hi >= tlo * g.omega.lo
    assert g.tau.lo >= 0 and g.omega.lo > 0


def test_estimates_pooled_case_at_zero():
    # balanced, equal group means: omega at theta=0 is total SS / N
    m, n, mu0 = 3, 4, Fraction(7, 2)
    W = Fraction(33, 4)
    s = OneWayStats((n,), (m,), (mu0,), (Fraction(0),), W)
    est = profile_estimates(gls_profile(s), 0, "ML")
    assert est.mu.is_exact and est.mu.lo == mu0
    assert est.omega.is_exact and est.omega.lo == W / s.N
    assert est.tau.lo == est.tau.hi == 0


def test_estimates_rejects_negative_theta():
    s = load_stats_fixture("trimodal.json")
    with pytest.raises(ValueError):
        profile_estimates(gls_profile(s), Fraction(-1, 2), "ML")


def test_profile_loglik_decreases_beyond_roots():
    s = load_stats_fixture("trimodal.json")
    prof = gls_profile(s)
    a = profile_value(prof, Fraction(10), "ML")
    b = profile_value(prof, Fraction(100), "ML")
    c = profile_value(prof, Fraction(1000), "ML")
    assert a.lo > b.hi > c.hi


def test_fit_report_shape():
    s = load_stats_fixture("trimodal.json")
    rep = ml_fit(s)
    assert descartes_sign_changes(rep.equation.numerator) >= 1
    for iv, label in rep.stationary_points:
        assert iv.lo >= 0
        assert label in ("local_max", "local_min", "saddle")


# -- dyestuff subsample ------------------------------------------------------

def load_dyestuff():
    import csv
    groups = {}
    with open(fixture_path("dyestuff.csv"), newline="") as fh:
        for row in csv.DictReader(fh):
            groups.setdefault(row["group"], []).append(Fraction(row["value"]))
    return summarize(GroupedData(tuple(tuple(v) for v in groups.values())))


def test_dyestuff_subset_pinned_equations():
    # Davies (1972) dyestuff yields with observations 1, 2 and 6 dropped.
    # Coefficient pins were derived independently of this implementation.
    s = load_dyestuff()
    assert s.sizes == (3, 4, 5) and s.mults == (1, 1, 4)
    ml_pin = UniPoly([64175517, 1279832076, 10086075110, 37792395524,
                      54052612853, -58814614680, -277109078400,
                      -245488320000], "theta").primitive()
    reml_pin = UniPoly([67458244, 897954164, 4048254212, 5505084700,
                        -6811774200, -17047800000], "theta").primitive()
    from exactvc.oneway import reml_equation
    assert ml_equation(s).numerator == ml_pin
    assert reml_equation(s).numerator == reml_pin
    assert descartes_sign_changes(ml_pin) == 1


def test_dyestuff_subset_ml_root():
    rep = ml_fit(load_dyestuff())
    pts = rep.stationary_points
    assert len(pts) == 1 and pts[0][1] == "local_max"
    assert round(float(pts[0][0].midpoint()), 4) == 0.5585
    assert not rep.boundary_is_max
