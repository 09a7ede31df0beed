"""Tests for the restricted-criterion equation and fit."""

import random
from fractions import Fraction

import pytest

from conftest import (
    closed_forms,
    divides,
    interval_product,
    load_stats_fixture,
    random_oneway_stats,
    reciprocal,
)
from exactvc.enclosure import Approx
from exactvc.errors import DegenerateDataError
from exactvc.oneway import gls_profile, reml_equation, reml_fit
from exactvc.polynomials import poly_gcd
from exactvc.profilefit import profile_estimates, profile_value
from exactvc.stats import OneWayStats, ml_degree, reml_degree


def test_reml_rejects_zero_within():
    s = OneWayStats((2, 3), (1, 1), (1, 2), (0, 0), 0)
    with pytest.raises(DegenerateDataError):
        reml_equation(s)


def test_reml_degree_law_random_instances():
    rng = random.Random(20250819)
    for _ in range(25):
        s = random_oneway_stats(rng)
        eq = reml_equation(s)
        assert eq.observed_degree == reml_degree(s.M, s.M2)


def test_reml_degree_never_exceeds_ml():
    rng = random.Random(5)
    for _ in range(15):
        s = random_oneway_stats(rng)
        assert reml_degree(s.M, s.M2) <= ml_degree(s.M, s.M2)
        if s.M2 == s.M:
            assert reml_degree(s.M, s.M2) == ml_degree(s.M, s.M2)


def test_singleton_square_divides_raw_numerator():
    rng = random.Random(11)
    for _ in range(20):
        s = random_oneway_stats(rng)
        cf = closed_forms(s)
        assert divides(cf.d1 * cf.d1, cf.raw_reml)
        # d1 also divides g1 - f1^2 on its own
        assert divides(cf.d1, cf.g1 - cf.f1 * cf.f1)


def test_reml_cancelled_coprime():
    rng = random.Random(13)
    for _ in range(15):
        s = random_oneway_stats(rng)
        eq = reml_equation(s)
        assert poly_gcd(eq.numerator, eq.denominator).degree == 0
        for k in range(8):
            assert eq.denominator(Fraction(k, 3)) > 0


def test_reml_objective_kappa_positive():
    rng = random.Random(17)
    for _ in range(10):
        s = random_oneway_stats(rng)
        prof = gls_profile(s)
        P, D = prof.p_poly, prof.d * prof.gram_det
        for k in range(8):
            t = Fraction(k, 2)
            assert D(t) / P(t) > 0


def test_reml_balanced_closed_form():
    m, n = 4, 3
    B, W = Fraction(25, 2), Fraction(18)
    s = OneWayStats((n,), (m,), (Fraction(1),), (B,), W)
    eq = reml_equation(s)
    assert eq.observed_degree == 1
    rep = reml_fit(s)
    # 1 + n*theta_hat = MSA/MSE, the classic moment identity
    MSA, MSE = n * B / (m - 1), W / (m * (n - 1))
    predicted = (MSA / MSE - 1) / n
    iv = rep.global_estimates.theta
    assert iv.lo <= predicted <= iv.hi


def test_reml_balanced_no_between_variation():
    s = OneWayStats((3,), (4,), (Fraction(2),), (Fraction(0),), Fraction(10))
    rep = reml_fit(s)
    assert rep.boundary_is_max
    assert rep.global_estimates.theta == Approx.exact(0)


def sigdigits(x, k=6):
    return float(f"%.{k}g" % x)


def test_trimodal_fixture_reml_unique_root():
    s = load_stats_fixture("trimodal.json")
    rep = reml_fit(s)
    assert rep.equation.observed_degree == 7
    pts = rep.stationary_points
    assert len(pts) == 1
    iv, label = pts[0]
    assert label == "local_max"
    assert sigdigits(float(iv.midpoint())) == 0.771763
    assert not rep.boundary_is_max


def test_boundary_fixture_reml_three_roots():
    s = load_stats_fixture("boundary.json")
    rep = reml_fit(s)
    pts = rep.stationary_points
    assert len(pts) == 3
    mids = [sigdigits(float(iv.midpoint())) for iv, _ in pts]
    assert mids == [0.00492193, 0.159465, 0.241461]
    assert [label for _, label in pts] == ["local_max", "saddle", "local_max"]
    g = rep.global_estimates
    assert g.theta.lo <= Fraction("0.00492194") and g.theta.hi >= Fraction("0.00492192")


def test_boundary_fixture_restricted_loglik_ordering():
    s = load_stats_fixture("boundary.json")
    rep = reml_fit(s)
    maxima = [iv for iv, label in rep.stationary_points if label == "local_max"]
    l1 = profile_value(gls_profile(s), maxima[0], "REML")
    l3 = profile_value(gls_profile(s), maxima[1], "REML")
    assert l1.lo > l3.hi


def test_restricted_loglik_decays():
    s = load_stats_fixture("boundary.json")
    prof = gls_profile(s)
    a = profile_value(prof, Fraction(10), "REML")
    b = profile_value(prof, Fraction(200), "REML")
    assert a.lo > b.hi


def test_reml_estimates_at_root():
    s = load_stats_fixture("trimodal.json")
    rep = reml_fit(s)
    g = rep.global_estimates
    est = profile_estimates(gls_profile(s), g.theta, "REML")
    assert est.omega.lo > 0
    prod = interval_product(est.omega, reciprocal(est.omega))
    assert prod.lo <= 1 <= prod.hi
