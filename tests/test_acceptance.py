"""Release gates.

One test per gate so that `pytest -v` reports a single pass/fail line for
each. Every gate states its tolerance and budget inline. Gates that need
an external dataset skip with an explicit notice when the file is absent;
everything else must pass unconditionally.

The numeric-oracle gate deliberately avoids the library's own machinery:
it maximizes the raw objective by dense grid search plus golden-section
refinement in high-precision floating point, then checks that the
certified algebraic optimum lands on the same point.
"""

import csv
import math
import os
import random
import time
from fractions import Fraction

import pytest
from mpmath import mp

from conftest import (
    closed_forms,
    divides,
    fixture_path,
    load_stats_fixture,
    random_twoway_stats,
)
from exactvc import covariates, oneway
from exactvc.covariates import DesignProblem
from exactvc.enclosure import Approx
from exactvc.oneway import ml_equation, ml_fit, reml_equation, reml_fit
from exactvc.polynomials import UniPoly, descartes_sign_changes, poly_gcd
from exactvc.stats import (
    GroupedData,
    OneWayStats,
    ml_degree,
    multiplicity_profile,
    reml_degree,
    summarize,
)
from exactvc.twoway import TwoWayStats, eliminate_to_quartic, fit_twoway, ml_system

GOLD = (math.sqrt(5.0) - 1.0) / 2.0

# Fixed seeds so a gate failure reproduces verbatim.
SEED_DEGREES = 20250819
SEED_DIVISIBILITY = 6011
SEED_ORACLE_ONEWAY = 424242
SEED_ORACLE_TWOWAY = 515151
SEED_REDUCTION = 8101


def sigdigits(x, k=6):
    return float(f"%.{k}g" % x)


def midpoint_float(value):
    """Point estimate from either an exact rational or an enclosure."""
    if isinstance(value, Fraction):
        return float(value)
    return float((value.lo + value.hi) / 2)


# -- random instance generators ------------------------------------------------

def random_sized_stats(rng, qlo, qhi, slo, shi):
    """Sufficient statistics for a random layout with the given size box."""
    while True:
        q = rng.randint(qlo, qhi)
        sizes = [rng.randint(slo, shi) for _ in range(q)]
        if max(sizes) >= 2:
            break
    _, mults, _ = multiplicity_profile(sizes)
    distinct = sorted(set(sizes))
    means = tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 8))
                  for _ in distinct)
    between = tuple(
        Fraction(0) if m == 1
        else Fraction(rng.randint(1, 60), rng.randint(1, 8))
        for m in mults)
    within = Fraction(rng.randint(1, 90), rng.randint(1, 8))
    return OneWayStats(tuple(distinct), tuple(mults), means, between, within)


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


# -- independent numeric maximizers ---------------------------------------------

def mpf_frac(v):
    f = Fraction(v)
    return mp.mpf(f.numerator) / mp.mpf(f.denominator)


def oneway_objective_mp(st, method):
    """The raw profile objective, evaluated in mpmath arithmetic.

    Written from the model definition (weighted mean, profiled scale,
    log determinant), not from the library's cancelled numerators.
    """
    ns = [mp.mpf(n) for n in st.sizes]
    ms = [mp.mpf(m) for m in st.mults]
    ys = [mpf_frac(v) for v in st.means]
    bs = [mpf_frac(b) for b in st.betweenSS]
    W = mpf_frac(st.withinSS)
    N = mp.mpf(st.N)

    def ll(theta):
        w = [1 + n * theta for n in ns]
        f1 = sum(m * n / wi for m, n, wi in zip(ms, ns, w))
        fy = sum(m * n * y / wi for m, n, y, wi in zip(ms, ns, ys, w))
        mu = fy / f1
        S = W + sum(n / wi * (b + m * (y - mu) ** 2)
                    for n, wi, b, m, y in zip(ns, w, bs, ms, ys))
        ld = sum(m * mp.log(wi) for m, wi in zip(ms, w))
        if method == "ML":
            return -N * mp.log(S / N) - ld
        return -(N - 1) * mp.log(S / (N - 1)) - ld - mp.log(f1)

    return ll


def twoway_objective_mp(st):
    r, q, n = st.r, st.q, st.n
    e = r * q * n - r - q + 1
    E = mpf_frac(st.SSAB + st.SSE)
    SA = mpf_frac(st.SSA)
    SB = mpf_frac(st.SSB)

    def ll(om, t1, t2):
        if om <= 0 or t1 < 0 or t2 < 0:
            return mp.mpf("-1e300")
        a = om + q * n * t1
        b = om + r * n * t2
        c = om + q * n * t1 + r * n * t2
        return (-((r - 1) * mp.log(a) + (q - 1) * mp.log(b)
                  + e * mp.log(om) + mp.log(c))
                - (SA / a + SB / b + E / om))

    return ll


def golden_max(f, lo, hi, tol):
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    x1 = hi - GOLD * (hi - lo)
    x2 = lo + GOLD * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLD * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLD * (hi - lo)
            f1 = f(x1)
    return (lo + hi) / 2


def float_grid(lo, hi, count, geometric=False):
    if geometric:
        ratio = (hi / lo) ** (1.0 / (count - 1))
        return [lo * ratio ** i for i in range(count)]
    step = (hi - lo) / (count - 1)
    return [lo + step * i for i in range(count)]


def numeric_oneway_argmax(st, method):
    mp.dps = 60
    ll = oneway_objective_mp(st, method)
    grid = ([0.0] + float_grid(0.005, 2.0, 400)
            + float_grid(2.0, 5000.0, 500, geometric=True))
    vals = [ll(mp.mpf(t)) for t in grid]
    i = max(range(len(grid)), key=lambda j: vals[j])
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    interior = golden_max(ll, lo, hi, mp.mpf("1e-9"))
    if ll(mp.mpf(0)) >= ll(interior):
        return 0.0
    return float(interior)


def numeric_twoway_argmax(st):
    """Grid seed plus coordinate golden-section polish; returns (om, t1, t2)."""
    mp.dps = 60
    ll = twoway_objective_mp(st)
    scale = float(st.SSA + st.SSB + st.SSAB + st.SSE) + 1.0
    tau_grid = [0.0] + float_grid(scale * 1e-4, scale * 2, 7, geometric=True)
    best_val, best_pt = mp.mpf("-1e301"), None
    for om in float_grid(scale * 1e-5, scale * 4, 14, geometric=True):
        for t1 in tau_grid:
            for t2 in tau_grid:
                v = ll(mp.mpf(om), mp.mpf(t1), mp.mpf(t2))
                if v > best_val:
                    best_val, best_pt = v, (om, t1, t2)
    x = [mp.mpf(v) for v in best_pt]
    floor = [mp.mpf("1e-12"), mp.mpf(0), mp.mpf(0)]
    span = max(mp.mpf(1), *[abs(v) for v in x])
    for sweep in range(12):
        width = span * mp.mpf(2) ** (-sweep)
        for j in range(3):
            lo = max(x[j] - width, floor[j])

            def section(t, j=j):
                y = list(x)
                y[j] = t
                return ll(*y)

            x[j] = golden_max(section, lo, x[j] + width, mp.mpf("1e-12"))
    return [float(v) for v in x]


def positively_proportional(p, q):
    """p == c*q for some rational c > 0."""
    if p.degree != q.degree:
        return False
    lp, lq = p.leading_coeff(), q.leading_coeff()
    if (lp > 0) != (lq > 0):
        return False
    return p * lq == q * lp


def load_dyestuff_stats():
    groups = {}
    with open(fixture_path("dyestuff.csv"), newline="") as fh:
        for row in csv.DictReader(fh):
            groups.setdefault(row["group"], []).append(Fraction(row["value"]))
    return summarize(GroupedData(tuple(tuple(v) for v in groups.values())))


# -- gates -----------------------------------------------------------------------

def test_criterion_1_degree_formulas_on_200_random_layouts():
    # class count 2..10, group sizes 1..30; budget two minutes
    t0 = time.monotonic()
    rng = random.Random(SEED_DEGREES)
    for _ in range(200):
        st = random_sized_stats(rng, 2, 10, 1, 30)
        ml = ml_equation(st)
        rm = reml_equation(st)
        assert ml.observed_degree == ml_degree(st.M, st.M2)
        assert rm.observed_degree == reml_degree(st.M, st.M2)
    assert time.monotonic() - t0 < 120.0


def test_criterion_2_three_root_fixture_classification_and_global():
    t0 = time.monotonic()
    st = load_stats_fixture("trimodal.json")
    ml = ml_fit(st)
    pts = ml.stationary_points
    assert len(pts) == 3
    assert [sigdigits(float(iv.midpoint())) for iv, _ in pts] == [
        0.00838738, 0.118458, 0.338944]
    assert [label for _, label in pts] == ["local_max", "saddle", "local_max"]
    assert not ml.boundary_is_max and not ml.tie
    g = ml.global_estimates.theta
    first = pts[0][0]
    assert g.lo <= first.hi and g.hi >= first.lo
    assert sigdigits(midpoint_float(g)) == 0.00838738

    rm = reml_fit(st)
    rpts = rm.stationary_points
    assert len(rpts) == 1
    assert sigdigits(float(rpts[0][0].midpoint())) == 0.771763
    assert not rm.boundary_is_max
    assert time.monotonic() - t0 < 5.0


def test_criterion_3_boundary_fixture_ml_at_zero_reml_interior():
    t0 = time.monotonic()
    st = load_stats_fixture("boundary.json")
    ml = ml_fit(st)
    assert len(ml.stationary_points) == 0
    assert ml.boundary_is_max
    assert ml.global_estimates.theta == Approx.exact(0)

    rm = reml_fit(st)
    rpts = rm.stationary_points
    assert len(rpts) == 3
    assert [sigdigits(float(iv.midpoint())) for iv, _ in rpts] == [
        0.00492193, 0.159465, 0.241461]
    g = rm.global_estimates.theta
    first = rpts[0][0]
    assert g.lo <= first.hi and g.hi >= first.lo
    assert not rm.boundary_is_max
    assert time.monotonic() - t0 < 5.0


def test_criterion_4_dyestuff_pinned_polynomials_and_root():
    # Davies (1972) dyestuff yields, observations 1, 2 and 6 dropped.
    # The displayed stationarity polynomials were transcribed by hand;
    # minus the numerator (the derivative's sign) must match them up to
    # positive scale.
    if not os.path.exists(fixture_path("dyestuff.csv")):
        pytest.skip("dyestuff.csv fixture absent; pinned dyestuff gate "
                    "not exercised")
    st = load_dyestuff_stats()
    assert st.sizes == (3, 4, 5) and st.mults == (1, 1, 4)

    ml_display = UniPoly([64175517, 1279832076, 10086075110, 37792395524,
                          54052612853, -58814614680, -277109078400,
                          -245488320000], "theta")
    reml_display = UniPoly([67458244, 897954164, 4048254212, 5505084700,
                            -6811774200, -17047800000], "theta")
    ml = ml_equation(st)
    rm = reml_equation(st)
    assert positively_proportional(-ml.numerator, ml_display)
    assert positively_proportional(-rm.numerator, reml_display)
    assert descartes_sign_changes(ml.numerator) == 1
    assert descartes_sign_changes(rm.numerator) == 1

    rep = ml_fit(st)
    pts = rep.stationary_points
    assert len(pts) == 1
    assert round(float(pts[0][0].midpoint()), 4) == 0.5585


def test_criterion_5_penicillin_quartic_relations_and_solution():
    t0 = time.monotonic()
    st = TwoWayStats(24, 6, 1, Fraction(953, 9), Fraction(4043, 9),
                     Fraction(313, 9), Fraction(0))
    sk = eliminate_to_quartic(ml_system(st))
    quartic_display = UniPoly([139045932165, -1070402996440, 2545119731943,
                               -1801205257140, 204808595904], "omega")
    assert positively_proportional(sk.eliminated, quartic_display)
    # tau = t(omega) as coprime integers t.den * tau - t.ints(omega) = 0
    t1, t2 = sk.tau1_relation, sk.tau2_relation
    assert [t1.den] + [-c for c in t1.ints] == [
        2481278604010272, -1133204709683307975, 4998133978544934251,
        -4309720916424828084, 507582172417738176]
    assert [t2.den] + [-c for c in t2.ints] == [
        2481278604010272, -1201351121037374475, 5270402449572117709,
        -4538697213124439100, 534435082556924736]

    rep = fit_twoway(st)
    assert sum(1 for s in rep.solutions if s.feasible is True) == 1
    g = rep.global_solution
    assert g is not None and not rep.tie and not rep.boundary
    assert round(float(g.omega.midpoint()), 6) == pytest.approx(0.302425)
    assert round(float(g.tau1.midpoint()), 6) == pytest.approx(0.714992)
    assert round(float(g.tau2.midpoint()), 6) == pytest.approx(3.135188)
    assert time.monotonic() - t0 < 10.0


def test_criterion_6_divisibility_and_coprimality_on_100_instances():
    rng = random.Random(SEED_DIVISIBILITY)
    for _ in range(100):
        st = random_sized_stats(rng, 2, 8, 1, 12)
        cf = closed_forms(st)
        assert divides(cf.d1, cf.raw_ml)
        assert divides(cf.d1 * cf.d1, cf.raw_reml)
        for eq in (ml_equation(st), reml_equation(st)):
            assert poly_gcd(eq.numerator, eq.denominator).degree == 0


def test_criterion_7_numeric_oracle_agreement():
    # |algebraic - numeric| <= 1e-6 on the optimizer coordinate
    rng = random.Random(SEED_ORACLE_ONEWAY)
    for _ in range(20):
        st = random_sized_stats(rng, 2, 5, 1, 6)
        for method, fit in (("ML", ml_fit), ("REML", reml_fit)):
            rep = fit(st)
            algebraic = midpoint_float(rep.global_estimates.theta)
            numeric = numeric_oneway_argmax(st, method)
            assert abs(algebraic - numeric) <= 1e-6, (st, method)

    rng = random.Random(SEED_ORACLE_TWOWAY)
    compared, tried = 0, 0
    while compared < 10 and tried < 200:
        tried += 1
        st = random_twoway_stats(rng)
        rep = fit_twoway(st)
        if rep.global_solution is None:
            continue
        om, t1, t2 = numeric_twoway_argmax(st)
        scale = float(st.SSA + st.SSB + st.SSAB + st.SSE) + 1.0
        if t1 < 1e-7 * scale or t2 < 1e-7 * scale:
            continue    # numeric optimum on the boundary; not comparable
        compared += 1
        g = rep.global_solution
        algebraic = float((g.var_value.lo + g.var_value.hi) / 2)
        assert abs(algebraic - om) <= 1e-6, st
    assert compared == 10


def test_criterion_8_all_ones_design_reduces_to_plain_oneway():
    rng = random.Random(SEED_REDUCTION)
    for _ in range(50):
        data = random_grouped(rng)
        y = tuple(v for gp in data.groups for v in gp)
        ones = DesignProblem(y, tuple((Fraction(1),) for _ in y),
                             tuple(len(gp) for gp in data.groups))
        st = summarize(data)
        for with_x, plain in ((covariates.ml_equation(ones), ml_equation(st)),
                              (covariates.reml_equation(ones),
                               reml_equation(st))):
            assert positively_proportional(with_x.numerator, plain.numerator)
            assert positively_proportional(with_x.denominator,
                                           plain.denominator)


def test_criterion_9_language_diversity_dataset():
    # Optional external dataset: phonemic diversity of 504 languages in
    # 109 families with log population size and distance-from-origin
    # covariates (Atkinson 2011, journal supplementary material). Expected
    # if present: ML degree 83 with unique positive root near 0.3706,
    # REML degree 71 with unique positive root near 0.3853.
    path = fixture_path("atkinson.csv")
    if not os.path.exists(path):
        pytest.skip("optional atkinson.csv fixture absent (columns "
                    "group,y,x1,x2); expected ML degree 83 root ~0.3706, "
                    "REML degree 71 root ~0.3853")
    from exactvc.io import load_covariates_csv
    from exactvc.roots import isolate_real_roots, refine_interval

    design = load_covariates_csv(path, add_intercept=True)
    ml = covariates.ml_equation(design)
    rm = covariates.reml_equation(design)
    assert ml.observed_degree == 83
    assert rm.observed_degree == 71
    for eq, pin in ((ml, 0.3706), (rm, 0.3853)):
        roots, _ = isolate_real_roots(eq.numerator, domain="nonnegative")
        roots = [iv for iv in roots if iv.hi > 0]
        assert len(roots) == 1
        iv = refine_interval(roots[0], Fraction(1, 10 ** 8))
        assert round(float(iv.midpoint()), 4) == pin
