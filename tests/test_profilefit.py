"""The shared profile machinery: the stationarity equation against the
paper's closed forms, and the certified-argmax engine's wins, ties and
enclosure retries."""

import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings

from conftest import (closed_forms, interval_scale, interval_sum,
                      load_stats_fixture, random_oneway_stats)
from exactvc import covariates, oneway, profilefit
from exactvc.enclosure import Approx
from exactvc.errors import ContractViolationError, DegenerateDesignError
from exactvc.polynomials import UniPoly
from exactvc.stats import OneWayStats
from test_covariates import rational_designs
from exactvc.profilefit import (
    _MAX_RETRIES,
    _TIE_WIDTH_CAP,
    ProfileEquation,
    certified_argmax,
    classify_stationary_points,
    enclose_at,
    profile_equation,
    profile_estimates,
    profile_fit,
    profile_objective,
)
from exactvc.roots import RootInterval, isolate_real_roots, refine_interval
from exactvc.twoway import TwoWayStats, fit_twoway

def test_profile_equation_matches_the_closed_forms():
    # the singleton classes d1 divide raw_ml once and raw_reml twice, and
    # nothing else cancels (the degree laws), so the cancelled numerator
    # is raw / d1^k in primitive form, and raw's leading coefficient is
    # negative
    rng = random.Random(20260518)
    singletons = repeated = 0
    for _ in range(120):
        s = random_oneway_stats(rng)
        singletons += 1 in s.mults
        repeated += any(m >= 2 for m in s.mults)
        cf, prof = closed_forms(s), oneway.gls_profile(s)
        for method, raw, k in (("ML", cf.raw_ml, 1), ("REML", cf.raw_reml, 2)):
            eq = profile_equation(prof, method)
            assert eq.numerator == raw.exact_divide(cf.d1 ** k).primitive()
            assert raw.leading_coeff() < 0
    assert singletons >= 20 and repeated >= 20


def test_unknown_method_is_refused():
    # a lower-case "ml" once built an equation with the REML weight N - p
    # and no REML terms: a wrong numerator with no error
    prof = oneway.gls_profile(OneWayStats((2, 3, 5), (2, 1, 1), (1, 2, 3),
                                          (1, 0, 0), 5))
    assert profile_equation(prof, "ML").observed_degree == 7
    for method in ("ml", "reml", "both", ""):
        with pytest.raises(ValueError):
            profile_equation(prof, method)
        with pytest.raises(ValueError):
            profile_objective(prof, method)


def sympy_poly(u, t):
    sympy = pytest.importorskip("sympy")
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(u.coeffs)], t, domain="QQ")


def oracle_equation(prof, method):
    """(numerator, denominator) of objective' in lowest terms, from the
    objective's definition: objective' d G P, divided by its gcd with
    d G P. objective = w log(w d G / P) - sum m log(1 + n t) - w, less
    log(G / d^p) for REML."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    d, G, P = (sympy_poly(u, t) for u in (prof.d, prof.gram_det, prof.p_poly))
    w = prof.N if method == "ML" else prof.N - prof.p
    cleared = w * (d.diff(t) * G * P + d * G.diff(t) * P - d * G * P.diff(t))
    for n, m in zip(prof.sizes, prof.mults):
        lin = sympy.Poly(1 + n * t, t, domain="QQ")
        cleared -= m * n * d.exquo(lin) * G * P
    if method == "REML":
        cleared -= d * G.diff(t) * P - prof.p * d.diff(t) * G * P
    den = d * G * P
    g = cleared.gcd(den)
    return cleared.exquo(g), den.exquo(g), t


def check_against_oracle(prof, method):
    if prof.p_poly.is_zero():
        with pytest.raises(DegenerateDesignError):
            profile_equation(prof, method)
        return
    num, den, t = oracle_equation(prof, method)
    try:
        eq = profile_equation(prof, method)
    except DegenerateDesignError:
        # refused: objective' is zero or positive for large theta
        assert num.is_zero or num.LC() > 0
        return
    lib = sympy_poly(-eq.numerator, t)
    ratio = num.LC() / lib.LC()
    assert ratio > 0 and lib * ratio == num
    lib_den = sympy_poly(eq.denominator, t)
    assert lib_den.LC() > 0 and lib_den.monic() == den.monic()


def test_profile_equation_matches_the_oracle_on_oneway_stats():
    # flat variants (one common mean, no between-group spread) make P a
    # multiple of d G, so the gcd of the cancellation is not trivial
    rng = random.Random(8)
    for _ in range(25):
        s = random_oneway_stats(rng)
        flat = OneWayStats(s.sizes, s.mults, (s.means[0],) * s.M,
                           (F(0),) * s.M, s.withinSS)
        for stats in (s, flat):
            prof = oneway.gls_profile(stats)
            for method in ("ML", "REML"):
                check_against_oracle(prof, method)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(d=rational_designs())
def test_profile_equation_matches_the_oracle_on_covariate_designs(d):
    prof = covariates.gls_profile(d)
    for method in ("ML", "REML"):
        check_against_oracle(prof, method)


def ladder_stats(M, rng):
    """The benchmark's one-way ladder profile: sizes 2..M+1, every second
    size shared by two groups, values recorded to two decimals."""
    mults = tuple(1 + i % 2 for i in range(M))

    def cents(lo, hi):
        return F(rng.randrange(lo, hi), 100)

    return OneWayStats(
        tuple(range(2, M + 2)), mults,
        tuple(cents(-5000, 5000) for _ in range(M)),
        tuple(cents(100, 50000) if m >= 2 else F(0) for m in mults),
        cents(10000, 100000))


@pytest.mark.parametrize("M", (16, 24, 32))
def test_profile_equation_matches_the_oracle_on_wide_ladders(M):
    # degree 3M + M/2 - 3 with coefficients of thousands of bits: the
    # integer products and strips are checked well past the closed-form
    # fixtures
    prof = oneway.gls_profile(ladder_stats(M, random.Random(M)))
    for method in ("ML", "REML"):
        check_against_oracle(prof, method)


def test_nonpositive_refine_width_is_refused():
    prof = oneway.gls_profile(OneWayStats((2, 3, 5), (2, 1, 1), (1, 2, 3),
                                          (1, 0, 0), 5))
    for width in (0, F(-1, 3)):
        with pytest.raises(ValueError):
            profile_fit(prof, "ML", width)


def test_a_float_or_bool_refine_width_is_refused():
    # True once fitted at width 1 and 0.1 at its binary float; a width is
    # an exact rational, as theta is
    s = OneWayStats((2, 3, 5), (2, 1, 1), (1, 2, 3), (1, 0, 0), 5)
    iv = isolate_real_roots(UniPoly([-2, 0, 1]))[0]
    for width in (True, 0.1):
        with pytest.raises(TypeError):
            oneway.ml_fit(s, refine_width=width)
        with pytest.raises(TypeError):
            fit_twoway(TwoWayStats(2, 2, 1, 1, 2, 3, 0), refine_width=width)
        with pytest.raises(TypeError):
            isolate_real_roots(iv.poly, max_width=width)
        with pytest.raises(TypeError):
            refine_interval(iv, width)
    assert oneway.ml_fit(s, refine_width="1/4") == oneway.ml_fit(s, F(1, 4))


def test_degree_laws_hold_on_the_64_size_ladder():
    s = ladder_stats(64, random.Random(64))
    prof = oneway.gls_profile(s)
    ml, reml = profile_equation(prof, "ML"), profile_equation(prof, "REML")
    assert ml.degree_matches() and reml.degree_matches()
    assert (ml.observed_degree, reml.observed_degree) == (221, 189)


# (x - 1)(x - 3): two isolated roots, both exact dyadic rationals
POLY = UniPoly([3, -4, 1], "x")


def roots():
    ivs = isolate_real_roots(POLY, domain="all")
    assert len(ivs) == 2 and not any(iv.is_exact for iv in ivs)
    return ivs


def test_separated_objective_certifies_a_winner():
    thetas, encl, best, tied = certified_argmax(
        roots(), lambda lo, hi, prec: Approx(lo, hi))
    assert tied == []
    assert thetas[best].lo <= 3 <= thetas[best].hi
    assert encl[best].lo > encl[1 - best].hi


def test_overlapping_objective_is_a_tie_at_the_width_cap():
    thetas, encl, best, tied = certified_argmax(
        roots(), lambda lo, hi, prec: Approx(F(0), F(1)))
    assert tied == [0, 1]
    # equal bounds break toward the lowest left endpoint
    assert best == 0 and thetas[0].lo <= 1 <= thetas[0].hi
    for iv, root in zip(thetas, (1, 3)):
        assert iv.lo <= root <= iv.hi
        assert 0 < iv.width() <= _TIE_WIDTH_CAP


def test_exact_thetas_rank_without_refinement():
    thetas, _, best, tied = certified_argmax(
        [F(0), F(5, 2)], lambda lo, hi, prec: Approx(-lo, -lo))
    assert thetas == [Approx.exact(0), Approx.exact(F(5, 2))]
    assert best == 0 and tied == []


def test_intervals_of_different_polynomials_rank_together():
    # 3 isolated from (x - 1)(x - 3) and sqrt(10) from x^2 - 10, by
    # overlapping hand-built intervals: each must be refined against its
    # own polynomial (the other's would refuse it) until they separate
    other = UniPoly([-10, 0, 1], "x")
    start = [RootInterval(F(2), F(4), POLY), RootInterval(F(3), F(4), other)]
    thetas, encl, best, tied = certified_argmax(
        start, lambda lo, hi, prec: Approx(lo, hi))
    assert best == 1 and tied == [] and encl[1].lo > encl[0].hi
    assert thetas[0].lo < 3 < thetas[0].hi and thetas[0].poly is POLY
    assert thetas[1].lo ** 2 < 10 < thetas[1].hi ** 2
    assert thetas[1].poly is other
    assert all(t.width() < s.width() for t, s in zip(thetas, start))


def test_enclosure_failure_raises_at_an_exact_theta_at_once():
    calls = []

    def never(lo, hi):
        calls.append((lo, hi))
        return None

    with pytest.raises(ContractViolationError):
        enclose_at(never, F(1))
    assert calls == [(F(1), F(1))]


def test_enclosure_failure_raises_after_the_retry_cap():
    calls = []

    def never(lo, hi):
        calls.append(hi - lo)
        return None

    with pytest.raises(ContractViolationError):
        enclose_at(never, roots()[1])
    assert len(calls) == _MAX_RETRIES
    # every retry narrowed the interval
    assert all(b < a for a, b in zip(calls, calls[1:]))


def test_enclose_at_returns_the_narrowed_theta():
    iv = roots()[1]

    def narrow_enough(lo, hi):
        return "ok" if hi - lo < iv.width() / 1000 else None

    theta, out = enclose_at(narrow_enough, iv)
    assert out == "ok" and theta.lo <= 3 <= theta.hi
    assert theta.width() < iv.width() / 1000
    # an exact rational is its point Approx, handed over as (t, t)
    calls = []
    theta, out = enclose_at(lambda lo, hi: calls.append((lo, hi)) or "ok", 2)
    assert calls == [(F(2), F(2))] and out == "ok"
    assert theta == Approx.exact(2)


def test_enclose_at_refuses_an_approx_it_cannot_narrow():
    # only an isolating interval carries the polynomial a retry refines
    # against: a plain wide Approx is refused before fn runs, whether fn
    # would fail (an AttributeError once) or succeed (a silent interval)
    calls = []
    for fn in (lambda lo, hi: calls.append(1), lambda lo, hi: "ok"):
        with pytest.raises(ContractViolationError):
            enclose_at(fn, Approx(F(1), F(2)))
    assert calls == []
    s = load_stats_fixture("trimodal.json")
    with pytest.raises(ContractViolationError):
        profile_estimates(oneway.gls_profile(s), Approx(F(1), F(2)), "ML")


# ----------------------------------------------------------------------
# The objective's logarithms and the ranking pass


def spy(monkeypatch, name):
    """Record the arguments and result of every call of profilefit.name."""
    calls = []
    real = getattr(profilefit, name)

    def wrapper(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(profilefit, name, wrapper)
    return calls


def log_det(sizes, mults, t, prec):
    """sum m log(1 + n t) by mpmath at prec bits, as a Fraction."""
    with mpmath.workprec(prec):
        v = mpmath.fsum(m * mpmath.log(mpmath.mpmathify(1 + n * t))
                        for n, m in zip(sizes, mults))
        man, exp = v.man_exp
        return F(man) * F(2) ** exp


def test_log_det_enclosure_contains_the_sum_of_logs(monkeypatch):
    # the log-determinant is m log of prod (1 + n theta) over the sizes of
    # multiplicity m, one log per distinct m; the m-weighted sum of those
    # enclosures must hold the per-size sum of logs, computed at twice the
    # precision, at both ends of theta's interval
    rng = random.Random(1300)
    layouts = [((2, 3, 5, 8, 13), (60, 60, 60, 60, 60)),   # 300 groups
               (tuple(range(2, 14)), tuple(1 + i % 2 for i in range(12)))]
    for _ in range(6):
        M = rng.randrange(1, 8)
        layouts.append((tuple(sorted(rng.sample(range(1, 40), M))),
                        tuple(rng.randrange(1, 6) for _ in range(M))))
    big = 2 ** 1000
    for sizes, mults in layouts:
        if max(sizes) < 2 or sum(mults) < 2:
            continue
        st = OneWayStats(sizes, mults,
                         tuple(F(rng.randrange(-900, 900), 7) for _ in sizes),
                         tuple(F(rng.randrange(1, 900), 3) if m >= 2 else F(0)
                               for m in mults),
                         F(rng.randrange(1, 900), 5))
        prof = oneway.gls_profile(st)
        x = F(rng.randrange(1, big), big // rng.randrange(1, 100))
        intervals = [(F(0), F(0)), (F(0), F(1, 3)), (F(2, 7), F(2, 7)),
                     (F(1, 10), F(1, 9)), (x, x + F(1, big))]
        for method in ("ML", "REML"):
            loglik, _ = profile_objective(prof, method)
            for lo, hi in intervals:
                for prec in (192, 672):
                    calls = spy(monkeypatch, "log_bounds")
                    assert loglik(lo, hi, prec) is not None
                    monkeypatch.undo()
                    classes = sorted(set(mults))
                    assert len(calls) == (1 + len(classes)
                                          + (method == "REML"))
                    # kappa's log comes first, then one per class; every
                    # argument is an integer pair, so order tells them apart
                    unit = 4 ** prec
                    encl = [Approx(F(a, unit), F(b, unit))
                            for _, (a, b) in calls[1:1 + len(classes)]]
                    assert len(encl) == len(classes)
                    total = Approx.exact(0)
                    for m, e in zip(classes, encl):
                        total = interval_sum(total, interval_scale(e, m))
                    want_lo = log_det(sizes, mults, lo, 2 * prec)
                    want_hi = log_det(sizes, mults, hi, 2 * prec)
                    assert total.lo <= want_lo <= want_hi <= total.hi


def test_lone_maximum_needs_no_ranking_and_two_or_three_logs(monkeypatch):
    # one log for kappa, one per distinct multiplicity (the ladder has 1
    # and 2) and, for REML, one for det(X'KX)
    for M in (6, 12):
        prof = oneway.gls_profile(ladder_stats(M, random.Random(M)))
        distinct = len(set(prof.mults))
        for method, logs in (("ML", 1 + distinct), ("REML", 2 + distinct)):
            ranks = spy(monkeypatch, "certified_argmax")
            calls = spy(monkeypatch, "log_bounds")
            rep = profile_fit(prof, method, F(1, 10 ** 12))
            monkeypatch.undo()
            maxima = [iv for iv, label in rep.stationary_points
                      if label == "local_max"]
            assert len(maxima) == 1 and not rep.boundary_is_max
            assert ranks == []
            assert 0 < len(calls) <= logs


def test_log_arguments_do_not_grow_with_the_multiplicity(monkeypatch):
    # 10^5 groups of one size: prod (1 + n theta)^m would carry about 10^5
    # times the bits of one factor into the log; per class it carries one
    st = OneWayStats((2, 5), (10 ** 5, 1), (F(1), F(-3, 2)), (F(7, 3), F(0)),
                     F(5))
    prof = oneway.gls_profile(st)
    for method in ("ML", "REML"):
        loglik, _ = profile_objective(prof, method)
        for lo, hi in ((F(0), F(0)), (F(1, 3), F(1, 2)), (F(9, 7), F(9, 7))):
            calls = spy(monkeypatch, "log_bounds")
            assert loglik(lo, hi, 192) is not None
            monkeypatch.undo()
            assert calls
            for args, _ in calls:
                for x in args[:2]:
                    p, q = x if isinstance(x, tuple) else (x.numerator,
                                                           x.denominator)
                    assert max(p.bit_length(), q.bit_length()) < 256


def test_estimates_at_an_interval_build_no_equation(monkeypatch):
    # the interval carries the polynomial it isolates a root of, so the
    # drivers need not rebuild the stationarity equation to refine it
    prof = oneway.gls_profile(load_stats_fixture("trimodal.json"))
    for method in ("ML", "REML"):
        rep = profile_fit(prof, method, F(1, 10 ** 12))
        theta = rep.global_estimates.theta
        assert isinstance(theta, RootInterval)
        assert theta.poly == rep.equation.numerator
        built = spy(monkeypatch, "profile_equation")
        est = profile_estimates(prof, theta, method)
        value = profilefit.profile_value(prof, theta, method)
        monkeypatch.undo()
        assert built == []
        assert est == rep.global_estimates and value == est.loglik



def test_estimates_evaluate_each_range_once(monkeypatch):
    # loglik and values at the final theta share their integer ranges:
    # D and P, then G and the one Cramer numerator (ML), plus d^p (REML)
    prof = oneway.gls_profile(ladder_stats(6, random.Random(6)))
    for method, count in (("ML", 4), ("REML", 5)):
        rep = profile_fit(prof, method, F(1, 10 ** 12))
        ranges = spy(monkeypatch, "int_range")
        est = profile_estimates(prof, rep.global_estimates.theta, method)
        monkeypatch.undo()
        assert est == rep.global_estimates
        assert len(ranges) == count
        assert len({(id(args[0]),) + args[1:] for args, _ in ranges}) == count


def test_only_reml_builds_the_power_of_d(monkeypatch):
    # d^p is read only by REML's log det(X'KX) term
    powers = []
    real = UniPoly.__pow__

    def counted(p, k):
        powers.append(k)
        return real(p, k)

    monkeypatch.setattr(UniPoly, "__pow__", counted)
    prof = oneway.gls_profile(ladder_stats(6, random.Random(6)))
    for method, count in (("ML", 0), ("REML", 1)):
        powers.clear()
        loglik, values = profile_objective(prof, method)
        assert loglik(F(0), F(1), 192) is not None
        assert values(F(0), F(1)) is not None
        assert powers == [prof.p] * count


def test_trimodal_ml_still_ranks_its_two_maxima(monkeypatch):
    # the trimodal fixture has three local maxima: two under ML, which
    # need the ranking pass, and one under REML, which does not
    prof = oneway.gls_profile(load_stats_fixture("trimodal.json"))
    for method, n_max, n_rank in (("ML", 2, 1), ("REML", 1, 0)):
        ranks = spy(monkeypatch, "certified_argmax")
        rep = profile_fit(prof, method, F(1, 10 ** 12))
        monkeypatch.undo()
        maxima = [iv for iv, label in rep.stationary_points
                  if label == "local_max"]
        assert len(maxima) == n_max and len(ranks) == n_rank
        assert not rep.tie and not rep.boundary_is_max
        # the winner is the lowest maximum (theta ~ 0.00838738 under ML)
        g = rep.global_estimates.theta
        assert maxima[0].lo <= g.lo and g.hi <= maxima[0].hi
        for _, (_, encl, best, tied) in ranks:
            assert best == 0 and tied == [] and encl[0].lo > encl[1].hi


def test_an_exact_theta_refuses_float_and_bool():
    # 0.1 was once evaluated at its binary float, and True as theta = 1;
    # every other exact entry point refuses both
    prof = oneway.gls_profile(load_stats_fixture("trimodal.json"))
    for theta in (0.1, True):
        with pytest.raises(TypeError):
            profilefit.profile_value(prof, theta, "ML")
        with pytest.raises(TypeError):
            profile_estimates(prof, theta, "ML")
    assert (profilefit.profile_value(prof, "1/10", "ML")
            == profilefit.profile_value(prof, F(1, 10), "ML"))
    assert (profile_estimates(prof, 1, "ML")
            == profile_estimates(prof, F(1), "ML"))


@pytest.mark.parametrize("method, within_ss",
                         [("ML", F(1381, 24)), ("REML", F(2731, 34))])
def test_a_root_at_zero_is_the_boundary_maximum(method, within_ss):
    # the numerator vanishes at 0 and has no positive root: the point
    # interval [0, 0] is the one local maximum, and theta = 0 wins
    s = OneWayStats((2, 3, 5), (2, 1, 1), (1, 2, -1), (F(1, 2), 0, 0),
                    within_ss)
    rep = profile_fit(oneway.gls_profile(s), method, F(1, 10 ** 12))
    num = rep.equation.numerator
    assert num.ints[0] == 0 and num.ints[1] > 0
    assert rep.stationary_points == ((RootInterval(F(0), F(0), num),
                                      "local_max"),)
    assert rep.boundary_is_max and not rep.tie
    assert rep.global_estimates.theta == RootInterval(F(0), F(0), num)
    assert rep.global_estimates.tau == Approx.exact(0)


def test_estimates_theta_is_an_approx_on_every_path():
    # the boundary, a root at 0, a caller's exact theta and an isolating
    # interval: one form, read through lo and hi alone
    boundary = oneway.ml_fit(load_stats_fixture("boundary.json"))
    assert boundary.global_estimates.theta == Approx.exact(0)
    s = OneWayStats((2, 3, 5), (2, 1, 1), (1, 2, -1), (F(1, 2), 0, 0),
                    F(1381, 24))
    at_zero = oneway.ml_fit(s).global_estimates.theta
    assert type(at_zero) is RootInterval and at_zero.is_exact
    assert (at_zero.lo, at_zero.hi) == (0, 0)
    prof = oneway.gls_profile(load_stats_fixture("trimodal.json"))
    assert (profile_estimates(prof, "1/3", "ML").theta
            == Approx.exact(F(1, 3)))
    interval = oneway.ml_fit(load_stats_fixture("trimodal.json"))
    theta = interval.global_estimates.theta
    assert type(theta) is RootInterval and theta.lo < theta.hi
    for rep in (boundary, interval):
        g = rep.global_estimates
        assert g.tau == Approx(g.theta.lo * g.omega.lo,
                               g.theta.hi * g.omega.hi)


@pytest.mark.parametrize("power, positive_roots, labels", [
    (1, (1, 2), ["local_max", "saddle", "local_max"]),
    (1, (1,), ["saddle", "local_max"]),
    (2, (1, 2), ["local_max", "saddle", "local_max"]),
])
def test_a_root_at_zero_is_probed_short_of_the_next_root(power,
                                                         positive_roots,
                                                         labels):
    # numerator theta^power * prod (theta - r): right of the point interval
    # at 0 it takes the sign of its lowest nonzero coefficient; for
    # theta (theta - 1) the sign past every root is the opposite one, and
    # for theta^2 (theta - 1)(theta - 2) the theta coefficient is 0
    num = UniPoly([0] * power + [1])
    for r in positive_roots:
        num = num * UniPoly([-r, 1])
    ivs, _ = isolate_real_roots(num, domain="nonnegative")
    assert ivs[0] == RootInterval(F(0), F(0), num)
    assert len(ivs) == 1 + len(positive_roots)
    eq = ProfileEquation(num, UniPoly([1]), None)
    assert classify_stationary_points(eq, ivs) == labels
