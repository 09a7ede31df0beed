"""The objective path runs on unreduced integer ranges. It must return
exactly the Approx of the Fraction formulas it replaced: interval Horner
on Fractions, the general interval product and log_enclosure on
Fractions, which the references below spell out."""

import random
from dataclasses import replace
from fractions import Fraction as F
from math import prod

from conftest import (interval_difference, interval_product, interval_scale,
                      poly_range_reference, random_oneway_stats,
                      random_twoway_stats, reciprocal)
from exactvc import covariates, oneway, profilefit, roots, twoway
from exactvc.enclosure import Approx, log_enclosure
from exactvc.errors import NongenericDataError
from exactvc.polynomials import UniPoly
from exactvc.profilefit import certified_estimates, profile_objective
from exactvc.roots import RootInterval, isolate_real_roots
from test_covariates import random_design

PRECISIONS = (192, 288, 672)
TINY = F(1, 2 ** 1000)


def divide(num, den):
    """num * (1 / den) by the general interval product; None when den
    holds 0."""
    if den[0] <= 0 <= den[1]:
        return None
    return interval_product(Approx(*num), reciprocal(Approx(*den)))


def reference_objective(prof, method):
    """(loglik, values) of profilefit.profile_objective, on Fractions."""
    w = prof.N if method == "ML" else prof.N - prof.p
    P, G = prof.p_poly, prof.gram_det
    D = prof.d * G
    dp = prof.d ** prof.p
    classes = {}
    for n, m in zip(prof.sizes, prof.mults):
        classes.setdefault(m, []).append(n)

    def loglik(lo, hi, prec):
        kap = divide(poly_range_reference(D, lo, hi),
                     poly_range_reference(P, lo, hi))
        lk = None if kap is None else log_enclosure(kap.lo * w, kap.hi * w,
                                                    prec)
        if lk is None:
            return None
        total = interval_difference(interval_scale(lk, w), Approx.exact(w))
        for m, ns in sorted(classes.items()):
            at = [prod(1 + n * t for n in ns) for t in (lo, hi)]
            total = interval_difference(
                total, interval_scale(log_enclosure(*at, prec), m))
        if method == "REML":
            r = divide(poly_range_reference(G, lo, hi),
                       poly_range_reference(dp, lo, hi))
            lr = None if r is None else log_enclosure(r.lo, r.hi, prec)
            if lr is None:
                return None
            total = interval_difference(total, lr)
        return total

    def values(lo, hi):
        prange = poly_range_reference(P, lo, hi)
        grange = poly_range_reference(G, lo, hi)
        if prange[0] <= 0 or grange[0] <= 0:
            return None
        kappa = divide(poly_range_reference(D * F(w), lo, hi), prange)
        if kappa.lo <= 0:
            return None
        coef = tuple(divide(poly_range_reference(c, lo, hi), grange)
                     for c in prof.cramer)
        omega = reciprocal(kappa)
        return (coef[0], omega, None) if prof.mean else (None, omega, coef)

    return loglik, values


def reference_loglik_box(system, lo, hi, t1, t2, prec):
    """twoway._loglik_box on Fractions."""
    stats = system.stats
    r, q, n = stats.r, stats.q, stats.n
    tau1 = Approx(*poly_range_reference(t1, lo, hi))
    tau2 = Approx(*poly_range_reference(t2, lo, hi))
    a = (lo + q * n * tau1.lo, hi + q * n * tau1.hi)
    b = (lo + r * n * tau2.lo, hi + r * n * tau2.hi)
    c = (a[0] + r * n * tau2.lo, a[1] + r * n * tau2.hi)
    total = Approx.exact(0)
    for box, wt, ss in ((a, r - 1, stats.SSA), (b, q - 1, stats.SSB),
                        ((lo, hi), system.weight, system.resid_ss),
                        (c, 1, None)):
        lg = log_enclosure(box[0], box[1], prec)
        if lg is None:
            return None
        total = interval_difference(total, interval_scale(lg, wt))
        if ss is not None:
            total = interval_difference(total, divide((ss, ss), box))
    if system.model == "interaction":
        oh = system.omega_hat
        logs = interval_scale(log_enclosure(oh, oh, prec), r * q * (n - 1))
        total = interval_difference(
            interval_difference(total, logs), Approx.exact(stats.SSE / oh))
    return total


def thetas(rng):
    """Nonnegative theta intervals: zero width, touching 0, 2^-1000 wide
    and wide ones, at rationals with small and with 1000-bit denominators."""
    x = F(rng.randrange(1, 2 ** 40), rng.randrange(1, 2 ** 20))
    y = x + F(rng.randrange(1, 2 ** 30), 2 ** 1000 + rng.randrange(2 ** 20))
    return [(F(0), F(0)), (x, x), (y, y), (F(0), x), (F(0), TINY),
            (x, x + TINY), (x, y), (x, 2 * x + 1)]


def profiles(rng, count):
    """count one-way and covariate profile records, alternating."""
    out = []
    while len(out) < count:
        if len(out) % 2:
            out.append(covariates.gls_profile(random_design(rng)))
        else:
            out.append(oneway.gls_profile(random_oneway_stats(rng)))
    return out


def test_profile_objective_matches_the_fraction_formulas():
    # P and G times 2 - 2 theta + theta^2 stay positive on [0, inf), but
    # over a wide interval their interval Horner sums reach below 0: both
    # paths must then agree on None
    rng = random.Random(2323)
    profs = profiles(rng, 16)
    dip = UniPoly([2, -2, 1])
    profs += [replace(prof, p_poly=prof.p_poly * dip,
                      gram_det=prof.gram_det * dip) for prof in profs[:4]]
    nones = 0
    for prof in profs:
        for method in ("ML", "REML"):
            loglik, values = profile_objective(prof, method)
            ref_loglik, ref_values = reference_objective(prof, method)
            for lo, hi in thetas(rng):
                got = values(lo, hi)
                assert got == ref_values(lo, hi), (lo, hi)
                nones += got is None
                for prec in PRECISIONS:
                    got = loglik(lo, hi, prec)
                    assert got == ref_loglik(lo, hi, prec), (lo, hi, prec)
                    nones += got is None
    assert nones > 0


def test_certified_estimates_match_the_fraction_formulas():
    # tau = theta omega by the general interval product, over the theta
    # the estimates report, and the objective at the estimates' precision;
    # an isolating interval around a planted root c is narrowed when its
    # enclosures degenerate
    rng = random.Random(2324)
    for prof in profiles(rng, 8):
        for method in ("ML", "REML"):
            loglik, values = profile_objective(prof, method)
            ref_loglik, ref_values = reference_objective(prof, method)
            c = F(rng.randrange(1, 2 ** 20), rng.randrange(1, 2 ** 10))
            planted = UniPoly([-c.numerator, c.denominator])
            for theta in (F(0), c, RootInterval(c / 2, 2 * c + 1, planted),
                          RootInterval(c - TINY, c + TINY, planted)):
                est = certified_estimates(theta, loglik, values)
                lo, hi = est.theta.lo, est.theta.hi
                assert est.loglik == ref_loglik(lo, hi,
                                                profilefit._ESTIMATE_PREC)
                assert (est.mu, est.omega, est.beta) == ref_values(lo, hi)
                assert est.tau == interval_product(Approx(lo, hi), est.omega)


def test_twoway_loglik_box_matches_the_fraction_formulas():
    rng = random.Random(2325)
    checked = nones = 0
    while checked < 24:
        stats = random_twoway_stats(rng)
        model = rng.choice(("additive", "interaction"))
        if model == "interaction" and stats.n < 2:
            continue
        try:
            system = twoway.ml_system(stats, model)
            rep = twoway.eliminate_to_quartic(system)
        except NongenericDataError:
            continue
        if rep.eliminated.degree < 1:
            continue
        checked += 1
        t1, t2 = rep.tau1_relation, rep.tau2_relation
        # isolating intervals, some below 0, their 2^-1000 wide left ends,
        # two points and theta-like intervals
        ivs = isolate_real_roots(rep.eliminated, domain="all",
                                 max_width=F(1, 8))
        boxes = [(iv.lo, iv.hi) for iv in ivs]
        boxes += [(iv.lo, iv.lo + TINY) for iv in ivs]
        boxes += [(v, v) for v, _ in boxes[:2]] + thetas(rng)[:4]
        for lo, hi in boxes:
            for prec in PRECISIONS:
                got = twoway._loglik_box(
                    system, twoway._ranges(system, t1, t2, lo, hi), prec)
                assert got == reference_loglik_box(system, lo, hi, t1, t2,
                                                   prec), (lo, hi, prec)
                nones += got is None
    assert nones > 0


def test_objective_path_builds_no_fraction_range(monkeypatch):
    # loglik and values read integer ranges: the Fraction-returning
    # poly_range is never called on the objective path
    calls = []
    real = roots.poly_range

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (roots, profilefit):
        monkeypatch.setattr(module, "poly_range", counted, raising=False)
    rng = random.Random(2326)
    for prof in profiles(rng, 4):
        for method in ("ML", "REML"):
            loglik, values = profile_objective(prof, method)
            for lo, hi in thetas(rng):
                loglik(lo, hi, 192)
                values(lo, hi)
            certified_estimates(F(1, 3), loglik, values)
    assert calls == []
