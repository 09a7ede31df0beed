"""Balanced two-way layouts: sums of squares, elimination, fitting.

The strongest checks are planted-solution round trips: statistics are
reverse-engineered so that a chosen (omega, tau1, tau2) solves the
stationarity system exactly, and every stage of the pipeline must
reproduce it. The penicillin-yield pins were computed independently.
"""

import itertools
import json
import random
from fractions import Fraction as F

import pytest

from exactvc.errors import (
    DegenerateDataError,
    InputError,
    ModelAssumptionError,
    NongenericDataError,
)
from exactvc.multipoly import resultant_eliminate
from exactvc.polynomials import UniPoly, squarefree_part
from exactvc.twoway import (
    TwoWayStats,
    eliminate_to_quartic,
    fit_twoway,
    ml_system,
    twoway_stats,
)

from conftest import (
    divides,
    fixture_path,
    multi_range,
    random_twoway_stats,
    solution_residuals,
    twoway_cleared_system,
    twoway_residual,
)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def ss_oracle(array):
    """SS decomposition spelled out with quadruple loops, no pooling."""
    r, q, n = len(array), len(array[0]), len(array[0][0])
    y = [[[F(v) for v in cell] for cell in row] for row in array]
    flat = [v for row in y for cell in row for v in cell]
    grand = sum(flat) / (r * q * n)
    cm = [[sum(y[i][j]) / n for j in range(q)] for i in range(r)]
    rm = [sum(cm[i]) / q for i in range(r)]
    qm = [sum(cm[i][j] for i in range(r)) / r for j in range(q)]
    ssa = ssb = ssab = sse = F(0)
    for i in range(r):
        for j in range(q):
            for k in range(n):
                ssa += (rm[i] - grand) ** 2
                ssb += (qm[j] - grand) ** 2
                ssab += (cm[i][j] - rm[i] - qm[j] + grand) ** 2
                sse += (y[i][j][k] - cm[i][j]) ** 2
    return ssa, ssb, ssab, sse, grand


def random_array(rng, r=None, q=None, n=None):
    r = r or rng.randint(2, 4)
    q = q or rng.randint(2, 4)
    n = n or rng.randint(1, 3)
    return [[[F(rng.randint(-20, 20), rng.randint(1, 4)) for _ in range(n)]
             for _ in range(q)] for _ in range(r)]


def random_planted(rng):
    """Planted parameters off the symmetric stratum (distinct taus)."""
    r, q = rng.randint(2, 4), rng.randint(2, 4)
    n = rng.randint(1, 2)
    w0 = F(rng.randint(1, 9), rng.randint(1, 4))
    while True:
        t10 = F(rng.randint(1, 8), rng.randint(1, 5))
        t20 = F(rng.randint(1, 8), rng.randint(1, 5))
        if t10 != t20:
            return r, q, n, w0, t10, t20


def planted_stats(r, q, n, w0, t10, t20, split=F(1, 2)):
    """Statistics for which (w0, t10, t20) solves the additive system."""
    a0 = w0 + q * n * t10
    b0 = w0 + r * n * t20
    c0 = w0 + q * n * t10 + r * n * t20
    e = r * q * n - r - q + 1
    E = e * w0 - w0 ** 2 / c0
    ssa = (r - 1) * a0 + a0 ** 2 / c0
    ssb = (q - 1) * b0 + b0 ** 2 / c0
    assert E > 0 and ssa > 0 and ssb > 0
    sse = F(0) if n == 1 else E * (1 - split)
    return TwoWayStats(r, q, n, ssa, ssb, E - sse, sse)


def random_ss(rng):
    return F(rng.randint(1, 400), rng.randint(1, 40))


# ----------------------------------------------------------------------
# sums of squares
# ----------------------------------------------------------------------

def test_hand_computed_two_by_two():
    s = twoway_stats([[[1], [2]], [[3], [4]]])
    assert (s.r, s.q, s.n) == (2, 2, 1)
    assert s.SSA == 4 and s.SSB == 1 and s.SSAB == 0 and s.SSE == 0
    assert s.grand_mean == F(5, 2)


def test_stats_match_quadruple_loop_oracle():
    rng = random.Random(101)
    for _ in range(12):
        arr = random_array(rng)
        s = twoway_stats(arr)
        ssa, ssb, ssab, sse, grand = ss_oracle(arr)
        assert (s.SSA, s.SSB, s.SSAB, s.SSE) == (ssa, ssb, ssab, sse)
        assert s.grand_mean == grand


def test_decomposition_sums_to_total():
    rng = random.Random(102)
    for _ in range(12):
        arr = random_array(rng)
        s = twoway_stats(arr)
        flat = [F(v) for row in arr for cell in row for v in cell]
        grand = sum(flat) / len(flat)
        total = sum((v - grand) ** 2 for v in flat)
        assert s.SSA + s.SSB + s.SSAB + s.SSE == total


def test_stats_validation():
    with pytest.raises(ModelAssumptionError):
        twoway_stats([[[1], [2]]])                      # single row level
    with pytest.raises(ModelAssumptionError):
        TwoWayStats(2, 1, 2, 1, 1, 1, 1)
    with pytest.raises(InputError):
        twoway_stats([[[1], [2]], [[3]]])               # ragged
    with pytest.raises(InputError):
        TwoWayStats(2, 2, 1, -1, 1, 1, 0)
    with pytest.raises(InputError):
        TwoWayStats(2, 2, 1, 1, 1, 1, 5)                # SSE with n == 1
    # counts are refused, not truncated
    for r, q, n in ((2.5, 2, 1), (2, True, 1), (2, 2, F(3, 2))):
        with pytest.raises(InputError, match="must hold integers"):
            TwoWayStats(r, q, n, 1, 1, 1, 0)


def test_direct_stats_have_no_grand_mean():
    s = TwoWayStats(2, 3, 1, 1, 2, 3, 0)
    assert s.grand_mean is None
    assert ml_system(s).mu_hat is None


# ----------------------------------------------------------------------
# cleared system
# ----------------------------------------------------------------------

def test_planted_point_solves_cleared_system():
    rng = random.Random(103)
    for _ in range(6):
        r, q = rng.randint(2, 5), rng.randint(2, 5)
        n = rng.randint(1, 3)
        w0 = F(rng.randint(1, 9), rng.randint(1, 4))
        t10 = F(rng.randint(0, 8), rng.randint(1, 5))
        t20 = F(rng.randint(0, 8), rng.randint(1, 5))
        st = planted_stats(r, q, n, w0, t10, t20)
        point = {"omega": w0, "tau1": t10, "tau2": t20}
        assert all(eq.evaluate(point) == 0
                   for eq in twoway_cleared_system(st))


def test_interaction_model_requirements():
    st = TwoWayStats(2, 3, 1, 1, 2, 3, 0)
    with pytest.raises(ModelAssumptionError):
        ml_system(st, model="interaction")
    st2 = TwoWayStats(2, 3, 2, 1, 2, 3, 0)
    with pytest.raises(DegenerateDataError):
        ml_system(st2, model="interaction")
    with pytest.raises(ValueError):
        ml_system(st, model="mixed")


def test_interaction_weight_and_variance_estimate():
    st = TwoWayStats(3, 4, 2, 5, 7, 11, 6)
    sysm = ml_system(st, model="interaction")
    assert sysm.weight == 2 * 3
    assert sysm.resid_ss == 11
    assert sysm.omega_hat == F(6, 3 * 4 * 1)


# ----------------------------------------------------------------------
# elimination and back-substitution
# ----------------------------------------------------------------------

def test_planted_root_survives_elimination():
    # trial division of the clearing factors must never remove the
    # planted solution, and both tau relations must hold at it
    rng = random.Random(104)
    for _ in range(6):
        r, q, n, w0, t10, t20 = random_planted(rng)
        st = planted_stats(r, q, n, w0, t10, t20)
        rep = eliminate_to_quartic(ml_system(st))
        assert rep.eliminated(w0) == 0
        for rel, tv in ((rep.tau1_relation, t10), (rep.tau2_relation, t20)):
            assert rel.tau_coeff * tv + rel.omega_part(w0) == 0
        assert rep.eliminated.degree == rep.observed_degree
        assert rep.solutions == () and rep.global_solution is None


def test_relations_are_primitive_normal_forms():
    st = planted_stats(3, 4, 2, F(2), F(1, 3), F(3, 2))
    rep = eliminate_to_quartic(ml_system(st))
    for rel in (rep.tau1_relation, rep.tau2_relation):
        assert rel.tau_coeff > 0
        coeffs = rel.integer_coeffs()
        g = 0
        for c in coeffs:
            g = _gcd(g, abs(c))
        assert g == 1
        assert rel.value_poly()(F(2)) == -rel.omega_part(F(2)) / rel.tau_coeff


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_generic_degree_is_four():
    rng = random.Random(105)
    for _ in range(100):
        r, q = rng.randint(2, 5), rng.randint(2, 5)
        n = rng.randint(1, 3)
        sse = F(0) if n == 1 else random_ss(rng)
        st = TwoWayStats(r, q, n, random_ss(rng), random_ss(rng),
                         random_ss(rng), sse)
        rep = eliminate_to_quartic(ml_system(st))
        assert rep.observed_degree == 4 and rep.nongeneric is None
        if n >= 2:
            repi = eliminate_to_quartic(ml_system(st, model="interaction"))
            assert repi.observed_degree == 4 and repi.nongeneric is None


def test_symmetric_stratum_has_no_tau_relation():
    # equal factor dimensions with equal planted taus: solutions come in
    # tau-swapped pairs over a shared root, so no linear relation exists
    st = planted_stats(2, 2, 1, F(7, 3), F(1, 2), F(1, 2))
    with pytest.raises(NongenericDataError):
        eliminate_to_quartic(ml_system(st))


def test_constant_data_reports_nongeneric_boundary():
    s = twoway_stats([[[5, 5], [5, 5]], [[5, 5], [5, 5]]])
    rep = fit_twoway(s)
    assert rep.observed_degree < 4
    assert rep.nongeneric is not None
    assert rep.boundary and rep.global_solution is None
    assert rep.solutions == ()


def test_multi_range_encloses_sampled_values():
    rng = random.Random(106)
    st = TwoWayStats(3, 3, 2, 4, 5, 6, 7)
    eqs = twoway_cleared_system(st)
    box = {"omega": (F(1, 2), F(3, 2)), "tau1": (F(-1), F(1)),
           "tau2": (F(0), F(2))}
    for eq in eqs:
        lo, hi = multi_range(eq, box)
        for _ in range(20):
            pt = {v: b[0] + (b[1] - b[0]) * F(rng.randint(0, 8), 8)
                  for v, b in box.items()}
            val = eq.evaluate(pt)
            assert lo <= val <= hi


def sylvester_cascade(stats, model):
    """The eliminant by three Sylvester resultants of the cleared system.

    Eliminates tau2 from (P0, P1) and (P0, P2), then tau1; strips every
    power of omega and of e omega - E, and returns the squarefree
    primitive part with the degree note.
    """
    p0, p1, p2 = twoway_cleared_system(stats, model)
    r01 = resultant_eliminate(p0, p1, "tau2")
    r02 = resultant_eliminate(p0, p2, "tau2")
    rfinal = resultant_eliminate(r01, r02, "tau1")
    if rfinal.is_zero():
        raise NongenericDataError(
            "resultant vanished identically; the equations share a "
            "positive-dimensional component")
    poly = rfinal.to_unipoly("omega").primitive()
    e, E = twoway_residual(stats, model)
    for factor in (UniPoly.variable("omega"), UniPoly([-E, e], "omega")):
        while poly.degree >= 1 and divides(factor, poly):
            poly = poly.exact_divide(factor)
    poly = squarefree_part(poly).primitive()
    note = None
    if poly.degree != 4:
        note = (f"eliminated polynomial has degree {poly.degree}, not 4; "
                "data lies outside the generic stratum")
    return poly, note


def reduced_at(eq, t1, t2, modulus):
    """eq(omega, t1(omega), t2(omega)) reduced modulo the eliminant."""
    acc = UniPoly.zero("omega")
    for k in range(eq.degree_in("tau2"), -1, -1):
        inner = UniPoly.zero("omega")
        slice_k = eq.coeff_in("tau2", k)
        for j in range(slice_k.degree_in("tau1"), -1, -1):
            inner = (inner * t1).rem(modulus) + slice_k.coeff_in(
                "tau1", j).to_unipoly("omega")
        acc = (acc * t2).rem(modulus) + inner
    return acc.rem(modulus)


NO_RELATION = ("no linear back-substitution relation exists: tau1 is not "
               "a rational function of the eliminated variable on this data")


def outcome(fn):
    try:
        return fn(), None
    except Exception as exc:                    # compared, not swallowed
        return None, (type(exc), str(exc))


def test_eliminant_matches_sylvester_cascade():
    # the one-variable resultant of two quadratics against the general
    # cascade, on random layouts and on a grid of zero and tied sums of
    # squares; on the random additive layouts the tau relations must
    # also make every cleared equation vanish modulo the eliminant
    rng = random.Random(515151)
    cases = [(random_twoway_stats(rng), m, m == "additive")
             for _ in range(150) for m in ("additive", "interaction")]
    vals = (F(0), F(1), F(5, 3))
    for (r, q), n, ssa, ssb, ssab, sse in itertools.product(
            ((2, 2), (2, 3), (3, 3)), (1, 2), vals, vals, vals,
            (F(0), F(3))):
        if n == 1 and sse != 0:
            continue
        st = TwoWayStats(r, q, n, ssa, ssb, ssab, sse)
        cases += [(st, "additive", False), (st, "interaction", False)]
    compared = raised = 0
    for st, model, check_relations in cases:
        if model == "interaction" and (st.n < 2 or st.SSE == 0):
            continue
        compared += 1
        ref, ref_exc = outcome(lambda: sylvester_cascade(st, model))
        rep, exc = outcome(lambda: eliminate_to_quartic(ml_system(st, model)))
        if ref_exc is not None:
            assert exc == ref_exc, (st, model)
            continue
        if exc is not None:
            # only a tau-swap symmetric layout lacks a tau1 relation
            assert exc == (NongenericDataError, NO_RELATION), (st, model)
            assert st.r == st.q and st.SSA == st.SSB, (st, model)
            raised += 1
            continue
        poly, note = ref
        assert rep.eliminated == poly, (st, model)
        assert rep.observed_degree == poly.degree
        assert rep.nongeneric == note
        if check_relations and poly.degree >= 1:
            t1 = rep.tau1_relation.value_poly()
            t2 = rep.tau2_relation.value_poly()
            for eq in twoway_cleared_system(st, model):
                assert reduced_at(eq, t1, t2, poly).is_zero(), (st, model)
    assert compared > 400 and 0 < raised < compared


# ----------------------------------------------------------------------
# fitting
# ----------------------------------------------------------------------

def test_fit_recovers_planted_additive_solution():
    rng = random.Random(107)
    for _ in range(5):
        r, q, n, w0, t10, t20 = random_planted(rng)
        st = planted_stats(r, q, n, w0, t10, t20)
        rep = fit_twoway(st)
        hits = [s for s in rep.solutions
                if s.var_value.lo <= w0 <= s.var_value.hi]
        assert len(hits) == 1
        sol = hits[0]
        assert sol.feasible is True
        assert sol.tau1.contains(t10) and sol.tau2.contains(t20)


def test_fit_marks_negative_tau_infeasible():
    # planted tau1 < 0: the stationary point exists but lies outside
    # the parameter space, so its root must carry feasible == False
    st = planted_stats(3, 4, 1, F(1), F(-1, 10), F(1))
    rep = fit_twoway(st)
    hits = [s for s in rep.solutions
            if s.var_value.lo <= 1 <= s.var_value.hi]
    assert len(hits) == 1 and hits[0].feasible is False
    if rep.global_solution is None:
        assert rep.boundary


def test_fit_residuals_enclose_zero():
    rng = random.Random(108)
    for _ in range(15):
        r, q = rng.randint(2, 5), rng.randint(2, 5)
        n = rng.randint(1, 3)
        sse = F(0) if n == 1 else random_ss(rng)
        st = TwoWayStats(r, q, n, random_ss(rng), random_ss(rng),
                         random_ss(rng), sse)
        eqs = twoway_cleared_system(st)
        rep = fit_twoway(st)
        assert not rep.tie
        for sol in rep.solutions:
            assert all(a.contains(0) for a in solution_residuals(eqs, sol))
        if rep.global_solution is not None:
            g = rep.global_solution
            assert g.feasible is True and g.loglik is not None
            assert all(s.loglik is None or s.feasible is not True
                       or g.loglik.lo > s.loglik.hi
                       for s in rep.solutions if s is not g)
        else:
            assert rep.boundary


def test_fit_interaction_round_trip():
    r, q, n = 3, 4, 2
    oh = F(1, 2)
    w0, t10, t20 = F(2), F(1, 3), F(3, 2)
    c0 = w0 + q * n * t10 + r * n * t20
    ei = (r - 1) * (q - 1)
    ssab = ei * w0 - w0 ** 2 / c0
    ssa = (r - 1) * (w0 + q * n * t10) + (w0 + q * n * t10) ** 2 / c0
    ssb = (q - 1) * (w0 + r * n * t20) + (w0 + r * n * t20) ** 2 / c0
    st = TwoWayStats(r, q, n, ssa, ssb, ssab, oh * r * q * (n - 1))
    rep = fit_twoway(st, model="interaction")
    g = rep.global_solution
    assert g is not None and g.feasible is True
    assert g.omega.is_exact and g.omega.lo == oh
    assert g.tau12 is not None and g.tau12.contains((w0 - oh) / n)
    assert g.tau1.contains(t10) and g.tau2.contains(t20)
    # the quartic is presented in the interaction component
    assert rep.quartic.var == "tau12"
    assert rep.quartic((w0 - oh) / n) == 0
    assert rep.eliminated.var == "omega" and rep.eliminated(w0) == 0


def test_fit_rejects_bad_refine_width():
    st = TwoWayStats(2, 2, 1, 1, 2, 3, 0)
    with pytest.raises(ValueError):
        fit_twoway(st, refine_width=0)


# ----------------------------------------------------------------------
# penicillin yields (pinned independently)
# ----------------------------------------------------------------------

def load_penicillin():
    with open(fixture_path("penicillin.json")) as fh:
        raw = json.load(fh)
    return TwoWayStats(raw["r"], raw["q"], raw["n"], F(raw["SSA"]),
                       F(raw["SSB"]), F(raw["SSAB"]), F(raw["SSE"]))


PENICILLIN_QUARTIC = UniPoly(
    [139045932165, -1070402996440, 2545119731943, -1801205257140,
     204808595904], "omega")

PENICILLIN_TAU1 = [2481278604010272, -1133204709683307975,
                   4998133978544934251, -4309720916424828084,
                   507582172417738176]

PENICILLIN_TAU2 = [2481278604010272, -1201351121037374475,
                   5270402449572117709, -4538697213124439100,
                   534435082556924736]


def test_penicillin_quartic_and_relations():
    rep = eliminate_to_quartic(ml_system(load_penicillin()))
    assert rep.eliminated == PENICILLIN_QUARTIC.primitive()
    assert rep.tau1_relation.integer_coeffs() == PENICILLIN_TAU1
    assert rep.tau2_relation.integer_coeffs() == PENICILLIN_TAU2


def test_penicillin_unique_feasible_solution():
    rep = fit_twoway(load_penicillin())
    assert len(rep.solutions) == 4
    assert sum(1 for s in rep.solutions if s.feasible is True) == 1
    g = rep.global_solution
    assert g is not None and not rep.tie and not rep.boundary
    assert round(float(g.omega.midpoint()), 6) == pytest.approx(0.302425)
    assert round(float(g.tau1.midpoint()), 6) == pytest.approx(0.714992)
    assert round(float(g.tau2.midpoint()), 6) == pytest.approx(3.135188)
