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

from exactvc import io as xio
from exactvc import profilefit, twoway
from exactvc.cli import main
from exactvc.enclosure import Approx
from exactvc.errors import (
    DegenerateDataError,
    InputError,
    ModelAssumptionError,
    NongenericDataError,
)
from exactvc.multipoly import resultant_eliminate
from exactvc.polynomials import UniPoly, squarefree_part
from exactvc.roots import poly_range
from exactvc.twoway import (
    TwoWayStats,
    eliminate_to_quartic,
    fit_twoway,
    ml_system,
    twoway_stats,
)

from conftest import random_summary_value, twoway_stats_reference

from conftest import (
    contains,
    divides,
    fixture_path,
    interval_difference,
    interval_scale,
    multi_range,
    poly_divmod,
    random_twoway_stats,
    solution_residuals,
    twoway_cleared_system,
    twoway_feasibility_reference,
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


def test_stats_match_the_fraction_reference():
    # integer totals over one common scale against Fraction means, with
    # constant cells and layouts, n = 1 and distinct large denominators
    rng = random.Random(141416)
    for case in range(500):
        big = [rng.randint(10 ** 30, 10 ** 31) for _ in range(3)]
        r, q, n = rng.randint(2, 6), rng.randint(2, 6), rng.choice((1, 1, 2, 3))
        constant = random_summary_value(rng, big) if case % 10 == 0 else None
        arr = []
        for _ in range(r):
            row = []
            for _ in range(q):
                if constant is not None:
                    row.append([constant] * n)
                elif rng.random() < 0.2:
                    row.append([random_summary_value(rng, big)] * n)
                else:
                    row.append([random_summary_value(rng, big)
                                for _ in range(n)])
            arr.append(row)
        got = twoway_stats(arr)
        assert got == twoway_stats_reference(arr)
        flat = [F(v) for row in arr for cell in row for v in cell]
        grand = sum(flat) / len(flat)
        assert got.grand_mean == grand
        assert (got.SSA + got.SSB + got.SSAB + got.SSE
                == sum((v - grand) ** 2 for v in flat))
        if constant is not None:
            assert got.SSA == got.SSB == got.SSAB == got.SSE == 0


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
    assert eliminate_to_quartic(ml_system(s)).mu is None


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
        for t, tv in ((rep.tau1_relation, t10), (rep.tau2_relation, t20)):
            assert t.den * tv - UniPoly(t.ints, t.var)(w0) == 0
        assert rep.eliminated.degree == rep.observed_degree
        assert rep.solutions == () and rep.global_solution is None


def test_relations_are_primitive_normal_forms():
    st = planted_stats(3, 4, 2, F(2), F(1, 3), F(3, 2))
    rep = eliminate_to_quartic(ml_system(st))
    for t in (rep.tau1_relation, rep.tau2_relation):
        assert t.den > 0
        coeffs = [t.den] + [-c for c in t.ints]
        g = 0
        for c in coeffs:
            g = _gcd(g, abs(c))
        assert g == 1
        assert t(F(2)) == UniPoly(t.ints, t.var)(F(2)) / t.den


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
    for factor in (UniPoly([0, 1], "omega"), UniPoly([-E, e], "omega")):
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
            inner = poly_divmod(inner * t1, modulus)[1] + slice_k.coeff_in(
                "tau1", j).to_unipoly("omega")
        acc = poly_divmod(acc * t2, modulus)[1] + inner
    return poly_divmod(acc, modulus)[1]


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
    # squares; wherever the eliminant has a root the tau relations must
    # also make every cleared equation vanish modulo it, low-degree
    # eliminants of the grid included
    rng = random.Random(515151)
    cases = [(random_twoway_stats(rng), m)
             for _ in range(150) for m in ("additive", "interaction")]
    vals = (F(0), F(1), F(5, 3))
    for (r, q), n, ssa, ssb, ssab, sse in itertools.product(
            ((2, 2), (2, 3), (3, 3)), (1, 2), vals, vals, vals,
            (F(0), F(3))):
        if n == 1 and sse != 0:
            continue
        st = TwoWayStats(r, q, n, ssa, ssb, ssab, sse)
        cases += [(st, "additive"), (st, "interaction")]
    compared = raised = related = 0
    for st, model in cases:
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
        if poly.degree >= 1:
            related += 1
            t1, t2 = rep.tau1_relation, rep.tau2_relation
            for eq in twoway_cleared_system(st, model):
                assert reduced_at(eq, t1, t2, poly).is_zero(), (st, model)
    assert compared > 400 and 0 < raised < compared
    assert related > 500


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
        assert contains(sol.tau1, t10) and contains(sol.tau2, t20)


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
            assert all(contains(a, 0) for a in solution_residuals(eqs, sol))
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
    assert g.tau12 is not None and contains(g.tau12, (w0 - oh) / n)
    assert contains(g.tau1, t10) and contains(g.tau2, t20)
    # the quartic is presented in the interaction component
    assert rep.quartic.var == "tau12"
    assert rep.quartic((w0 - oh) / n) == 0
    assert rep.eliminated.var == "omega" and rep.eliminated(w0) == 0


def test_fit_rejects_bad_refine_width():
    st = TwoWayStats(2, 2, 1, 1, 2, 3, 0)
    with pytest.raises(ValueError):
        fit_twoway(st, refine_width=0)


@pytest.mark.parametrize("model,stats", [
    ("interaction", TwoWayStats(2, 3, 3, F(140, 3), F(202, 3), F(180, 7),
                                F(84))),
    ("additive", TwoWayStats(2, 2, 1, F(70, 3), F(137, 6), F(10, 3), F(0))),
])
def test_solution_enclosures_follow_the_refined_interval(model, stats):
    # at a coarse width ranking refines the candidates' intervals; every
    # reported enclosure must be taken over the interval reported beside it
    rep = fit_twoway(stats, model=model, refine_width=F(1, 4))
    assert rep.global_solution is not None
    n = stats.n
    for sol in rep.solutions:
        lo, hi = sol.var_value.lo, sol.var_value.hi
        var = Approx(lo, hi)
        taus = [Approx(*poly_range(t, lo, hi))
                for t in (rep.tau1_relation, rep.tau2_relation)]
        assert [sol.tau1, sol.tau2] == taus
        if model == "additive":
            assert sol.omega == var and sol.tau12 is None
        else:
            oh = Approx.exact(rep.omega_hat)
            assert sol.omega == oh
            assert sol.tau12 == interval_scale(
                interval_difference(var, oh), F(1, n))


def test_coarse_width_feasibility_is_decided_by_refinement(monkeypatch):
    refinements = []
    refine = profilefit.refine_interval

    def spy(iv, width):
        refinements.append(width)
        return refine(iv, width)

    monkeypatch.setattr(profilefit, "refine_interval", spy)
    rng = random.Random(2121)
    fits = 0
    for _ in range(30):
        st = random_twoway_stats(rng)
        for model, width in itertools.product(
                ("additive", "interaction"), (F(1, 4), F(10))):
            try:
                rep = fit_twoway(st, model=model, refine_width=width)
            except (NongenericDataError, ModelAssumptionError,
                    DegenerateDataError):
                continue
            fits += 1
            for sol in rep.solutions:
                if sol.feasible is True:
                    assert sol.omega.lo > 0
                    assert sol.tau1.lo >= 0 and sol.tau2.lo >= 0
                    assert sol.tau12 is None or sol.tau12.lo >= 0
    assert fits > 0 and len(refinements) > 0


def test_stationary_point_on_the_tau1_face_stays_undecided(tmp_path, capsys):
    # a stationary point on the tau1 = 0 face, at the rational root
    # omega = (SSA + E)/(e + r - 1) = 2/5: isolation never lands on a
    # non-dyadic root, so tau1's enclosure straddles 0 down to the width
    # cap and feasibility stays undecided; the fit is tied, not boundary
    st = TwoWayStats(3, 3, 2, F(1), F(12, 5), F(3), F(2))
    rep = fit_twoway(st, "additive")
    face = F(2, 5)
    assert rep.eliminated(face) == 0
    assert rep.tau1_relation(face) == 0
    assert rep.tau2_relation(face) == F(1, 15)
    assert len(rep.solutions) == 2
    undecided, other = rep.solutions
    assert undecided.feasible is None
    assert undecided.var_value.lo < face < undecided.var_value.hi
    assert contains(undecided.tau1, 0)
    assert other.feasible is False
    assert rep.global_solution is None
    assert rep.tie and not rep.boundary
    path = tmp_path / "face.json"
    path.write_text(json.dumps({"r": 3, "q": 3, "n": 2, "SSA": "1",
                                "SSB": "12/5", "SSAB": "3", "SSE": "2"}))
    assert main(["fit-twoway", "--stats", str(path)]) == 4
    report = json.loads(capsys.readouterr().out)
    assert report["tie"] is True and report["global"] is None
    assert [s["feasible"] for s in report["solutions"]] == [None, False]


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
    for t, pinned in ((rep.tau1_relation, PENICILLIN_TAU1),
                      (rep.tau2_relation, PENICILLIN_TAU2)):
        assert [t.den] + [-c for c in t.ints] == pinned


def test_penicillin_unique_feasible_solution():
    rep = fit_twoway(load_penicillin())
    assert len(rep.solutions) == 4
    assert sum(1 for s in rep.solutions if s.feasible is True) == 1
    g = rep.global_solution
    assert g is not None and not rep.tie and not rep.boundary
    # a lone feasible solution is still ranked, for its objective enclosure
    assert g.loglik is not None and g.loglik.width() < F(1, 10 ** 6)
    assert round(float(g.omega.midpoint()), 6) == pytest.approx(0.302425)
    assert round(float(g.tau1.midpoint()), 6) == pytest.approx(0.714992)
    assert round(float(g.tau2.midpoint()), 6) == pytest.approx(3.135188)


# ----------------------------------------------------------------------
# the one-pass driver
# ----------------------------------------------------------------------

def one_pass_layouts():
    """(stats, model) of the one-pass driver tests: penicillin, the
    replicated 2 x 3 x 2 fixture (two feasible points), and the fourth
    draw of acceptance gate 7's generator under both models, whose roots
    include infeasible ones and, for the interaction model, a negative
    root of the quartic in tau12."""
    rng = random.Random(515151)
    draw = [random_twoway_stats(rng) for _ in range(4)][-1]
    return [(load_penicillin(), "additive"),
            (xio.load_twoway_csv(fixture_path("replicated_2x3x2.csv")),
             "interaction"),
            (draw, "additive"), (draw, "interaction")]


@pytest.mark.parametrize("case", range(4))
def test_each_solution_is_built_once(monkeypatch, case):
    # fit_twoway builds each reported TwoWaySolution once, at its final
    # interval
    stats, model = one_pass_layouts()[case]
    built = []
    build = twoway._solution

    def spy(*args):
        built.append(args[1])
        return build(*args)

    monkeypatch.setattr(twoway, "_solution", spy)
    rep = fit_twoway(stats, model)
    assert len(built) == len(rep.solutions) > 0
    assert built == [s.var_value for s in rep.solutions]


def test_one_pass_layouts_cover_infeasible_and_negative_roots():
    (pen, _), (fixture, _), (draw, _), _ = one_pass_layouts()
    assert [s.feasible for s in fit_twoway(pen).solutions].count(True) == 1
    assert [s.feasible for s in fit_twoway(fixture, "interaction").solutions
            ] == [True, True]
    sols = fit_twoway(draw, "interaction").solutions
    assert any(s.tau12.hi < 0 for s in sols)
    assert all(s.feasible is False for s in sols)
    assert False in [s.feasible for s in fit_twoway(draw).solutions]


def test_feasibility_matches_the_enclosure_reference():
    # the integer-range pass decides every sign as the Fraction enclosures
    # did, so the refined intervals and flags agree, coarse widths included
    rng = random.Random(3131)
    fits = 0
    for _ in range(25):
        st = random_twoway_stats(rng)
        for model, width in itertools.product(
                ("additive", "interaction"), (profilefit.REFINE_WIDTH,
                                              F(1, 4), F(10))):
            try:
                rep = fit_twoway(st, model=model, refine_width=width)
            except (NongenericDataError, ModelAssumptionError,
                    DegenerateDataError):
                continue
            fits += 1
            assert [(s.var_value, s.feasible) for s in rep.solutions] == \
                twoway_feasibility_reference(st, model, width), (st, model)
    assert fits > 0
