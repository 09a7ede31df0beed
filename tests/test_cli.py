"""Command-line behavior: reports, exit codes, determinism.

Runs main() in process and captures stdout; the JSON contract and the
exit-code mapping (0 ok, 2 input, 3 model assumption, 4 degenerate or
tie) are what the acceptance criteria diff against.
"""

import contextlib
import io
import json
import os
import random
import tempfile
import time
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from exactvc.cli import main
from exactvc.enclosure import Approx
from exactvc.twoway import TwoWayStats

from conftest import fixture_path, solution_residuals, twoway_cleared_system


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_degree_command(capsys):
    code, out = run(capsys, "degree", "--sizes", "3,4,5,5,5,5")
    assert code == 0
    assert json.loads(out) == {"ml": 7, "reml": 5}


def test_degree_rejects_garbage(capsys):
    code, out = run(capsys, "degree", "--sizes", "3,x")
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "input"


def sig6(x):
    return float(f"{float(x):.6g}")


def test_fit_oneway_trimodal_fixture_both(capsys):
    code, out = run(capsys, "fit-oneway", "--method", "both",
                    "--stats", fixture_path("trimodal.json"))
    assert code == 0
    rep = json.loads(out)
    ml, reml = rep["ml"], rep["reml"]
    mids = [(F(r["lo"]) + F(r["hi"])) / 2 for r in ml["roots"]]
    assert [sig6(m) for m in mids] == [0.00838738, 0.118458, 0.338944]
    assert [r["class"] for r in ml["roots"]] == [
        "local_max", "saddle", "local_max"]
    assert ml["global"]["theta"]["value"] == pytest.approx(
        0.00838738, rel=1e-6)
    assert not ml["boundary_is_max"] and not ml["tie"]
    assert len(reml["roots"]) == 1
    assert reml["global"]["theta"]["value"] == pytest.approx(
        0.771763, rel=1e-6)


def test_fit_oneway_boundary_fixture(capsys):
    code, out = run(capsys, "fit-oneway", "--method", "both",
                    "--stats", fixture_path("boundary.json"))
    assert code == 0
    rep = json.loads(out)
    assert rep["ml"]["roots"] == []
    assert rep["ml"]["boundary_is_max"] and rep["ml"]["global"]["theta"] == "0"
    mids = [(F(r["lo"]) + F(r["hi"])) / 2 for r in rep["reml"]["roots"]]
    assert [sig6(m) for m in mids] == [0.00492193, 0.159465, 0.241461]
    assert rep["reml"]["global"]["theta"]["value"] == pytest.approx(
        0.00492193, rel=1e-6)


def test_emit_poly_dyestuff(capsys):
    code, out = run(capsys, "fit-oneway", "--method", "ML", "--emit-poly",
                    "--csv", fixture_path("dyestuff.csv"))
    assert code == 0
    coeffs = [int(line) for line in out.splitlines()]
    assert coeffs == [-64175517, -1279832076, -10086075110, -37792395524,
                      -54052612853, 58814614680, 277109078400, 245488320000]


def test_emit_poly_needs_single_method(capsys):
    code, out = run(capsys, "fit-oneway", "--method", "both", "--emit-poly",
                    "--stats", fixture_path("trimodal.json"))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "input"


def test_byte_identical_reports(capsys):
    _, out1 = run(capsys, "fit-oneway", "--method", "both",
                  "--stats", fixture_path("trimodal.json"))
    _, out2 = run(capsys, "fit-oneway", "--method", "both",
                  "--stats", fixture_path("trimodal.json"))
    assert out1 == out2


def test_fit_twoway_penicillin(capsys):
    code, out = run(capsys, "fit-twoway",
                    "--stats", fixture_path("penicillin.json"))
    assert code == 0
    rep = json.loads(out)
    assert rep["equation"]["coeffs"] == [
        139045932165, -1070402996440, 2545119731943, -1801205257140,
        204808595904]
    assert rep["equation"]["variable"] == "omega"
    assert [s["feasible"] for s in rep["solutions"]].count(True) == 1
    g = rep["global"]
    assert g["omega"]["value"] == pytest.approx(0.302425, abs=5e-7)
    assert g["tau1"]["value"] == pytest.approx(0.714992, abs=5e-7)
    assert g["tau2"]["value"] == pytest.approx(3.135188, abs=5e-7)
    assert rep["relations"]["tau1"]["tau_coeff"] == 2481278604010272


def test_fit_twoway_csv_and_interaction(tmp_path, capsys):
    array = [[[1, 3], [2, 5], [4, 4]], [[0, 2], [7, 3], [1, 1]]]
    lines = ["row,col,rep,value"]
    for i, row in enumerate(array):
        for j, cell in enumerate(row):
            for k, v in enumerate(cell):
                lines.append(f"r{i},c{j},{k},{v}")
    p = tmp_path / "tw.csv"
    p.write_text("\n".join(lines) + "\n")
    code, out = run(capsys, "fit-twoway", "--model", "interaction",
                    "--csv", str(p))
    rep = json.loads(out)
    assert code in (0, 4)
    assert rep["omega_hat"] is not None
    assert rep["equation"]["variable"] == "tau12"
    assert rep["mu"] is not None


def test_exit_codes(tmp_path, capsys):
    one = tmp_path / "one.csv"
    one.write_text("group,value\nA,1\nA,2\n")
    code, out = run(capsys, "fit-oneway", "--csv", str(one))
    assert code == 3
    assert json.loads(out)["error"]["kind"] == "model-assumption"

    code, out = run(capsys, "fit-oneway", "--stats", str(tmp_path / "no.json"))
    assert code == 2

    code, out = run(capsys, "fit-oneway", "--refine-width", "0",
                    "--stats", fixture_path("trimodal.json"))
    assert code == 2

    # symmetric two-way stratum: back-substitution degenerates
    # values planted at omega=7/3, tau1=tau2=1/2, so tau-swapped solution
    # pairs share their omega root
    sym = tmp_path / "sym.json"
    sym.write_text(json.dumps({
        "r": 2, "q": 2, "n": 1, "SSA": "230/39", "SSB": "230/39",
        "SSAB": "14/13", "SSE": "0"}))
    code, out = run(capsys, "fit-twoway", "--stats", str(sym))
    assert code == 4
    assert json.loads(out)["error"]["kind"] == "degenerate"


def test_covariates_csv_fit(tmp_path, capsys):
    p = tmp_path / "cov.csv"
    p.write_text("group,y,x1\nA,1,2\nA,2,1\nB,3,4\nB,1,5\nC,2,2\nC,0,1\n")
    code, out = run(capsys, "fit-oneway", "--method", "REML",
                    "--csv", str(p), "--add-intercept")
    assert code in (0, 4)
    rep = json.loads(out)
    assert rep["equation"]["expected_degree"] is None
    assert len(rep["global"]["beta"]) == 2


def test_constant_criterion_is_degenerate(tmp_path, capsys):
    # the REML raw numerator vanishes identically: every theta ties
    p = tmp_path / "flat.csv"
    p.write_text("group,y,x1\nA,-3,-1\nA,-19,-7/2\nB,-1,-2\n")
    code, out = run(capsys, "fit-oneway", "--add-intercept",
                    "--method", "REML", "--csv", str(p))
    assert code == 4
    assert json.loads(out)["error"]["kind"] == "degenerate"


def test_flat_rss_covariate_csv_fits_like_oneway(tmp_path, capsys):
    # identical group means: the profiled rss does not vary with theta,
    # and both layouts certify the boundary maximum
    rows = [("A", 1), ("A", 3), ("B", 0), ("B", 4), ("C", 2), ("C", 2)]
    cov = tmp_path / "cov.csv"
    cov.write_text("group,y,x1\n" + "".join(f"{g},{v},1\n" for g, v in rows))
    plain = tmp_path / "plain.csv"
    plain.write_text("group,value\n" + "".join(f"{g},{v}\n" for g, v in rows))
    for path in (cov, plain):
        code, out = run(capsys, "fit-oneway", "--csv", str(path))
        assert code == 0
        rep = json.loads(out)
        assert rep["ml"]["boundary_is_max"] and rep["reml"]["boundary_is_max"]


def input_error(capsys, tmp_path, text, *argv):
    p = tmp_path / "data.csv"
    p.write_text(text)
    code, out = run(capsys, "fit-oneway", *argv, "--csv", str(p))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "input"


def test_huge_exponent_is_refused_at_once(tmp_path, capsys):
    t0 = time.monotonic()
    input_error(capsys, tmp_path, "group,value\nA,1e3000000\nA,1\nB,2\n")
    assert time.monotonic() - t0 < 1.0
    input_error(capsys, tmp_path,
                "group,value\nA,1\nA,2\nB,3\nB," + "9" * 1001 + "\n")


def test_exponent_past_the_cap_is_refused(tmp_path, capsys):
    input_error(capsys, tmp_path,
                "group,value\nA,1e4000\nA,2\nB,3\nB,5\nC,7\n")


def test_value_past_the_float_range_is_refused(tmp_path, capsys):
    # omega is about 1e398, which no float can carry
    input_error(capsys, tmp_path, "group,value\nA,1e200\nA,1.1e200\n"
                "B,5e200\nB,5.3e200\nC,9e200\nC,9.05e200\n")


def test_value_past_the_digit_limit_is_refused(tmp_path, capsys):
    # 481-digit fractions: the numerator's integer coefficients pass
    # the interpreter's 4300-digit limit for string conversion
    rng = random.Random(1)
    lines = ["group,value"]
    for g in "ABCDE":
        q = rng.randrange(10 ** 480, 10 ** 481)
        lines += [f"{g},{rng.randrange(10 ** 480, 10 ** 481)}/{q}"
                  for _ in range(2)]
    text = "\n".join(lines) + "\n"
    input_error(capsys, tmp_path, text, "--method", "ML", "--emit-poly")
    input_error(capsys, tmp_path, text, "--method", "ML")


def test_audit_oneway(capsys):
    code, out = run(capsys, "audit", "--q", "4", "--trials", "10",
                    "--seed", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["degree_matches"] == 10 and rep["degree_mismatches"] == []
    assert rep["seed"] == 3 and rep["covariates"] is None
    _, out2 = run(capsys, "audit", "--q", "4", "--trials", "10",
                  "--seed", "3")
    assert out == out2


def test_audit_covariates(capsys):
    code, out = run(capsys, "audit", "--q", "3", "--trials", "4",
                    "--seed", "5", "--covariates", "1")
    assert code == 0
    rep = json.loads(out)
    conj = rep["conjecture"]
    assert conj["checked"] + conj["skipped"] >= 4 - 1
    assert conj["violations"] == []


def test_audit_refuses_covariates_no_design_can_hold(capsys):
    # two groups of at most 5 rows never outnumber 1 + 20 columns
    t0 = time.monotonic()
    code, out = run(capsys, "audit", "--q", "2", "--trials", "1",
                    "--covariates", "20")
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "input"
    assert time.monotonic() - t0 < 1.0


def test_audit_bounds_the_design_draws(capsys):
    # 45 rows need all nine groups to draw 5 rows, once in 5^9 draws;
    # the draw bound ends the search with an input error
    t0 = time.monotonic()
    code, out = run(capsys, "audit", "--q", "9", "--trials", "1",
                    "--covariates", "43")
    assert code == 2
    err = json.loads(out)["error"]
    assert err["kind"] == "input" and "10000 random draws" in err["message"]
    assert time.monotonic() - t0 < 5.0


# -- fit-twoway on random statistics ------------------------------------------

SUM_OF_SQUARES = hst.one_of(
    hst.just(F(0)),
    hst.fractions(min_value=F(1, 9), max_value=40, max_denominator=9))


@hst.composite
def twoway_stats_docs(draw):
    """Stats JSON documents, with zero sums of squares and the r = q,
    SSA = SSB stratum where the tau relation degenerates."""
    r = draw(hst.integers(2, 4))
    n = draw(hst.integers(1, 3))
    ssa, ssab = draw(SUM_OF_SQUARES), draw(SUM_OF_SQUARES)
    if draw(hst.booleans()):
        q, ssb = r, ssa
    else:
        q, ssb = draw(hst.integers(2, 4)), draw(SUM_OF_SQUARES)
    sse = F(0) if n == 1 else draw(SUM_OF_SQUARES)
    return {"r": r, "q": q, "n": n, "SSA": str(ssa), "SSB": str(ssb),
            "SSAB": str(ssab), "SSE": str(sse)}


def reported_box(value):
    """Exact enclosure of a reported value: a rational string or a
    float with an outward error bound."""
    if isinstance(value, str):
        return Approx.exact(F(value))
    mid, half = F(value["value"]), F(value["error_bound"])
    return Approx(mid - half, mid + half)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(doc=twoway_stats_docs())
def test_fit_twoway_random_stats_exit_cleanly(doc):
    # every input ends in a documented exit code, and every feasible
    # solution in a report (exit 0, or 4 for a tie or a nongeneric
    # degree) solves the cleared system
    stats = TwoWayStats(**{k: F(v) if isinstance(v, str) else v
                           for k, v in doc.items()})
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ss.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for model in ("additive", "interaction"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(["fit-twoway", "--stats", path,
                             "--model", model])
            rep = json.loads(buf.getvalue())
            assert code in (0, 2, 3, 4), (doc, model)
            if "error" in rep:
                continue
            eqs = twoway_cleared_system(stats, model)
            for sol in rep["solutions"]:
                if sol["feasible"] is not True:
                    continue
                tau1 = reported_box(sol["tau1"])
                tau2 = reported_box(sol["tau2"])
                if model == "additive":
                    var = reported_box(sol["omega"])
                else:
                    var = (reported_box(sol["tau12"]).scale(stats.n)
                           + Approx.exact(F(rep["omega_hat"])))
                box = SimpleNamespace(var_value=var, tau1=tau1, tau2=tau2)
                assert all(a.contains(0)
                           for a in solution_residuals(eqs, box)), (doc, model)


# -- fit-oneway on random covariate CSVs ----------------------------------------

def decimal_text(units, places):
    """units / 10**places as an exact decimal literal."""
    sign = "-" if units < 0 else ""
    whole, frac = divmod(abs(units), 10 ** places)
    return f"{sign}{whole}.{frac:0{places}d}" if places else f"{sign}{whole}"


DECIMALS = hst.tuples(hst.integers(-10 ** 7, 10 ** 7), hst.integers(0, 6))


@hst.composite
def covariate_csvs(draw):
    """Covariate CSVs with repeated rows, constant columns, responses in
    the column span and decimals of up to six places."""
    sizes = draw(hst.lists(hst.integers(1, 5), min_size=2, max_size=6))
    p = draw(hst.integers(1, 3))
    constant = [draw(hst.integers(0, 4)) == 0 and draw(DECIMALS)
                for _ in range(p)]
    rows = []
    for _ in range(sum(sizes)):
        if rows and draw(hst.integers(0, 4)) == 0:
            rows.append(rows[draw(hst.integers(0, len(rows) - 1))])
        else:
            rows.append([c or draw(DECIMALS) for c in constant])
    if draw(hst.integers(0, 3)) == 0:
        coefs = draw(hst.lists(hst.integers(-5, 5), min_size=p + 1,
                               max_size=p + 1))
        ys = [coefs[0] + sum(c * F(u, 10 ** k)
                             for c, (u, k) in zip(coefs[1:], row))
              for row in rows]
        ys = [decimal_text(int(v * 10 ** 6), 6) for v in ys]
    else:
        ys = [decimal_text(*draw(DECIMALS)) for _ in rows]
    lines = ["group,y," + ",".join(f"x{j + 1}" for j in range(p))]
    i = 0
    for g, size in enumerate(sizes):
        for _ in range(size):
            lines.append(",".join([f"g{g}", ys[i]]
                                  + [decimal_text(*v) for v in rows[i]]))
            i += 1
    return "\n".join(lines) + "\n"


@settings(derandomize=True, deadline=None, max_examples=60)
@given(text=covariate_csvs())
def test_fit_covariates_random_csv_exit_cleanly(text):
    # rank-deficient, degenerate and generic designs alike end in a
    # documented exit code with a JSON report, never exit 1 or a traceback
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cov.csv")
        with open(path, "w") as fh:
            fh.write(text)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["fit-oneway", "--csv", path, "--add-intercept",
                         "--method", "both"])
    assert code in (0, 2, 3, 4), (text, buf.getvalue())
    json.loads(buf.getvalue())
