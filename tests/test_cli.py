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
import subprocess
import sys
import tempfile
import time
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from exactvc import covariates, errors, oneway
from exactvc import io as xio
from exactvc.cli import main
from exactvc.enclosure import Approx
from exactvc.twoway import TwoWayStats

from conftest import (contains, fixture_path, interval_scale, interval_sum,
                      solution_residuals, twoway_cleared_system)


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


def test_degree_refuses_what_fit_oneway_refuses(tmp_path, capsys):
    # one group, or only singleton groups: no degree law applies, and both
    # commands exit 3 with the same model-assumption report
    cases = (("5", {"sizes": [5], "mults": [1], "betweenSS": ["0"]},
              "the model needs at least two groups"),
             ("1,1", {"sizes": [1], "mults": [2], "betweenSS": ["1"]},
              "at least one group must have two or more observations"))
    for sizes, classes, message in cases:
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps(
            {**classes, "means": ["1"], "withinSS": "1"}))
        code, out = run(capsys, "degree", "--sizes", sizes)
        assert code == 3
        assert json.loads(out) == {"error": {"kind": "model-assumption",
                                             "message": message}}
        assert run(capsys, "fit-oneway", "--stats", str(stats)) == (code, out)


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


@pytest.mark.parametrize("method, within_ss",
                         [("ML", "1381/24"), ("REML", "2731/34")])
def test_fit_oneway_reports_a_root_at_zero_as_a_point(tmp_path, capsys,
                                                      method, within_ss):
    stats = tmp_path / "stats.json"
    stats.write_text(json.dumps({
        "sizes": [2, 3, 5], "mults": [2, 1, 1], "means": ["1", "2", "-1"],
        "betweenSS": ["1/2", "0", "0"], "withinSS": within_ss}))
    code, out = run(capsys, "fit-oneway", "--method", method,
                    "--stats", str(stats))
    assert code == 0
    rep = json.loads(out)
    assert rep["equation"]["coeffs"][0] == 0
    assert rep["roots"] == [{"class": "local_max", "hi": "0", "lo": "0"}]
    assert rep["boundary_is_max"] and not rep["tie"]
    assert rep["global"]["theta"] == "0" and rep["global"]["tau"] == "0"


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


def test_add_intercept_needs_a_covariates_csv(tmp_path, capsys):
    # statistics and a one-way CSV have no design to prepend a column to
    oneway = tmp_path / "oneway.csv"
    oneway.write_text("group,value\nA,1\nA,2\nB,3\nB,5\nC,7\n")
    for source in (("--stats", fixture_path("trimodal.json")),
                   ("--csv", str(oneway))):
        code, out = run(capsys, "fit-oneway", *source, "--add-intercept")
        assert code == 2
        assert json.loads(out) == {"error": {
            "kind": "input",
            "message": "--add-intercept applies only to a covariates CSV"}}
        assert run(capsys, "fit-oneway", *source)[0] == 0


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

    code, out = run(capsys, "fit-twoway", "--refine-width", "0",
                    "--stats", fixture_path("penicillin.json"))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "input"

    twoway_csv = fixture_path("replicated_2x3x2.csv")
    code, out = run(capsys, "fit-oneway", "--csv", twoway_csv)
    assert code == 2
    assert json.loads(out)["error"] == {
        "kind": "input",
        "message": f"{twoway_csv}: two-way CSV given to fit-oneway"}

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


@pytest.mark.parametrize("error,kind,code", [
    (errors.InputError, "input", 2),
    (errors.UndefinedInputError, "input", 2),
    (errors.ModelAssumptionError, "model-assumption", 3),
    (errors.RankDeficiencyError, "model-assumption", 3),
    (errors.DegenerateDataError, "degenerate", 4),
    (errors.DegenerateDesignError, "degenerate", 4),
    (errors.NongenericDataError, "degenerate", 4),
    (errors.DivisibilityError, "internal", 1),
    (errors.ContractViolationError, "internal", 1),
    (errors.ExactVCError, "internal", 1),
])
def test_each_error_class_ends_in_its_kind_and_exit_code(
        error, kind, code, monkeypatch, capsys):
    # the degenerate classes subclass ModelAssumptionError and must still
    # report degenerate (exit 4); ContractViolationError is a bug (exit 1)
    def refuse(path):
        raise error("planted")

    monkeypatch.setattr(xio, "load_oneway_stats_json", refuse)
    got, out = run(capsys, "fit-oneway",
                   "--stats", fixture_path("trimodal.json"))
    assert got == code
    assert json.loads(out) == {"error": {"kind": kind, "message": "planted"}}


def test_zero_within_ss_is_refused_under_every_method(tmp_path, capsys):
    stats = tmp_path / "w0.json"
    stats.write_text(json.dumps({
        "sizes": [2, 3], "mults": [1, 2], "means": ["1", "2"],
        "betweenSS": ["0", "1"], "withinSS": "0"}))
    for method in ("ML", "REML", "both"):
        code, out = run(capsys, "fit-oneway", "--method", method,
                        "--stats", str(stats))
        assert code == 4
        assert json.loads(out)["error"] == {
            "kind": "degenerate",
            "message": "within-group sum of squares is zero; the profile "
                       "analysis assumes residual variation"}


@pytest.mark.parametrize("name", ["dyestuff.csv", "covariates.csv"])
def test_fit_oneway_parses_its_csv_once(name, monkeypatch, capsys):
    # one pass reads the file: detect_csv_kind reads the header that pass
    # yields and the loader the rows after it (the loader and the header
    # probe each parsed every row before, then each opened the file)
    path = fixture_path(name)
    with open(path) as fh:
        lines = sum(1 for _ in fh)
    seen = {"read_rows": 0, "open": 0, "lines": 0}
    read_rows = xio.read_csv_rows

    def counted_read_rows(p):
        seen["read_rows"] += 1
        return read_rows(p)

    class CountedFile:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

        def __iter__(self):
            return self

        def __next__(self):
            line = next(self.fh)
            seen["lines"] += 1
            return line

    def counted_open(*args, **kwargs):
        seen["open"] += 1
        return CountedFile(open(*args, **kwargs))

    assert main(["fit-oneway", "--csv", path]) == 0
    report = capsys.readouterr().out
    monkeypatch.setattr(xio, "read_csv_rows", counted_read_rows)
    monkeypatch.setattr(xio, "open", counted_open, raising=False)
    assert main(["fit-oneway", "--csv", path]) == 0
    assert capsys.readouterr().out == report
    assert seen == {"read_rows": 1, "open": 1, "lines": lines}


def test_csv_on_a_pipe_fits_like_the_file(tmp_path):
    # the header probe and the loader share one pass, so a stream that can
    # be read only once still gives the file's report
    text = "group,value\na,1\na,2\nb,3\nb,5\nc,4\nc,9\n"
    p = tmp_path / "pipe.csv"
    p.write_text(text)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        q for q in (src, env.get("PYTHONPATH")) if q)
    outs = []
    for path, stdin in ((str(p), None), ("/dev/stdin", text)):
        proc = subprocess.run(
            [sys.executable, "-m", "exactvc", "fit-oneway", "--csv", path,
             "--method", "ML"], input=stdin, env=env, capture_output=True,
            text=True, timeout=60)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


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


def test_invalid_utf8_in_a_csv_is_refused(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_bytes(b"group,value\nA\xff,1\nA\xff,2\nB,3\nB,5\n")
    for command in ("fit-oneway", "fit-twoway"):
        code, out = run(capsys, command, "--csv", str(p))
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "input"


def test_non_ascii_label_fits_in_the_c_locale(tmp_path):
    # Python turns UTF-8 mode on by itself in the C locale; with it off,
    # the locale's ASCII is the default encoding
    p = tmp_path / "labels.csv"
    p.write_bytes("group,value\nä,1\nä,2\nb,3\nb,5\n".encode("utf-8"))
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(
        q for q in (src, env.get("PYTHONPATH")) if q)
    proc = subprocess.run(
        [sys.executable, "-m", "exactvc", "fit-oneway", "--csv", str(p)],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "ml" in json.loads(proc.stdout)


def test_reused_parser_answers_like_fresh_processes(capsys):
    # main builds its parser once per process; an argparse error, then
    # fit-oneway, then fit-twoway in one process must print and exit
    # exactly as three fresh interpreters do
    calls = [["fit-oneway", "--method", "MLE", "--stats",
              fixture_path("trimodal.json")],
             ["fit-oneway", "--method", "both", "--stats",
              fixture_path("trimodal.json")],
             ["fit-twoway", "--stats", fixture_path("penicillin.json")]]
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        q for q in (src, env.get("PYTHONPATH")) if q)
    codes = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        proc = subprocess.run([sys.executable, "-m", "exactvc", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert (code, out) == (proc.returncode, proc.stdout), argv
        codes.append(code)
    assert codes == [2, 0, 0]


def test_field_past_the_csv_limit_is_refused(tmp_path, capsys):
    input_error(capsys, tmp_path,
                "group,value\n" + "A" * 200_000 + ",1\nA,2\nB,3\nB,5\n")


def test_bom_csv_fits_like_its_plain_twin(tmp_path, capsys):
    text = "group,value\nA,1\nA,2\nB,3\nB,5\nC,4\nC,4\n"
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_bytes(text.encode("utf-8"))
    bom.write_bytes(text.encode("utf-8-sig"))
    code, want = run(capsys, "fit-oneway", "--csv", str(plain))
    assert code == 0
    assert run(capsys, "fit-oneway", "--csv", str(bom)) == (0, want)


def test_json_nested_past_the_recursion_limit_is_refused(tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000)
    for command in ("fit-oneway", "fit-twoway"):
        code, out = run(capsys, command, "--stats", str(p))
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "input"


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


def test_audit_builds_one_record_per_instance(monkeypatch, capsys):
    # a one-way record is built from oneway.basis_polynomials' sums, a
    # covariate record by covariates.profile_from_sums; both are counted
    calls = []

    def counted(module, name):
        build = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return build(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(covariates, "profile_from_sums")
    counted(oneway, "basis_polynomials")
    for argv, want in ((("--q", "4", "--trials", "6", "--seed", "1"),
                        ["basis_polynomials"] * 6),
                       (("--q", "3", "--trials", "5", "--seed", "2",
                         "--covariates", "2"), ["profile_from_sums"] * 5)):
        calls.clear()
        code, _ = run(capsys, "audit", *argv)
        assert code == 0
        assert calls == want


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
                    var = interval_sum(
                        interval_scale(reported_box(sol["tau12"]), stats.n),
                        Approx.exact(F(rep["omega_hat"])))
                box = SimpleNamespace(var_value=var, tau1=tau1, tau2=tau2)
                assert all(contains(a, 0)
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


# -- loaders on hostile bytes and stats documents --------------------------------

CSV_HEADERS = ["group,value", "group,y,x1", "row,col,rep,value",
               "\ufeffgroup,value", "Group,value", "group;value",
               "group,y,x2", "row,col,rep", "group,value,", ""]
CSV_TOKENS = [b"A", b"B", b"0", b"1", b"7", b"-", b"/", b".", b"e9", b",",
              b"\n", b"\r", b'"', b" ", b"\x00", b"\xff", "ä".encode()]
CSV_BODIES = hst.binary(max_size=80) | hst.lists(
    hst.sampled_from(CSV_TOKENS), max_size=60).map(b"".join)
JSON_LEAVES = (hst.none() | hst.booleans() | hst.integers(-3, 40)
               | hst.floats(allow_nan=False) | hst.text(max_size=6)
               | hst.fractions(max_denominator=9).map(str))
JSON_VALUES = hst.recursive(JSON_LEAVES, lambda c: hst.lists(c, max_size=3),
                            max_leaves=4)


def ratios(lo, hi):
    return hst.fractions(min_value=lo, max_value=hi,
                         max_denominator=9).map(str)


@hst.composite
def stats_cases(draw):
    """One-way or two-way stats documents, valid or nearly so: now and
    then one key is dropped or holds any JSON value."""
    if draw(hst.booleans()):
        sizes = sorted(draw(hst.sets(hst.integers(1, 12), min_size=1,
                                     max_size=4)))
        mults = [draw(hst.integers(1, 3)) for _ in sizes]
        doc = {"sizes": sizes, "mults": mults,
               "means": [draw(ratios(-9, 9)) for _ in sizes],
               "betweenSS": [draw(ratios(0, 9)) if m > 1 else "0"
                             for m in mults],
               "withinSS": draw(ratios(0, 9))}
        command = "fit-oneway"
    else:
        doc = {k: draw(hst.integers(1, 4)) for k in "rqn"}
        doc.update({k: draw(ratios(0, 40))
                    for k in ("SSA", "SSB", "SSAB", "SSE")})
        command = "fit-twoway"
    key = draw(hst.sampled_from(sorted(doc)))
    mangle = draw(hst.integers(0, 3))
    if mangle == 0:
        del doc[key]
    elif mangle == 1:
        doc[key] = draw(JSON_VALUES)
    return command, ".json", json.dumps(doc).encode()


@hst.composite
def csv_cases(draw):
    header = draw(hst.sampled_from(CSV_HEADERS))
    command = draw(hst.sampled_from(["fit-oneway", "fit-twoway"]))
    return command, ".csv", header.encode() + b"\n" + draw(CSV_BODIES)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(case=csv_cases() | stats_cases())
def test_loaders_exit_cleanly_on_hostile_input(case):
    # arbitrary bytes under valid and mangled CSV headers, and stats
    # documents with random values, end in a documented exit code with a
    # JSON report
    command, suffix, data = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input" + suffix)
        with open(path, "wb") as fh:
            fh.write(data)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main([command, "--csv" if suffix == ".csv" else "--stats",
                         path])
    assert code in (0, 2, 3, 4), (data, buf.getvalue())
    json.loads(buf.getvalue())
