"""Byte-for-byte CLI reports on the bundled fixtures.

Each case's stdout and exit code were written once into tests/golden/
and must not change: certified reports are deterministic, so any diff is
a behaviour change. To regenerate after an intended change, run

    PYTHONPATH=src python tests/test_golden.py

and review the diff of tests/golden/.
"""

import glob
import io
import json
import os
import shutil
import subprocess
from contextlib import redirect_stdout

import pytest

from exactvc.cli import main

from conftest import fixture_path

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

CASES = {
    "oneway_trimodal_both": ["fit-oneway", "--method", "both",
                             "--stats", "trimodal.json"],
    "oneway_boundary_both": ["fit-oneway", "--method", "both",
                             "--stats", "boundary.json"],
    "oneway_dyestuff_both": ["fit-oneway", "--method", "both",
                             "--csv", "dyestuff.csv"],
    "oneway_dyestuff_reml_poly": ["fit-oneway", "--method", "REML",
                                  "--emit-poly", "--csv", "dyestuff.csv"],
    "twoway_penicillin": ["fit-twoway", "--stats", "penicillin.json"],
    "twoway_penicillin_poly": ["fit-twoway", "--emit-poly",
                               "--stats", "penicillin.json"],
    "twoway_replicated_interaction": ["fit-twoway", "--model", "interaction",
                                      "--csv", "replicated_2x3x2.csv"],
    "covariates_intercept_both": ["fit-oneway", "--method", "both",
                                  "--add-intercept",
                                  "--csv", "covariates.csv"],
    "covariates_reml_poly": ["fit-oneway", "--method", "REML",
                             "--emit-poly", "--csv", "covariates.csv"],
}


# Runs the cases given as a JSON list of argv lists on stdin and writes
# [exit code, stdout] of each as a JSON list; it needs nothing but src/.
CHILD = """
import io, json, sys
from contextlib import redirect_stdout
from exactvc.cli import main
out = []
for argv in json.load(sys.stdin):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    out.append([code, buf.getvalue()])
json.dump(out, sys.stdout)
"""


def case_argv(name):
    """The case's argv, with its fixture name resolved."""
    argv = list(CASES[name])
    argv[-1] = fixture_path(argv[-1])
    return argv


def run_case(name):
    """(exit code, stdout) of one case."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(case_argv(name))
    return code, out.getvalue()


def golden(name):
    """The recorded (exit code, stdout) of one case."""
    with open(os.path.join(GOLDEN, name + ".stdout")) as f:
        out = f.read()
    with open(os.path.join(GOLDEN, name + ".code")) as f:
        return int(f.read()), out


def python_3_10():
    """A Python 3.10 interpreter, the oldest the project supports, or None.
    Each candidate on PATH or under pyenv is asked for its version: a pyenv
    shim named python3.10 exists even where it cannot run."""
    root = os.environ.get("PYENV_ROOT", os.path.expanduser("~/.pyenv"))
    candidates = [shutil.which("python3.10")] + sorted(
        glob.glob(os.path.join(root, "versions", "3.10*", "bin", "python")))
    for exe in filter(None, candidates):
        try:
            proc = subprocess.run(
                [exe, "-c", "import sys; print(sys.version_info[:2])"],
                capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if proc.returncode == 0 and proc.stdout.strip() == "(3, 10)":
            return exe
    return None


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_report_matches_golden(name):
    assert run_case(name) == golden(name)


def test_goldens_on_the_oldest_supported_python():
    # every case in one 3.10 process: catches syntax and library calls
    # newer than 3.10, which a token scan of the source cannot see
    exe = python_3_10()
    if exe is None:
        pytest.skip("no Python 3.10 interpreter found")
    names = sorted(CASES)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [exe, "-c", CHILD], input=json.dumps([case_argv(n) for n in names]),
        capture_output=True, text=True, timeout=600,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert len(got) == len(names)
    for name, (code, out) in zip(names, got):
        assert (code, out) == golden(name), name


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for case in sorted(CASES):
        code, out = run_case(case)
        with open(os.path.join(GOLDEN, case + ".stdout"), "w") as f:
            f.write(out)
        with open(os.path.join(GOLDEN, case + ".code"), "w") as f:
            f.write(f"{code}\n")
