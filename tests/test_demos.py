"""The Python demos run end to end: each exits 0, and the covariate demo
still finds the all-ones design equal to the plain one-way layout."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = ["profile_roots_oneway.py", "covariates_gls.py",
         "twoway_elimination.py"]


def run_demo(name):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=60)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    proc = run_demo(name)
    assert proc.returncode == 0, proc.stderr
    if name == "covariates_gls.py":
        assert ("all-ones numerator == plain one-way numerator: True"
                in proc.stdout)
