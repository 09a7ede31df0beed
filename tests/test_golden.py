"""Byte-for-byte CLI reports on the bundled fixtures.

Each case's stdout and exit code were written once into tests/golden/
and must not change: certified reports are deterministic, so any diff is
a behaviour change. To regenerate after an intended change, run

    PYTHONPATH=src python tests/test_golden.py

and review the diff of tests/golden/.
"""

import io
import os
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


def run_case(name):
    """(exit code, stdout) of one case, with fixture names resolved."""
    argv = list(CASES[name])
    argv[-1] = fixture_path(argv[-1])
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_report_matches_golden(name):
    code, out = run_case(name)
    with open(os.path.join(GOLDEN, name + ".stdout")) as f:
        assert out == f.read()
    with open(os.path.join(GOLDEN, name + ".code")) as f:
        assert code == int(f.read())


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for case in sorted(CASES):
        code, out = run_case(case)
        with open(os.path.join(GOLDEN, case + ".stdout"), "w") as f:
            f.write(out)
        with open(os.path.join(GOLDEN, case + ".code"), "w") as f:
            f.write(f"{code}\n")
