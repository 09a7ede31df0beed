"""The benchmark harness must keep running against this source tree.

perfbench/spans.py looks its traced functions up by (module, name) on
exactvc; a refactor that renames one should fail here rather than only
in a traced benchmark run. perfbench/selftest.py runs one tiny round of
every workload through the public API and checks the verifier.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from fractions import Fraction

from exactvc import oneway
from exactvc.stats import OneWayStats

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
SPANS = os.path.join(PERFBENCH, "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_functions_resolve():
    spans = load_spans()
    assert spans.TRACED
    missing = [f"{module}.{name}" for module, name in spans.TRACED
               if not callable(getattr(importlib.import_module(
                   f"exactvc.{module}"), name, None))]
    assert missing == []


def test_traced_modules_load_with_the_package():
    # the recorder finds each module in sys.modules after the benchmark
    # worker's imports, so a module that no other module imports any more
    # must still be loaded by the package; a fresh interpreter shows it
    modules = sorted({module for module, _ in load_spans().TRACED})
    code = ("import sys, exactvc, exactvc.cli, exactvc.io; "
            f"print([m for m in {modules!r} "
            "if 'exactvc.' + m not in sys.modules])")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_oneway_profile_goes_through_the_traced_stage(monkeypatch):
    # the benchmark's one-way stage is the span of oneway.basis_polynomials;
    # a record built without calling it would read 0 calls there
    calls = []
    original = oneway.basis_polynomials

    def counting(stats):
        calls.append(stats)
        return original(stats)

    monkeypatch.setattr(oneway, "basis_polynomials", counting)
    s = OneWayStats((2, 3), (2, 1), (Fraction(1), Fraction(2)),
                    (Fraction(1, 2), Fraction(0)), Fraction(4))
    oneway.gls_profile(s)
    assert calls == [s]


def test_benchmark_selftest_passes():
    # the harness's tiny rounds and corrupted-result checks; it writes only
    # to the git-ignored perfbench/out/
    out = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "selftest.py")],
        capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
