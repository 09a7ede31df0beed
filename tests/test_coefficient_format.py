"""The polynomial coefficient format is known to `polynomials` alone.

UniPoly stores integers over one denominator. Every other module of the
library works on `ints`, `den` or UniPoly operations, never on the
Fraction view `coeffs` or on a cleared copy it builds itself; this test
reads the source with `ast` so that a module reaching past the format
fails here. multipoly.py is exempt: it is the test-only multivariate
reference and converts to UniPoly through its public constructor.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "exactvc")
EXEMPT = {"polynomials.py", "multipoly.py"}


def format_reads(path):
    """(function, what) for each read of .coeffs and call of cleared()."""
    with open(path) as f:
        tree = ast.parse(f.read(), path)
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            where = node.name if where is None else f"{where}.{node.name}"
        if isinstance(node, ast.Attribute) and node.attr == "coeffs":
            found.append((where, ".coeffs"))
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.attr if isinstance(fn, ast.Attribute) else getattr(
                fn, "id", None)
            if name == "cleared":
                found.append((where, "cleared()"))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return found


def test_only_polynomials_reads_the_coefficient_format():
    modules = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert len(modules) > len(EXEMPT)
    offenders = [
        f"{os.path.basename(path)[:-3]}.{where}: {what}"
        for path in modules if os.path.basename(path) not in EXEMPT
        for where, what in format_reads(path)]
    assert offenders == []


def test_the_guard_sees_a_read_and_a_call(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f(p):\n    return p.coeffs, p.cleared()\n")
    assert format_reads(str(probe)) == [("f", ".coeffs"), ("f", "cleared()")]
