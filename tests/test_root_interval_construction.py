"""Only `roots` builds a RootInterval in the library.

An interval carries the polynomial it was isolated for, and refinement
trusts that pairing only after re-certifying it. Isolation and refinement
are the only places that know both; every other module takes intervals
from them and hands them back. This test reads the source with `ast`, so
that a module constructing an interval of its own fails here.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "exactvc")
OWNER = "roots.py"


def constructions(path):
    """Names of the functions that call RootInterval(...) in one file."""
    with open(path) as f:
        tree = ast.parse(f.read(), path)
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            where = node.name if where is None else f"{where}.{node.name}"
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.attr if isinstance(fn, ast.Attribute) else getattr(
                fn, "id", None)
            if name == "RootInterval":
                found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return found


def test_only_roots_constructs_root_intervals():
    modules = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert os.path.join(SRC, OWNER) in modules
    assert "refine_interval" in constructions(os.path.join(SRC, OWNER))
    offenders = [
        f"{os.path.basename(path)[:-3]}.{where}"
        for path in modules if os.path.basename(path) != OWNER
        for where in constructions(path)]
    assert offenders == []


def test_the_guard_sees_a_plain_and_a_qualified_call(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f(a, b, p):\n"
                     "    return RootInterval(a, b, p), roots.RootInterval(a, b, p)\n")
    assert constructions(str(probe)) == ["f", "f"]
