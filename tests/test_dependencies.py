"""The library runs on the standard library alone.

mpmath is the tests' oracle for the logarithm brackets, never a runtime
dependency: no module of src/exactvc imports anything outside the
standard library and the package, and a process that imports the CLI and
runs a one-way and a two-way fit never loads mpmath.
"""

import ast
import glob
import os
import re
import subprocess
import sys

from conftest import fixture_path

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def outside_imports(path):
    """Top-level names of the absolute imports in one source file that are
    not standard-library modules."""
    with open(path) as f:
        tree = ast.parse(f.read(), path)
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module)
    return [n for n in names
            if n.split(".")[0] not in sys.stdlib_module_names]


def test_no_module_imports_a_dependency():
    modules = sorted(glob.glob(os.path.join(SRC, "exactvc", "*.py")))
    assert modules
    offenders = {os.path.basename(path): outside_imports(path)
                 for path in modules}
    assert {k: v for k, v in offenders.items() if v} == {}


def test_the_guard_sees_an_mpmath_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nfrom . import x\nimport mpmath\n"
                     "def f():\n    from mpmath.libmp import from_rational\n")
    assert outside_imports(str(probe)) == ["mpmath", "mpmath.libmp"]


def unread_imports(path):
    """Names bound by the top-level imports of one source file, other than
    from __future__, that the file never reads."""
    with open(path) as f:
        tree = ast.parse(f.read(), path)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0]
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_every_imported_name_is_read():
    # __init__.py is exempt: its imports are the package's exports
    modules = sorted(glob.glob(os.path.join(SRC, "exactvc", "*.py")))
    offenders = {os.path.basename(path): unread_imports(path)
                 for path in modules
                 if os.path.basename(path) != "__init__.py"}
    assert len(offenders) == len(modules) - 1
    assert {k: v for k, v in offenders.items() if v} == {}


def test_the_guard_sees_an_unread_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\n"
                     "import os.path\nimport re as regex\n"
                     "from .roots import cauchy_bound, sign\n"
                     "def f(p) -> int:\n    from math import gcd\n"
                     "    return cauchy_bound(os.path.join(p))\n")
    assert unread_imports(str(probe)) == ["regex", "sign"]


def unnamed_definitions(sources, trees):
    """(file, name) of each function, class or method defined in the files
    sources, dunders aside, whose name is on no line of the .py files under
    the directories trees other than the line that defines it."""
    files = sorted({os.path.abspath(f) for root in trees for f in
                    glob.glob(os.path.join(root, "**", "*.py"),
                              recursive=True)})
    lines_of = {}
    for path in files:
        with open(path) as f:
            for number, line in enumerate(f, 1):
                for word in set(re.findall(r"\w+", line)):
                    lines_of.setdefault(word, set()).add((path, number))
    dead = []
    for path in sources:
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not re.fullmatch(r"__\w+__", node.name)
                    and not lines_of.get(node.name, set())
                    - {(os.path.abspath(path), node.lineno)}):
                dead.append((os.path.basename(path), node.name))
    return sorted(dead)


def test_every_defined_name_is_used():
    root = os.path.join(SRC, os.pardir)
    modules = sorted(glob.glob(os.path.join(SRC, "exactvc", "*.py")))
    trees = [os.path.join(root, d) for d in ("src", "tests", "perfbench",
                                             "demos")]
    assert unnamed_definitions(modules, trees) == []


def test_the_guard_sees_an_unnamed_definition(tmp_path):
    # a name counts as used on a line of another file, or another line of
    # its own; the line that defines it and longer words that contain it
    # do not count
    probe = tmp_path / "probe.py"
    probe.write_text("class Box:\n"
                     "    def __init__(self):\n        self.n = 0\n"
                     "    def empty(self):\n        return 0\n"
                     "def solo(): return solo\n"
                     "def inner():\n    return 1\n"
                     "def outer():\n    return inner()\n")
    (tmp_path / "caller.py").write_text("Box()\nouter()\nsolo_too()\n")
    assert unnamed_definitions([str(probe)], [str(tmp_path)]) == [
        ("probe.py", "empty"), ("probe.py", "solo")]


def test_fits_never_load_mpmath():
    script = f"""
import contextlib, io, sys
from exactvc.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["fit-oneway", "--method", "both",
                   "--csv", {fixture_path("dyestuff.csv")!r}]),
             main(["fit-twoway", "--stats",
                   {fixture_path("penicillin.json")!r}])]
print(codes, "mpmath" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["[0,", "0]", "False"]
