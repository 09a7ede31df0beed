"""Only `enclosure` names `log_bounds`.

`log_bounds` returns integers over 4^prec, and `enclosure.criterion` is
the one place that sums them into a fit's log-likelihood enclosure. A fit
module lists its criterion's terms and never handles that format. This
test reads the source with `ast`, so that a module importing or naming
`log_bounds` fails here.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "exactvc")
OWNER = "enclosure.py"
NAME = "log_bounds"


def names_log_bounds(path):
    """Whether one file names log_bounds: as a variable, an attribute or an
    import."""
    with open(path) as f:
        tree = ast.parse(f.read(), path)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and node.id == NAME
                or isinstance(node, ast.Attribute) and node.attr == NAME
                or isinstance(node, ast.alias) and node.name == NAME):
            return True
    return False


def test_only_enclosure_names_log_bounds():
    modules = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert names_log_bounds(os.path.join(SRC, OWNER))
    offenders = [os.path.basename(path) for path in modules
                 if os.path.basename(path) != OWNER
                 and names_log_bounds(path)]
    assert offenders == []


def test_the_guard_sees_imports_and_attributes(tmp_path):
    for line in ("from .enclosure import log_bounds\n",
                 "ends = enclosure.log_bounds(1, 2, 128)\n",
                 "def f():\n    return log_bounds\n"):
        probe = tmp_path / "probe.py"
        probe.write_text(line)
        assert names_log_bounds(str(probe))
    probe.write_text("from .enclosure import criterion\n")
    assert not names_log_bounds(str(probe))
