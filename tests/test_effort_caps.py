"""Only `profilefit` names the refinement effort caps.

How far an isolating interval is refined before a decision is given up
(ranking rounds, the tie width and enclosure retries) is one policy. It
lives beside `certified_argmax`, `certified_signs` and `enclose_at`, and
other modules reach it only through them. This test reads the source with
`ast`, so that a module importing or naming a cap fails here.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "exactvc")
OWNER = "profilefit.py"
CAPS = {"_MAX_RANK_ROUNDS", "_TIE_WIDTH_CAP", "_MAX_RETRIES"}


def caps_named(path):
    """The caps one file names: as a variable, an attribute or an import."""
    with open(path) as f:
        tree = ast.parse(f.read(), path)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names & CAPS


def test_only_profilefit_names_the_effort_caps():
    modules = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert caps_named(os.path.join(SRC, OWNER)) == CAPS
    offenders = {os.path.basename(path): sorted(caps_named(path))
                 for path in modules if os.path.basename(path) != OWNER}
    assert {k: v for k, v in offenders.items() if v} == {}


def test_the_guard_sees_imports_and_attributes(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .profilefit import _MAX_RANK_ROUNDS\n"
                     "cap = profilefit._TIE_WIDTH_CAP\n"
                     "def f():\n"
                     "    return _MAX_RETRIES\n")
    assert caps_named(str(probe)) == CAPS
