"""Every function the benchmark's span recorder wraps must exist.

perfbench/spans.py looks its traced functions up by (module, name) on
exactvc; a refactor that renames one should fail here rather than only
in a traced benchmark run.
"""

import importlib
import importlib.util
import os

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                     "spans.py")


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    missing = [f"{module}.{name}" for module, name in spans.TRACED
               if not callable(getattr(importlib.import_module(
                   f"exactvc.{module}"), name, None))]
    assert missing == []
