"""Span recorder that wraps exactvc's public functions from outside.

Modules bind these functions by name (profilefit, oneway, covariates and
twoway all import refine_interval, poly_range or isolate_real_roots), so
the wrapper replaces every attribute of every exactvc module that is
bound to the original function. Spans are kept in memory as parallel
arrays (name, parent, start, end) and written out when the run ends.

Self time is a span's duration minus the durations of its direct child
spans; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

# (module, function) pairs wrapped in a traced run, by layer.
TRACED = (
    ("roots", "sturm_chain"), ("roots", "isolate_real_roots"),
    ("roots", "refine_interval"), ("roots", "poly_range"),
    ("polynomials", "poly_gcd"), ("polynomials", "squarefree_part"),
    ("multipoly", "bareiss_determinant"),
    ("multipoly", "resultant_eliminate"),
    ("enclosure", "log_enclosure"),
    ("profilefit", "build_profile_equation"), ("profilefit", "fit_profile"),
    ("profilefit", "classify_stationary_points"),
    ("oneway", "basis_polynomials"), ("oneway", "ml_equation"),
    ("oneway", "reml_equation"),
    ("covariates", "ml_equation"), ("covariates", "reml_equation"),
    ("covariates", "gls_profile"),
    ("twoway", "ml_system"), ("twoway", "eliminate_to_quartic"),
    ("twoway", "fit_twoway"), ("twoway", "twoway_stats"),
    ("stats", "summarize"),
    ("io", "parse_rational"), ("io", "detect_csv_kind"),
    ("io", "load_oneway_csv"), ("io", "load_covariates_csv"),
    ("io", "load_twoway_csv"), ("io", "oneway_report"),
    ("io", "twoway_report"), ("io", "dumps"),
    ("cli", "main"),
)

# Name of the span the harness opens around each fit; its self time is the
# work no wrapped function accounts for.
FIT_SPAN = "bench.fit"


class Recorder:
    """Collects spans while `on` is true; calls pass straight through
    otherwise, so untimed harness work leaves no spans."""

    def __init__(self):
        self.names: List[str] = []
        self._index: Dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.none_returns: Dict[str, int] = {}
        self._stack: List[Tuple[int, float]] = []   # (span id, child time)
        self.on = False

    def _name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a span called name."""
        if not self.on:
            return fn(*args, **kwargs)
        sid = len(self.start)
        self.name_of.append(self._name_id(name))
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self._stack.append((sid, 0.0))
        t0 = time.perf_counter()
        self.start.append(t0)
        self.end.append(t0)
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.end[sid] = t1
            _, child = self._stack.pop()
            dur = t1 - t0
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
            self.calls[name] = self.calls.get(name, 0) + 1
            if self._stack:
                pid, pchild = self._stack[-1]
                self._stack[-1] = (pid, pchild + dur)
        if out is None:
            self.none_returns[name] = self.none_returns.get(name, 0) + 1
        return out

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def install(self, package: str = "exactvc") -> int:
        """Wrap every TRACED function on every module attribute bound to it.

        Returns the number of attributes replaced.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package
                                         or n.startswith(package + "."))]
        replaced = 0
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        replaced += 1
        return replaced

    def write(self, path: str):
        """Spans as JSON lines: id, parent id, name, start and end seconds."""
        with open(path, "w") as fh:
            for sid in range(len(self.start)):
                fh.write(json.dumps([sid, self.parent[sid],
                                     self.names[self.name_of[sid]],
                                     self.start[sid], self.end[sid]]) + "\n")
