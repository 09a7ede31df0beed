"""Checks each fit's outcome; a fit with any problem counts as failed.

Two kinds of check:

* Invariants that hold for any seed and any correct exactvc: degree
  formulas, a sign change of the reported primitive numerator across every
  root interval, disjoint intervals no wider than the requested width,
  alternating classes, and a nonnegative (and negative) root count equal
  to sympy's independent count; for two-way fits the same root checks on
  the quartic plus a certified winner. The expected outcome of every
  generated input is a clean fit (no tie, no nongeneric flag) or, for the
  command line's deliberately bad files, the documented exit code.
* For the default seed, a comparison with references made at the commit
  that defined the benchmark: exact fields (coefficients, relations,
  classes, flags, negative_roots) must be identical and every interval
  valued output must intersect the reference enclosure. Intervals are not
  compared exactly, because a correct new isolation algorithm gives
  different ones.

Nothing here is timed, and nothing imports exactvc.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import sympy

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "references")

LOCAL_MAX, SADDLE = "local_max", "saddle"

# Report keys whose values are enclosures: compared by intersection.
INTERVAL_KEYS = {"theta", "loglik", "omega", "tau", "mu", "beta",
                 "tau1", "tau2", "tau12"}
# Free-text keys that carry no result.
IGNORED_KEYS = {"message"}

Interval = Tuple[Fraction, Fraction]

_X = sympy.Symbol("x")


# ----------------------------------------------------------------------
# Exact helpers
# ----------------------------------------------------------------------

def enclosure(v) -> Optional[Interval]:
    """A reported value as a rational interval: "p/q" is a point; a
    {"value", "error_bound"} pair is value -/+ error_bound."""
    if v is None:
        return None
    if isinstance(v, str):
        x = Fraction(v)
        return x, x
    mid, err = Fraction(v["value"]), Fraction(v["error_bound"])
    return mid - err, mid + err


def sign_at(coeffs: List[int], x: Fraction) -> int:
    """Sign of sum coeffs[k] x^k at a rational x, in integers."""
    n, d = x.numerator, x.denominator
    acc, dp = 0, 1
    for c in reversed(coeffs):
        acc = acc * n + c * dp
        dp *= d
    return (acc > 0) - (acc < 0)


def root_counts(coeffs: List[int]) -> Tuple[int, int, int]:
    """Distinct real roots (negative, nonnegative, all), counted by sympy.

    Poly.intervals isolates by continued fractions (Vincent-Akritas-
    Strzebonski), not by Sturm sequences as exactvc does, and is far
    faster than Poly.count_roots at these degrees. Its intervals never
    straddle 0, and a root at 0 comes back as the point (0, 0).
    """
    ivs = [ab for ab, _ in sympy.Poly(list(reversed(coeffs)), _X).intervals()]
    negative = sum(1 for lo, hi in ivs if hi <= 0 and not lo == hi == 0)
    return negative, len(ivs) - negative, len(ivs)


def sign_changes(coeffs: List[int]) -> int:
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _intersect(a: Optional[Interval], b: Optional[Interval]) -> bool:
    if a is None or b is None:
        return a is b
    return a[0] <= b[1] and b[0] <= a[1]


# ----------------------------------------------------------------------
# Invariants
# ----------------------------------------------------------------------

def _check_equation(eq: dict, problems: List[str]) -> List[int]:
    coeffs = eq["coeffs"]
    if not coeffs or coeffs[-1] == 0:
        problems.append("numerator has no leading coefficient")
        return []
    if eq["degree"] != len(coeffs) - 1:
        problems.append(f"degree {eq['degree']} but {len(coeffs)} coefficients")
    if eq["sign_changes"] != sign_changes(coeffs):
        problems.append("Descartes sign-change count is wrong")
    return coeffs


def _check_brackets(coeffs: List[int], ivs: List[Interval], width: Fraction,
                    slack, problems: List[str]):
    """Every interval holds a sign change (or is an exact root), is no
    wider than width plus slack(interval), and they are disjoint."""
    for lo, hi in ivs:
        if lo > hi:
            problems.append(f"interval [{lo}, {hi}] is empty")
        elif lo == hi:
            if sign_at(coeffs, lo) != 0:
                problems.append(f"point {lo} is not a root")
        elif sign_at(coeffs, lo) * sign_at(coeffs, hi) >= 0:
            problems.append(f"no sign change across [{float(lo)}, {float(hi)}]")
        if hi - lo > width + slack(lo, hi):
            problems.append(f"interval width {float(hi - lo)} exceeds "
                            f"the requested {float(width)}")
    for (_, hi), (lo, _) in zip(ivs, ivs[1:]):
        if hi > lo:
            problems.append("root intervals overlap or are out of order")


def check_profile(rep: dict, task: dict, width: Fraction) -> List[str]:
    """A one-way or covariate FitReport in exactvc's JSON report format."""
    problems: List[str] = []
    coeffs = _check_equation(rep["equation"], problems)
    if not coeffs:
        return problems
    degree = len(coeffs) - 1
    if "M" in task:
        M, M2 = task["M"], task["M2"]
        expected = 3 * M + M2 - 3 if rep["method"] == "ML" else 2 * M + 2 * M2 - 3
        if degree != expected or rep["equation"]["expected_degree"] != expected:
            problems.append(f"{rep['method']} degree {degree}, formula "
                            f"gives {expected}")
    roots = rep["roots"]
    ivs = [(Fraction(r["lo"]), Fraction(r["hi"])) for r in roots]
    if any(lo < 0 for lo, _ in ivs):
        problems.append("a root interval reaches below 0")
    _check_brackets(coeffs, ivs, width, lambda lo, hi: 0, problems)
    classes = [r["class"] for r in roots]
    if any(c not in (LOCAL_MAX, SADDLE) for c in classes):
        problems.append(f"unknown class in {classes}")
    if any(a == b for a, b in zip(classes, classes[1:])):
        problems.append(f"classes do not alternate: {classes}")
    if classes and classes[-1] != LOCAL_MAX:
        problems.append("the last root is not a local maximum, though the "
                        "objective decays at infinity")
    negative, nonneg, _ = root_counts(coeffs)
    if len(roots) != nonneg:
        problems.append(f"{len(roots)} nonnegative roots reported, "
                        f"sympy counts {nonneg}")
    if rep["negative_roots"] != negative:
        problems.append(f"{rep['negative_roots']} negative roots reported, "
                        f"sympy counts {negative}")
    if rep["tie"]:
        problems.append("tie flag set on generic data")
    glob = rep["global"]
    theta = enclosure(glob["theta"])
    if rep["boundary_is_max"]:
        if theta != (0, 0):
            problems.append("boundary_is_max set but theta is not 0")
    elif not any(_intersect(theta, iv)
                 for iv, c in zip(ivs, classes) if c == LOCAL_MAX):
        problems.append("global theta is not at a local maximum")
    for key in ("loglik", "omega", "tau"):
        if glob.get(key) is None:
            problems.append(f"global {key} missing")
    return problems


def check_twoway(rep: dict, task: dict, width: Fraction) -> List[str]:
    """A TwoWayFitReport in exactvc's JSON report format."""
    problems: List[str] = []
    coeffs = _check_equation(rep["equation"], problems)
    if not coeffs:
        return problems
    if rep["nongeneric"] is not None or rep["tie"]:
        problems.append("nongeneric or tie flag set on generic data")
    if len(coeffs) != 5:
        problems.append(f"eliminant has degree {len(coeffs) - 1}, not 4")
    var = "tau12" if rep["model"] == "interaction" else "omega"
    sols = rep["solutions"]
    ivs = [enclosure(s[var]) for s in sols]
    _, _, real = root_counts(coeffs)
    if len(sols) != real:
        problems.append(f"{len(sols)} solutions, sympy counts {real} roots")
    # each enclosure is a float midpoint plus an outward error bound, which
    # may widen it by about one float rounding of the value on each side
    _check_brackets(coeffs, ivs, width,
                    lambda lo, hi: (abs(lo) + abs(hi)) / 2 ** 50, problems)
    for name in ("tau1", "tau2"):
        rel = rep["relations"][name]
        if rel is None or rel["tau_coeff"] <= 0:
            problems.append(f"{name} relation missing or not normalized")
    feasible = []
    for s in sols:
        if s["feasible"] is None:
            problems.append("feasibility left undecided")
        parts = [enclosure(s[k]) for k in ("omega", "tau1", "tau2", "tau12")
                 if s[k] is not None]
        if s["feasible"]:
            feasible.append(s)
            if any(hi < 0 for _, hi in parts) or parts[0][1] <= 0:
                problems.append("a feasible solution has a negative component")
    glob = rep["global"]
    if rep["boundary_is_max"]:
        if feasible or glob is not None:
            problems.append("boundary_is_max set beside a feasible solution")
    elif glob not in feasible:
        problems.append("global solution is not a feasible solution")
    else:
        best = enclosure(glob["loglik"])
        for s in feasible:
            if s != glob and enclosure(s["loglik"])[1] >= best[0]:
                problems.append("the winner's loglik does not clear a rival")
    return problems


def check_outcome(line: dict) -> List[str]:
    """Problems with one fit's outcome against its task's expectations."""
    task, out = line["task"], line["outcome"]
    width = Fraction(line["width"])
    if "exception" in out:
        return [f"raised {out['exception']}: {out['message']}"]
    rep = out["report"]
    try:
        if task["kind"] == "cli":
            if out["exit"] != task["exit"]:
                return [f"exit {out['exit']}, expected {task['exit']}"]
            if task["exit"] != 0:
                kind = rep.get("error", {}).get("kind")
                return ([] if kind == task["error_kind"]
                        else [f"error kind {kind}, expected {task['error_kind']}"])
            if "ml" in rep:
                return (check_profile(rep["ml"], task, width)
                        + check_profile(rep["reml"], task, width))
            return check_twoway(rep, task, width)
        if task["kind"] == "twoway":
            return check_twoway(rep, task, width)
        return check_profile(rep, task, width)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]


# ----------------------------------------------------------------------
# References
# ----------------------------------------------------------------------

def compare(got, ref, key: str = "") -> List[str]:
    """Differences between an outcome and its reference.

    Values under INTERVAL_KEYS, and root {lo, hi} pairs, must intersect;
    everything else must be identical.
    """
    where = key or "outcome"
    if key in INTERVAL_KEYS and (ref is None or isinstance(ref, str) or (
            isinstance(ref, dict) and set(ref) == {"value", "error_bound"})):
        try:
            ok = _intersect(enclosure(got), enclosure(ref))
        except (TypeError, KeyError, ValueError):
            ok = False
        return [] if ok else [f"{where} misses the reference enclosure"]
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{where} has keys {sorted(got) if isinstance(got, dict) else got}"
                    f", reference has {sorted(ref)}"]
        out = []
        if {"lo", "hi"} <= set(ref):
            a = (Fraction(got["lo"]), Fraction(got["hi"]))
            b = (Fraction(ref["lo"]), Fraction(ref["hi"]))
            if not _intersect(a, b):
                out.append(f"{where} root interval misses the reference")
        for k in ref:
            if k in IGNORED_KEYS or k in ("lo", "hi"):
                continue
            out += compare(got[k], ref[k], k)
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where} has {len(got) if isinstance(got, list) else got}"
                    f" entries, reference has {len(ref)}"]
        out = []
        for g, r in zip(got, ref):
            out += compare(g, r, key)
        return out
    return [] if got == ref else [f"{where} is {got!r}, reference {ref!r}"]


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def reference_lines(workload: str) -> List[dict]:
    """The default seed's reference fits, in the worker's line format."""
    with open(reference_path(workload)) as fh:
        return json.load(fh)["fits"]


def load_references(workload: str) -> Dict[Tuple[int, int], dict]:
    """Reference outcomes of the default seed, keyed by (round, index)."""
    return {(r["round"], r["index"]): r["outcome"]
            for r in reference_lines(workload)}


def verify(lines: List[dict],
           references: Optional[Dict[Tuple[int, int], dict]] = None
           ) -> List[Tuple[dict, List[str]]]:
    """(line, problems) for every fit; empty problems means it passed."""
    out = []
    for line in lines:
        problems = check_outcome(line)
        ref = (references or {}).get((line["round"], line["index"]))
        if ref is not None:
            problems += compare(line["outcome"], ref)
        out.append((line, problems))
    return out


# ----------------------------------------------------------------------
# Workload descriptors
# ----------------------------------------------------------------------

def _equations(line: dict) -> List[Tuple[dict, int]]:
    """(equation, real roots) of every equation in one fit's report."""
    out, rep = line["outcome"], line["outcome"].get("report") or {}
    if "exception" in out or "error" in rep:
        return []
    reps = [rep["ml"], rep["reml"]] if "ml" in rep else [rep]
    res = []
    for r in reps:
        if "solutions" in r:
            res.append((r["equation"], len(r["solutions"])))
        else:
            res.append((r["equation"], len(r["roots"]) + r["negative_roots"]))
    return res


def describe(lines: List[dict], rounds: int) -> Dict[str, float]:
    """Properties of a run's inputs and equations that later gains may
    depend on; per-round figures are means over the rounds run."""
    eqs = [e for line in lines for e in _equations(line)]
    degrees = [len(eq["coeffs"]) - 1 for eq, _ in eqs]
    bits = [max(abs(c).bit_length() for c in eq["coeffs"]) for eq, _ in eqs]
    roots = [n for _, n in eqs]
    tasks = [line["task"] for line in lines]
    return {
        "workload.fits_per_round": len(lines) / rounds,
        "workload.equations_per_round": len(eqs) / rounds,
        "workload.max_degree": max(degrees, default=0),
        "workload.mean_degree": sum(degrees) / len(degrees) if degrees else 0,
        "workload.max_coeff_bits": max(bits, default=0),
        "workload.real_roots_per_equation":
            sum(roots) / len(roots) if roots else 0,
        "workload.csv_rows_per_round":
            sum(t.get("csv_rows", 0) for t in tasks) / rounds,
        "workload.csv_cells_per_round":
            sum(t.get("csv_cells", 0) for t in tasks) / rounds,
    }
