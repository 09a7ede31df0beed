"""Exact ingestion of CSV and JSON inputs, deterministic JSON reports.

Every numeric value is parsed as an exact rational: one grammar, that of
fractions.Fraction, reads each literal into an integer pair (n, d), so
"1.25" is (125, 100), never a binary float. A block of CSV rows whose
values are plain decimals with one number of places skips it: each
column is read as integers in one pass. The loaders sum the integers
over one common denominator. Reports carry each numeric field as an
exact "p/q" string or as a float with an outward-rounded error bound,
so serialization never manufactures precision.
"""

from __future__ import annotations

import csv
import json
import math
import re
from fractions import Fraction
from itertools import chain
from typing import Dict, Iterator, List, Optional, Tuple

from .covariates import DesignProblem
from .enclosure import Approx
from .errors import InputError
from .polynomials import UniPoly, descartes_sign_changes, rat
from .profilefit import FitReport
from .stats import OneWayStats, exact_count, summarize_ints
from .twoway import TwoWayFitReport, TwoWayStats, twoway_stats_ints


# Longer literals and JSON integers, or larger decimal exponents, are refused
# before they are built: "1e3000000" is a 3-million-digit integer.
MAX_LITERAL_CHARS = 1000
MAX_DECIMAL_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE][+-]?([0-9_]+)")
_MAX_INT = 10 ** MAX_LITERAL_CHARS
# The grammar of fractions.Fraction(str): sign, digits with _ separators
# (any Unicode decimal digits), then /q, or a decimal point and exponent.
_LITERAL = re.compile(r"([-+]?)(?=\d|\.\d)(\d*|\d+(?:_\d+)*)(?:/(\d+(?:_\d+)*)"
                      r"|(?:\.(\d*|\d+(?:_\d+)*))?(?:[eE]([-+]?\d+(?:_\d+)*))?)")


def _refusal(text: str, too_large: bool = False) -> InputError:
    if too_large or len(text) > MAX_LITERAL_CHARS or any(
            int(e.replace("_", "") or 0) > MAX_DECIMAL_EXPONENT
            for e in _EXPONENT.findall(text)):
        return InputError(f"numeric literal too large: {text[:40]!r}")
    return InputError(f"not a rational number: {text!r}")


def _pair(text: str) -> tuple:
    """(n, d) with d > 0 and n/d the value of the stripped literal text;
    refused as parse_rational refuses it."""
    if len(text) > MAX_LITERAL_CHARS or not (m := _LITERAL.fullmatch(text)):
        raise _refusal(text)
    sign, num, den, dec, exp = m.groups()
    if den:
        n, d = int(num), int(den)
    elif dec:
        n, d = int(num + dec), 10 ** (len(dec) - dec.count("_"))
    else:
        n, d = int(num), 1
    e = int(exp or 0)
    if abs(e) > MAX_DECIMAL_EXPONENT or not d:
        raise _refusal(text, too_large=abs(e) > MAX_DECIMAL_EXPONENT)
    if e:
        n, d = (n * 10 ** e, d) if e > 0 else (n, d * 10 ** -e)
    return (-n if sign == "-" else n), d


def parse_rational(value) -> Fraction:
    """Exact rational from "p/q", integer, or decimal-literal input; a
    literal past MAX_LITERAL_CHARS or MAX_DECIMAL_EXPONENT is refused."""
    if isinstance(value, str):
        return Fraction(*_pair(value.strip()))
    if isinstance(value, bool):
        raise InputError(f"not a rational number: {value!r}")
    if isinstance(value, float):
        raise InputError(
            f"refusing inexact float {value!r}; write it as a string "
            "literal such as \"1.25\" or \"5/4\"")
    if isinstance(value, int) and abs(value) >= _MAX_INT:
        raise InputError(f"numeric literal too large: {str(value)[:40]!r}")
    try:
        return rat(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InputError(f"not a rational number: {value!r}") from exc


# ----------------------------------------------------------------------
# CSV ingestion
# ----------------------------------------------------------------------

ONEWAY_HEADER = ["group", "value"]
TWOWAY_HEADER = ["row", "col", "rep", "value"]
# Rows read and converted at a time; at most one block past a refused row.
BLOCK_ROWS = 512


def _csv_rows(path: str) -> Iterator:
    """The stripped header, then (lines, rows) blocks of up to BLOCK_ROWS
    non-blank rows as wide as it, rows[i] on line lines[i]. A csv, width or
    UTF-8 fault ends a block and is raised after it, so the rows above it
    are checked first; a decode fault is placed by its file offset."""
    width = fault = None
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader, line, lines, rows = csv.reader(fh), 1, [], []
            try:
                for row in reader:
                    if len(row) == width:
                        lines.append(line)
                        rows.append(row)
                        if len(rows) == BLOCK_ROWS:
                            yield lines, rows
                            lines, rows = [], []
                    elif row and width is None:
                        width = len(row)
                        yield [cell.strip() for cell in row]
                    elif row:
                        fault = _at(path, line, f"expected {width} fields")
                        break
                    line = reader.line_num + 1
            except UnicodeDecodeError as exc:
                fault = InputError(f"{path}: malformed CSV: {exc}")
                if fh.seekable():   # exc.object ends where the buffer stands
                    at = fh.buffer.tell() - len(exc.object) + exc.start
                    fault = InputError(
                        f"{path}: malformed CSV: 'utf-8' codec can't decode "
                        f"byte 0x{exc.object[exc.start]:02x} at file offset "
                        f"{at}: {exc.reason}")
            except csv.Error as exc:
                fault = _at(path, line, f"malformed CSV: {exc}")
            if rows:
                yield lines, rows
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if fault or width is None:
        raise fault or InputError(f"{path}: empty CSV file")


def _at(path: str, line: int, what) -> InputError:
    return InputError(f"{path} line {line}: {what}")


def read_csv_rows(path: str) -> Tuple[List[str], Iterator]:
    """(header, blocks): one pass, shared by detect_csv_kind and a loader."""
    rows = _csv_rows(path)
    return next(rows), rows


def _columns(path: str, lines: List[int], columns) -> List[tuple]:
    """(xs, t) for each value column of a block, xs[i] / t its stripped i-th
    cell. A column of ASCII decimals with the k places of its first cell, all
    under the literal cap, is one bulk int conversion; else _pair per cell."""
    columns = [list(map(str.strip, col)) for col in columns]
    out = []
    for col in columns:
        k = len(col[0].partition(".")[2]) if col else 0
        cell = (f"[-+]?[0-9]{{1,{MAX_LITERAL_CHARS - 2 - k}}}"
                + (f"\\.[0-9]{{{k}}}" if k else ""))
        text = "\n".join(col)
        if k > MAX_LITERAL_CHARS - 3 or not re.fullmatch(
                f"(?:{cell}(?:\n{cell})*)?", text):
            break
        out.append((list(map(int, text.replace(".", "").split())), 10 ** k))
        if len(out[-1][0]) != len(col):     # a quoted cell held a newline
            break
    else:
        return out
    try:
        cols = [list(map(_pair, col)) for col in columns]
    except InputError:              # the first bad cell in row order
        for line, row in zip(lines, zip(*columns)):
            try:
                list(map(_pair, row))
            except InputError as exc:
                raise _at(path, line, exc) from None
        raise
    return [([n * (s // d) for n, d in col], s) for col in cols
            for s in [math.lcm(*{d for _, d in col})]]


def _one_scale(parts: List[tuple]) -> tuple:
    """(xs, s): the values of the (xs, t) blocks over s, the lcm of all t."""
    s = math.lcm(*(t for _, t in parts))
    return list(chain.from_iterable(
        xs if t == s else [x * (s // t) for x in xs] for xs, t in parts)), s


def _is_covariates_header(header: List[str]) -> bool:
    return (len(header) >= 3 and header[0] == "group" and header[1] == "y"
            and all(h == f"x{i}" for i, h in enumerate(header[2:], 1)))


def detect_csv_kind(path: str, header: List[str]) -> str:
    """oneway, covariates or twoway, read off the header of path."""
    if header == ONEWAY_HEADER:
        return "oneway"
    if header == TWOWAY_HEADER:
        return "twoway"
    if _is_covariates_header(header):
        return "covariates"
    raise InputError(
        f"{path}: unrecognized header {header}; expected "
        "group,value or group,y,x1,... or row,col,rep,value")


def load_oneway_csv(path: str, rows=None) -> OneWayStats:
    """Long-format "group,value" rows, groups in order of appearance."""
    header, blocks = rows or read_csv_rows(path)
    if header != ONEWAY_HEADER:
        raise InputError(f"{path}: header must be exactly group,value")
    labels, parts = [], []          # parts: the (xs, t) of each block
    for lines, block in blocks:
        names, cells = zip(*block)
        labels += map(str.strip, names)
        parts += _columns(path, lines, [cells])
    xs, s = _one_scale(parts)
    groups: Dict[str, List[int]] = {}
    for label, x in zip(labels, xs):
        groups.setdefault(label, []).append(x)
    return summarize_ints(list(groups.values()), s)


def load_covariates_csv(path: str, add_intercept: bool = False,
                        rows=None) -> DesignProblem:
    """Long-format "group,y,x1,...,xp" rows; groups pooled by label."""
    header, blocks = rows or read_csv_rows(path)
    if not _is_covariates_header(header):
        raise InputError(f"{path}: header must be group,y,x1,...")
    by_group: Dict[str, List[tuple]] = {}
    for lines, block in blocks:
        labels, *cells = zip(*block)
        values = [[Fraction(x, s) for x in xs]
                  for xs, s in _columns(path, lines, cells)]
        for label, vals in zip(map(str.strip, labels), zip(*values)):
            by_group.setdefault(label, []).append(vals)
    obs = [vals for group in by_group.values() for vals in group]
    one = (Fraction(1),) if add_intercept else ()
    return DesignProblem(tuple(v[0] for v in obs),
                         tuple(one + v[1:] for v in obs),
                         tuple(map(len, by_group.values())))


def load_twoway_csv(path: str) -> TwoWayStats:
    """Long-format "row,col,rep,value" for a complete balanced layout:
    levels in sorted label order, each (row, col, rep) cell exactly once."""
    header, blocks = read_csv_rows(path)
    if header != TWOWAY_HEADER:
        raise InputError(f"{path}: header must be exactly row,col,rep,value")
    keys, parts = {}, []            # the cells in file order, their blocks
    for lines, block in blocks:
        *factors, values = zip(*block)
        new = list(zip(*(map(str.strip, f) for f in factors)))
        j = len(new)
        if len(set(new)) < j or not keys.keys().isdisjoint(new):
            j = next(i for i, key in enumerate(new)
                     if key in keys or new.index(key) < i)
        parts += _columns(path, lines[:j], [values[:j]])  # before a repeat
        if j < len(new):
            raise _at(path, lines[j], f"duplicate cell {new[j]}")
        keys.update(dict.fromkeys(new))
    xs, s = _one_scale(parts)
    cells = dict(zip(keys, xs))
    rows_, cols, reps = (sorted({key[i] for key in cells}) for i in range(3))
    if len(cells) != len(rows_) * len(cols) * len(reps):
        raise InputError(
            f"{path}: incomplete layout; {len(cells)} cells, expected "
            f"{len(rows_)}x{len(cols)}x{len(reps)}")
    return twoway_stats_ints(
        [[[cells[a, b, c] for c in reps] for b in cols] for a in rows_], s)


# ----------------------------------------------------------------------
# Stats JSON ingestion
# ----------------------------------------------------------------------

def _load_json(path: str, required: set) -> dict:
    """The JSON object in path, whose keys must be exactly required."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # bad JSON or UTF-8, an over-long integer, or nesting too deep
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object")
    if set(doc) != required:
        raise InputError(
            f"{path}: keys must be exactly {sorted(required)}, "
            f"got {sorted(doc)}")
    return doc


def _count(value, path: str, key: str) -> int:
    """A JSON integer or decimal-digit string under MAX_LITERAL_CHARS
    digits; stats.exact_count refuses bool, float and fraction inputs."""
    if (isinstance(value, str) and len(value) <= MAX_LITERAL_CHARS
            and re.fullmatch(r"\s*[+-]?[0-9]+\s*", value)):
        value = int(value)
    n = exact_count(value, f"{path}: {key}")
    if abs(n) < _MAX_INT:
        return n
    raise InputError(f"{path}: {key} must hold integers, got {value!r:.60}")


def _array(doc: dict, path: str, key: str) -> list:
    if not isinstance(doc[key], list):
        raise InputError(f"{path}: {key} must be a JSON array")
    return doc[key]


def load_oneway_stats_json(path: str) -> OneWayStats:
    doc = _load_json(path, {"sizes", "mults", "means", "betweenSS",
                            "withinSS"})
    return OneWayStats(
        tuple(_count(n, path, "sizes") for n in _array(doc, path, "sizes")),
        tuple(_count(m, path, "mults") for m in _array(doc, path, "mults")),
        tuple(parse_rational(v) for v in _array(doc, path, "means")),
        tuple(parse_rational(v) for v in _array(doc, path, "betweenSS")),
        parse_rational(doc["withinSS"]))


def load_twoway_stats_json(path: str) -> TwoWayStats:
    doc = _load_json(path, {"r", "q", "n", "SSA", "SSB", "SSAB", "SSE"})
    return TwoWayStats(
        *(_count(doc[k], path, k) for k in ("r", "q", "n")),
        parse_rational(doc["SSA"]), parse_rational(doc["SSB"]),
        parse_rational(doc["SSAB"]), parse_rational(doc["SSE"]))


# ----------------------------------------------------------------------
# Value serialization
# ----------------------------------------------------------------------

_TOO_LARGE = "a reported value is too large to print; rescale the input"


def _text(value) -> str:
    """str(value); InputError past the interpreter's int-to-str limit."""
    try:
        return str(value)
    except ValueError as exc:
        raise InputError(_TOO_LARGE) from exc


def _outward_float(bound: Fraction) -> float:
    f = float(bound)
    while Fraction(f) < bound:
        f = math.nextafter(f, math.inf)
    return f


def float_with_bound(mid: Fraction, half: Fraction) -> dict:
    """Float midpoint plus an error bound covering both the enclosure
    half-width and the float rounding itself."""
    try:
        value = float(mid)
        bound = _outward_float(half + abs(mid - Fraction(value)))
    except OverflowError as exc:
        raise InputError(_TOO_LARGE) from exc
    return {"value": value, "error_bound": bound}


def ser_approx(a: Optional[Approx]):
    if a is None:
        return None
    if a.is_exact:
        return _text(a.lo)
    return float_with_bound(a.midpoint(), a.width() / 2)


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------

def oneway_report(rep: FitReport, method: str) -> dict:
    eq = rep.equation
    est = rep.global_estimates
    out = {
        "method": method,
        "equation": {
            "coeffs": eq.numerator.primitive().integer_coeffs(),
            "degree": eq.observed_degree,
            "expected_degree": eq.expected_degree,
            "sign_changes": descartes_sign_changes(eq.numerator),
        },
        "roots": [
            {"lo": _text(iv.lo), "hi": _text(iv.hi), "class": label}
            for iv, label in rep.stationary_points
        ],
        "global": {
            "theta": ser_approx(est.theta),
            "mu": ser_approx(est.mu),
            "omega": ser_approx(est.omega),
            "tau": ser_approx(est.tau),
            "loglik": ser_approx(est.loglik),
        },
        "boundary_is_max": rep.boundary_is_max,
        "tie": rep.tie,
        "negative_roots": rep.negative_roots,
    }
    if est.beta is not None:
        out["global"]["beta"] = [ser_approx(b) for b in est.beta]
    return out


def _ser_solution(sol) -> dict:
    return {
        "omega": ser_approx(sol.omega),
        "tau1": ser_approx(sol.tau1),
        "tau2": ser_approx(sol.tau2),
        "tau12": ser_approx(sol.tau12),
        "feasible": sol.feasible,
        "loglik": ser_approx(sol.loglik),
    }


def twoway_report(rep: TwoWayFitReport) -> dict:
    quartic = rep.quartic.primitive()
    out = {
        "model": rep.model,
        "mu": None if rep.mu is None else _text(rep.mu),
        "omega_hat": None if rep.omega_hat is None else _text(rep.omega_hat),
        "equation": {
            "coeffs": quartic.integer_coeffs(),
            "variable": quartic.var,
            "degree": rep.observed_degree,
            "expected_degree": 4,
            "sign_changes": descartes_sign_changes(quartic),
        },
        # tau = t(omega) as t.den * tau - t.ints(omega) = 0
        "relations": {
            name: None if t is None else {
                "tau_coeff": t.den,
                "omega_coeffs": [-c for c in t.ints],
            }
            for name, t in (("tau1", rep.tau1_relation),
                            ("tau2", rep.tau2_relation))
        },
        "solutions": [_ser_solution(s) for s in rep.solutions],
        "global": None if rep.global_solution is None
        else _ser_solution(rep.global_solution),
        "boundary_is_max": rep.boundary,
        "nongeneric": rep.nongeneric,
        "tie": rep.tie,
    }
    return out


def error_report(kind: str, message: str) -> dict:
    return {"error": {"kind": kind, "message": message}}


def dumps(obj) -> str:
    """Deterministic JSON: sorted keys, fixed separators, one trailing
    newline. Ints past the interpreter's digit limit raise InputError."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    except ValueError as exc:
        raise InputError(_TOO_LARGE) from exc


def emit_poly_text(p: UniPoly) -> str:
    """Primitive integer coefficients, lowest degree first, one per line."""
    return "".join(_text(c) + "\n" for c in p.primitive().integer_coeffs())
