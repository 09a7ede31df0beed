"""Exact ingestion of CSV and JSON inputs, deterministic JSON reports.

Every numeric value is parsed as an exact rational: one grammar, that of
fractions.Fraction, reads each literal straight into an integer pair
(n, d), so "1.25" is (125, 100), never a binary float, and the CSV
loaders sum those integers over one common denominator. Reports carry
each numeric field either as an exact "p/q" string or as a float with
an explicit error bound that is rounded outward, so serialization never
manufactures precision.
"""

from __future__ import annotations

import csv
import json
import math
import re
from fractions import Fraction
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


def _csv_rows(path: str) -> Iterator[Tuple[int, List[str]]]:
    """(line, cells) of each non-blank row, cells stripped, read lazily so a
    loader refuses a bad row before the rest of the file is decoded. line
    is where the row starts, as csv counts lines; every row is as wide as
    the header. A decode fault is placed by its file offset: the bytes the
    reader failed on (exc.object) end where its binary buffer stands."""
    width = None
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader, line = csv.reader(fh), 1
            try:
                for row in reader:
                    if row:
                        width = width or len(row)
                        if len(row) != width:
                            raise _at(path, line, f"expected {width} fields")
                        yield line, [cell.strip() for cell in row]
                    line = reader.line_num + 1
            except UnicodeDecodeError as exc:
                if not fh.seekable():
                    raise InputError(f"{path}: malformed CSV: {exc}") from exc
                at = fh.buffer.tell() - len(exc.object) + exc.start
                raise InputError(
                    f"{path}: malformed CSV: 'utf-8' codec can't decode "
                    f"byte 0x{exc.object[exc.start]:02x} at file offset "
                    f"{at}: {exc.reason}") from exc
            except csv.Error as exc:
                raise _at(path, line, f"malformed CSV: {exc}") from exc
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if width is None:
        raise InputError(f"{path}: empty CSV file")


def _at(path: str, line: int, what) -> InputError:
    return InputError(f"{path} line {line}: {what}")


def read_csv_rows(path: str) -> Tuple[List[str], Iterator]:
    """(header, iterator over the remaining (line, cells) rows): one pass,
    which detect_csv_kind and a loader given rows share, as a pipe needs."""
    rows = _csv_rows(path)
    return next(rows)[1], rows


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
    header, body = rows or read_csv_rows(path)
    if header != ONEWAY_HEADER:
        raise InputError(f"{path}: header must be exactly group,value")
    groups: Dict[str, List[tuple]] = {}
    for line, row in body:
        try:
            pair = _pair(row[1])
        except InputError as exc:
            raise _at(path, line, exc) from None
        groups.setdefault(row[0], []).append(pair)
    s = math.lcm(*{d for g in groups.values() for _, d in g})
    return summarize_ints(
        [[n * (s // d) for n, d in g] for g in groups.values()], s)


def load_covariates_csv(path: str, add_intercept: bool = False,
                        rows=None) -> DesignProblem:
    """Long-format "group,y,x1,...,xp" rows; groups pooled by label."""
    header, body = rows or read_csv_rows(path)
    if not _is_covariates_header(header):
        raise InputError(f"{path}: header must be group,y,x1,...")
    by_group: Dict[str, List[List[Fraction]]] = {}
    for line, row in body:
        try:
            vals = [parse_rational(v) for v in row[1:]]
        except InputError as exc:
            raise _at(path, line, exc) from None
        by_group.setdefault(row[0], []).append(vals)
    y: List[Fraction] = []
    x: List[List[Fraction]] = []
    sizes: List[int] = []
    for label in by_group:
        rows = by_group[label]
        sizes.append(len(rows))
        for vals in rows:
            y.append(vals[0])
            covs = vals[1:]
            x.append([Fraction(1)] + covs if add_intercept else covs)
    return DesignProblem(tuple(y), tuple(tuple(r) for r in x), tuple(sizes))


def load_twoway_csv(path: str) -> TwoWayStats:
    """Long-format "row,col,rep,value" for a complete balanced layout.

    Levels are ordered by sorted label; every (row, col, rep) cell must
    appear exactly once.
    """
    header, body = read_csv_rows(path)
    if header != TWOWAY_HEADER:
        raise InputError(f"{path}: header must be exactly row,col,rep,value")
    cells: Dict[tuple, tuple] = {}
    for line, row in body:
        key = (row[0], row[1], row[2])
        if key in cells:
            raise _at(path, line, f"duplicate cell {key}")
        try:
            cells[key] = _pair(row[3])
        except InputError as exc:
            raise _at(path, line, exc) from None
    rows_ = sorted({k[0] for k in cells})
    cols = sorted({k[1] for k in cells})
    reps = sorted({k[2] for k in cells})
    if len(cells) != len(rows_) * len(cols) * len(reps):
        raise InputError(
            f"{path}: incomplete layout; {len(cells)} cells, expected "
            f"{len(rows_)}x{len(cols)}x{len(reps)}")
    s = math.lcm(*{d for _, d in cells.values()})
    x = {key: n * (s // d) for key, (n, d) in cells.items()}
    return twoway_stats_ints(
        [[[x[a, b, c] for c in reps] for b in cols] for a in rows_], s)


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
