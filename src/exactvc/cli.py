"""Command-line surface: fit commands, degree formulas, randomized audit.

Exit codes: 0 success, 2 malformed input, 3 model-assumption violation,
4 degenerate-data or tie diagnostics, 1 a failed internal certificate (a
bug). All reports go to standard output as deterministic JSON (sorted
keys); --emit-poly switches a fit command to bare coefficient lines for
diff-based comparison.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction
from functools import cache
from typing import List, Optional

from . import covariates as cov
from . import io as xio
from . import oneway
from .errors import (DegenerateDesignError, ExactVCError, InputError,
                     ModelAssumptionError)
from .profilefit import REFINE_WIDTH, profile_equation, profile_fit
from .stats import (OneWayStats, check_layout, ml_degree, multiplicity_profile,
                    reml_degree)
from .twoway import fit_twoway

EXIT_OK = 0
EXIT_DIAGNOSTIC = 4
# the exit code of each error kind (ExactVCError.kind)
EXIT_CODES = {"input": 2, "model-assumption": 3,
              "degenerate": EXIT_DIAGNOSTIC, "internal": 1}


@cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: a parse leaves no state in the parser."""
    parser = argparse.ArgumentParser(
        prog="exactvc",
        description="Exact variance-components estimation: certified "
                    "solutions of ML and REML critical equations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_fit_common(p):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--csv", metavar="PATH",
                         help="long-format CSV input")
        src.add_argument("--stats", metavar="PATH",
                         help="sufficient-statistics JSON input")
        p.add_argument("--refine-width", default=str(REFINE_WIDTH),
                       metavar="RAT",
                       help="width to which root enclosures are refined "
                            "(exact rational, default 10^-12)")
        p.add_argument("--emit-poly", action="store_true",
                       help="print the primitive integer coefficients of "
                            "the profile polynomial, lowest degree first, "
                            "one per line, instead of the JSON report")

    fo = sub.add_parser(
        "fit-oneway",
        help="unbalanced one-way layout, optional covariates")
    fo.add_argument("--method", choices=["ML", "REML", "both"],
                    default="both")
    add_fit_common(fo)
    fo.add_argument("--add-intercept", action="store_true",
                    help="prepend an all-ones column to a covariates CSV")

    ft = sub.add_parser("fit-twoway", help="balanced two-way layout")
    ft.add_argument("--model", choices=["additive", "interaction"],
                    default="additive")
    add_fit_common(ft)

    dg = sub.add_parser(
        "degree",
        help="predicted cancelled-numerator degrees for a size profile")
    dg.add_argument("--sizes", required=True, metavar="N1,N2,...",
                    help="comma-separated group sizes, repeats allowed")

    au = sub.add_parser(
        "audit",
        help="randomized check of the degree formulas (and, with "
             "--covariates, the conjectured degree ceiling)")
    au.add_argument("--q", type=int, required=True,
                    help="number of groups per instance")
    au.add_argument("--trials", type=int, required=True)
    au.add_argument("--seed", type=int, default=0)
    au.add_argument("--covariates", type=int, default=None, metavar="P",
                    help="audit intercept+P-column covariate designs "
                         "against the conjectured ceiling instead")
    return parser


# ----------------------------------------------------------------------
# fit-oneway
# ----------------------------------------------------------------------

def _methods(method: str) -> List[str]:
    return ["ML", "REML"] if method == "both" else [method]


def _run_fit_oneway(args) -> int:
    width = xio.parse_rational(args.refine_width)
    if width <= 0:
        raise InputError("refine width must be positive")
    if args.emit_poly and args.method == "both":
        raise InputError("--emit-poly requires a single method, not both")
    rows = xio.read_csv_rows(args.csv) if args.csv else None
    kind = xio.detect_csv_kind(args.csv, rows[0]) if rows else "stats"
    if kind == "twoway":
        raise InputError(f"{args.csv}: two-way CSV given to fit-oneway")
    if args.add_intercept and kind != "covariates":
        raise InputError("--add-intercept applies only to a covariates CSV")
    if kind == "stats":
        subject = xio.load_oneway_stats_json(args.stats)
    elif kind == "oneway":
        subject = xio.load_oneway_csv(args.csv, rows)
    else:
        subject = xio.load_covariates_csv(
            args.csv, add_intercept=args.add_intercept, rows=rows)
    module = oneway if isinstance(subject, OneWayStats) else cov
    prof = module.gls_profile(subject)
    fits = {m: profile_fit(prof, m, width) for m in _methods(args.method)}
    if args.emit_poly:
        only = fits[_methods(args.method)[0]]
        sys.stdout.write(xio.emit_poly_text(only.equation.numerator))
    elif args.method == "both":
        sys.stdout.write(xio.dumps({
            "ml": xio.oneway_report(fits["ML"], "ML"),
            "reml": xio.oneway_report(fits["REML"], "REML"),
        }))
    else:
        sys.stdout.write(xio.dumps(
            xio.oneway_report(fits[args.method], args.method)))
    return EXIT_DIAGNOSTIC if any(f.tie for f in fits.values()) else EXIT_OK


# ----------------------------------------------------------------------
# fit-twoway
# ----------------------------------------------------------------------

def _run_fit_twoway(args) -> int:
    width = xio.parse_rational(args.refine_width)
    if width <= 0:
        raise InputError("refine width must be positive")
    if not args.csv:
        stats = xio.load_twoway_stats_json(args.stats)
    else:
        stats = xio.load_twoway_csv(args.csv)
    rep = fit_twoway(stats, model=args.model, refine_width=width)
    if args.emit_poly:
        sys.stdout.write(xio.emit_poly_text(rep.quartic))
    else:
        sys.stdout.write(xio.dumps(xio.twoway_report(rep)))
    diagnostic = rep.tie or rep.nongeneric is not None
    return EXIT_DIAGNOSTIC if diagnostic else EXIT_OK


# ----------------------------------------------------------------------
# degree
# ----------------------------------------------------------------------

def _run_degree(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError as exc:
        raise InputError(f"bad --sizes value {args.sizes!r}") from exc
    M, _, M2 = multiplicity_profile(sizes)
    check_layout(len(sizes), max(sizes))
    sys.stdout.write(xio.dumps(
        {"ml": ml_degree(M, M2), "reml": reml_degree(M, M2)}))
    return EXIT_OK


# ----------------------------------------------------------------------
# audit
# ----------------------------------------------------------------------

def _random_oneway_stats(rng: random.Random, q: int) -> OneWayStats:
    while True:
        sizes = [rng.randint(1, 30) for _ in range(q)]
        if max(sizes) >= 2:
            break
    _, mults, _ = multiplicity_profile(sizes)
    distinct = sorted(set(sizes))
    means = [Fraction(rng.randint(-40, 40), rng.randint(1, 8))
             for _ in distinct]
    between = [Fraction(0) if m == 1
               else Fraction(rng.randint(1, 60), rng.randint(1, 8))
               for m in mults]
    within = Fraction(rng.randint(1, 90), rng.randint(1, 8))
    return OneWayStats(tuple(distinct), tuple(mults), tuple(means),
                       tuple(between), within)


def _instance_payload(st: OneWayStats) -> dict:
    return {
        "sizes": list(st.sizes), "mults": list(st.mults),
        "means": [str(v) for v in st.means],
        "betweenSS": [str(v) for v in st.betweenSS],
        "withinSS": str(st.withinSS),
    }


def _audit_oneway(rng: random.Random, q: int, trials: int) -> dict:
    matches = 0
    mismatches = []
    for _ in range(trials):
        st = _random_oneway_stats(rng, q)
        finding = {}
        prof = oneway.gls_profile(st)
        for name in ("ml", "reml"):
            eq = profile_equation(prof, name.upper())
            if not eq.degree_matches():
                finding[name] = {"observed": eq.observed_degree,
                                 "expected": eq.expected_degree}
        if finding:
            finding["instance"] = _instance_payload(st)
            mismatches.append(finding)
        else:
            matches += 1
    return {"degree_matches": matches, "degree_mismatches": mismatches}


# Draws tried for one audit design. Near the 5q - 2 cap nearly every group
# must draw 5 rows (1 in 5^q draws), so the search needs an end.
_MAX_DESIGN_DRAWS = 10_000


def _random_design(rng: random.Random, q: int, p_extra: int) -> cov.DesignProblem:
    for _ in range(_MAX_DESIGN_DRAWS):
        sizes = [rng.randint(1, 5) for _ in range(q)]
        if max(sizes) < 2:
            continue
        n = sum(sizes)
        if n <= 1 + p_extra:
            continue
        y = tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 6))
                  for _ in range(n))
        x = tuple(
            tuple([Fraction(1)]
                  + [Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                     for _ in range(p_extra)])
            for _ in range(n))
        try:
            return cov.DesignProblem(y, x, tuple(sizes))
        except ModelAssumptionError:
            continue
    raise InputError(
        f"no full-rank design with more rows than its {p_extra + 1} columns "
        f"in {_MAX_DESIGN_DRAWS} random draws; lower --covariates")


def _audit_covariates(rng: random.Random, q: int, trials: int,
                      p_extra: int) -> dict:
    checked = 0
    skipped = 0
    violations = []
    for _ in range(trials):
        design = _random_design(rng, q, p_extra)
        finding = {}
        prof = cov.gls_profile(design)
        for name in ("ml", "reml"):
            try:
                eq = profile_equation(prof, name.upper())
            except DegenerateDesignError:
                skipped += 1
                finding = {}
                break
            bound = cov.conjecture_bound(design, name.upper())
            if bound is not None and eq.observed_degree > bound:
                finding[name] = {"observed": eq.observed_degree,
                                 "bound": bound}
        else:
            checked += 1
            if finding:
                finding["instance"] = {
                    "group_sizes": list(design.group_sizes),
                    "y": [str(v) for v in design.y],
                    "x": [[str(v) for v in row] for row in design.x],
                }
                violations.append(finding)
    return {"conjecture": {"checked": checked, "skipped": skipped,
                           "violations": violations}}


def _run_audit(args) -> int:
    if args.q < 2:
        raise InputError("--q must be at least 2")
    if args.trials < 1:
        raise InputError("--trials must be positive")
    if args.covariates is not None and args.covariates < 0:
        raise InputError("--covariates must be nonnegative")
    if args.covariates is not None and args.covariates > 5 * args.q - 2:
        # groups of 1..5 rows must hold more rows than the P + 1 columns
        raise InputError("--covariates must be at most 5q - 2 so that the "
                         "random groups can outnumber the columns")
    rng = random.Random(args.seed)
    report = {
        "command": "audit", "q": args.q, "trials": args.trials,
        "seed": args.seed, "covariates": args.covariates,
    }
    if args.covariates is None:
        report.update(_audit_oneway(rng, args.q, args.trials))
    else:
        report.update(
            _audit_covariates(rng, args.q, args.trials, args.covariates))
    sys.stdout.write(xio.dumps(report))
    return EXIT_OK


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------

_HANDLERS = {
    "fit-oneway": _run_fit_oneway,
    "fit-twoway": _run_fit_twoway,
    "degree": _run_degree,
    "audit": _run_audit,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ExactVCError as exc:
        sys.stdout.write(xio.dumps(xio.error_report(exc.kind, str(exc))))
        return EXIT_CODES[exc.kind]


if __name__ == "__main__":
    sys.exit(main())
