"""Seeded inputs for the benchmark workloads.

Each workload is a list of rounds; round k's fits come from
random.Random(f"{workload}:{seed}:{k}"), so a seed fixes every input and,
apart from tight_width's penicillin fit, no two rounds repeat one (a
cache keyed on the input cannot turn later rounds into lookups). Inputs
are plain Python data (ints, Fractions, CSV text). The worker turns them into exactvc objects inside the timed
region, because building them is part of what a caller pays.

This module does not import exactvc.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Tuple

WORKLOADS = ("oneway_ladder", "small_models", "tight_width", "cli_csv")

DEFAULT_SEED = 0

DEFAULT_WIDTH = Fraction(1, 10 ** 12)
TIGHT_WIDTH = Fraction(1, 10 ** 300)

# Distinct-size counts of the one-way ladder. ML degree is 3M + M2 - 3,
# so the rungs give numerators of degree 18, 25, 32 and 39. M = 16 and
# above cost tens of seconds per fit, too long to repeat within one run.
LADDER = (6, 8, 10, 12)

# Distinct-size counts of tight_width; refining to 1e-300 makes even these
# cost 0.1-0.6 s a fit, and more rungs would leave too few rounds a run.
TIGHT_LADDER = (3, 4, 5, 6)

# (groups, covariates besides the intercept) of the covariate designs in
# each small_models round; fixed shapes keep the cost of a round steady.
COVARIATE_SHAPES = ((6, 4), (8, 3), (10, 2), (14, 1))

# Trimodal-fixture layout: five singleton size classes.
TRIMODAL_SIZES = (2, 5, 10, 20, 50)

# The penicillin sums of squares (24 plates x 6 samples, one replicate).
PENICILLIN = dict(r=24, q=6, n=1, SSA=Fraction(953, 9), SSB=Fraction(4043, 9),
                  SSAB=Fraction(313, 9), SSE=Fraction(0))


def _rng(workload: str, seed: int, round_no: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_no}")


def _cents(rng: random.Random, lo: int, hi: int) -> Fraction:
    """A two-decimal value in [lo/100, hi/100), as data are usually recorded."""
    return Fraction(rng.randrange(lo, hi), 100)


# ----------------------------------------------------------------------
# One-way sufficient statistics
# ----------------------------------------------------------------------

def oneway_stats(rng: random.Random, M: int) -> dict:
    """Statistics for group sizes 2, ..., M + 1, every second size shared
    by two groups. Only the values are random: the size profile sets the
    degree and most of the cost, so fixing it keeps rounds comparable."""
    mults = [1 + (i % 2) for i in range(M)]
    return {
        "sizes": list(range(2, M + 2)),
        "mults": mults,
        "means": [_cents(rng, -5000, 5000) for _ in range(M)],
        "betweenSS": [_cents(rng, 100, 50000) if m >= 2 else Fraction(0)
                      for m in mults],
        "withinSS": _cents(rng, 10000, 100000),
    }


def trimodal_stats(rng: random.Random) -> dict:
    """Five singleton classes with rational means, like the trimodal fixture."""
    k = len(TRIMODAL_SIZES)
    return {
        "sizes": list(TRIMODAL_SIZES),
        "mults": [1] * k,
        "means": [Fraction(rng.randrange(-99999, 99999),
                           rng.randrange(1000, 99999)) for _ in range(k)],
        "betweenSS": [Fraction(0)] * k,
        "withinSS": Fraction(rng.randrange(10 ** 5, 10 ** 6),
                             rng.randrange(100, 3000)),
    }


def _oneway_fits(stats: dict, width: Fraction, label: str) -> List[dict]:
    M = len(stats["sizes"])
    M2 = sum(1 for m in stats["mults"] if m >= 2)
    return [{"kind": "oneway", "label": label, "method": method,
             "stats": stats, "width": width, "M": M, "M2": M2}
            for method in ("ML", "REML")]


# ----------------------------------------------------------------------
# Covariate designs
# ----------------------------------------------------------------------

def _full_rank(rows: List[List[Fraction]]) -> bool:
    m = [list(r) for r in rows]
    rank = 0
    for col in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            return False
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][col] / m[rank][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return True


def covariate_design(rng: random.Random, q: int, p: int) -> dict:
    """q groups of 2, 3, 4, 5, 2, ... rows, an intercept and p integer
    covariates.

    The group sizes are fixed so that designs of one shape cost about
    the same; the response carries a group effect, so the variance ratio
    is usually interior, and has one decimal, like a measured response.
    """
    sizes = [2 + i % 4 for i in range(q)]
    while True:
        x, y = [], []
        for g in sizes:
            effect = rng.randrange(-300, 300)
            for _ in range(g):
                covs = [Fraction(rng.randrange(-9, 10)) for _ in range(p)]
                x.append([Fraction(1)] + covs)
                y.append(Fraction(effect + rng.randrange(-200, 200)
                                  + 3 * sum(covs), 10))
        if _full_rank(x):
            return {"y": y, "x": x, "sizes": sizes}


# ----------------------------------------------------------------------
# Two-way sums of squares
# ----------------------------------------------------------------------

def twoway_ss(rng: random.Random) -> dict:
    """Balanced-layout sums of squares with clear main effects.

    Mean squares are drawn per degree of freedom so the main effects
    dominate the interaction; the interaction model needs replicates.
    """
    r, q, n = rng.randint(2, 30), rng.randint(2, 30), rng.randint(1, 4)
    return {
        "r": r, "q": q, "n": n,
        "SSA": _cents(rng, 500, 4000) * (r - 1) * q * n,
        "SSB": _cents(rng, 500, 4000) * (q - 1) * r * n,
        "SSAB": _cents(rng, 50, 200) * (r - 1) * (q - 1),
        "SSE": _cents(rng, 50, 200) * r * q * (n - 1),
    }


def _twoway_fit(ss: dict, model: str, width: Fraction, label: str) -> dict:
    return {"kind": "twoway", "label": label, "model": model, "ss": ss,
            "width": width}


# ----------------------------------------------------------------------
# CSV files for the command line
# ----------------------------------------------------------------------

def _fixed(units: int, places: int) -> str:
    """units / 10**places as an exact decimal literal."""
    sign = "-" if units < 0 else ""
    whole, frac = divmod(abs(units), 10 ** places)
    return f"{sign}{whole}.{frac:0{places}d}"


def _csv(header: List[str], rows: List[List[str]]) -> str:
    return "\n".join(",".join(r) for r in [header] + rows) + "\n"


def oneway_csv(rng: random.Random) -> Tuple[str, dict]:
    """300 groups over the sizes 2, 3, 4, 6 and 8, two-decimal values.

    Returns the CSV text and the M and M2 of its size profile.
    """
    rows, counts = [], {}
    for g in range(300):
        mean = rng.randrange(-5000, 5000)
        size = rng.choice((2, 3, 4, 6, 8))
        counts[size] = counts.get(size, 0) + 1
        for _ in range(size):
            v = mean + rng.randrange(-2000, 2000)
            rows.append([f"g{g}", _fixed(v, 2)])
    profile = {"M": len(counts),
               "M2": sum(1 for m in counts.values() if m >= 2)}
    return _csv(["group", "value"], rows), profile


def twoway_csv(rng: random.Random) -> str:
    """A complete balanced 40 x 25 layout with 2 replicates: 2,000 rows."""
    r, q, n = 40, 25, 2
    row_eff = [rng.randrange(-3000, 3000) for _ in range(r)]
    col_eff = [rng.randrange(-3000, 3000) for _ in range(q)]
    rows = []
    for a in range(r):
        for b in range(q):
            cell = row_eff[a] + col_eff[b] + rng.randrange(-500, 500)
            for c in range(n):
                v = cell + rng.randrange(-300, 300)
                rows.append([f"r{a}", f"c{b}", f"k{c}", _fixed(v, 2)])
    return _csv(["row", "col", "rep", "value"], rows)


def covariates_csv(rng: random.Random) -> str:
    d = covariate_design(rng, 10, 2)
    rows, i = [], 0
    for g, size in enumerate(d["sizes"]):
        for _ in range(size):
            rows.append([f"g{g}", _fixed(int(d["y"][i] * 10), 1)]
                        + [str(v) for v in d["x"][i][1:]])
            i += 1
    return _csv(["group", "y", "x1", "x2"], rows)


def _cli_fit(label: str, argv: List[str], name: str, text: str,
             exit_code: int = 0, error_kind: str = None, **meta) -> dict:
    """A cli.main call on one generated file; argv names it as {file}."""
    header, *body = text.splitlines()
    return {"kind": "cli", "label": label, "argv": argv, "file": name,
            "text": text, "exit": exit_code, "error_kind": error_kind,
            "width": DEFAULT_WIDTH, "csv_rows": len(body),
            "csv_cells": sum(len(r.split(",")) for r in body), **meta}


def _cli_error_cases(rng: random.Random) -> List[dict]:
    """Inputs whose documented outcome is exit 2, 3 or 4."""
    v = [_fixed(rng.randrange(100, 999), 1) for _ in range(3)]
    bad_cell = _csv(["group", "value"],
                    [["a", v[0]], ["a", "1.2.3"], ["b", v[1]], ["b", v[2]]])
    one_group = _csv(["group", "value"], [["a", x] for x in v[:4]])
    flat = _csv(["group", "value"],
                [["a", v[0]], ["a", v[0]], ["b", v[1]], ["b", v[1]],
                 ["c", v[2]]])
    return [
        _cli_fit("malformed-cell", ["fit-oneway", "--csv", "{file}"],
                 "bad.csv", bad_cell, 2, "input"),
        _cli_fit("single-group", ["fit-oneway", "--csv", "{file}"],
                 "single.csv", one_group, 3, "model-assumption"),
        _cli_fit("no-within-variation", ["fit-oneway", "--csv", "{file}"],
                 "flat.csv", flat, 4, "degenerate"),
    ]


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------

def make_round(workload: str, seed: int, round_no: int,
               tiny: bool = False) -> List[dict]:
    """The fits of one round. tiny keeps the smallest fit of each family,
    for the self-tests."""
    rng = _rng(workload, seed, round_no)
    if workload == "oneway_ladder":
        ladder = LADDER[:1] if tiny else LADDER
        return [f for M in ladder
                for f in _oneway_fits(oneway_stats(rng, M), DEFAULT_WIDTH,
                                      f"M={M}")]
    if workload == "small_models":
        shapes = [(6, 1)] if tiny else COVARIATE_SHAPES
        fits = []
        for q, p in shapes:
            d = covariate_design(rng, q, p)
            fits += [{"kind": "covariates", "label": f"q={q},p={p}",
                      "method": method, "design": d, "width": DEFAULT_WIDTH}
                     for method in ("ML", "REML")]
        for i in range(2 if tiny else 8):
            ss = twoway_ss(rng)
            model = "interaction" if ss["n"] > 1 and i % 2 else "additive"
            fits.append(_twoway_fit(ss, model, DEFAULT_WIDTH, model))
        for _ in range(1 if tiny else 2):
            fits += _oneway_fits(trimodal_stats(rng), DEFAULT_WIDTH,
                                 "trimodal")
        return fits
    if workload == "tight_width":
        ladder = TIGHT_LADDER[:1] if tiny else TIGHT_LADDER
        fits = [f for M in ladder
                for f in _oneway_fits(oneway_stats(rng, M), TIGHT_WIDTH,
                                      f"M={M}")]
        fits.append(_twoway_fit(dict(PENICILLIN), "additive", TIGHT_WIDTH,
                                "penicillin"))
        return fits
    if workload == "cli_csv":
        text, profile = oneway_csv(rng)
        fits = [
            _cli_fit("oneway", ["fit-oneway", "--csv", "{file}"],
                     "oneway.csv", text, **profile),
            _cli_fit("covariates",
                     ["fit-oneway", "--csv", "{file}", "--add-intercept"],
                     "covariates.csv", covariates_csv(rng)),
        ]
        if not tiny:
            fits.append(_cli_fit(
                "twoway", ["fit-twoway", "--csv", "{file}",
                           "--model", "interaction"],
                "twoway.csv", twoway_csv(rng)))
        return fits + _cli_error_cases(rng)
    raise ValueError(f"unknown workload {workload!r}")
