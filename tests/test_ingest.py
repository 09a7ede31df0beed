"""CSV cells to exact totals: the literal grammar, the loaders' integer
path, and the refusals a user sees.

Every literal is read once into an integer pair (n, d). These tests hold
that pair parser to fractions.Fraction(str) behind the literal caps, the
loaders to the Fraction-sum oracles of tests/conftest.py, the block
loaders to the per-row loaders kept there, and the command line to its
pinned refusal reports.
"""

import contextlib
import dataclasses
import fractions
import io
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import tokenize
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from exactvc import io as xio
from exactvc import stats, twoway
from exactvc.cli import main
from exactvc.errors import ExactVCError, InputError
from exactvc.stats import GroupedData, summarize
from exactvc.twoway import twoway_stats

from conftest import (load_covariates_csv_reference,
                      load_oneway_csv_reference, load_twoway_csv_reference,
                      summarize_reference, twoway_stats_reference)


# -- the literal grammar ------------------------------------------------------

def parse_reference(value: str):
    """("ok", Fraction) or ("refused", message) for a string, as the
    caps and then Fraction(str) decide it. The exponent cap also holds
    for an exponent written in non-ASCII digits, which an ASCII-only scan
    of the text would miss."""
    text = value.strip()
    too_large = f"numeric literal too large: {text[:40]!r}"
    if len(text) > xio.MAX_LITERAL_CHARS or any(
            int(e.replace("_", "") or 0) > xio.MAX_DECIMAL_EXPONENT
            for e in re.findall(r"[eE][+-]?([0-9_]+)", text)):
        return "refused", too_large
    m = fractions._RATIONAL_FORMAT.match(text)
    if m and m.group("exp") and (abs(int(m.group("exp")))
                                   > xio.MAX_DECIMAL_EXPONENT):
        return "refused", too_large
    try:
        return "ok", F(text)
    except (ValueError, ZeroDivisionError):
        return "refused", f"not a rational number: {text!r}"


def parse_pair(value: str):
    try:
        n, d = xio._pair(value.strip())
    except InputError as exc:
        return "refused", str(exc)
    assert type(n) is int and type(d) is int and d > 0
    return "ok", F(n, d)


def parse_public(value: str):
    try:
        return "ok", xio.parse_rational(value)
    except InputError as exc:
        return "refused", str(exc)


EDGE_LITERALS = [
    # digit groups and Unicode digits
    "1_000", "1_000.000_1", "1__0", "_1", "1_", "1._5", "1e1_0", "5_/2",
    "2/1_0", "٣", "٣.٥", "١/٢", "1e٣",
    "１２",
    # the decimal point
    "1.", ".5", "-.5", "+.5e1", ".", "1.d", "1.D", "1.dE5", "1.e3", "1.2.3",
    # p/q
    "3/4", "-3/4", "+3/4", "2/4", "0/7", "3/0", "0/0", "-5/0", "3 / 4",
    "3/ 4", "3 /4", "1/2/3", "1.5/2", "1/2e3", "1e5/0",
    # signs and whitespace
    "-", "+", "", " ", "- 1", "+-1", "--1", "-0.0", "+0", "00.00",
    "\t-2.5e-3\n", "  7  ", " 1 ", "1\x002", "\x00", "1\n2",
    "1\r", "\x1c3\x1f",
    # exponents at and past the cap
    "1e1000", "1e-1000", "1E+1000", "1e1001", "1e-1001", "1e+1001",
    "-2.5E-1_000", "1e1_001", "1e١٠٠٠",
    "1e١٠٠١", "1e5٠٠٠", "1e", "e5",
    "1e+", "1e5x", "x1e5000", "1e3000000",
    # literal length at and past the cap
    "7" * 1000, "7" * 1001, " " + "7" * 1000 + " ", "0." + "1" * 998,
    "0." + "1" * 999, "1/" + "3" * 998, "-" + "9" * 999, "-" + "9" * 1000,
    # not numbers at all
    "abc", "0x10", "inf", "nan", "1,5", "1 000", "½",
]


@pytest.mark.parametrize("value", EDGE_LITERALS)
def test_edge_literals_parse_like_fraction_behind_the_caps(value):
    expected = parse_reference(value)
    assert parse_pair(value) == expected
    assert parse_public(value) == expected


LITERAL_TOKENS = ["0", "1", "5", "9", "00", "1000", "1001", "999", "_",
                  ".", "/", "e", "E", "+", "-", " ", "\t", "\n", "\x00",
                  "d", "٣", "٠", "x"]
DIGITS = hst.text("0123456789", min_size=1, max_size=6)


@hst.composite
def well_formed(draw):
    """Mostly valid literals: sign, digits, then /q or point and exponent."""
    text = draw(hst.sampled_from(["", "-", "+"])) + draw(DIGITS)
    tail = draw(hst.integers(0, 3))
    if tail == 1:
        text += "/" + draw(DIGITS)
    elif tail >= 2:
        text += "." + draw(hst.text("0123456789_", max_size=5))
        if tail == 3:
            text += (draw(hst.sampled_from("eE"))
                     + draw(hst.sampled_from(["", "-", "+"]))
                     + str(draw(hst.integers(0, 1002))))
    pad = draw(hst.sampled_from(["", " ", "\t", "  "]))
    return pad + text + pad


LITERALS = (well_formed()
            | hst.lists(hst.sampled_from(LITERAL_TOKENS),
                        max_size=10).map("".join)
            | hst.text(max_size=8))


@settings(derandomize=True, deadline=None, max_examples=600)
@given(value=LITERALS)
def test_pair_parser_matches_fraction_behind_the_caps(value):
    # the same accept or refuse decision, an equal value and an identical
    # message
    expected = parse_reference(value)
    assert parse_pair(value) == expected
    assert parse_public(value) == expected


# -- the loaders against the Fraction oracles ------------------------------------

def cell_text(rng: random.Random):
    """(text, value): a CSV cell in one of the spellings the grammar reads."""
    kind = rng.randrange(8)
    u = rng.randint(-99999, 99999)
    if kind == 0:
        text = str(rng.randint(-50, 50))
    elif kind == 1:
        text = f"{u / 100:.2f}"
    elif kind == 2:
        text = f"{u / 100:.2f}0"            # unreduced, as in 1.50
    elif kind == 3:
        text = f"{u}{rng.choice('eE')}{rng.randint(-4, 2)}"
    elif kind == 4:
        text = f"{rng.randint(-60, 60)}/{rng.randint(1, 48)}"
    elif kind == 5:
        text = rng.choice(["-0.0", "+0", "0/7", "-0e3"])
    elif kind == 6:
        text = f"{rng.randint(1, 9)}_{rng.randint(100, 999)}.5"
    else:
        text = f"{u / 1000:.3f}"
    if rng.random() < 0.2:
        text = " " * rng.randint(1, 2) + text + " "
    return text, F(text.strip())


def oneway_text(rng: random.Random):
    """A one-way CSV with rows in random order, and its groups in order of
    first appearance."""
    sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 6))]
    sizes[rng.randrange(len(sizes))] = rng.randint(2, 4)
    rows = [(f"g{g}", *cell_text(rng)) for g, n in enumerate(sizes)
            for _ in range(n)]
    rng.shuffle(rows)
    groups = {}
    for label, _, v in rows:
        groups.setdefault(label, []).append(v)
    text = "group,value\n" + "".join(f"{a},{t}\n" for a, t, _ in rows)
    return text, [tuple(g) for g in groups.values()]


def twoway_text(rng: random.Random):
    """A complete r x q x n CSV with rows in random order, and its array
    with levels in sorted label order."""
    r, q, n = rng.randint(2, 4), rng.randint(2, 4), rng.randint(1, 3)
    cells = [[[cell_text(rng) for _ in range(n)] for _ in range(q)]
             for _ in range(r)]
    rows = [f"r{i},c{j},k{k},{cells[i][j][k][0]}\n"
            for i in range(r) for j in range(q) for k in range(n)]
    rng.shuffle(rows)
    array = [[[v for _, v in cell] for cell in row] for row in cells]
    return "row,col,rep,value\n" + "".join(rows), array


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def assert_same_stats(got, ref):
    assert dataclasses.asdict(got) == dataclasses.asdict(ref)
    for field in dataclasses.fields(ref):
        value = getattr(got, field.name)
        for v in value if isinstance(value, tuple) else (value,):
            assert type(v) in (int, F, type(None))


def test_oneway_loader_matches_the_fraction_oracle(tmp_path):
    rng = random.Random(1818)
    for trial in range(60):
        text, groups = oneway_text(rng)
        ref = summarize_reference(GroupedData(groups))
        assert_same_stats(
            xio.load_oneway_csv(write(tmp_path, f"o{trial}.csv", text)), ref)
        assert_same_stats(summarize(GroupedData(groups)), ref)


def test_twoway_loader_matches_the_fraction_oracle(tmp_path):
    rng = random.Random(1819)
    for trial in range(60):
        text, array = twoway_text(rng)
        ref = twoway_stats_reference(array)
        assert ref.grand_mean is not None
        assert_same_stats(
            xio.load_twoway_csv(write(tmp_path, f"t{trial}.csv", text)), ref)
        assert_same_stats(twoway_stats(array), ref)


# -- no conversion per cell -------------------------------------------------------

def benchmark_shaped_csvs(rng: random.Random):
    """A 300-group one-way CSV over the sizes 2, 3, 4, 6 and 8 and a
    40 x 25 x 2 two-way CSV (2,000 rows), both with two-decimal values."""
    def fixed(units):
        sign = "-" if units < 0 else ""
        return f"{sign}{abs(units) // 100}.{abs(units) % 100:02d}"

    oneway = ["group,value"]
    for g in range(300):
        mean = rng.randrange(-5000, 5000)
        for _ in range(rng.choice((2, 3, 4, 6, 8))):
            oneway.append(f"g{g},{fixed(mean + rng.randrange(-2000, 2000))}")
    two = ["row,col,rep,value"]
    for a in range(40):
        for b in range(25):
            for c in range(2):
                two.append(f"r{a},c{b},k{c},"
                           f"{fixed(rng.randrange(-9000, 9000))}")
    return "\n".join(oneway) + "\n", "\n".join(two) + "\n"


def test_csv_loaders_convert_no_cell_to_a_fraction(tmp_path, monkeypatch):
    # the loaders read each cell into an integer pair and hand the scaled
    # integers to the summaries: no rat and no parse_rational call at all
    one, two = benchmark_shaped_csvs(random.Random(300))
    one_path = write(tmp_path, "oneway.csv", one)
    two_path = write(tmp_path, "twoway.csv", two)
    calls = {}

    def spy(module, name):
        real = getattr(module, name)
        key = f"{module.__name__}.{name}"
        calls[key] = 0

        def counted(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for module in (stats, twoway, xio):
        spy(module, "rat")
    spy(xio, "parse_rational")
    one_stats = xio.load_oneway_csv(one_path)
    two_stats = xio.load_twoway_csv(two_path)
    assert one_stats.q == 300 and (two_stats.r, two_stats.q) == (40, 25)
    assert calls == {"exactvc.stats.rat": 0, "exactvc.twoway.rat": 0,
                     "exactvc.io.rat": 0, "exactvc.io.parse_rational": 0}


# -- blocks of rows against the per-row loaders ---------------------------------

LOADERS = {
    "oneway": (xio.load_oneway_csv, load_oneway_csv_reference),
    "covariates": (xio.load_covariates_csv, load_covariates_csv_reference),
    "twoway": (xio.load_twoway_csv, load_twoway_csv_reference),
}
HEADERS = {"oneway": "group,value", "covariates": "group,y,x1,x2",
           "twoway": "row,col,rep,value"}
FAULTS = ["blank", "spanning", "padded", "places", "ratio", "exponent",
          "underscore", "arabic", "bad", "short", "long", "duplicate",
          "byte"]
BAD_CELLS = ["x", "1.2.3", "", "3/0", "1e1001", "9" * 1001, "-", "1.", "½"]


def plain(rng, k):
    """A plain decimal with k places."""
    units = rng.randrange(-99999, 99999)
    if not k:
        return str(units)
    sign = "-" if units < 0 else ""
    return f"{sign}{abs(units) // 10 ** k}.{abs(units) % 10 ** k:0{k}d}"


def base_rows(kind, rng, n, k):
    """About n clean rows of a CSV kind, values with k places; a two-way
    layout is complete, its rows shuffled."""
    if kind == "twoway":
        q, reps = rng.randint(1, 5), rng.randint(1, 2)
        r = max(1, -(-n // (q * reps)))
        rows = [[f"r{a}", f"c{b}", f"k{c}", plain(rng, k)]
                for a in range(r) for b in range(q) for c in range(reps)]
        rng.shuffle(rows)
        return rows[:max(n, 1)] if rng.random() < 0.2 else rows
    groups = max(2, n // 3)
    if kind == "oneway":
        return [[f"g{rng.randrange(groups)}", plain(rng, k)]
                for _ in range(n)]
    return [[f"g{rng.randrange(groups)}", plain(rng, k),
             str(rng.randint(-20, 20)), plain(rng, k)] for _ in range(n)]


def fault_row(row, fault, rng, k, rows):
    """The row with one fault in it; spanning and blank faults act on the
    line text, byte faults on its bytes."""
    row = list(row)
    if len(row) < 2:                # a row shortened before
        return row
    v = len(row) - 1 if rng.random() < 0.7 else 1
    if fault == "padded":
        row[v] = " " * rng.randint(1, 2) + row[v] + "\t"
    elif fault == "places":
        row[v] = plain(rng, k + 1 if k < 3 or rng.random() < 0.5 else k - 1)
    elif fault == "ratio":
        row[v] = f"{rng.randint(-60, 60)}/{rng.randint(1, 48)}"
    elif fault == "exponent":
        row[v] = f"{rng.randint(-999, 999)}e{rng.randint(-3, 3)}"
    elif fault == "underscore":
        row[v] = f"{rng.randint(1, 9)}_{rng.randint(100, 999)}"
    elif fault == "arabic":
        row[v] = rng.choice(["٣", "٣.٥", "1.٥"])
    elif fault == "bad":
        row[v] = rng.choice(BAD_CELLS)
    elif fault == "short":
        row.pop()
    elif fault == "long":
        row.append("1")
    elif fault == "duplicate" and rows:
        row[:-1] = rng.choice(rows)[:-1]
    return row


@hst.composite
def csv_files(draw):
    """(kind, block size, file bytes): a CSV of one kind with faults placed
    on random rows and on the first and last rows of blocks."""
    kind = draw(hst.sampled_from(sorted(LOADERS)))
    block = draw(hst.sampled_from([1, 2, 3, 5] + [xio.BLOCK_ROWS] * 3))
    n = block * draw(hst.integers(0, 3)) + draw(hst.integers(-2, 2))
    k = draw(hst.integers(0, 3))
    rng = random.Random(draw(hst.integers(0, 2 ** 32)))
    rows = base_rows(kind, rng, max(n, 0), k)
    edges = [i for i in (0, block - 1, block, 2 * block - 1, 2 * block,
                         len(rows) - 1) if 0 <= i < len(rows)]
    at = (hst.sampled_from(edges) | hst.integers(0, len(rows) - 1)
          if rows else hst.nothing())
    faults = draw(hst.lists(hst.tuples(at, hst.sampled_from(FAULTS)),
                            max_size=4 if rows else 0))
    marks = {}
    for i, fault in faults:
        rows[i] = fault_row(rows[i], fault, rng, k, rows[:i])
        marks.setdefault(i, set()).add(fault)
    crlf = "\r\n" if draw(hst.booleans()) else "\n"
    data = b"\xef\xbb\xbf" if draw(hst.booleans()) else b""
    data += (HEADERS[kind] + crlf).encode()
    for i, row in enumerate(rows):
        line = ",".join(row)
        if "spanning" in marks.get(i, ()):
            line = f'"{row[0]}\nx{rng.randint(0, 3)}",' + ",".join(row[1:])
        if "blank" in marks.get(i, ()):
            line = crlf * rng.randint(1, 2) + line
        raw = (line + crlf).encode()
        if "byte" in marks.get(i, ()):
            raw = b"\xff" + raw
        data += raw
    return kind, block, data


def outcome(load, path):
    try:
        return "ok", load(path)
    except ExactVCError as exc:
        return type(exc).__name__, str(exc)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=csv_files())
def test_block_loaders_match_the_per_row_loaders(tmp_path_factory, case):
    # equal stats, or the same refusal: the first faulty row in file order,
    # named by the same message and line, whatever block it falls in
    kind, block, data = case
    path = tmp_path_factory.getbasetemp() / f"blocks-{kind}.csv"
    path.write_bytes(data)
    load, reference = LOADERS[kind]
    with mock.patch.object(xio, "BLOCK_ROWS", block):
        got = outcome(load, str(path))
    assert got == outcome(reference, str(path))


def test_clean_files_take_no_call_per_cell(tmp_path, monkeypatch):
    # the benchmark-shaped one-way and 2,000-row two-way files are plain
    # two-place decimals: every block takes the bulk conversion
    one, two = benchmark_shaped_csvs(random.Random(29))
    assert len(two.splitlines()) == 2001
    one_path = write(tmp_path, "oneway.csv", one)
    two_path = write(tmp_path, "twoway.csv", two)
    expected = (load_oneway_csv_reference(one_path),
                load_twoway_csv_reference(two_path))
    calls = []
    real = xio._pair
    monkeypatch.setattr(xio, "_pair", lambda text: calls.append(text)
                        or real(text))
    assert (xio.load_oneway_csv(one_path),
            xio.load_twoway_csv(two_path)) == expected
    assert calls == []


def test_a_bad_cell_is_refused_before_a_bad_byte_two_blocks_on(tmp_path):
    # the bad cell is in the second block and the byte in the fourth, past
    # the text reader's 8 KB chunk beyond the second block: the reader
    # stops after the block that holds the cell
    b = xio.BLOCK_ROWS
    rows = [f"group-{i % 50:03d},{i}.5" for i in range(5 * b)]
    rows[b + 7] = "group-001,x"
    head = ("group,value\n" + "".join(r + "\n" for r in rows[:3 * b + 3]))
    tail = "".join(r + "\n" for r in rows[3 * b + 3:])
    data = head.encode() + b"\xff" + tail.encode()
    end_of_block_2 = len(("group,value\n" + "".join(
        r + "\n" for r in rows[:2 * b])).encode())
    assert data.index(b"\xff") > end_of_block_2 + 8192
    p = tmp_path / "late_byte.csv"
    p.write_bytes(data)
    with pytest.raises(InputError) as exc:
        xio.load_oneway_csv(str(p))
    assert str(exc.value) == (f"{p} line {b + 9}: not a rational number: "
                              "'x'")
    # with the cell mended, the byte is what the reader refuses
    p.write_bytes(data.replace(b"group-001,x\n", b"group-001,1\n"))
    with pytest.raises(InputError, match="byte 0xff at file offset"):
        xio.load_oneway_csv(str(p))


def test_decimal_places_change_between_blocks(tmp_path):
    # one place in the first block, two in the second, none in the third:
    # the block scales 10, 100 and 1 are merged once, to 100
    b = xio.BLOCK_ROWS
    rng = random.Random(2929)
    values = ([plain(rng, 1) for _ in range(b)] + [plain(rng, 2) for _ in
                                                   range(b)]
              + [plain(rng, 0) for _ in range(b // 2)])
    labels = [f"g{rng.randrange(200)}" for _ in values]
    text = "group,value\n" + "".join(f"{g},{v}\n" for g, v in
                                     zip(labels, values))
    groups = {}
    for g, v in zip(labels, values):
        groups.setdefault(g, []).append(F(v))
    path = write(tmp_path, "places.csv", text)
    got = xio.load_oneway_csv(path)
    assert_same_stats(got, summarize_reference(GroupedData(
        [tuple(g) for g in groups.values()])))
    assert got == load_oneway_csv_reference(path)
    cells = [f"r{a},c{c},k{n},{v}" for a, c, n, v in zip(
        (i // 4 for i in range(2 * b + 8)), (i // 2 % 2 for i in
                                             range(2 * b + 8)),
        (i % 2 for i in range(2 * b + 8)), values[b - 8:])]
    path = write(tmp_path, "places2.csv", "row,col,rep,value\n"
                 + "".join(c + "\n" for c in cells))
    assert xio.load_twoway_csv(path) == load_twoway_csv_reference(path)


def test_block_scales_are_merged_once_per_load(tmp_path, monkeypatch):
    # places 1, 0, 2, 0, then a block of p/q cells over 3 and 7: each block
    # is rescaled once, to the lcm of all block scales, after the last block
    # is read, however often the scale changes from block to block
    b = xio.BLOCK_ROWS
    rng = random.Random(2931)
    values = ([plain(rng, k) for k in (1, 0, 2, 0) for _ in range(b)]
              + [f"{rng.randint(-50, 50)}/{rng.choice([3, 7])}"
                 for _ in range(b)])
    one = write(tmp_path, "one.csv", "group,value\n" + "".join(
        f"g{i % 7},{v}\n" for i, v in enumerate(values)))
    two = write(tmp_path, "two.csv", "row,col,rep,value\n" + "".join(
        f"r{i // 10},c{i // 2 % 5},k{i % 2},{v}\n"
        for i, v in enumerate(values)))
    calls = []
    real = xio._one_scale
    monkeypatch.setattr(xio, "_one_scale", lambda parts: calls.append(
        [t for _, t in parts]) or real(parts))
    for path, load, reference in ((one, xio.load_oneway_csv,
                                   load_oneway_csv_reference),
                                  (two, xio.load_twoway_csv,
                                   load_twoway_csv_reference)):
        calls.clear()
        assert load(path) == reference(path)
        assert calls == [[10, 1, 100, 1, 21]]


def test_no_regex_needs_a_newer_python_than_3_10():
    # possessive quantifiers and atomic groups are Python 3.11 syntax; on
    # 3.10, the oldest the project supports, re raises "multiple repeat"
    newer = re.compile(r"[*+?}]\+|\(\?>")
    kinds = {tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", None)}
    found = []
    for path in sorted(pathlib.Path(xio.__file__).parent.glob("*.py")):
        with open(path, "rb") as fh:
            found += [(path.name, tok.start[0]) for tok in
                      tokenize.tokenize(fh.readline)
                      if tok.type in kinds and newer.search(tok.string)]
    assert found == []


def test_csv_on_stdin_longer_than_a_block_fits_like_the_file(tmp_path):
    one, two = benchmark_shaped_csvs(random.Random(2930))
    assert len(one.splitlines()) > 2 * xio.BLOCK_ROWS
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        q for q in (src, env.get("PYTHONPATH")) if q)
    for command, text in (("fit-oneway", one), ("fit-twoway", two)):
        path = write(tmp_path, f"{command}.csv", text)
        outs = []
        for arg, stdin in ((path, None), ("/dev/stdin", text)):
            proc = subprocess.run(
                [sys.executable, "-m", "exactvc", command, "--csv", arg],
                input=stdin, env=env, capture_output=True, text=True,
                timeout=120)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]


# -- pinned refusals ------------------------------------------------------------

REFUSALS = [
    # header-only files, one per loader
    ("fit-oneway", "group,value\n", 2, "input", "no groups supplied"),
    ("fit-oneway", "group,y,x1\n", 2, "input", "empty design"),
    ("fit-twoway", "row,col,rep,value\n", 2, "input", "empty layout"),
    # wrong field counts
    ("fit-oneway", "group,value\nA,1\nA,2,3\n", 2, "input",
     "{path} line 3: expected 2 fields"),
    ("fit-oneway", "group,y,x1\nA,1,2\nA,2\n", 2, "input",
     "{path} line 3: expected 3 fields"),
    ("fit-twoway", "row,col,rep,value\na,b,1,2\na,b,2\n", 2, "input",
     "{path} line 3: expected 4 fields"),
    # a duplicate cell and an incomplete layout
    ("fit-twoway",
     "row,col,rep,value\na,x,1,2\na,y,1,3\nb,x,1,4\nb,y,1,5\na,x,1,6\n",
     2, "input", "{path} line 6: duplicate cell ('a', 'x', '1')"),
    ("fit-twoway", "row,col,rep,value\na,x,1,2\na,y,1,3\nb,x,1,4\n", 2,
     "input", "{path}: incomplete layout; 3 cells, expected 2x2x1"),
    # one group, all singletons, one level per factor
    ("fit-oneway", "group,value\nA,1\nA,2\nA,4\n", 3, "model-assumption",
     "the model needs at least two groups"),
    ("fit-oneway", "group,value\nA,1\nB,2\nC,4\n", 3, "model-assumption",
     "at least one group must have two or more observations"),
    ("fit-twoway", "row,col,rep,value\na,x,1,2\na,x,2,3\n", 3,
     "model-assumption", "both factors need at least two levels"),
    ("fit-twoway", "row,col,rep,value\na,x,1,2\na,y,1,3\n", 3,
     "model-assumption", "both factors need at least two levels"),
    # a bad cell on line 3 is reported before a short row on line 5
    ("fit-oneway", "group,value\nA,1\nA,x1\nB,2\nB\n", 2, "input",
     "{path} line 3: not a rational number: 'x1'"),
    ("fit-oneway", "group,y,x1\nA,1,2\nA,1/0,3\nB,2,1\nB,3\n", 2, "input",
     "{path} line 3: not a rational number: '1/0'"),
    ("fit-twoway", "row,col,rep,value\na,x,1,2\na,y,1,1.2.3\nb,x,1,4\nb,y\n",
     2, "input", "{path} line 3: not a rational number: '1.2.3'"),
    # a p/0 cell and over-cap literals
    ("fit-oneway", "group,value\nA,1\nA,3/0\nB,2\nB,5\n", 2, "input",
     "{path} line 3: not a rational number: '3/0'"),
    ("fit-twoway", "row,col,rep,value\na,x,1,2\na,y,1,7/0\nb,x,1,4\nb,y,1,5\n",
     2, "input", "{path} line 3: not a rational number: '7/0'"),
    ("fit-oneway", 'group,value\nA,1\nA,"1\n2"\nB,2\nB,5\n', 2, "input",
     "{path} line 3: not a rational number: '1\\n2'"),
    ("fit-oneway", "group,value\nA,1\nA,1e1001\nB,2\nB,5\n", 2, "input",
     "{path} line 3: numeric literal too large: '1e1001'"),
    ("fit-twoway",
     "row,col,rep,value\na,x,1,2\na,y,1," + "9" * 1001 + "\nb,x,1,4\nb,y,1,5\n",
     2, "input",
     "{path} line 3: numeric literal too large: '" + "9" * 40 + "'"),
    # a row is named by the line it starts on: blank lines and quoted cells
    # that span lines count
    ("fit-oneway", "group,value\n\na,1\na,2\n\nb,3,4\n", 2, "input",
     "{path} line 6: expected 2 fields"),
    ("fit-oneway", "group,value\na,1\na,2\nb,3\nb,x\n", 2, "input",
     "{path} line 5: not a rational number: 'x'"),
    ("fit-oneway", 'group,value\n"A\nB",1\n"A\nB",x\n', 2, "input",
     "{path} line 4: not a rational number: 'x'"),
    ("fit-oneway", "group,value\na,1\na," + "9" * 131073 + "\n", 2, "input",
     "{path} line 3: malformed CSV: field larger than field limit (131072)"),
]


@pytest.mark.parametrize("command,text,code,kind,message", REFUSALS)
def test_csv_refusals_are_pinned(tmp_path, command, text, code, kind, message):
    path = write(tmp_path, "input.csv", text)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        got = main([command, "--csv", path])
    assert got == code
    assert json.loads(buf.getvalue()) == {
        "error": {"kind": kind, "message": message.format(path=path)}}
