"""Ingestion and serialization: exactness, validation, determinism."""

import json
import os
import threading
from fractions import Fraction as F

import pytest

from exactvc.enclosure import Approx
from exactvc.errors import InputError
from exactvc.io import (
    detect_csv_kind,
    dumps,
    emit_poly_text,
    float_with_bound,
    load_covariates_csv,
    load_oneway_csv,
    load_oneway_stats_json,
    load_twoway_csv,
    load_twoway_stats_json,
    parse_rational,
    read_csv_rows,
    ser_approx,
)
from exactvc.polynomials import UniPoly
from exactvc.roots import RootInterval
from exactvc.twoway import twoway_stats

from conftest import fixture_path


def test_parse_rational_is_exact():
    assert parse_rational("1.25") == F(5, 4)
    assert parse_rational(" -0.1 ") == F(-1, 10)
    assert parse_rational("3/7") == F(3, 7)
    assert parse_rational(4) == 4
    with pytest.raises(InputError):
        parse_rational(0.1)            # binary float would be inexact
    with pytest.raises(InputError):
        parse_rational("abc")
    # literal caps: 1000 characters and decimal exponents up to 1000
    assert parse_rational("1e1000") == 10 ** 1000
    assert parse_rational("-2.5E-1_000") == F(-5, 2 * 10 ** 1000)
    assert parse_rational("7" * 1000) == int("7" * 1000)
    assert parse_rational(10 ** 1000 - 1) == 10 ** 1000 - 1
    for value in ("1e1001", "1e-3000000", "7" * 1001, -10 ** 1000):
        with pytest.raises(InputError):
            parse_rational(value)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_detect_csv_kind(tmp_path):
    a = write(tmp_path, "a.csv", "group,value\nA,1\n")
    b = write(tmp_path, "b.csv", "group,y,x1,x2\nA,1,2,3\n")
    c = write(tmp_path, "c.csv", "row,col,rep,value\nr,c,1,0\n")
    d = write(tmp_path, "d.csv", "foo,bar\n1,2\n")
    assert detect_csv_kind(a, read_csv_rows(a)[0]) == "oneway"
    assert detect_csv_kind(b, read_csv_rows(b)[0]) == "covariates"
    assert detect_csv_kind(c, read_csv_rows(c)[0]) == "twoway"
    with pytest.raises(InputError):
        detect_csv_kind(d, read_csv_rows(d)[0])


@pytest.mark.parametrize("loader,header,good,bad", [
    (load_oneway_csv, "group,value", "g{},1", "g,abc"),
    (load_covariates_csv, "group,y,x1", "g{},1,{}", "g,1,abc"),
    (load_twoway_csv, "row,col,rep,value", "r,c,{},1", "r,c,x,abc"),
])
def test_csv_rows_are_read_lazily(tmp_path, loader, header, good, bad):
    # a bad cell on line 3, then valid rows, then an undecodable byte well
    # past the text reader's first 8 KB chunk: the cell is refused before
    # the byte is read, so the message names the cell, not the encoding
    rows = [header, good.format(0, 0), bad]
    rows += [good.format(i, i) for i in range(1, 4000)]
    data = ("\n".join(rows) + "\n").encode() + b"\xff\n"
    assert data.index(b"\xff") > 2 * 8192
    p = tmp_path / "lazy.csv"
    p.write_bytes(data)
    with pytest.raises(InputError, match="not a rational number: 'abc'"):
        loader(str(p))


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
def test_decode_fault_names_its_file_offset(tmp_path, bom):
    # the text reader decodes 8 KB chunks and the codec's position is one
    # inside the chunk; the refusal names the byte's offset in the file
    body = "".join(f"\u00e9{i % 5},{i}\n" for i in range(4000))
    data = bom + ("group,value\n" + body).encode()
    k = data.index(b"\n", 3 * 8192 + 100) + 1
    data = data[:k] + b"\xff" + data[k:]
    p = tmp_path / "bad_byte.csv"
    p.write_bytes(data)
    with pytest.raises(InputError) as exc:
        load_oneway_csv(str(p))
    assert str(exc.value) == (
        f"{p}: malformed CSV: 'utf-8' codec can't decode byte 0xff at file "
        f"offset {k}: invalid start byte")


def test_decode_fault_in_a_pipe_is_refused_as_input(tmp_path):
    # a pipe has no file offset to name; the refusal is still a malformed
    # CSV, not a failed read
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(b"group,value\na,1\na,\xff\n")

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    with pytest.raises(InputError, match=r"malformed CSV: .* byte 0xff in "
                                         r"position 18"):
        load_oneway_csv(str(fifo))
    writer.join(5)


def test_load_oneway_csv_groups_by_appearance(tmp_path):
    p = write(tmp_path, "g.csv",
              "group,value\nB,1\nA,2.5\nB,3\nA,1\nA,4\n")
    s = load_oneway_csv(p)
    # group B has 2 observations, group A has 3
    assert s.sizes == (2, 3) and s.mults == (1, 1)
    assert s.means == (F(2), F(5, 2))
    with pytest.raises(InputError):
        load_oneway_csv(write(tmp_path, "bad.csv", "group,value\nA\n"))


def test_load_covariates_csv(tmp_path):
    p = write(tmp_path, "cov.csv",
              "group,y,x1\nA,1,2\nB,3,4\nA,2,0\nB,1,1\n")
    d = load_covariates_csv(p, add_intercept=True)
    assert d.group_sizes == (2, 2)
    assert d.y == (F(1), F(2), F(3), F(1))
    assert d.x[0] == (F(1), F(2))
    assert d.p == 2
    with pytest.raises(InputError):
        load_covariates_csv(write(tmp_path, "ow.csv", "group,value\nA,1\n"))


def test_load_twoway_csv_matches_direct_stats(tmp_path):
    array = [[[1, 2], [3, 5]], [[2, 2], [0, 4]], [[7, 1], [2, 2]]]
    lines = ["row,col,rep,value"]
    for i, row in enumerate(array):
        for j, cell in enumerate(row):
            for k, v in enumerate(cell):
                lines.append(f"r{i},c{j},{k},{v}")
    p = write(tmp_path, "tw.csv", "\n".join(lines) + "\n")
    assert load_twoway_csv(p) == twoway_stats(array)
    # drop one record: incomplete layout
    q = write(tmp_path, "twbad.csv", "\n".join(lines[:-1]) + "\n")
    with pytest.raises(InputError):
        load_twoway_csv(q)


def test_stats_json_loaders(tmp_path):
    s = load_oneway_stats_json(fixture_path("trimodal.json"))
    assert s.q >= 2
    t = load_twoway_stats_json(fixture_path("penicillin.json"))
    assert (t.r, t.q, t.n) == (24, 6, 1) and t.SSA == F(953, 9)
    bad = write(tmp_path, "bad.json", json.dumps({"sizes": [2]}))
    with pytest.raises(InputError):
        load_oneway_stats_json(bad)
    # counts must be JSON integers or integer strings, vectors JSON arrays
    with open(fixture_path("trimodal.json")) as fh:
        one = json.load(fh)
    as_strings = write(tmp_path, "str.json", json.dumps(
        dict(one, sizes=[str(n) for n in one["sizes"]])))
    assert load_oneway_stats_json(as_strings) == s
    for change in ({"sizes": ["a", 3, 10, 20, 50]}, {"sizes": 5},
                   {"sizes": [2.5, 5, 10, 20, 50]},
                   {"sizes": ["2/1", 5, 10, 20, 50]},
                   {"sizes": [True, 5, 10, 20, 50]},
                   {"mults": [1, True, 1, 1, 1]},
                   {"mults": [1, 1.0, 1, 1, 1]}, {"means": "12"},
                   {"betweenSS": {"0": 0}}, {"withinSS": True},
                   {"sizes": [2, 5, 10, 20, 10 ** 1000]},
                   {"mults": [1, 1, 1, 1, "1" * 1001]},
                   {"withinSS": -10 ** 1000}):
        path = write(tmp_path, "one.json", json.dumps(dict(one, **change)))
        with pytest.raises(InputError):
            load_oneway_stats_json(path)
    huge = write(tmp_path, "huge.json", json.dumps(one).replace(
        '"mults": [1,', '"mults": [' + "9" * 5000 + ","))
    with pytest.raises(InputError):        # past int()'s digit limit
        load_oneway_stats_json(huge)
    with open(fixture_path("penicillin.json")) as fh:
        two = json.load(fh)
    for change in ({"r": "x"}, {"r": 24.0}, {"q": True}, {"n": "1/1"},
                   {"r": [24]}):
        path = write(tmp_path, "two.json", json.dumps(dict(two, **change)))
        with pytest.raises(InputError):
            load_twoway_stats_json(path)


def test_float_with_bound_covers_enclosure():
    mid, half = F(1, 3), F(1, 10 ** 15)
    d = float_with_bound(mid, half)
    # the reported float ball must contain the whole exact interval
    assert abs(mid - F(d["value"])) + half <= F(d["error_bound"])


def test_ser_values():
    assert ser_approx(Approx.exact(F(3, 7))) == "3/7"
    assert ser_approx(None) is None
    d = ser_approx(Approx(F(1, 3), F(2, 3)))
    assert set(d) == {"value", "error_bound"}
    assert ser_approx(Approx.exact(F(0))) == "0"
    assert ser_approx(RootInterval(F(1, 2), F(1, 2),
                                  UniPoly([-1, 2], "x"))) == "1/2"


def test_dumps_deterministic_and_emit_poly():
    obj = {"b": [1, 2], "a": {"y": 1, "x": "3/7"}}
    assert dumps(obj) == dumps(json.loads(json.dumps(obj)))
    p = UniPoly([F(2), F(-4), F(6)], "theta")
    assert emit_poly_text(p) == "1\n-2\n3\n"
