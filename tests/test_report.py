"""Deterministic serialization: CSV/JSON layout, digests, round trips."""

import hashlib
import json
import math
import os
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import report_oracle
from sotlogic import (ArraySpec, DeviceParams, GateKind, HistogramTable,
                      Table, Topology, VariationSpec, calibrate_gate,
                      config_digest, emit_csv, emit_json, make_bundle,
                      mc_tables, run_mc)
from sotlogic import report
from sotlogic.report import _float_cells, _repr_cells, _table_csv


def sample_bundle():
    table = Table("currents", ("pattern", "i_out", "ok"),
                  (("00", "01"),
                   (1.7727758484067638e-4, 2.440482482408333e-4),
                   (True, False)))
    hist = HistogramTable("spread", (0.0, 0.5, 1.0),
                          (("00", (3, 7)), ("01", (5, 5))))
    return make_bundle({"seed": 42, "config_digest": "abc123"},
                       tables=[table], histograms=[hist])


def test_number_rendering_nine_significant_digits():
    render_number = report_oracle.render_number
    assert render_number(1.7727758484067638e-4) == "0.000177277585"
    assert render_number(123456789012.0) == "1.23456789e+11"
    assert render_number(3) == "3"
    assert render_number(True) == "true"
    assert render_number("00") == "00"


def test_csv_layout_and_metadata_header(tmp_path):
    paths = emit_csv(sample_bundle(), tmp_path, "unit")
    names = sorted(p.name for p in paths)
    assert names == ["unit_currents.csv", "unit_spread.csv"]
    text = (tmp_path / "unit_currents.csv").read_text()
    lines = text.splitlines()
    assert lines[0].startswith("# config_digest=abc123")
    assert any(line == "# seed=42" for line in lines if line.startswith("#"))
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx] == "pattern,i_out,ok"
    assert lines[header_idx + 1] == "00,0.000177277585,true"
    assert text.endswith("\n") and "\r" not in text


def test_histogram_csv(tmp_path):
    emit_csv(sample_bundle(), tmp_path, "unit")
    lines = (tmp_path / "unit_spread.csv").read_text().splitlines()
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx] == "bin_lo,bin_hi,count_00,count_01"
    assert lines[header_idx + 1] == "0,0.5,3,5"
    assert lines[header_idx + 2] == "0.5,1,7,5"


def test_csv_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    emit_csv(sample_bundle(), a, "run")
    emit_csv(sample_bundle(), b, "run")
    for name in ("run_currents.csv", "run_spread.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_json_round_trip_exact(tmp_path):
    bundle = sample_bundle()
    path = emit_json(bundle, tmp_path / "run_report.json")
    doc = json.loads(path.read_text())
    rows = doc["tables"]["currents"]["rows"]
    assert rows[0][1] == 1.7727758484067638e-4  # full precision preserved
    assert doc["meta"]["seed"] == 42
    assert doc["histograms"]["spread"]["series"]["01"] == [5, 5]


def test_json_byte_identical_and_sorted(tmp_path):
    p1 = emit_json(sample_bundle(), tmp_path / "one.json")
    p2 = emit_json(sample_bundle(), tmp_path / "two.json")
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert text.index('"histograms"') < text.index('"meta"') < text.index('"tables"')


def test_empty_bundle_metadata_only(tmp_path):
    # Every command emits a table; a bundle without one writes no CSV file.
    bundle = make_bundle({"seed": 9})
    assert emit_csv(bundle, tmp_path, "empty") == []
    doc = json.loads(emit_json(bundle, tmp_path / "empty.json").read_text())
    assert doc["tables"] == {} and doc["meta"]["seed"] == 9


def test_table_columns_of_unequal_length_rejected():
    for data in ((), ((1,),), ((1,), (2,), (3,)), ((1, 2), (3,)), ((), (4,)),
                 ((1, 2), (3, 4, 5))):
        with pytest.raises(ValueError, match="'t': columns of unequal length"):
            Table("t", ("a", "b"), data)


@pytest.mark.parametrize("column", [
    [np.int64(1)], [np.True_], [object()], [1.5, np.int64(2)],
    np.array([object()]), np.array([1, np.int64(2)], dtype=object)])
def test_cells_json_cannot_encode_rejected(tmp_path, column):
    # Rejected as the table is built, before the file is opened: an
    # existing file keeps its bytes.
    sentinel = tmp_path / "bad.json"
    sentinel.write_bytes(b"kept\n")
    ok = Table("a", ("x",), ([1.0],))
    with pytest.raises(TypeError, match="table 't'"):
        emit_json(make_bundle({}, tables=[ok, Table("t", ("a",), (column,))]),
                  sentinel)
    assert sentinel.read_bytes() == b"kept\n"


def test_unrenderable_column_leaves_csv_as_it_was(tmp_path):
    # An int past int64 has no cell rule; the table is rejected as it is
    # built, before the file is opened.
    sentinel = tmp_path / "x_t.csv"
    sentinel.write_bytes(b"kept\n")
    with pytest.raises(ValueError, match="table 't'"):
        emit_csv(make_bundle({}, tables=[Table("t", ("a",), ([1, 10**5000],))]),
                 tmp_path, "x")
    assert sentinel.read_bytes() == b"kept\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_write_that_fails_part_way_leaves_none_of_the_old_bytes(
        tmp_path, monkeypatch, fmt):
    # A report is written over the old file and cut to what was written,
    # also when rendering raises after the head is written: here the float
    # kernel of the format (_float_cells or _repr_cells), which the byte
    # matrix of a table of 64 rows and more calls.
    def write(out):
        out.mkdir(exist_ok=True)
        bundle = make_bundle({"seed": 1}, tables=[
            Table("t", ("k", "x"), (np.arange(100), np.linspace(0, 1, 100)))])
        if fmt == "csv":
            emit_csv(bundle, out, "r")
        else:
            emit_json(bundle, out / "r_t.csv")
        return (out / "r_t.csv").read_bytes()

    whole = write(tmp_path / "fresh")
    (tmp_path / "o").mkdir()
    (tmp_path / "o" / "r_t.csv").write_bytes(b"\xff" * 100_000)

    def fail(x):
        raise RuntimeError("kernel failed")

    monkeypatch.setitem(report._RULES[fmt], "f",
                        report._RULES[fmt]["f"]._replace(cells=fail))
    with pytest.raises(RuntimeError, match="kernel failed"):
        write(tmp_path / "o")
    written = (tmp_path / "o" / "r_t.csv").read_bytes()
    assert b"\xff" not in written
    assert written and whole.startswith(written) and len(written) < len(whole)


def test_lone_surrogate_leaves_csv_as_it_was(tmp_path):
    # UTF-8 has no surrogate code point, so CSV could not write the cell;
    # the table is rejected as it is built, before the file is opened.
    sentinel = tmp_path / "x_t.csv"
    sentinel.write_bytes(b"kept\n")
    with pytest.raises(ValueError, match="table 't'"):
        emit_csv(make_bundle({}, tables=[Table("t", ("a",),
                                               (["ok", "\ud800"],))]),
                 tmp_path, "x")
    assert sentinel.read_bytes() == b"kept\n"


# Writes the CSV files and the JSON document of a table holding non-ASCII
# text, of n rows, into out.
_NON_ASCII_REPORTS = r"""
from sotlogic import Table, emit_csv, emit_json, make_bundle
def write(n, out):
    table = Table("t", ("text", "x"), (["caf\u00e9", '"\u65e5"'] * (n // 2),
                                       [0.1 * k for k in range(n)]))
    bundle = make_bundle({"note": "caf\u00e9"}, tables=[table])
    emit_csv(bundle, out, "r")
    emit_json(bundle, f"{out}/r.json")
"""


@pytest.mark.parametrize("n_rows", [2, 80])  # rows by template, by matrix
def test_report_bytes_alike_under_an_ascii_locale(tmp_path, n_rows):
    # Reports are UTF-8 with LF endings whatever the locale's encoding.
    scope = {}
    exec(_NON_ASCII_REPORTS, scope)
    scope["write"](n_rows, str(tmp_path / "utf8"))
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0",
               PYTHONUTF8="0", PYTHONPATH=str(Path(report.__file__).parents[1]))
    code = _NON_ASCII_REPORTS + f"write({n_rows}, {str(tmp_path / 'c')!r})"
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for name in ("r_t.csv", "r.json"):
        data = (tmp_path / "c" / name).read_bytes()
        assert data == (tmp_path / "utf8" / name).read_bytes()
        assert b"\r\n" not in data
    assert "caf\u00e9".encode() in (tmp_path / "c" / "r_t.csv").read_bytes()


@pytest.mark.parametrize("column, error", [
    pytest.param([True, 1], TypeError, id="bool-beside-int"),
    pytest.param([1.5, 2], TypeError, id="int-beside-float"),
    pytest.param(["a", 1], TypeError, id="int-beside-text"),
    pytest.param(["", 1.5], TypeError, id="empty-text-beside-float"),
    pytest.param([np.float64(1.5)], TypeError, id="numpy-float-in-list"),
    pytest.param(1.5, TypeError, id="scalar"),
    pytest.param("ab", TypeError, id="str"),
    pytest.param(iter([1.5]), TypeError, id="iterator"),
    pytest.param(np.array([1.5], np.longdouble), TypeError, id="longdouble"),
    pytest.param(np.array([1j]), TypeError, id="complex"),
    pytest.param(np.array([b"a"]), TypeError, id="bytes"),
    pytest.param(np.zeros((2, 2)), ValueError, id="2-D"),
    pytest.param(np.array(1.5), ValueError, id="0-D"),
    pytest.param([2**63], ValueError, id="int-past-int64"),
    pytest.param([-2**63 - 1], ValueError, id="int-below-int64"),
    pytest.param(["a\x00"], ValueError, id="trailing-NUL"),
    pytest.param(["\x00"], ValueError, id="NUL"),
    pytest.param(np.array(["a\x00b"]), ValueError, id="NUL-in-array"),
    pytest.param(["\udfff"], ValueError, id="surrogate"),
    pytest.param(["a\ud83d\ude00"], ValueError, id="surrogate-pair"),
    pytest.param(np.array(["ok", "a\ud800"]), ValueError,
                 id="surrogate-in-array"),
])
def test_column_without_a_rule_rejected(column, error):
    with pytest.raises(error, match="table 't'"):
        Table("t", ("a",), (column,))


@pytest.mark.parametrize("tables, histograms", [
    pytest.param(("t", "t"), (), id="two-tables"),
    pytest.param(("t",), ("t",), id="table-and-histogram"),
    pytest.param((), ("h", "h"), id="two-histograms"),
])
def test_bundle_names_each_report_once(tables, histograms):
    # A repeated name would write one file or JSON key over the other.
    repeated = (*tables, *histograms)[-1]
    with pytest.raises(ValueError, match=f"'{repeated}' is named twice"):
        make_bundle({}, tables=[Table(n, ("a",), ([1],)) for n in tables],
                    histograms=[HistogramTable(n, (0.0, 1.0), (("x", (1,)),))
                                for n in histograms])


@pytest.mark.parametrize("edges, series, error", [
    pytest.param((0.0, 1.0), (("x", (1, 2)),), ValueError,
                 id="two-counts-one-bin"),
    pytest.param((0.0, 1.0, 2.0), (("x", (1,)),), ValueError,
                 id="one-count-two-bins"),
    pytest.param((0.0, 1.0), (("x", (True,)),), TypeError, id="bool-count"),
    pytest.param(("0", "1"), (("x", (1,)),), TypeError, id="text-edges"),
    # JSON keys the series by label, so one would overwrite the other.
    pytest.param((0.0, 1.0), (("a", (1,)), ("a", (2,))), ValueError,
                 id="repeated-label"),
])
def test_histogram_of_bad_edges_or_counts_rejected(edges, series, error):
    with pytest.raises(error, match="histogram 'h'"):
        HistogramTable("h", edges, series)


def test_config_digest_stability():
    cfg = {"b": 2, "a": {"y": 1.5, "x": [1, 2]}}
    reordered = {"a": {"x": [1, 2], "y": 1.5}, "b": 2}
    assert config_digest(cfg) == config_digest(reordered)
    assert config_digest(cfg) != config_digest({**cfg, "b": 3})
    assert len(config_digest(cfg)) == 16


def test_bundle_carries_tool_identity():
    bundle = make_bundle({})
    assert bundle.meta["tool"] == "sotlogic"
    assert "version" in bundle.meta


# --- column-wise emitters against the row-wise oracle -------------------------

SPECIAL_FLOATS = (-0.0, 0.0, 5e-324, 1e300, -1e300, 1.5, math.nan, math.inf,
                  -math.inf)
SPECIAL_TEXT = ("", "00", "é", "日本", '"', "\\", ",", "a,b", "\n", "\r\t",
                "\x1f", " ", "\U0001f600")

floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
ints = st.one_of(st.sampled_from((0, -1, 2**63 - 1, -2**63)),
                 st.integers(-2**63, 2**63 - 1))
# Cells are NUL-padded, so text holds no NUL.
texts = st.one_of(st.sampled_from(SPECIAL_TEXT),
                  st.text(max_size=6).filter(lambda t: "\0" not in t))
# Each list column draws its values from one of these.
column_values = st.sampled_from((
    floats,
    st.floats(allow_nan=False, allow_infinity=False),
    ints,
    st.booleans(),
    texts,
))


# Each array column draws its values from one of these, into its dtype.
array_values = st.sampled_from((
    (floats, np.float64),
    (st.one_of(st.sampled_from((0, -1, 10**16 - 1, 10**16, 2**63 - 1,
                                -2**63)), st.integers(-2**63, 2**63 - 1)),
     np.int64),
    (st.booleans(), np.bool_),
    (texts, np.str_),
))


@st.composite
def columns(draw, n_rows):
    """A column as a producer hands it over: a list or a 1-D array."""
    if draw(st.booleans()):
        values, dtype = draw(array_values)
        return np.array(draw(st.lists(values, min_size=n_rows,
                                      max_size=n_rows)), dtype=dtype)
    return draw(st.lists(draw(column_values), min_size=n_rows,
                         max_size=n_rows))


@st.composite
def tables(draw):
    n_rows = draw(st.sampled_from((0, 1, 2, 3, 17)))
    data = draw(st.lists(columns(n_rows), max_size=5))
    return Table(draw(st.sampled_from(("t", "trials", "b"))),
                 tuple(f"c{k}" for k in range(len(data))), tuple(data))


def _typed(values):
    return [(type(v), repr(v)) for v in values]


@settings(max_examples=300, deadline=None)
@given(column=st.sampled_from((0, 1, 17)).flatmap(columns))
def test_column_held_as_array_of_its_values(column):
    (held,) = Table("t", ("a",), (column,)).data
    assert held.ndim == 1 and held.dtype.kind in "fiubU"
    assert _typed(held.tolist()) == _typed(
        column.tolist() if isinstance(column, np.ndarray) else column)


@settings(max_examples=300, deadline=None)
@given(table=tables())
def test_csv_matches_row_wise_oracle(table):
    meta = {"seed": 1, "note": "x"}
    expected = report_oracle.table_csv(table.columns,
                                       report_oracle.rows_of(table), meta)
    for matrix_rows in (1, 10**9):  # byte matrices, then rows
        with mock.patch.object(report, "_MATRIX_ROWS", matrix_rows):
            assert b"".join(_table_csv(table, meta)) == expected.encode()


@st.composite
def histograms(draw):
    n_bins = draw(st.sampled_from((0, 1, 2, 3, 32)))
    edges = draw(st.lists(floats, min_size=n_bins + 1, max_size=n_bins + 1))
    labels = draw(st.lists(texts, min_size=1, max_size=5, unique=True))
    counts = st.lists(ints, min_size=n_bins, max_size=n_bins).map(tuple)
    return HistogramTable("h", tuple(edges),
                          tuple((label, draw(counts)) for label in labels))


@settings(max_examples=300, deadline=None)
@given(hist=histograms())
def test_histogram_csv_matches_row_wise_oracle(tmp_path_factory, hist):
    meta = {"seed": 1}
    out = tmp_path_factory.getbasetemp()  # each example overwrites r_h.csv
    (path,) = emit_csv(make_bundle(meta, histograms=[hist]), out, "r")
    assert path.name == "r_h.csv"
    assert path.read_bytes() == report_oracle.histogram_csv(
        hist, make_bundle(meta).meta).encode()


@settings(max_examples=300, deadline=None)
@given(tabs=st.lists(tables(), max_size=3, unique_by=lambda t: t.name),
       hist=histograms())
def test_json_matches_row_wise_oracle(tmp_path_factory, tabs, hist):
    # A meta string spelled like a rows placeholder: a regression input
    # for any encoder that splices the rows into encoded text.
    bundle = make_bundle({"seed": 1, "label": "\x00rows 0.0"}, tables=tabs,
                         histograms=[hist])
    path = tmp_path_factory.mktemp("json") / "r.json"
    expected = report_oracle.json_text(bundle)
    for matrix_rows in (1, 10**9):  # byte matrices, then rows
        with mock.patch.object(report, "_MATRIX_ROWS", matrix_rows):
            assert emit_json(bundle, path).read_text() == expected


json_scalars = st.one_of(
    st.none(), st.booleans(), floats, st.sampled_from((1e300, 2**64, -2**100)),
    st.integers(), texts)
# Values as the document's skeleton holds them: flat lists of one type of
# number or text beside nested lists, tuples and dicts, empty ones too.
json_values = st.recursive(json_scalars, lambda inner: st.one_of(
    st.sampled_from((floats, st.integers(), texts)).flatmap(st.lists),
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(texts, inner, max_size=4),
    st.dictionaries(st.integers(), inner, max_size=4)), max_leaves=20)


@settings(max_examples=500, deadline=None)
@given(value=json_values, depth=st.integers(0, 4))
def test_skeleton_writer_matches_json_dumps(value, depth):
    expected = json.dumps(value, sort_keys=True, indent=2)
    assert report._json_text(value, depth) == expected.replace(
        "\n", "\n" + "  " * depth)


def test_non_finite_floats_spelled_as_json_does(tmp_path):
    table = Table("t", ("x",), ((1.5, math.nan, math.inf, -math.inf),))
    text = emit_json(make_bundle({}, tables=[table]), tmp_path / "r.json") \
        .read_text()
    assert "NaN" in text and "-Infinity" in text and "nan" not in text
    assert text == report_oracle.json_text(make_bundle({}, tables=[table]))


def _mc_bundle(topology, kind):
    params = DeviceParams.default_2t1r() if topology is Topology.TWO_T_ONE_R \
        else DeviceParams.default_vgsot()
    spec = ArraySpec(topology, 3, 1, params)
    spec, op = calibrate_gate(spec, kind, 2).apply(spec)
    result = run_mc(spec, op, 300, VariationSpec(seed=5))
    summary, trials, histogram, hist = mc_tables(result)
    return make_bundle({"command": "mc", "overlap": hist.overlap_fraction},
                       tables=[summary, trials], histograms=[histogram])


def _assert_file_holds(path: Path, expected: str):
    """The file's bytes are ``expected`` in UTF-8. Compared by digest: on a
    mismatch, the first differing line is shown, not a diff of the whole
    texts, which takes minutes for a long report."""
    got = path.read_bytes()
    if hashlib.sha256(got).digest() == \
            hashlib.sha256(expected.encode()).digest():
        return
    lines = zip_longest(got.decode(errors="replace").splitlines(True),
                        expected.splitlines(True))
    k, (line, want) = next((k, pair) for k, pair in enumerate(lines, 1)
                           if pair[0] != pair[1])
    assert (path.name, k, line) == (path.name, k, want)


@pytest.mark.parametrize("topology, kind", [(Topology.TWO_T_ONE_R, GateKind.NOR),
                                            (Topology.VGSOT, GateKind.OR)])
def test_mc_reports_equal_row_wise_oracle(tmp_path, monkeypatch, topology,
                                         kind):
    bundle = _mc_bundle(topology, kind)
    for matrix_rows in (1, 10**9):  # byte matrices, then rows
        monkeypatch.setattr(report, "_MATRIX_ROWS", matrix_rows)
        emit_csv(bundle, tmp_path, "mc")
        for table in bundle.tables:
            _assert_file_holds(tmp_path / f"mc_{table.name}.csv",
                               report_oracle.table_csv(
                                   table.columns, report_oracle.rows_of(table),
                                   bundle.meta))
        for hist in bundle.histograms:
            _assert_file_holds(tmp_path / f"mc_{hist.name}.csv",
                               report_oracle.histogram_csv(hist, bundle.meta))
        _assert_file_holds(emit_json(bundle, tmp_path / "mc.json"),
                           report_oracle.json_text(bundle))


def test_short_writes_leave_the_bytes_of_a_fresh_report(tmp_path):
    bundle = _mc_bundle(Topology.VGSOT, GateKind.OR)
    fresh = tmp_path / "fresh"
    paths = [*emit_csv(bundle, fresh, "mc"), emit_json(bundle, fresh / "mc.json")]
    out = tmp_path / "out"
    out.mkdir()
    for path in paths:  # a longer old file under each report's name
        (out / path.name).write_bytes(b"\xff" * (path.stat().st_size + 5000))
    write, sizes = os.write, []

    def short_write(fd, data):  # takes at most 7 bytes
        sizes.append(write(fd, memoryview(data)[:7]))
        return sizes[-1]

    with mock.patch.object(os, "write", short_write):
        emit_csv(bundle, out, "mc")
        emit_json(bundle, out / "mc.json")
    assert max(sizes) == 7
    assert sum(sizes) == sum(path.stat().st_size for path in paths)
    for path in paths:
        assert (out / path.name).read_bytes() == path.read_bytes()


# --- the %.9g kernel against % ------------------------------------------------

def _formats_as_percent(values):
    x = np.array(values, dtype=np.float64)
    cells = _float_cells(x)
    return [bytes(row[row != 0]).decode() for row in cells] == \
        ["%.9g" % v for v in x.tolist()]


# (m + 0.5) * 10**k for a 9-digit m: %.9g rounds at the tie.
ties = st.builds(lambda m, k: float(f"{m}.5e{k}"),
                 st.integers(10**8, 10**9 - 1), st.integers(-320, 300))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(),
                                 ties), max_size=40))
def test_float_cells_format_as_percent(values):
    assert _formats_as_percent(values)


def _short_decimals(n):
    """For every digit count d = 1..n and exponent k: d digits 1234..., and
    d digits 10...01 (middle groups zero; 11 for d = 1), so that every
    layout key shows up."""
    return [float(f"{digits}e{k}") for d in range(1, n + 1)
            for digits in ("12345678912345678"[:d], f"1{'0' * (d - 2)}1")
            for k in range(-330, 310)]


def test_float_cells_format_as_percent_beside_every_power_of_ten():
    powers = np.array([float(f"1e{k}") for k in range(-310, 309)])
    values = np.concatenate([powers, np.nextafter(powers, 0),
                             np.nextafter(powers, np.inf), _short_decimals(9)])
    assert _formats_as_percent(np.concatenate([values, -values]))


def test_array_columns_write_their_tolist_rows(tmp_path):
    # Past one chunk of rows, with every cell rule and per-value formats.
    n = 9000
    rng = np.random.default_rng(1)
    x = rng.uniform(-3e-4, 3e-4, n)
    x[::97] = np.resize([0.0, -0.0, math.nan, -math.inf, 1.5e-320,
                         1.0000000005, 1e-5, 123456789.5], n // 97 + 1)
    data = (np.repeat(np.array(["00", "01", "10"]), n // 3),
            np.tile(np.arange(n // 3), 3) - 5,
            x, rng.uniform(size=n) < 0.5,
            np.full(n, 1e300 / 3), np.full(n, 7, np.uint8))
    table = Table("trials", ("p", "k", "x", "ok", "big", "u"), data)
    bundle = make_bundle({"seed": 1}, tables=[table])
    (path,) = emit_csv(bundle, tmp_path, "r")
    assert path.read_text() == report_oracle.table_csv(
        table.columns, report_oracle.rows_of(table), bundle.meta)


def test_array_columns_write_their_json_rows(tmp_path):
    # The JSON twin: past one chunk of rows, with non-finite, signed-zero,
    # subnormal and huge floats among the values.
    n = 9000
    rng = np.random.default_rng(2)
    x = rng.normal(5e-5, 1e-5, n)
    x[::89] = np.resize([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                         -1.5e-310, 1e300, -1e300 / 3], n // 89 + 1)
    data = (np.repeat(np.array(["00", "01", 'a"b']), n // 3),
            np.tile(np.arange(n // 3), 3) - 5, x, rng.uniform(size=n) < 0.5,
            rng.uniform(0.9, 1.1, n), np.full(n, 7, np.uint8))
    table = Table("trials", ("p", "k", "x", "ok", "v", "u"), data)
    bundle = make_bundle({"seed": 1}, tables=[table])
    text = emit_json(bundle, tmp_path / "r.json").read_text()
    assert text == report_oracle.json_text(bundle)
    rows = json.loads(text)["tables"]["trials"]["rows"]
    assert [repr(row[2]) for row in rows] == [repr(v) for v in x.tolist()]
    assert rows == json.loads(json.dumps(report_oracle.rows_of(table)))


# --- the repr kernel against float.__repr__ ------------------------------------

def _writes_repr(values):
    """Whether ``_repr_cells`` writes each value as ``json.dumps`` does:
    ``float.__repr__`` of a finite value, ``NaN``/``Infinity`` else."""
    x = np.array(values, dtype=np.float64)
    x = np.concatenate([x, -x])
    cells = _repr_cells(x)
    return [bytes(row[row != 0]).decode() for row in cells] == \
        [json.dumps(v) for v in x.tolist()]


# Values whose shortest text has 15, 16 and 17 digits, the 1e16 and 1e-4
# layout boundaries, and ties: R16 halfway between two 16-digit decimals
# that both read back, R17 halfway between two 17-digit ones.
REPR_CASES = (0.1, 1 / 3, 2 / 3, 123456789012345.0, 1234567890123456.0,
              12345678901234567.0, 0.30000000000000004, 9007199254740993.0,
              1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05,
              0.00011, 1e22, 1e23, 5e-324, 2.2250738585072014e-308,
              1.7976931348623157e308, 600000000000000.25, 1 + 2**-17,
              1e-290, 1e290)
# A 15-, 16- or 17-digit decimal, read as a double.
decimals = st.builds(lambda digits, m, k: float(f"{m % 10**digits}e{k}"),
                     st.sampled_from((15, 16, 17)), st.integers(0, 10**17),
                     st.integers(-330, 310))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(st.sampled_from(SPECIAL_FLOATS + REPR_CASES),
                                 st.floats(), decimals, ties), max_size=40))
def test_repr_cells_write_repr(values):
    assert _writes_repr(values)


def test_repr_cells_write_repr_beside_every_power_of_ten_and_two():
    powers = np.concatenate([[float(f"1e{k}") for k in range(-323, 309)],
                             np.ldexp(1.0, np.arange(-1074, 1024))])
    assert _writes_repr(np.concatenate([powers, np.nextafter(powers, 0),
                                        np.nextafter(powers, np.inf),
                                        _short_decimals(17)]))


def _fallbacks(values):
    """How many values ``_repr_cells`` hands to ``float.__repr__``."""
    with mock.patch.object(report, "_fallback_cells",
                           wraps=report._fallback_cells) as spy:
        _repr_cells(np.asarray(values, dtype=np.float64))
    return len(spy.call_args.args[1])


def test_repr_cells_rarely_fall_back():
    x = np.random.default_rng(3).normal(5e-5, 1e-5, 200_000)
    assert _writes_repr(x[:20_000])
    assert _fallbacks(x) < 2  # fewer than 1 in 10**5
    bundle = _mc_bundle(Topology.VGSOT, GateKind.AND)
    trials = next(t for t in bundle.tables if t.name == "trials")
    floats = [c for c in trials.data if c.dtype.kind == "f"]
    assert (np.concatenate(floats) == 0).any()  # the clamped thresholds
    assert _fallbacks(np.concatenate(floats)) == 0
