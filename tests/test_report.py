"""Deterministic serialization: CSV/JSON layout, digests, round trips."""

import json
import math
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
from sotlogic.report import _float_cells, _table_csv


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
])
def test_column_without_a_rule_rejected(column, error):
    with pytest.raises(error, match="table 't'"):
        Table("t", ("a",), (column,))


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
            assert "".join(_table_csv(table, meta)) == expected


@st.composite
def histograms(draw):
    n_bins = draw(st.sampled_from((0, 1, 2, 3, 32)))
    edges = draw(st.lists(floats, min_size=n_bins + 1, max_size=n_bins + 1))
    labels = draw(st.lists(texts, min_size=1, max_size=5))
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
@given(tabs=st.lists(tables(), max_size=3))
def test_json_matches_row_wise_oracle(tmp_path_factory, tabs):
    hist = HistogramTable("h", (0.0, 0.5, 1.0), (("00", (3, 7)),))
    # A meta string spelled like a rows placeholder: a regression input
    # for any encoder that splices the rows into encoded text.
    bundle = make_bundle({"seed": 1, "label": "\x00rows 0.0"}, tables=tabs,
                         histograms=[hist])
    path = tmp_path_factory.mktemp("json") / "r.json"
    assert emit_json(bundle, path).read_text() == \
        report_oracle.json_text(bundle)


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


@pytest.mark.parametrize("topology, kind", [(Topology.TWO_T_ONE_R, GateKind.NOR),
                                            (Topology.VGSOT, GateKind.OR)])
def test_mc_reports_equal_row_wise_oracle(tmp_path, monkeypatch, topology,
                                         kind):
    bundle = _mc_bundle(topology, kind)
    for matrix_rows in (1, 10**9):  # byte matrices, then rows
        monkeypatch.setattr(report, "_MATRIX_ROWS", matrix_rows)
        emit_csv(bundle, tmp_path, "mc")
        for table in bundle.tables:
            assert (tmp_path / f"mc_{table.name}.csv").read_text() == \
                report_oracle.table_csv(table.columns,
                                        report_oracle.rows_of(table),
                                        bundle.meta)
        for hist in bundle.histograms:
            assert (tmp_path / f"mc_{hist.name}.csv").read_text() == \
                report_oracle.histogram_csv(hist, bundle.meta)
    assert emit_json(bundle, tmp_path / "mc.json").read_text() == \
        report_oracle.json_text(bundle)


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


def test_float_cells_format_as_percent_beside_every_power_of_ten():
    powers = np.array([float(f"1e{k}") for k in range(-310, 309)])
    values = np.concatenate([powers, np.nextafter(powers, 0),
                             np.nextafter(powers, np.inf)])
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
