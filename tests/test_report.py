"""Deterministic serialization: CSV/JSON layout, digests, round trips."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import report_oracle
from sotlogic import (ArraySpec, DeviceParams, GateKind, HistogramTable,
                      Table, Topology, VariationSpec, calibrate_gate,
                      config_digest, emit_csv, emit_json, make_bundle,
                      mc_tables, run_mc)
from sotlogic.report import _table_csv, render_number


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
    bundle = make_bundle({"seed": 9})
    paths = emit_csv(bundle, tmp_path, "empty")
    assert len(paths) == 1 and paths[0].name == "empty_meta.csv"
    assert "seed,9" in paths[0].read_text()
    doc = json.loads(emit_json(bundle, tmp_path / "empty.json").read_text())
    assert doc["tables"] == {} and doc["meta"]["seed"] == 9


def test_table_columns_of_unequal_length_rejected(tmp_path):
    for data in ((), ((1,),), ((1,), (2,), (3,)), ((1, 2), (3,)), ((), (4,)),
                 ((1, 2), (3, 4, 5))):
        bad = make_bundle({}, tables=[Table("t", ("a", "b"), data)])
        with pytest.raises(ValueError, match="'t': columns of unequal length"):
            emit_csv(bad, tmp_path, "bad")
        with pytest.raises(ValueError, match="'t': columns of unequal length"):
            emit_json(bad, tmp_path / "bad.json")


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
                "\x00", "\x1f", " ", "\U0001f600")

floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
ints = st.one_of(st.sampled_from((0, -1, 2**70, -2**70)), st.integers())
texts = st.one_of(st.sampled_from(SPECIAL_TEXT), st.text(max_size=6))
np_scalars = st.one_of(floats.map(np.float64),
                       st.integers(-2**63, 2**63 - 1).map(np.int64))
scalars = st.one_of(floats, ints, st.booleans(), texts, np_scalars)
# Each column draws its values from one of these.
column_values = st.sampled_from((
    floats,
    st.floats(allow_nan=False, allow_infinity=False),
    ints,
    st.booleans(),
    texts,
    st.one_of(st.just(""), floats),  # margin/calibrate tables: "" beside floats
    np_scalars,
    scalars,
))


@st.composite
def tables(draw):
    n_rows = draw(st.sampled_from((0, 1, 2, 3, 17)))
    n_cols = draw(st.integers(0, 5))
    data = tuple(draw(st.lists(draw(column_values), min_size=n_rows,
                               max_size=n_rows)) for _ in range(n_cols))
    return Table(draw(st.sampled_from(("t", "trials", "b"))),
                 tuple(f"c{k}" for k in range(n_cols)), data)


def _oracle_or_error(fn, *args):
    try:
        return fn(*args)
    except (TypeError, ValueError) as exc:
        return type(exc)


def _json_or_error(bundle, path):
    try:
        return emit_json(bundle, path).read_text()
    except (TypeError, ValueError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(table=tables())
def test_csv_matches_row_wise_oracle(table):
    meta = {"seed": 1, "note": "x"}

    def table_csv(table, meta):  # the lines, joined
        return "".join(_table_csv(table, meta))

    assert _oracle_or_error(table_csv, table, meta) == \
        _oracle_or_error(report_oracle.table_csv, table.columns,
                         report_oracle.rows_of(table), meta)


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
    # The label equals emit_json's first placeholder for a table's rows.
    bundle = make_bundle({"seed": 1, "label": "\x00rows 0.0"}, tables=tabs,
                         histograms=[hist])
    path = tmp_path_factory.mktemp("json") / "r.json"
    assert _json_or_error(bundle, path) == \
        _oracle_or_error(report_oracle.json_text, bundle)


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
def test_mc_reports_equal_row_wise_oracle(tmp_path, topology, kind):
    bundle = _mc_bundle(topology, kind)
    emit_csv(bundle, tmp_path, "mc")
    for table in bundle.tables:
        assert (tmp_path / f"mc_{table.name}.csv").read_text() == \
            report_oracle.table_csv(table.columns,
                                    report_oracle.rows_of(table), bundle.meta)
    for hist in bundle.histograms:
        assert (tmp_path / f"mc_{hist.name}.csv").read_text() == \
            report_oracle.histogram_csv(hist, bundle.meta)
    assert emit_json(bundle, tmp_path / "mc.json").read_text() == \
        report_oracle.json_text(bundle)
