"""End-to-end command-line checks: exit codes, files, determinism."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sotlogic import (ArraySpec, ConfigError, DeviceParams, GateKind,
                      GateOp, Topology, cli, critical_sot_current, device,
                      gates, margin_analysis, mtj_area)
from sotlogic.cli import _COMMANDS, MAX_INPUTS, build_parser, main


def read_table(path):
    lines = [l for l in Path(path).read_text().splitlines()
             if not l.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def test_truth_table_default_nor(tmp_path):
    out = tmp_path / "o"
    assert main(["truth-table", "--out", str(out)]) == 0
    header, rows = read_table(out / "truth_table_table.csv")
    assert header[:4] == ["IN1", "IN0", "OUT_expected", "OUT"]
    assert len(rows) == 4
    assert [r[3] for r in rows] == ["1", "0", "0", "0"]


def test_truth_table_three_input_nand_matches_oracle(tmp_path):
    out = tmp_path / "o"
    assert main(["truth-table", "--gate", "nand", "--inputs", "3",
                 "--topology", "vgsot", "--out", str(out)]) == 0
    header, rows = read_table(out / "truth_table_table.csv")
    assert len(rows) == 8
    for row in rows:
        bits = [int(b) for b in row[:3]]
        assert int(row[4]) == int(not all(bits))


def test_zero_tmr_reports_inseparable(tmp_path, capsys):
    cfg = tmp_path / "dev.json"
    cfg.write_text(json.dumps({"TMR0": 0.0}))
    code = main(["truth-table", "--config", str(cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "inseparable" in capsys.readouterr().err


def test_unknown_config_key_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "dev.json"
    cfg.write_text(json.dumps({"nonsense": 1}))
    code = main(["truth-table", "--config", str(cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "nonsense" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["alpha", "P", "H_EX"])
def test_removed_parameters_are_unknown_keys_and_axes(tmp_path, capsys, name):
    cfg = tmp_path / "dev.json"
    cfg.write_text(json.dumps({name: 1.0}))
    assert main(["truth-table", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert f"unknown device parameter key: {name!r}" in capsys.readouterr().err
    assert main(["sweep", "--axis", name, "--min", "0", "--max", "1",
                 "--out", str(tmp_path / "o")]) == 2
    assert f"unknown sweep axis {name!r}" in capsys.readouterr().err


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "dev.json"
    cfg.write_text(json.dumps({"R_on": 1e-6}))
    out = tmp_path / "o"
    assert main(["margin", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = read_table(out / "margin_summary.csv")
    # With (effectively) zero access resistance the margin is ~66.8 uA.
    assert abs(float(rows[0][2]) - 66.8e-6) < 0.5e-6
    # --ic-cal overrides the file's Ic_cal: the reports, whose digest covers
    # the resolved device, are the same with and without it in the file.
    reports = []
    for name, device in (("without", {}), ("with", {"Ic_cal": 50.0})):
        cfg.write_text(json.dumps(device))
        assert main(["truth-table", "--config", str(cfg), "--ic-cal", "1.78",
                     "--out", str(tmp_path / name)]) == 0
        reports.append(_snapshot(tmp_path / name))
    assert reports[0] == reports[1]


def test_v_drive_override_recalibrates(tmp_path):
    # Calibration must run at the overridden drive, or the threshold lands
    # outside the scaled current window and the table breaks.
    out = tmp_path / "o"
    assert main(["truth-table", "--v-drive", "0.8", "--out", str(out)]) == 0
    header, rows = read_table(out / "truth_table_table.csv")
    assert [r[3] for r in rows] == ["1", "0", "0", "0"]


def test_mc_reproducible_byte_identical(tmp_path):
    args = ["mc", "-n", "120", "--seed", "9", "--margin-fraction", "0.2"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    for name in ("mc_summary.csv", "mc_trials.csv", "mc_histogram.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_mc_worker_count_invariant(tmp_path):
    base = ["mc", "-n", "90", "--seed", "4"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(base + ["--workers", "1", "--out", str(a)]) == 0
    assert main(base + ["--workers", "3", "--out", str(b)]) == 0
    for name in ("mc_summary.csv", "mc_trials.csv", "mc_histogram.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_mc_zero_sigma_all_patterns_pass(tmp_path):
    out = tmp_path / "o"
    assert main(["mc", "-n", "50", "--sigma", "0", "--out", str(out)]) == 0
    _, rows = read_table(out / "mc_summary.csv")
    assert all(float(r[-1]) == 1.0 for r in rows)


@pytest.mark.parametrize("argv, observable", [
    # TMR0 = 0: every input cell has one resistance, so every i_out is equal.
    (["--sigma", "0", "--ic-cal", "1", "--config", "{tmr0_config}"], "i_out"),
    # So strong a gating drive that every threshold clamps to 0.
    (["--topology", "vgsot", "--sigma", "0", "--i-sot", "1e-5",
      "--v-drive", "20"], "i_crit"),
])
def test_mc_histogram_of_a_constant_observable(tmp_path, argv, observable):
    config = tmp_path / "tmr0.json"
    config.write_text('{"TMR0": 0}')
    argv = [str(config) if a == "{tmr0_config}" else a for a in argv]
    out = tmp_path / "o"
    assert main(["mc", "-n", "40", "--format", "json", "--out", str(out)]
                + argv) == 0
    doc = json.loads((out / "mc_report.json").read_text())
    trials = doc["tables"]["trials"]
    (value,) = {row[trials["columns"].index(observable)]
                for row in trials["rows"]}
    hist = doc["histograms"]["histogram"]
    edges = hist["bin_edges"]
    assert len(hist["series"]) == 4
    for counts in hist["series"].values():
        occupied = [k for k, c in enumerate(counts) if c]
        assert len(occupied) == 1 and counts[occupied[0]] == 40
        assert edges[occupied[0]] <= value <= edges[occupied[0] + 1]
    assert edges[0] < value < edges[-1]


def test_mc_json_format(tmp_path):
    out = tmp_path / "o"
    assert main(["mc", "-n", "60", "--seed", "3", "--format", "json",
                 "--out", str(out)]) == 0
    doc = json.loads((out / "mc_report.json").read_text())
    summary = doc["tables"]["summary"]
    assert summary["columns"][-1] == "success_rate"
    assert len(summary["rows"]) == 4
    assert doc["meta"]["seed"] == 3
    assert doc["meta"]["rng_stream"] == 2


def test_mc_csv_reports_record_rng_stream(tmp_path):
    out = tmp_path / "o"
    assert main(["mc", "-n", "10", "--out", str(out)]) == 0
    for name in ("mc_summary.csv", "mc_trials.csv", "mc_histogram.csv"):
        assert "# rng_stream=2" in (out / name).read_text().splitlines()


def test_mc_spanning_two_blocks_worker_invariant(tmp_path):
    base = ["mc", "-n", "4099", "--seed", "12", "--inputs", "1"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(base + ["--workers", "1", "--out", str(a)]) == 0
    assert main(base + ["--workers", "2", "--out", str(b)]) == 0
    for name in ("mc_summary.csv", "mc_trials.csv", "mc_histogram.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    _, rows = read_table(a / "mc_trials.csv")
    assert len(rows) == 2 * 4099


def test_mc_with_workers_starts_no_process_pool(tmp_path):
    argv = ["mc", "-n", "20", "--workers", "2", "--out", str(tmp_path / "o")]
    code = ("import sys\n"
            "from sotlogic.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print(sorted({'concurrent.futures', 'multiprocessing'}"
            " & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"


def test_mc_checks_bins_before_sampling(tmp_path, capsys, monkeypatch):
    def run_mc(*args, **kwargs):
        raise AssertionError("the campaign ran before --bins was checked")

    monkeypatch.setattr(cli, "run_mc", run_mc)
    assert main(["mc", "-n", "200000", "--bins", "0",
                 "--out", str(tmp_path / "o")]) == 2
    assert "--bins must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("flags, field", [(["--sigma", "nan"], "sigma_t_ox"),
                                          (["--sigma-ra", "inf"], "sigma_ra"),
                                          (["--sigma=-nan"], "sigma_t_ox"),
                                          (["--sigma-ra", "-inf"], "sigma_ra")])
def test_mc_rejects_non_finite_sigma(tmp_path, capsys, flags, field):
    code = main(["mc", "-n", "10", "--out", str(tmp_path / "o")] + flags)
    err = capsys.readouterr().err
    assert code == 2
    assert field in err and "finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_sweep_finds_feasibility_boundary(tmp_path):
    out = tmp_path / "o"
    assert main(["sweep", "--axis", "RA", "--min", "5", "--max", "50",
                 "--points", "10", "--out", str(out)]) == 0
    header, rows = read_table(out / "sweep_sweep.csv")
    margin_col = header.index("margin")
    feasible_col = header.index("feasible")
    margins = [float(r[margin_col]) for r in rows]
    assert all(a > b for a, b in zip(margins, margins[1:]))  # decreasing in RA
    flags = [r[feasible_col] == "true" for r in rows]
    assert flags[0] and not flags[-1] and True in flags and False in flags


# (topology, gate, inputs, axis, min, max, points)
SWEEPS = [("2t1r", "nor", 2, "RA", 10.0, 10.0, 1),
          ("2t1r", "nand", 3, "TMR0", 0.2, 1.8, 5),
          ("2t1r", "or", 2, "R_on", 0.0, 3000.0, 4),
          ("2t1r", "and", 1, "t_f", 0.9e-9, 1.3e-9, 3),
          ("2t1r", "nor", 4, "D", 30e-9, 80e-9, 6),
          ("vgsot", "nor", 2, "beta", 1e-15, 120e-15, 7),
          ("vgsot", "and", 3, "t_ox", 1.0e-9, 2.0e-9, 5),
          ("vgsot", "or", 2, "RA", 300.0, 900.0, 3),
          ("vgsot", "nand", 5, "Ki0", 2.6e-4, 3.6e-4, 4),
          ("vgsot", "nor", 1, "J_stt_crit", 1e9, 1e11, 2),
          # More points than one solve takes at this fan-in.
          ("2t1r", "nor", 8, "RA", 5.0, 50.0, 20),
          ("vgsot", "and", 7, "TMR0", 0.5, 1.5, 40),
          # ... of axes no network value depends on, so that each solve
          # returns scalar windows.
          ("2t1r", "nor", 8, "Ic_cal", 0.5, 1.5, 20),
          ("vgsot", "and", 7, "J_stt_crit", 1e9, 1e11, 40)]


def test_single_point_sweep_matches_margin_analysis(tmp_path):
    # The points of a sweep are solved together as arrays; each must equal
    # a margin analysis and a threshold at that point's parameters alone.
    # JSON keeps every float exactly.
    for topology, gate, n, axis, lo, hi, points in SWEEPS:
        out = tmp_path / f"{topology}_{axis}"
        assert main(["sweep", "--topology", topology, "--gate", gate,
                     "--inputs", str(n), "--axis", axis, "--min", str(lo),
                     "--max", str(hi), "--points", str(points),
                     "--format", "json", "--out", str(out)]) == 0
        rows = json.loads((out / "sweep_report.json").read_text())[
            "tables"]["sweep"]["rows"]
        topo, kind = Topology.parse(topology), GateKind.parse(gate)
        base = DeviceParams.default_2t1r() if topo is Topology.TWO_T_ONE_R \
            else DeviceParams.default_vgsot()
        assert len(rows) == points
        for value, row in zip(np.linspace(lo, hi, points).tolist(), rows):
            params = base.replace(**{axis: value})
            report = margin_analysis(ArraySpec(topo, max(3, n + 1), 1, params),
                                     kind, n, GateOp.for_kind(kind, topo,
                                                              n_inputs=n))
            i_dev = critical_sot_current(params, 0.0)
            density = max(report.max_input_current) / mtj_area(params)
            feasible = report.margin > 0.0 and (
                topo is Topology.VGSOT or report.hi >= i_dev)
            assert row == [value, report.lo, report.hi, report.margin,
                           report.relative_margin, i_dev, density,
                           density < params.J_stt_crit, feasible], \
                (topology, axis, value)


def test_sweep_values_are_checked_before_any_solve(tmp_path, capsys,
                                                   monkeypatch):
    # Two solves of 16 points at 8 inputs; only the last point is invalid.
    def solve(*args, **kwargs):
        raise AssertionError("a sweep point was solved before every value "
                             "was checked")

    monkeypatch.setattr(gates, "solve_pattern", solve)
    assert main(["sweep", "--inputs", "8", "--axis", "R_on", "--min", "3000",
                 "--max", "-1", "--points", "20",
                 "--out", str(tmp_path / "o")]) == 2
    assert "R_on must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


class _Checked(Exception):
    """Raised by the first sweep solve: every value passed its check."""


_SWEEP_ENDS = st.one_of(st.floats(-2.0, 2.0),
                        st.sampled_from([0.0, -0.0, 1.0, 5e-324]),
                        st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=150, deadline=None)
@given(axis=st.sampled_from(device.FIELDS), lo=_SWEEP_ENDS, hi=_SWEEP_ENDS,
       points=st.integers(1, 300))
def test_sweep_end_check_agrees_with_checking_every_value(axis, lo, hi,
                                                          points):
    # The oracle is the check the sweep made before it checked only the
    # ends: every value in turn, stopping at the first that fails.
    with np.errstate(all="ignore"):
        values = np.linspace(lo, hi, points)
    assume(np.isfinite(values).all())  # an overflowing span has its own row
    try:
        for value in values.tolist():
            DeviceParams.default_2t1r().replace(**{axis: value})
        expected = None
    except ConfigError as exc:
        expected = f"error: {exc}\n"
    err = io.StringIO()
    with mock.patch.object(gates, "margin_analysis", side_effect=_Checked), \
            contextlib.redirect_stderr(err):
        try:
            code = main(["sweep", "--axis", axis, f"--min={lo!r}",
                         f"--max={hi!r}", "--points", str(points),
                         "--out", "never-written"])
        except _Checked:
            code = None
    if expected is None:
        assert code is None
    else:
        assert (code, err.getvalue()) == (2, expected)


def test_sweep_unknown_axis(tmp_path, capsys):
    assert main(["sweep", "--axis", "XX", "--min", "0", "--max", "1",
                 "--out", str(tmp_path / "o")]) == 2
    assert "unknown sweep axis" in capsys.readouterr().err


def test_sweep_exchange_bias_axis_in_oersted(tmp_path):
    assert main(["sweep", "--axis", "H_EX_Oe", "--min", "-100", "--max", "100",
                 "--points", "3", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "sweep_sweep.csv").read_text().splitlines()
    column = [line.split(",")[0] for line in lines if line[0] != "#"]
    assert column == ["H_EX_Oe", "-100", "0", "100"]


def test_vgsot_beta_sweep_margin_increases(tmp_path):
    # The threshold separation grows linearly with the VCMA slope while both
    # thresholds stay positive; past ~78 fJ/(V m) the 1.5 V operating point
    # over-gates the must-switch case (and by ~94 the must-hold case too),
    # collapsing the margin to zero.
    out = tmp_path / "o"
    assert main(["sweep", "--topology", "vgsot", "--axis", "beta",
                 "--min", "1e-15", "--max", "75e-15", "--points", "6",
                 "--out", str(out)]) == 0
    header, rows = read_table(out / "sweep_sweep.csv")
    margins = [float(r[header.index("margin")]) for r in rows]
    assert all(a < b for a, b in zip(margins, margins[1:]))

    out2 = tmp_path / "o2"
    assert main(["sweep", "--topology", "vgsot", "--axis", "beta",
                 "--min", "120e-15", "--max", "120e-15", "--points", "1",
                 "--out", str(out2)]) == 0
    header2, rows2 = read_table(out2 / "sweep_sweep.csv")
    assert float(rows2[0][header2.index("margin")]) == 0.0


def test_calibrate_command(tmp_path):
    out = tmp_path / "o"
    assert main(["calibrate", "--topology", "vgsot", "--gate", "and",
                 "--inputs", "3", "--out", str(out)]) == 0
    header, rows = read_table(out / "calibrate_calibration.csv")
    v_drive = float(rows[0][header.index("v_drive")])
    assert v_drive < 1.5  # over-gated case forces a lowered drive


def test_gate_command_runs_recipe(tmp_path):
    ops = tmp_path / "ops.txt"
    ops.write_text("nor,0,0;1,2\nnor,0,2;3,1\n")
    state = tmp_path / "init.csv"
    state.write_text("rows,cols,topology\n4,1,2t1r\n1\n0\n0\n0\n")
    out = tmp_path / "o"
    assert main(["gate", "--ops", str(ops), "--array", str(state),
                 "--ic-cal", "1.78", "--out", str(out)]) == 0
    text = (out / "gate_state.csv").read_text().splitlines()
    # NOR(1,0) -> 0 on row 2; then NOR(row2=0, row3=0) -> 1 on row 1.
    assert text[2:] == ["1", "1", "0", "0"]
    header, rows = read_table(out / "gate_traces.csv")
    assert len(rows) == 2
    assert rows[0][header.index("out_bit")] == "0"
    assert rows[1][header.index("out_bit")] == "1"


def test_gate_topology_mismatch(tmp_path, capsys):
    ops = tmp_path / "ops.txt"
    ops.write_text("nor,0,0;1,2\n")
    state = tmp_path / "init.csv"
    state.write_text("rows,cols,topology\n3,1,vgsot\n0\n0\n0\n")
    assert main(["gate", "--ops", str(ops), "--array", str(state),
                 "--topology", "2t1r", "--out", str(tmp_path / "o")]) == 2
    assert "topology" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["truth-table", "--config", "{inf_config}"], "R_on must be finite"),
    (["truth-table", "--config", "{nan_config}"], "TMR0 must be finite"),
    (["truth-table", "--ic-cal", "1", "--v-drive", "nan"],
     "v_drive must be finite"),
    (["truth-table", "--topology", "vgsot", "--v-drive", "nan"],
     "v_drive must be finite"),
    (["truth-table", "--topology", "vgsot", "--i-sot", "inf"],
     "i_sot must be finite"),
    (["margin", "--v-drive", "inf"], "v_drive must be finite"),
    (["mc", "-n", "10", "--pulse", "nan"], "pulse must be finite"),
    (["sweep", "--axis", "RA", "--min", "5", "--max", "inf"],
     "--max must be finite"),
    # Finite inputs too large to compute with. A recipe's i_sot is squared
    # in the write-energy estimate.
    (["gate", "--topology", "vgsot", "--ops", "{recipe}"], "numeric overflow"),
    # Ic_cal overflows the threshold: per-trial arrays, then one nominal gate.
    (["mc", "-n", "5", "--ic-cal", "1e300"], "numeric overflow"),
    (["truth-table", "--ic-cal", "1e300"], "numeric overflow"),
    # Ms^2 overflows the anisotropy term: in calibration, then in MC trials.
    (["truth-table", "--topology", "vgsot", "--config", "{ms_config}"],
     "numeric overflow"),
    (["mc", "-n", "5", "--topology", "vgsot", "--config", "{ms_config}",
      "--i-sot", "6e-5"], "numeric overflow"),
    # A vanishing zero-bias barrier leaves 2T-1R calibration nothing to scale.
    (["calibrate", "--config", "{ki0_config}"], "Ki0"),
    (["truth-table", "--config", "{ki0_config}"], "zero-bias barrier"),
    (["mc", "-n", "5", "--config", "{ki0_config}"], "zero-bias barrier"),
    # The voltage-gated drive scan finds no window for the same reason.
    (["calibrate", "--topology", "vgsot", "--config", "{ki0_config}"], "Ki0"),
    (["truth-table", "--topology", "vgsot", "--config", "{ki0_config}"],
     "zero-bias barrier"),
    (["mc", "-n", "5", "--topology", "vgsot", "--config", "{ki0_config}"],
     "zero-bias barrier"),
    # An array CSV cell is exactly 0 or 1.
    (["gate", "--ops", "{nor_recipe}", "--array", "{bad_array}"],
     "array CSV row 0: '2' is not a bit"),
    (["gate", "--ops", "{nor_recipe}", "--array", "{negative_array}"],
     "array CSV row 1: '-1' is not a bit"),
    # Sizes are bounded before anything is allocated; the array's cells
    # alike from the flags and from an array CSV header.
    (["gate", "--ops", "{nor_recipe}", "--rows", "1000000000000000"],
     "array needs rows * cols <= 16777216, got 1000000000000000 x 1"),
    (["gate", "--ops", "{nor_recipe}", "--array", "{wide_array}"],
     "array needs rows * cols <= 16777216, got 3 x 100000000"),
    (["mc", "-n", "5", "--bins", "1000000000000000"],
     "--bins must be <= 65536"),
    (["sweep", "--axis", "RA", "--min", "1", "--max", "2",
      "--points", "1000000000000000"], "--points must be <= 65536"),
    # A campaign keeps trials x 2^inputs samples of each quantity.
    (["mc", "-n", "1000000000000"],
     "--trials x 2^inputs must be <= 16777216, got 1000000000000 x 4"),
    # An MTJ area that underflows to 0 leaves no current density, and no
    # resistance to divide by.
    (["sweep", "--axis", "D", "--min", "1e-300", "--max", "1e-9"],
     "numeric overflow"),
    (["margin", "--config", "{d_config}"], "numeric overflow"),
    (["mc", "-n", "5", "--config", "{d_config}"], "numeric overflow"),
    (["mc", "-n", "16777216", "--inputs", "8"],
     "--trials x 2^inputs must be <= 16777216, got 16777216 x 256"),
    # Both ends are finite, but the span between them is not.
    (["sweep", "--axis", "beta", "--min=-1.7e308", "--max=1.7e308"],
     "numeric overflow"),
    # Unreadable or malformed input files.
    (["truth-table", "--config", "{missing_config}"],
     "cannot read config file"),
    (["truth-table", "--config", "{truncated_config}"],
     "malformed config file"),
    (["truth-table", "--config", "{list_config}"],
     "device config must be a JSON object"),
    (["gate", "--ops", "{nor_recipe}", "--array", "{two_field_array}"],
     "malformed array CSV header values"),
    (["gate", "--ops", "{nor_recipe}", "--array", "{short_array}"],
     "array CSV declares 3 rows, found 2"),
    (["gate", "--ops", "{nor_recipe}", "--array", "{mram_array}"],
     "unknown topology 'mram'"),
    (["gate", "--ops", "{same_rows_recipe}"], "input rows must be distinct"),
    (["gate", "--ops", "{negative_pulse_recipe}"], "pulse width must be >= 0"),
    # A trial count below 1 is found before calibration, which this
    # device config would fail as inseparable (exit 1).
    (["mc", "--trials", "0", "--config", "{tmr0_config}"],
     "--trials must be >= 1"),
    (["mc", "-n", "-3", "--config", "{tmr0_config}"], "--trials must be >= 1"),
    # Malformed recipe lines, and arrays too small or with no column.
    (["gate", "--ops", "{xor_recipe}"], "op line 1: unknown gate kind 'xor'"),
    (["gate", "--ops", "{short_recipe}"], "need kind,col,in_rows,out_row"),
    (["gate", "--ops", "{overlap_recipe}"],
     "output row must be disjoint from input rows"),
    (["gate", "--ops", "{no_input_recipe}"], "gate needs at least one input row"),
    (["gate", "--ops", "{col3_recipe}"], "column 3 out of bounds for 1-col array"),
    (["gate", "--ops", "{nor_recipe}", "--rows", "2"], "array needs rows >= 3"),
    (["gate", "--ops", "{nor_recipe}", "--cols", "0"], "array needs cols >= 1"),
    # Variation and operating-point bounds.
    (["mc", "-n", "5", "--sigma=-0.1"], "sigma_t_ox must be >= 0"),
    (["mc", "-n", "5", "--sigma", "0.3"], "too large"),
    (["truth-table", "--margin-fraction", "1.5"],
     "margin_fraction must be in (0, 1)"),
    (["calibrate", "--margin-fraction", "0"], "margin_fraction must be in (0, 1)"),
    # Every command records the seed, which keys mc's 64-bit Philox streams.
    (["mc", "-n", "5", "--seed", "-1"], "seed must fit in 64 bits"),
    (["mc", "-n", "5", "--seed", "18446744073709551616"],
     "seed must fit in 64 bits"),
    (["truth-table", "--seed", "-1"], "seed must fit in 64 bits"),
    (["calibrate", "--seed", "18446744073709551616"], "seed must fit in 64 bits"),
    (["calibrate", "--seed", "99999999999999999999999"],
     "seed must fit in 64 bits"),
    (["margin", "--seed", "-1"], "seed must fit in 64 bits"),
    (["sweep", "--axis", "RA", "--min", "5", "--max", "50", "--seed", "-1"],
     "seed must fit in 64 bits"),
    (["gate", "--ops", "{nor_recipe}", "--seed", "18446744073709551616"],
     "seed must fit in 64 bits"),
    # Recipe lines with more fields, or more input rows, than an op takes.
    (["gate", "--ops", "{long_recipe}"],
     "op line 1: need kind,col,in_rows,out_row[,v_drive,i_sot,pulse]"),
    (["gate", "--ops", "{wide_recipe}", "--rows", "12"],
     "10 inputs: a gate takes 1 up to the fan-in limit of 8"),
])
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, argv, message):
    files = {"{nan_config}": ("nan.json", '{"TMR0": NaN}'),
             "{inf_config}": ("inf.json", '{"R_on": Infinity}'),
             "{ms_config}": ("ms.json", '{"Ms": 1e200}'),
             "{ki0_config}": ("ki0.json", '{"Ki0": 1e-9}'),
             "{d_config}": ("d.json", '{"D": 1e-300}'),
             "{tmr0_config}": ("tmr0.json", '{"TMR0": 0}'),
             "{recipe}": ("recipe.txt", "nor,0,0;1,2,,1e300\n"),
             "{nor_recipe}": ("nor.txt", "nor,0,0;1,2\n"),
             "{bad_array}": ("bad.csv", "rows,cols,topology\n3,1,2t1r\n2\n-1\n0\n"),
             "{negative_array}": ("neg.csv",
                                  "rows,cols,topology\n3,1,2t1r\n0\n-1\n0\n"),
             "{wide_array}": ("wide.csv",
                              "rows,cols,topology\n3,100000000,2t1r\n0\n0\n0\n"),
             "{missing_config}": ("missing.json", None),
             "{truncated_config}": ("truncated.json", '{"TMR0": '),
             "{list_config}": ("list.json", "[1, 2]"),
             "{two_field_array}": ("two.csv",
                                   "rows,cols,topology\n3,1\n0\n0\n0\n"),
             "{short_array}": ("short.csv", "rows,cols,topology\n3,1,2t1r\n0\n0\n"),
             "{mram_array}": ("mram.csv",
                              "rows,cols,topology\n3,1,mram\n0\n0\n0\n"),
             "{same_rows_recipe}": ("same.txt", "nor,0,0;0,2\n"),
             "{negative_pulse_recipe}": ("pulse.txt", "nor,0,0;1,2,,,-1\n"),
             "{xor_recipe}": ("xor.txt", "xor,0,0;1,2\n"),
             "{short_recipe}": ("short.txt", "nor,0\n"),
             "{long_recipe}": ("long.txt",
                               "nor,0,0;1,2,1.1,6e-5,2e-9,junk,more\n"),
             "{wide_recipe}": ("wide.txt", "nor,0,0;1;2;3;4;5;6;7;8;9,10\n"),
             "{overlap_recipe}": ("overlap.txt", "nor,0,0;1,1\n"),
             "{no_input_recipe}": ("no_input.txt", "nor,0,,2\n"),
             "{col3_recipe}": ("col3.txt", "nor,3,0;1,2\n")}
    for name, text in files.values():
        if text is not None:
            (tmp_path / name).write_text(text)
    argv = [str(tmp_path / files[a][0]) if a in files else a for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the run
        code = main(argv + ["--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [["truth-table"], ["mc", "-n", "5"]])
@pytest.mark.parametrize("setup", [
    ["--topology", "2t1r"], ["--topology", "2t1r", "--ic-cal", "1.78"],
    ["--topology", "vgsot"], ["--topology", "vgsot", "--i-sot", "2.7e-5"]])
def test_pulse_flag_reaches_the_report(tmp_path, command, setup):
    # On the calibrated path and on the explicit (--ic-cal / --i-sot) one;
    # without the flag the op keeps the default pulse.
    for flags, pulse in (([], gates.PULSE_DEFAULT), (["--pulse", "3e-9"], 3e-9)):
        out = tmp_path / str(pulse)
        assert main(command + setup + flags +
                    ["--format", "json", "--out", str(out)]) == 0
        doc = json.loads(next(out.glob("*_report.json")).read_text())
        assert doc["meta"]["pulse"] == pulse


@pytest.mark.parametrize("argv, code", [
    (["truth-table"], 0),
    (["truth-table", "--v-drive", "0"], 1),  # inseparable
    (["mc", "-n", "0"], 2),
    # argparse reads "-nan" as mc's "-n" with the value "an".
    (["mc", "--sigma", "-nan"], 2),
])
def test_console_entry_point_exits_with_the_command_code(tmp_path, argv, code):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "sotlogic.cli", *argv, "--out",
         str(tmp_path / "o")], env=env, timeout=60, capture_output=True,
        text=True)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr


# Every common flag: its default, and a value given on the command line.
COMMON_FLAGS = {
    "config": ("--config", None, "c.json", "c.json"),
    "topology": ("--topology", "2t1r", "vgsot", "vgsot"),
    "gate": ("--gate", "nor", "and", "and"),
    "inputs": ("--inputs", 2, "3", 3),
    "seed": ("--seed", 0, "4", 4),
    "out": ("--out", "out", "o", "o"),
    "format": ("--format", "csv", "json", "json"),
    "v_drive": ("--v-drive", None, "-1.2", -1.2),
    "i_sot": ("--i-sot", None, "5e-5", 5e-5),
    "pulse": ("--pulse", None, "1e-9", 1e-9),
    "ic_cal": ("--ic-cal", None, "2", 2.0),
    "margin_fraction": ("--margin-fraction", 0.5, "0.25", 0.25),
}
REQUIRED_FLAGS = {"gate": ["--ops", "r.txt"],
                  "sweep": ["--axis", "RA", "--min", "1", "--max", "2"]}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_every_subcommand_takes_the_common_flags(command):
    argv = [command] + REQUIRED_FLAGS.get(command, [])
    defaults = build_parser().parse_args(argv)
    assert {k: getattr(defaults, k) for k in COMMON_FLAGS} == \
        {k: default for k, (_, default, _, _) in COMMON_FLAGS.items()}
    for flag, _, text, _ in COMMON_FLAGS.values():
        argv += [flag, text]
    parsed = build_parser().parse_args(argv)
    assert {k: getattr(parsed, k) for k in COMMON_FLAGS} == \
        {k: value for k, (_, _, _, value) in COMMON_FLAGS.items()}


def _parse_output(parser, argv):
    """(exit code, stdout, stderr) of a parse that ends in help or an error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


# One quick successful run of each subcommand.
RUNNABLE = {"truth-table": [], "gate": ["--ops", "{recipe}"], "mc": ["-n", "5"],
            "margin": [], "calibrate": [],
            "sweep": ["--axis", "RA", "--min", "5", "--max", "50",
                      "--points", "3"]}


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_one_subcommand_parser_prints_what_the_full_parser_does(
        command, tmp_path, monkeypatch):
    unknown_flag = [command, *REQUIRED_FLAGS.get(command, []), "--bogus"]
    cli._parser.cache_clear()
    for warm in (False, True):
        if warm:
            # After a command has run, its cached parser still prints what
            # a new one does, formatted for the terminal width of the call.
            recipe = tmp_path / "recipe.txt"
            recipe.write_text("nor,0,0;1,2\n")
            argv = [str(recipe) if a == "{recipe}" else a
                    for a in RUNNABLE[command]]
            assert _run_captured([command, *argv, "--out",
                                  str(tmp_path / "o")])[0] == 0
            monkeypatch.setenv("COLUMNS", "52")
        for argv in ([command, "-h"], unknown_flag, [command, "--inputs"],
                     [command, "--inputs", "x"]):
            expected = _parse_output(build_parser(), argv)
            assert _run_captured(argv) == expected
    # The top-level usage line of this error lists every subcommand.
    code, _, err = _run_captured(unknown_flag)
    assert code == 2 and "{truth-table,gate,mc,margin,calibrate,sweep}" in err
    assert build_parser() is not build_parser()


def test_each_subcommand_parser_is_built_once_per_process(tmp_path,
                                                           monkeypatch):
    builds = []

    def counted():
        builds.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    for _ in range(5):
        for command in ("truth-table", "margin"):
            assert _run_captured([command, "--out", str(tmp_path)])[0] == 0
    assert len(builds) == 1


@pytest.mark.parametrize("argv, flags", [
    (["mc", "-n", "20"], ["--sigma", "0.05", "--margin-fraction", "0.3",
                          "--bins", "4", "--format", "json"]),
    (["sweep", "--axis", "RA", "--min", "5", "--max", "50", "--points", "3"],
     ["--v-drive", "-1.2", "--topology", "vgsot", "--format", "json"]),
    (["calibrate"], ["--margin-fraction", "0.25", "--v-drive", "-1.2",
                     "--format", "json"]),
    (["truth-table"], ["--margin-fraction", "0.25", "--gate", "nand",
                       "--format", "json"]),
    (["margin"], ["--v-drive", "-1.2", "--inputs", "3", "--format", "json"]),
])
def test_a_command_reports_alike_whatever_ran_before_it(tmp_path, argv, flags):
    def run(argv, out):
        code, stdout, stderr = _run_captured(argv + ["--out", str(out)])
        return code, stdout.replace(str(out), "OUT"), stderr, _snapshot(out)

    cli._parser.cache_clear()
    assert run(argv + flags, tmp_path / "a")[0] == 0
    after = run(argv, tmp_path / "b")
    cli._parser.cache_clear()
    assert after == run(argv, tmp_path / "c")
    assert after[0] == 0 and after[3]


@pytest.mark.parametrize("argv", [["-h"], ["bogus"], [], ["-x"]])
def test_top_level_help_and_errors_list_every_subcommand(argv):
    code, out, err = _run_captured(argv)
    assert (code, out, err) == _parse_output(build_parser(), argv)
    assert all(name in out + err for name in _COMMANDS)


def test_fan_in_above_limit_fails_fast(tmp_path, capsys):
    start = time.perf_counter()
    code = main(["mc", "--topology", "vgsot", "--inputs", "40", "-n", "100000",
                 "--out", str(tmp_path / "o")])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert f"<= {MAX_INPUTS}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_fan_in_limit_itself_is_accepted(tmp_path):
    out = tmp_path / "o"
    assert main(["truth-table", "--inputs", str(MAX_INPUTS),
                 "--out", str(out)]) == 0
    _, rows = read_table(out / "truth_table_table.csv")
    assert len(rows) == 2 ** MAX_INPUTS


# Each flag that takes a float, in a command that reads it.
FLOAT_FLAG_COMMANDS = {
    "--v-drive": ["truth-table"], "--pulse": ["truth-table"],
    "--i-sot": ["truth-table", "--topology", "vgsot", "--gate", "or"],
    "--ic-cal": ["truth-table"],
    "--margin-fraction": ["calibrate"],
    "--min": ["sweep", "--axis", "H_EX_Oe", "--max", "0", "--points", "3"],
    "--max": ["sweep", "--axis", "H_EX_Oe", "--min", "-100", "--points", "3"],
    **{flag: ["mc", "-n", "5"] for flag in (
        "--sigma", "--sigma-t-ox", "--sigma-t-f", "--sigma-tmr", "--sigma-ra")},
}


def _subcommand_parsers() -> dict:
    return next(a.choices for a in build_parser()._actions if a.choices)


def _shortest_prefix(parser, flag) -> str:
    """The shortest prefix of ``flag`` that ``parser`` reads as ``flag``."""
    return next(flag[:n] for n in range(3, len(flag) + 1)
                if flag[:n] == flag or sum(
                    o.startswith(flag[:n])
                    for o in parser._option_string_actions) == 1)


@pytest.mark.parametrize("flag", sorted(FLOAT_FLAG_COMMANDS))
def test_a_float_flag_takes_a_negative_value_with_an_exponent(tmp_path, flag):
    # By default argparse takes "-7e-5" for an option and exits 2.
    parsers = _subcommand_parsers()
    assert set(FLOAT_FLAG_COMMANDS) == {
        option for p in parsers.values() for a in p._actions
        if a.type is float for option in a.option_strings}
    command = FLOAT_FLAG_COMMANDS[flag]

    def run(value_argv, out):
        code, stdout, stderr = _run_captured(
            command + value_argv + ["--out", str(out)])
        return code, stdout.replace(str(out), "OUT"), stderr, _snapshot(out)

    joined = run([f"{flag}=-7e-5"], tmp_path / "joined")
    # In full, and abbreviated as argparse allows ("--i-sot" as "--i-").
    for i, spelling in enumerate(
            [flag, _shortest_prefix(parsers[command[0]], flag)]):
        spaced = run([spelling, "-7e-5"], tmp_path / str(i))
        assert "expected one argument" not in spaced[2]
        assert spaced == joined


def test_a_float_flag_without_its_value_is_an_argparse_error(tmp_path):
    argv = ["truth-table", "--i-sot", "--out", str(tmp_path)]
    code, out, err = _run_captured(argv)
    assert (code, out, err) == _parse_output(build_parser(), argv)
    assert code == 2 and "argument --i-sot: expected one argument" in err


# A command run twice into one --out directory, its first run writing
# longer files; the gate recipes are read from {long} and {short}.
RERUNS = {
    "mc-csv": (["mc", "-n", "700"], ["mc", "-n", "70"]),
    "mc-json": (["mc", "-n", "700", "--format", "json"],
                ["mc", "-n", "70", "--format", "json"]),
    "sweep": (["sweep", "--axis", "RA", "--min", "5", "--max", "50",
               "--points", "250"],
              ["sweep", "--axis", "RA", "--min", "5", "--max", "50",
               "--points", "70"]),
    "gate": (["gate", "--ops", "{long}", "--rows", "8", "--cols", "2"],
             ["gate", "--ops", "{short}"]),
}
RECIPES = {"long": "nor,0,0;1,2\nor,1,0;1,3\nnand,0,2;3,4\nand,1,3;4,5\n"
                   "nor,0,4;5,6\nor,1,5;6,7\n",
           "short": "nor,0,0;1,2\n"}


def _with_recipes(tmp_path, argv) -> list:
    """``argv`` with {long} and {short} naming recipes written under
    ``tmp_path``."""
    for name, recipe in RECIPES.items():
        (tmp_path / f"{name}.txt").write_text(recipe)
    return [str(tmp_path / f"{a[1:-1]}.txt") if a[1:-1] in RECIPES else a
            for a in argv]


def _run_into(tmp_path, argv, out) -> dict:
    argv = _with_recipes(tmp_path, argv)
    assert _run_captured(argv + ["--out", str(out)])[0] == 0
    return _snapshot(out)


@pytest.mark.parametrize("case", sorted(RERUNS))
def test_a_rerun_over_longer_reports_writes_what_a_fresh_run_does(tmp_path,
                                                                  case):
    longer, shorter = RERUNS[case]
    first = _run_into(tmp_path, longer, tmp_path / "o")
    fresh = _run_into(tmp_path, shorter, tmp_path / "fresh")
    assert max(len(first[name]) - len(fresh[name]) for name in fresh) > 0
    assert _run_into(tmp_path, shorter, tmp_path / "o") == fresh


def test_a_report_written_over_a_longer_foreign_file(tmp_path):
    argv = ["mc", "-n", "70", "--format", "json"]
    fresh = _run_into(tmp_path, argv, tmp_path / "fresh")
    (tmp_path / "o").mkdir()
    (tmp_path / "o" / "mc_report.json").write_bytes(b"\xff" * 200_000)
    assert _run_into(tmp_path, argv, tmp_path / "o") == fresh


@pytest.mark.parametrize("argv", [["truth-table"],
                                  ["mc", "-n", "70", "--format", "json"],
                                  ["gate", "--ops", "{short}"]],
                         ids=["csv", "json", "gate"])
def test_an_out_path_that_is_a_file_is_a_config_error(tmp_path, argv):
    out = tmp_path / "long.txt"  # an existing regular file
    code, _, stderr = _run_captured(_with_recipes(tmp_path, argv) +
                                    ["--out", str(out)])
    assert code == 2
    assert len(stderr.splitlines()) == 1 and stderr.startswith("error: ")
    assert out.read_text() == RECIPES["long"]


# --- exit-code contract over generated argv -----------------------------------------

_NUMBERS = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e-9", "0.2",
                            "0.8", "1.1", "2", "-6e-5", "6e-5", "1e300"])
_NUMERIC_FLAGS = ("--v-drive", "--i-sot", "--pulse", "--ic-cal",
                  "--margin-fraction")


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["truth-table", "mc", "margin", "calibrate",
                                    "sweep", "gate"]))

    def numeric(flag, values):
        # As "flag=value", or as two tokens that argparse classifies.
        value = str(draw(values))
        return draw(st.sampled_from([[f"{flag}={value}"], [flag, value]]))

    argv = [command,
            "--topology", draw(st.sampled_from(["2t1r", "vgsot"])),
            "--gate", draw(st.sampled_from(["nor", "nand", "or", "and"])),
            *numeric("--inputs", st.integers(0, 10))]
    for flag in _NUMERIC_FLAGS:
        if draw(st.sampled_from([False, False, True])):
            argv += numeric(flag, _NUMBERS)
    if command == "mc":
        argv += [*numeric("-n", st.integers(-1, 20)),
                 *numeric("--bins", st.integers(0, 8)), "--workers=1"]
        if draw(st.booleans()):
            argv += numeric("--sigma", _NUMBERS)
    elif command == "sweep":
        argv += ["--axis", draw(st.sampled_from(["RA", "TMR0", "H_EX_Oe",
                                                 "R_on", "beta", "bogus"])),
                 *numeric("--min", _NUMBERS), *numeric("--max", _NUMBERS),
                 *numeric("--points", st.integers(0, 5))]
    elif command == "gate":
        argv += ["--ops", "{recipe}", *numeric("--rows", st.integers(3, 6))]
    return argv


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejections
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _snapshot(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*"))}


@settings(max_examples=30, deadline=None)
@given(_argv())
def test_any_argv_keeps_the_exit_code_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        recipe = Path(tmp) / "recipe.txt"
        recipe.write_text("nor,0,0;1,2\nor,0,1;2,3,-0.8\n")
        argv = [str(recipe) if a == "{recipe}" else a for a in argv]
        argv += ["--out", str(Path(tmp) / "o")]
        first = _run_captured(argv)
        first_files = _snapshot(Path(tmp) / "o")
        second = _run_captured(argv)
        assert first[0] in (0, 1, 2)
        assert "Traceback" not in first[2]
        assert second == first
        assert _snapshot(Path(tmp) / "o") == first_files
