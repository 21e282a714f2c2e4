"""End-to-end command-line checks: exit codes, files, determinism."""

import contextlib
import csv
import io
import json
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sotlogic.cli import MAX_INPUTS, main


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


def test_config_env_var(tmp_path, monkeypatch):
    cfg = tmp_path / "dev.json"
    cfg.write_text(json.dumps({"TMR0": 0.0}))
    monkeypatch.setenv("SOTLOGIC_CONFIG", str(cfg))
    assert main(["truth-table", "--out", str(tmp_path / "o")]) == 1


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "dev.json"
    cfg.write_text(json.dumps({"R_on": 500.0}))
    out = tmp_path / "o"
    assert main(["margin", "--config", str(cfg), "--r-on", "0.000001",
                 "--out", str(out)]) == 0
    _, rows = read_table(out / "margin_summary.csv")
    # With (effectively) zero access resistance the margin is ~66.8 uA.
    assert abs(float(rows[0][2]) - 66.8e-6) < 0.5e-6


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


@pytest.mark.parametrize("flags, field", [(["--sigma", "nan"], "sigma_t_ox"),
                                          (["--sigma-ra", "inf"], "sigma_ra")])
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


def test_single_point_sweep_matches_margin_analysis(tmp_path):
    out = tmp_path / "o"
    assert main(["sweep", "--axis", "RA", "--min", "10", "--max", "10",
                 "--points", "1", "--out", str(out)]) == 0
    assert main(["margin", "--out", str(out)]) == 0
    _, sweep_rows = read_table(out / "sweep_sweep.csv")
    _, margin_rows = read_table(out / "margin_summary.csv")
    assert float(sweep_rows[0][3]) == pytest.approx(float(margin_rows[0][2]),
                                                    rel=1e-9)


def test_sweep_unknown_axis(tmp_path, capsys):
    assert main(["sweep", "--axis", "XX", "--min", "0", "--max", "1",
                 "--out", str(tmp_path / "o")]) == 2
    assert "unknown sweep axis" in capsys.readouterr().err


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
    (["truth-table", "--r-on", "inf"], "R_on must be finite"),
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
    # finite, but its square overflows in the write-energy estimate
    (["margin", "--topology", "vgsot", "--i-sot", "1e300"], "numeric overflow"),
])
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, argv, message):
    config = tmp_path / "nan.json"
    config.write_text('{"TMR0": NaN}')
    argv = [str(config) if a == "{nan_config}" else a for a in argv]
    code = main(argv + ["--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


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


# --- exit-code contract over generated argv -----------------------------------------

_NUMBERS = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e-9", "0.2",
                            "0.8", "1.1", "2", "-6e-5", "6e-5", "1e300"])
_NUMERIC_FLAGS = ("--v-drive", "--i-sot", "--pulse", "--r-on", "--ic-cal",
                  "--margin-fraction")


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["truth-table", "mc", "margin", "calibrate",
                                    "sweep", "gate"]))
    argv = [command,
            "--topology", draw(st.sampled_from(["2t1r", "vgsot"])),
            "--gate", draw(st.sampled_from(["nor", "nand", "or", "and"])),
            f"--inputs={draw(st.integers(0, 10))}"]
    for flag in _NUMERIC_FLAGS:
        if draw(st.sampled_from([False, False, True])):
            argv.append(f"{flag}={draw(_NUMBERS)}")
    if command == "mc":
        argv += [f"-n={draw(st.integers(-1, 20))}",
                 f"--bins={draw(st.integers(0, 8))}", "--workers=1"]
        if draw(st.booleans()):
            argv.append(f"--sigma={draw(_NUMBERS)}")
    elif command == "sweep":
        argv += ["--axis", draw(st.sampled_from(["RA", "TMR0", "H_EX", "R_on",
                                                 "beta", "bogus"])),
                 f"--min={draw(_NUMBERS)}", f"--max={draw(_NUMBERS)}",
                 f"--points={draw(st.integers(0, 5))}"]
    elif command == "gate":
        argv += ["--ops", "{recipe}", f"--rows={draw(st.integers(3, 6))}"]
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
