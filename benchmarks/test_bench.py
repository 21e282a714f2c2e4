"""Tests of the benchmark's checks, tracing and metric bookkeeping.

Run from the repository root:

    python3 -m pytest benchmarks/test_bench.py
"""

import json
import re
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sotlogic import cli, gates  # noqa: E402

REFS = json.loads((HERE / "references.json").read_text())
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
MAP = json.loads((HERE / "metric_map.json").read_text())

CAL = next(c for c in workloads.nominal_commands(seed=3) if c.ref_key ==
           "calibrate --topology vgsot --gate and --inputs 3")
# Seeds that were not used to record the references.
MC_CSV = workloads.mc_command("2t1r", "nor", 2, 400, "csv", 1, seed=99)
MC_JSON = workloads.mc_command("vgsot", "and", 4, 20, "json", 2, seed=7)


def _run(command, tmp_path):
    out = tmp_path / "out"
    code, _ = run.invoke(cli, command.argv + ("--out", str(out)))
    return code, checks.read_outputs(out)


def _bump_digit(line: str) -> str:
    i = next(k for k, ch in enumerate(line) if ch.isdigit())
    return line[:i] + str((int(line[i]) + 1) % 10) + line[i + 1:]


def test_nominal_output_passes_and_altered_data_fails(tmp_path):
    code, files = _run(CAL, tmp_path)
    ref = REFS[CAL.ref_key]
    assert checks.check_command(CAL, code, files, ref) == []

    name = "calibrate_calibration.csv"
    lines = files[name].decode().splitlines(keepends=True)
    altered = dict(files)
    altered[name] = "".join(lines[:-1] + [_bump_digit(lines[-1])]).encode()
    assert checks.check_command(CAL, code, altered, ref)

    with_note = dict(files)
    with_note[name] = b"# note=metadata is not checked\n" + files[name]
    assert checks.check_command(CAL, code, with_note, ref) == []


def test_output_left_from_an_earlier_pass_fails(tmp_path):
    runner = run.Runner(cli, workloads.Workload("t", 50.0, (CAL,)), REFS,
                        tmp_path / "w")
    runner.run_pass()
    assert runner.failed == 0
    time.sleep(2 * run.STALE_MARGIN_NS / 1e9)
    runner.cli = types.SimpleNamespace(main=lambda argv: 0)  # writes nothing
    runner.run_pass()
    assert runner.failed == 1


def test_wrong_exit_code_or_missing_reference_fails(tmp_path):
    code, files = _run(CAL, tmp_path)
    assert checks.check_command(CAL, 1, files, REFS[CAL.ref_key])
    assert checks.check_command(CAL, code, files, None)


def test_mc_csv_passes_on_unrecorded_seed_and_altered_output_fails(tmp_path):
    code, files = _run(MC_CSV, tmp_path)
    ref = REFS[MC_CSV.ref_key]
    assert checks.check_command(MC_CSV, code, files, ref) == []

    trials = files["mc_trials.csv"].decode().splitlines(keepends=True)
    dropped = dict(files)
    dropped["mc_trials.csv"] = "".join(trials[:-1]).encode()
    assert checks.check_command(MC_CSV, code, dropped, ref)

    summary = files["mc_summary.csv"].decode().splitlines(keepends=True)
    fields = summary[-1].split(",")
    fields[-2] = str(int(fields[-2]) - 1)  # successes of the last pattern
    miscounted = dict(files)
    miscounted["mc_summary.csv"] = "".join(
        summary[:-1] + [",".join(fields)]).encode()
    assert checks.check_command(MC_CSV, code, miscounted, ref)

    # A physics change moves the rates: shift every reference rate.
    shifted = dict(ref, rates={k: v - 0.15 for k, v in ref["rates"].items()})
    assert checks.check_command(MC_CSV, code, files, shifted)


def test_mc_json_report_is_checked(tmp_path):
    code, files = _run(MC_JSON, tmp_path)
    ref = REFS[MC_JSON.ref_key]
    assert checks.check_command(MC_JSON, code, files, ref) == []

    doc = json.loads(files["mc_report.json"])
    doc["tables"]["trials"]["rows"].pop()
    dropped = dict(files, **{"mc_report.json": json.dumps(doc).encode()})
    assert checks.check_command(MC_JSON, code, dropped, ref)


def test_runner_counts_an_altered_output_as_failed(tmp_path):
    workload = workloads.Workload("t", 50.0, (CAL,))
    refs = {CAL.ref_key: dict(REFS[CAL.ref_key], data_sha256="0" * 64)}
    runner = run.Runner(cli, workload, refs, tmp_path)
    runner.run_pass()
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (2, 2)

    runner = run.Runner(cli, workload, REFS, tmp_path)
    runner.run_pass()
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (2, 0)


def test_tracer_records_nested_spans_and_restores_functions(tmp_path):
    tracer = tracing.Tracer()
    original = gates.execute_gate
    tracer.install()
    try:
        assert gates.execute_gate is not original
        code, _ = _run(CAL, tmp_path)
    finally:
        tracer.uninstall()
    assert code == 0 and gates.execute_gate is original

    agg = tracer.aggregate(0, tracer.mark())
    assert agg["cli.main"]["calls"] == 1
    assert agg["gates.calibrate_gate"]["calls"] == 1
    assert agg["gates.execute_gate"]["calls"] > 8
    assert agg["variation.run_mc"]["calls"] == 0
    assert agg["report.emit_csv"]["bytes"] > 0
    for layer in agg.values():
        assert 0.0 <= layer["self_s"] <= layer["time_s"]
    # Self times of all layers add up to the one top-level span.
    total_self = sum(layer["self_s"] for layer in agg.values())
    assert abs(total_self - agg["cli.main"]["time_s"]) < 1e-6


def test_reported_metrics_are_those_of_benchmark_json(tmp_path):
    listed_e2e = {m["name"] for m in SPEC["end_to_end"]}
    listed_layer = {m["name"] for m in SPEC["per_layer"]}
    workload = workloads.Workload("t", 50.0, (CAL, MC_JSON))
    runner = run.Runner(cli, workload, REFS, tmp_path / "w")
    values, _ = run.end_to_end(runner, workload, 0.0, 40.0, lambda: 0.1)
    assert set(values) == listed_e2e
    values, details = run.per_layer(runner, workload, 0.0,
                                    tmp_path / "spans.npz")
    assert set(values) == listed_layer
    assert details["layer_workers"] == 1
    assert values["variation.run_mc.pool_s"] > 0.0
    assert runner.failed == 0


def test_end_to_end_times_are_scaled_by_the_reference(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "reference", lambda: 2 * run.REF_SECONDS)
    runner = run.Runner(cli, workloads.Workload("t", 50.0, (CAL,)), REFS,
                        tmp_path / "w")
    values, details = run.end_to_end(runner, runner.workload, 0.0, 40.0,
                                     lambda: 0.3)
    assert values["setup_s"] == 0.15
    assert values["wall_s"] == details["raw_wall_median_s"] / 2
    assert values["cmd_p50_s"] == details["raw_latencies_s"][0][0] / 2


def test_metric_map_covers_every_layer_metric():
    mapped = [name for row in MAP["layers"] for name in row["per_layer"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    names = set(workloads.NAMES)
    for row in MAP["layers"]:
        assert set(row["moves"]) <= e2e
        assert set(row["mainly_on"]) | set(row["little_on"]) <= names
    for row in MAP["roadmap_item1"]:
        assert set(row["metrics"]) <= e2e | set(mapped)
        assert set(row["workloads"]) <= names


def test_benchmark_json_keeps_to_its_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    assert len({m["name"] for m in metrics}) == len(metrics)
    for m in metrics:
        assert name.match(m["name"]) and unit.match(m["unit"])
        assert m["better"] in ("higher", "lower")
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0.0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
