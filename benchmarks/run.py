"""Benchmark of the sotlogic command line.

Run from the repository root:

    python3 benchmarks/run.py --workload mc_narrow --seed 1 --seconds 30 --trace 0

The workload's commands (workloads.py) run through ``sotlogic.cli.main`` in
this process, pass after pass, for ``--seconds``; the package is imported
from ``src/`` of the same checkout. Every command's exit code and output is
checked (checks.py). A few summary lines are printed, then, as the last
line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
without tracing. The speed of a shared host drifts by a quarter and more
over minutes, alike for every process on it, so each pass is followed by
runs of a fixed reference computation (``reference``), and the times of a
pass are scaled by ``REF_SECONDS`` over the median reference time around
it: the end-to-end timings are seconds at the host speed at which the
reference takes ``REF_SECONDS``. The raw seconds are in the results file.

``--trace 1`` alternates untraced passes with passes traced by tracing.py
and reports the per-layer metrics and the tracing overhead.
A workload with a process pool adds traced passes with ``--workers 1``,
because spans recorded in pool workers are lost; its layer metrics come
from those passes, and only ``variation.run_mc.pool_s`` from the pooled
ones.

Details of each run (machine facts, per-command latencies, check failures)
are written to ``.bench_out/results/`` and spans to ``.bench_out/traces/``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 11
# The reference computation's time at the nominal host speed: about its
# fastest on the 2.1 GHz Intel Xeon vCPUs where the benchmark was defined.
REF_SECONDS = 0.02
REF_PER_PASS = 3  # reference runs after each pass
STALE_MARGIN_NS = 20_000_000
SETUP_CODE = "from sotlogic.cli import build_parser; build_parser()"
# Layers that call other traced layers, so their self time differs.
SELF_TIMED = ("cli.main", "variation.run_mc", "gates.execute_gate",
              "gates.calibrate_gate", "gates.margin_analysis",
              "gates.truth_table")


def invoke(cli, argv) -> tuple:
    """Run one CLI command; return (exit code, seconds)."""
    start = time.perf_counter()
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejected argv
        code = exc.code
    except Exception as exc:  # a traceback is a failed command, not a crash
        code = f"uncaught {type(exc).__name__}: {exc}"
    return code, time.perf_counter() - start


def machine_facts() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__}


def measure_setup() -> float:
    """Seconds from a fresh interpreter until the CLI parser is built."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def measure_peak_rss(workload, seed) -> float:
    """Peak RSS in MiB of a fresh interpreter running one pass of the
    workload, or of its largest pool child; the reference is not run."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed",
         str(seed), "--rss-pass"],
        cwd=ROOT, check=True, capture_output=True, text=True)
    return float(proc.stdout.split()[-1])


def peak_rss_mib() -> float:
    """Peak RSS of this process or of the largest child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


class Runner:
    """Runs passes over a workload and checks every command's output."""

    def __init__(self, cli, workload, refs, out_dir):
        self.cli = cli
        self.workload = workload
        self.refs = refs
        self.out_dir = out_dir
        shutil.rmtree(out_dir, ignore_errors=True)
        self.first = {}      # command index -> (exit, raw digest, problems)
        self.attempted = 0
        self.failed = 0
        self.problems = []   # (ref key, problem), first failures only

    def run_pass(self, workers=None) -> tuple:
        """One pass over the command list; return (wall s, latencies).

        Every pass writes into the same directories, over the last pass's
        files, and a file this pass did not write is not read. Deleting
        the files between passes instead makes creating them slower and
        slower over a run on the host's disk.
        """
        commands = self.workload.commands
        if workers is not None:
            commands = [c.with_workers(workers) for c in commands]
        dirs = [self.out_dir / f"c{i:03d}" for i in range(len(commands))]
        # File times come from a clock that may lag by a tick or two.
        since_ns = time.time_ns() - STALE_MARGIN_NS
        codes, latencies = [], []
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            for command, d in zip(commands, dirs):
                code, seconds = invoke(self.cli, command.argv + ("--out", str(d)))
                codes.append(code)
                latencies.append(seconds)
            wall = time.perf_counter() - start
        for i, (command, code, d) in enumerate(zip(commands, codes, dirs)):
            self._check(i, command, code, d, since_ns)
        return wall, latencies

    def close(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def _check(self, index, command, code, out_dir, since_ns):
        files = checks.read_outputs(out_dir, since_ns)
        raw = checks.raw_digest(files)
        first = self.first.get(index)
        if first is not None and first[:2] == (code, raw):
            problems = first[2]
        else:
            problems = checks.check_command(command, code, files,
                                            self.refs.get(command.ref_key))
            if first is None:
                self.first[index] = (code, raw, problems)
            else:
                problems = problems + ["output differs from this run's "
                                       "first pass"]
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems += [(command.ref_key, p) for p in problems]


class _Affine:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def at(self, x):
        return self.a * x + self.b


@functools.cache
def _ref_array():
    return np.random.default_rng(0).random(2_000_000)


def reference() -> float:
    """Seconds of a fixed computation that reads no sotlogic code.

    The geometric mean of two parts: sorting and scanning arrays larger
    than the cache, which slows as neighbours load the host's memory, and a
    loop of small Python method calls, which slows as they load its cores.
    Together they follow the speed of the program's passes on a shared
    host more closely than either alone.
    """
    array = _ref_array()
    start = time.perf_counter()
    total = 0.0
    for _ in range(6):
        total += float(np.sort(array[:400_000]).sum()
                       + (array * 1.0001).sum())
    memory = time.perf_counter() - start
    start = time.perf_counter()
    f, x = _Affine(1.5, 0.25), 0.0
    for _ in range(150_000):
        x = f.at(x) * 0.5 + (1.0 if x > 1.0 else 0.0)
    python = time.perf_counter() - start
    return math.sqrt(memory * python)


def end_to_end(runner, workload, seconds, peak_rss,
               setup_once=measure_setup) -> tuple:
    """Untraced passes for ``seconds``, each between reference runs.

    A pass's wall time and command latencies are scaled by REF_SECONDS over
    the median of the REF_PER_PASS reference times before and after it; a
    set-up sample, by the scale of the pass that follows it. The
    SETUP_REPEATS set-up samples are spread evenly over the run.
    """
    runner.run_pass()  # warm-up: imports, file cache, first checks
    reference()
    refs = [reference() for _ in range(REF_PER_PASS)]
    raw_walls, raw_latencies, raw_setup, setup_pass = [], [], [], []
    start = time.perf_counter()
    deadline = start + seconds
    while not raw_walls or time.perf_counter() < deadline:
        due = SETUP_REPEATS * (time.perf_counter() - start) / seconds \
            if seconds > 0 else SETUP_REPEATS
        while len(raw_setup) < min(SETUP_REPEATS, int(due) + 1):
            raw_setup.append(setup_once())
            setup_pass.append(len(raw_walls))
        wall, lat = runner.run_pass()
        if multiprocessing.active_children() or threading.active_count() > 1:
            raise RuntimeError("the program left processes or threads "
                               "running after a pass")
        refs += [reference() for _ in range(REF_PER_PASS)]
        raw_walls.append(wall)
        raw_latencies.append(lat)
    while len(raw_setup) < SETUP_REPEATS:
        raw_setup.append(setup_once())
        setup_pass.append(len(raw_walls) - 1)
    scales = [REF_SECONDS / statistics.median(
        refs[REF_PER_PASS * k:REF_PER_PASS * (k + 2)])
        for k in range(len(raw_walls))]
    walls = [v * c for v, c in zip(raw_walls, scales)]
    latencies = [[v * c for v in lat] for lat, c in zip(raw_latencies, scales)]
    setup = [v * scales[k] for v, k in zip(raw_setup, setup_pass)]
    wall_s = statistics.median(walls)
    flat = [v for lat in latencies for v in lat]
    tail = float(np.percentile(flat, workload.tail_pct))
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall_s,
        "cmd_p50_s": float(np.percentile(flat, 50)),
        "cmd_tail_s": tail,
        "gate_evals_per_s": workload.gate_evals / wall_s,
        "peak_rss_mib": peak_rss,
    }
    keys = [c.ref_key for c in workload.commands]
    details = {
        "passes": len(walls),
        "pass_walls_s": walls,
        "raw_pass_walls_s": raw_walls,
        "raw_latencies_s": raw_latencies,
        "raw_wall_median_s": statistics.median(raw_walls),
        "reference_s": refs,
        "pass_scales": scales,
        "setup_samples_s": setup,
        "raw_setup_samples_s": raw_setup,
        "latency_samples": len(flat),
        "tail_percentile": workload.tail_pct,
        "samples_beyond_tail": sum(v > tail for v in flat),
        "cmd_median_s": {k: statistics.median(lat[i] for lat in latencies)
                         for i, k in enumerate(keys)},
    }
    return metrics, details


def per_layer(runner, workload, seconds, trace_path) -> tuple:
    tracer = tracing.Tracer()
    pooled = workload.workers > 1
    # Pass kind -> workers override; layer metrics come from the last kind.
    kinds = {"plain": None, "traced": None}
    if pooled:
        kinds["inner"] = 1
    layer_kind = list(kinds)[-1]
    runner.run_pass()  # warm-up
    walls = {kind: [] for kind in kinds}
    layers = {kind: [] for kind in kinds}
    kept = []  # (kind, first span, end) of the one pass per kind written out
    deadline = time.perf_counter() + seconds
    while not walls["plain"] or time.perf_counter() < deadline:
        for kind, workers in kinds.items():
            if kind != "plain":
                tracer.install()
            lo = tracer.mark()
            try:
                wall, _ = runner.run_pass(workers)
            finally:
                tracer.uninstall()
            walls[kind].append(wall)
            if kind == "plain":
                continue
            hi = tracer.mark()
            layers[kind].append(tracer.aggregate(lo, hi))
            if kind in (k for k, _, _ in kept):
                tracer.discard(lo)
            else:
                kept.append((kind, lo, hi))
    tracer.save(trace_path, kept)

    source = layers[layer_kind]
    metrics = {}
    for name in tracer.names:
        # Counts are the same in every pass; times are medians over passes.
        metrics[f"{name}.calls"] = source[0][name]["calls"]
        metrics[f"{name}.time_s"] = statistics.median(
            [agg[name]["time_s"] for agg in source])
        if name in SELF_TIMED:
            metrics[f"{name}.self_s"] = statistics.median(
                [agg[name]["self_s"] for agg in source])
        if name in tracing.SIZED:
            metrics[f"{name}.bytes"] = source[0][name]["bytes"]
    mc_evals = workload.mc_evals or float("inf")  # 0 per trial without MC
    metrics["variation.run_mc.us_per_trial"] = (
        1e6 * metrics["variation.run_mc.time_s"] / mc_evals)
    metrics["variation.sample_cell.per_trial"] = (
        metrics["variation.sample_cell.calls"] / mc_evals)
    metrics["gates.execute_gate.per_pattern"] = (
        metrics["gates.execute_gate.calls"] / workload.gate_evals)
    metrics["variation.run_mc.pool_s"] = statistics.median(
        [agg["variation.run_mc"]["time_s"] for agg in layers["traced"]]) \
        if pooled else 0.0
    metrics["trace.overhead_s"] = (statistics.median(walls["traced"])
                                   - statistics.median(walls["plain"]))
    details = {
        "passes": {kind: len(w) for kind, w in walls.items()},
        "pass_walls_s": walls,
        "layer_passes": layer_kind,
        "layer_workers": kinds[layer_kind] or workload.workers,
        "spans": str(trace_path),
    }
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rss-pass", action="store_true",
                        help="run one pass and print its peak RSS in MiB")
    args = parser.parse_args(argv)

    if not (SRC / "sotlogic" / "cli.py").is_file():
        print(f"error: no sotlogic package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from sotlogic import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: sotlogic was imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs = json.loads((Path(__file__).parent / "references.json").read_text())

    facts = machine_facts()
    load_start = os.getloadavg()[0]
    workload = workloads.build(args.workload, args.seed)
    if args.rss_pass:
        runner = Runner(cli, workload, refs,
                        OUT / "work" / f"{args.workload}-rss")
        runner.run_pass()  # its outputs are judged in the measuring run
        runner.close()
        print(peak_rss_mib())
        return 0
    runner = Runner(cli, workload, refs, OUT / "work" / args.workload)
    try:
        if args.trace:
            traces = OUT / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            values, details = per_layer(
                runner, workload, args.seconds,
                traces / f"{args.workload}-seed{args.seed}.npz")
            listed = spec["per_layer"]
        else:
            values, details = end_to_end(
                runner, workload, args.seconds,
                measure_peak_rss(args.workload, args.seed))
            listed = spec["end_to_end"]
    finally:
        runner.close()
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}

    facts.update(loadavg_1m_start=load_start,
                 loadavg_1m_end=os.getloadavg()[0])
    error_rate = runner.failed / runner.attempted
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "machine": facts,
        "commands": [" ".join(c.argv) for c in workload.commands],
        "gate_evals_per_pass": workload.gate_evals,
        "attempted": runner.attempted, "failed": runner.failed,
        "error_rate": error_rate, "problems": runner.problems,
        "metrics": metrics, "details": details,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload={args.workload} seed={args.seed} "
          f"nproc={facts['nproc']} cpu={facts['cpu_model']!r} "
          f"python={facts['python']} numpy={facts['numpy']} "
          f"load1={load_start:.2f}->{facts['loadavg_1m_end']:.2f}")
    if not args.trace:
        print(f"passes={details['passes']} latency samples="
              f"{details['latency_samples']} cmd_tail_s=p"
              f"{workload.tail_pct:g} with {details['samples_beyond_tail']} "
              f"samples beyond; raw median pass "
              f"{details['raw_wall_median_s']:.4g} s")
    for key, problem in runner.problems:
        print(f"FAIL {key}: {problem}")
    print(f"error_rate={error_rate:.4g} ({runner.failed}/{runner.attempted})"
          f" -> {(results / name).relative_to(ROOT)}")
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
