"""Command-line entry point.

Subcommands: ``truth-table``, ``gate``, ``mc``, ``margin``, ``calibrate``,
``sweep``. Flags override config-file values; the device parameter file
defaults to the $SOTLOGIC_CONFIG environment variable when set.

Exit codes: 0 success, 1 logic-verification failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

import numpy as np

from .array import ArraySpec, MramArray, Topology
from .device import (ConfigError, DeviceParams, critical_sot_current,
                     dump_device_params, load_device_params)
from .gates import (Calibration, GateConfigError, GateKind, GateOp,
                    InseparableError, calibrate_gate, execute_gate,
                    input_columns, margin_analysis, parse_gate_ops,
                    truth_table, worst_input_density)
from .report import Table, config_digest, emit_csv, emit_json, make_bundle
from .variation import RNG_STREAM, VariationSpec, mc_tables, run_mc

EXIT_OK = 0
EXIT_LOGIC = 1
EXIT_CONFIG = 2

CONFIG_ENV = "SOTLOGIC_CONFIG"

# Fan-in limit: a gate with n inputs is evaluated over all 2^n input
# patterns, so --inputs is bounded before anything is allocated.
MAX_INPUTS = 8

_SWEEP_AXES = tuple(f.name for f in dataclasses.fields(DeviceParams))


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None,
                        help=f"device parameter JSON (default: ${CONFIG_ENV})")
    parser.add_argument("--topology", default="2t1r", choices=["2t1r", "vgsot"])
    parser.add_argument("--gate", default="nor", choices=[k.value for k in GateKind])
    parser.add_argument("--inputs", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--format", default="csv", choices=["csv", "json"])
    parser.add_argument("--v-drive", type=float, default=None,
                        help="override drive voltage (signed)")
    parser.add_argument("--i-sot", type=float, default=None,
                        help="override output write current (vgsot; skips calibration)")
    parser.add_argument("--pulse", type=float, default=None,
                        help="override pulse width in seconds")
    parser.add_argument("--r-on", type=float, default=None,
                        help="override access transistor on-resistance")
    parser.add_argument("--ic-cal", type=float, default=None,
                        help="override threshold calibration factor (skips calibration)")
    parser.add_argument("--margin-fraction", type=float, default=0.5,
                        help="operating point position inside the separating window")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sotlogic",
        description="Stateful-logic simulator for SOT-MRAM memory arrays")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("truth-table", help="nominal logic verification")
    _common_flags(p)

    p = sub.add_parser("gate", help="execute a gate recipe file on an array")
    _common_flags(p)
    p.add_argument("--ops", required=True, help="gate recipe file")
    p.add_argument("--array", default=None, help="initial array state CSV")
    p.add_argument("--rows", type=int, default=4)
    p.add_argument("--cols", type=int, default=1)

    p = sub.add_parser("mc", help="Monte-Carlo variation campaign")
    _common_flags(p)
    p.add_argument("--trials", "-n", type=int, default=1000)
    p.add_argument("--sigma", type=float, default=None,
                   help="relative sigma for t_ox, t_f and TMR at once")
    p.add_argument("--sigma-t-ox", type=float, default=0.03)
    p.add_argument("--sigma-t-f", type=float, default=0.03)
    p.add_argument("--sigma-tmr", type=float, default=0.03)
    p.add_argument("--sigma-ra", type=float, default=0.0)
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (capped at the CPU count)")
    p.add_argument("--bins", type=int, default=32)

    p = sub.add_parser("margin", help="per-pattern analog margins")
    _common_flags(p)

    p = sub.add_parser("calibrate", help="suggest an operating point")
    _common_flags(p)

    p = sub.add_parser("sweep", help="sweep one device parameter")
    _common_flags(p)
    p.add_argument("--axis", required=True, help="device parameter to sweep")
    p.add_argument("--min", type=float, required=True, dest="lo")
    p.add_argument("--max", type=float, required=True, dest="hi")
    p.add_argument("--points", type=int, default=10)
    return parser


# --- config resolution --------------------------------------------------------

def _resolve_params(args) -> DeviceParams:
    topology = Topology.parse(args.topology)
    base = DeviceParams.default_2t1r() if topology is Topology.TWO_T_ONE_R \
        else DeviceParams.default_vgsot()
    cfg = args.config or os.environ.get(CONFIG_ENV)
    params = load_device_params(cfg, base=base) if cfg else base
    overrides = {}
    if args.r_on is not None:
        overrides["R_on"] = args.r_on
    if args.ic_cal is not None:
        overrides["Ic_cal"] = args.ic_cal
    return params.replace(**overrides) if overrides else params


def _resolve_spec(args) -> ArraySpec:
    topology = Topology.parse(args.topology)
    if args.inputs < 1:
        raise ConfigError("--inputs must be >= 1")
    if args.inputs > MAX_INPUTS:
        raise ConfigError(f"--inputs must be <= {MAX_INPUTS} (fan-in limit)")
    rows = max(3, args.inputs + 1)
    return ArraySpec(topology=topology, rows=rows, cols=1,
                     nominal=_resolve_params(args))


def _resolve_gate(args) -> GateKind:
    return GateKind.parse(args.gate)


def _op_overrides(args) -> dict:
    out = {}
    if args.v_drive is not None:
        out["v_drive"] = args.v_drive
    if args.i_sot is not None:
        out["i_sot"] = args.i_sot
    if args.pulse is not None:
        out["pulse"] = args.pulse
    return out


def _calibrated_setup(args, spec: ArraySpec, kind: GateKind):
    """Return (spec, op, calibration-or-None) honoring explicit overrides.

    An explicit --ic-cal (read-current) or --i-sot (voltage-gated) skips
    auto-calibration; otherwise the operating point comes from
    calibrate_gate at --margin-fraction.
    """
    overrides = _op_overrides(args)
    explicit = args.ic_cal is not None if spec.topology is Topology.TWO_T_ONE_R \
        else args.i_sot is not None
    if explicit:
        op = GateOp.for_kind(kind, spec.topology, n_inputs=args.inputs, **overrides)
        return spec, op, None
    cal = calibrate_gate(spec, kind, args.inputs,
                         margin_fraction=args.margin_fraction,
                         v_drive=args.v_drive)
    cal_spec, cal_op = cal.apply(spec)
    if args.pulse is not None:
        cal_op = GateOp.for_kind(kind, spec.topology, n_inputs=args.inputs,
                                 v_drive=cal_op.v_drive, i_sot=cal_op.i_sot,
                                 pulse=args.pulse)
    return cal_spec, cal_op, cal


def _meta(args, spec: ArraySpec, extra=None) -> dict:
    shared = {
        "command": args.command,
        "topology": spec.topology.value,
        "gate": args.gate,
        "inputs": args.inputs,
        "seed": args.seed,
    }
    extra = extra or {}
    resolved = {**shared, "device": dump_device_params(spec.nominal), **extra}
    return {**shared, "config_digest": config_digest(resolved), **extra}


def _emit(args, bundle, default_name: str):
    if args.format == "json":
        path = Path(args.out) / f"{default_name}_report.json"
        emit_json(bundle, path)
        return [path]
    return emit_csv(bundle, args.out, default_name)


# --- subcommands ----------------------------------------------------------------

def cmd_truth_table(args) -> int:
    spec = _resolve_spec(args)
    kind = _resolve_gate(args)
    spec, op, cal = _calibrated_setup(args, spec, kind)
    table = truth_table(spec, kind, args.inputs, op=op)

    obs_names = sorted(table.rows[0].observables)
    columns = input_columns(args.inputs) + ["OUT_expected", "OUT"] + obs_names
    rows = []
    for r in table.rows:
        rows.append(tuple(reversed(r.bits)) + (r.expected, r.actual) +
                    tuple(r.observables[n] for n in obs_names))
    extra = _calibration_meta(cal, op)
    bundle = make_bundle(_meta(args, spec, extra),
                         tables=[Table("table", tuple(columns), tuple(rows))])
    paths = _emit(args, bundle, "truth_table")
    ok = table.matches
    print(f"truth-table {kind.value} x{args.inputs} [{spec.topology.value}]: "
          f"{'OK' if ok else 'MISMATCH'} -> {paths[0]}")
    for r in table.rows:
        print(f"  {r.label} expected={r.expected} got={r.actual}")
    return EXIT_OK if ok else EXIT_LOGIC


def _calibration_meta(cal: Calibration | None, op: GateOp) -> dict:
    extra = {"v_drive": op.v_drive, "i_sot": op.i_sot, "pulse": op.pulse}
    if cal is not None:
        extra["margin_fraction"] = cal.margin_fraction
        extra["operating_point"] = cal.operating_point
        if cal.ic_cal is not None:
            extra["ic_cal"] = cal.ic_cal
    return extra


def cmd_gate(args) -> int:
    params = _resolve_params(args)
    topology = Topology.parse(args.topology)
    ops_text = Path(args.ops).read_text()
    ops = parse_gate_ops(ops_text, topology)
    if args.array:
        array = MramArray.from_csv(Path(args.array).read_text(), params)
        if array.spec.topology is not topology:
            raise ConfigError("array CSV topology disagrees with --topology")
    else:
        spec = ArraySpec(topology=topology, rows=args.rows, cols=args.cols,
                         nominal=params)
        array = MramArray.uniform(spec)

    rows = []
    for idx, op in enumerate(ops):
        trace = execute_gate(array, op)
        array = trace.post
        rows.append((idx, op.kind.value, op.col,
                     ";".join(str(r) for r in op.input_rows), op.output_row,
                     trace.switched,
                     array.cell(op.output_row, op.col).mag.bit,
                     trace.energy, all(trace.disturb_ok)))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    state_path = out_dir / "gate_state.csv"
    state_path.write_text(array.to_csv())

    columns = ("op", "kind", "col", "in_rows", "out_row", "switched", "out_bit",
               "energy_j", "disturb_ok")
    bundle = make_bundle(_meta(args, array.spec),
                         tables=[Table("traces", columns, tuple(rows))])
    paths = _emit(args, bundle, "gate")
    print(f"gate: executed {len(ops)} ops -> {state_path}, {paths[0]}")
    return EXIT_OK


def _variation_from_args(args) -> VariationSpec:
    sig = args.sigma
    return VariationSpec(
        sigma_t_ox=sig if sig is not None else args.sigma_t_ox,
        sigma_t_f=sig if sig is not None else args.sigma_t_f,
        sigma_tmr=sig if sig is not None else args.sigma_tmr,
        sigma_ra=args.sigma_ra,
        seed=args.seed)


def cmd_mc(args) -> int:
    vspec = _variation_from_args(args)
    spec = _resolve_spec(args)
    kind = _resolve_gate(args)
    spec, op, cal = _calibrated_setup(args, spec, kind)
    result = run_mc(spec, op, args.trials, vspec, n_workers=args.workers)

    summary, trials, histogram, hist = mc_tables(result, args.bins)
    extra = _calibration_meta(cal, op)
    extra["trials"] = args.trials
    extra["rng_stream"] = RNG_STREAM
    extra["overlap_fraction"] = hist.overlap_fraction
    bundle = make_bundle(_meta(args, spec, extra),
                         tables=[summary, trials], histograms=[histogram])
    paths = _emit(args, bundle, "mc")
    print(f"mc {kind.value} x{args.inputs} [{spec.topology.value}] "
          f"n={args.trials} seed={vspec.seed}:")
    for p in result.patterns:
        print(f"  {p.label} -> {p.expected}: {100 * p.success_rate:.1f}%")
    print(f"  overlap_fraction={hist.overlap_fraction:.4f} -> {paths[0]}")
    return EXIT_OK


def cmd_margin(args) -> int:
    spec = _resolve_spec(args)
    kind = _resolve_gate(args)
    overrides = _op_overrides(args)
    op = GateOp.for_kind(kind, spec.topology, n_inputs=args.inputs, **overrides)
    report = margin_analysis(spec, kind, args.inputs, op=op)

    rows = [(p.label, p.must_switch, p.metric,
             p.v_bl if p.v_bl is not None else "", p.max_input_current)
            for p in report.points]
    patterns = Table("patterns",
                     ("pattern", "must_switch", "metric", "v_bl",
                      "max_input_current"), tuple(rows))
    summary = Table("summary",
                    ("lo", "hi", "margin", "relative_margin"),
                    ((report.lo, report.hi, report.margin,
                      report.relative_margin),))
    bundle = make_bundle(_meta(args, spec), tables=[patterns, summary])
    paths = _emit(args, bundle, "margin")
    print(f"margin {kind.value} x{args.inputs} [{spec.topology.value}]: "
          f"{report.margin:.4e} (relative {report.relative_margin:.3f}) "
          f"-> {paths[0]}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    spec = _resolve_spec(args)
    kind = _resolve_gate(args)
    cal = calibrate_gate(spec, kind, args.inputs,
                         margin_fraction=args.margin_fraction,
                         v_drive=args.v_drive)
    columns = ("topology", "kind", "inputs", "margin_fraction", "lo", "hi",
               "operating_point", "ic_cal", "i_sot", "v_drive")
    row = (cal.topology.value, cal.kind.value, cal.n_inputs,
           cal.margin_fraction, cal.lo, cal.hi, cal.operating_point,
           cal.ic_cal if cal.ic_cal is not None else "",
           cal.i_sot if cal.i_sot is not None else "", cal.v_drive)
    bundle = make_bundle(_meta(args, spec),
                         tables=[Table("calibration", columns, (row,))])
    paths = _emit(args, bundle, "calibrate")
    knob = f"Ic_cal={cal.ic_cal:.4f}" if cal.ic_cal is not None \
        else f"i_sot={cal.i_sot:.4e} A"
    print(f"calibrate {kind.value} x{args.inputs} [{spec.topology.value}]: "
          f"{knob}, v_drive={cal.v_drive} V -> {paths[0]}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.axis not in _SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {args.axis!r}; "
                          f"choose one of {', '.join(_SWEEP_AXES)}")
    if args.points < 1:
        raise ConfigError("--points must be >= 1")
    for flag, value in (("--min", args.lo), ("--max", args.hi)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
    spec = _resolve_spec(args)
    kind = _resolve_gate(args)
    values = np.linspace(args.lo, args.hi, args.points)

    rows = []
    feasibility = []
    for value in values:
        params = spec.nominal.replace(**{args.axis: float(value)})
        point_spec = ArraySpec(topology=spec.topology, rows=spec.rows,
                               cols=spec.cols, nominal=params)
        op = GateOp.for_kind(kind, spec.topology, n_inputs=args.inputs,
                             **_op_overrides(args))
        report = margin_analysis(point_spec, kind, args.inputs, op=op)
        density = worst_input_density(report, params)
        disturb_ok = density < params.J_stt_crit
        if spec.topology is Topology.TWO_T_ONE_R:
            # Feasible when the weakest must-switch current still exceeds
            # the device threshold at the configured calibration.
            i_dev = critical_sot_current(params, 0.0)
            feasible = report.margin > 0.0 and report.hi >= i_dev
        else:
            i_dev = critical_sot_current(params, 0.0)
            feasible = report.margin > 0.0
        feasibility.append(feasible)
        rows.append((float(value), report.lo, report.hi, report.margin,
                     report.relative_margin, i_dev, density, disturb_ok,
                     feasible))

    boundary = ""
    for k in range(1, len(feasibility)):
        if feasibility[k] != feasibility[k - 1]:
            boundary = f"{float(values[k - 1]):g}..{float(values[k]):g}"
            break
    columns = (args.axis, "lo", "hi", "margin", "relative_margin",
               "i_crit_device", "worst_input_density", "disturb_ok", "feasible")
    bundle = make_bundle(_meta(args, spec, {"axis": args.axis,
                                            "boundary": boundary or "none"}),
                         tables=[Table("sweep", columns, tuple(rows))])
    paths = _emit(args, bundle, "sweep")
    print(f"sweep {args.axis} in [{args.lo}, {args.hi}] x{args.points} "
          f"[{spec.topology.value} {kind.value}]: boundary="
          f"{boundary or 'none'} -> {paths[0]}")
    return EXIT_OK


_COMMANDS = {
    "truth-table": cmd_truth_table,
    "gate": cmd_gate,
    "mc": cmd_mc,
    "margin": cmd_margin,
    "calibrate": cmd_calibrate,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InseparableError as exc:
        print(f"error: inseparable: {exc}", file=sys.stderr)
        return EXIT_LOGIC
    except (ConfigError, GateConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OverflowError as exc:  # finite inputs too large to compute with
        print(f"error: numeric overflow: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
