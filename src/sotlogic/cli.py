"""Command-line entry point.

Subcommands: ``truth-table``, ``gate``, ``mc``, ``margin``, ``calibrate``,
``sweep``. Flags override config-file values; the device parameter file
defaults to the $SOTLOGIC_CONFIG environment variable when set.

Exit codes: 0 success, 1 logic-verification failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from .array import ArraySpec, MramArray, Topology
from .device import (ConfigError, DeviceParams, dump_device_params,
                     load_device_params)
from .gates import (WINDOW, Calibration, GateKind, GateOp, InseparableError,
                    calibrate_gate, execute_gate, input_columns,
                    margin_analysis, parse_gate_ops, pattern_label,
                    sweep_margins, truth_table)
from .report import Table, config_digest, emit_csv, emit_json, make_bundle
from .variation import RNG_STREAM, VARIED, VariationSpec, mc_tables, run_mc

EXIT_OK = 0
EXIT_LOGIC = 1
EXIT_CONFIG = 2

CONFIG_ENV = "SOTLOGIC_CONFIG"

# Fan-in limit: a gate with n inputs is evaluated over all 2^n input
# patterns, so --inputs is bounded before anything is allocated.
MAX_INPUTS = 8
# Size limits, checked before anything is allocated: a sweep solves and
# reports one row per point, a histogram one row per bin, and an MC
# campaign keeps every trial of every pattern (trials x 2^inputs). The
# cells of a gate array (--rows x --cols, or an array CSV header) are
# bounded by ``array.MAX_CELLS``.
MAX_POINTS = 2 ** 16
MAX_BINS = 2 ** 16
MAX_TRIALS = 2 ** 24

_SWEEP_AXES = tuple(f.name for f in dataclasses.fields(DeviceParams))


def _common_flags() -> argparse.ArgumentParser:
    """The flags every subcommand takes, as a parent parser to copy from."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--config", default=None,
                        help=f"device parameter JSON (default: ${CONFIG_ENV})")
    parser.add_argument("--topology", default="2t1r",
                        choices=[t.value for t in Topology])
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
    return parser


def _gate_flags(p) -> None:
    p.add_argument("--ops", required=True, help="gate recipe file")
    p.add_argument("--array", default=None, help="initial array state CSV")
    p.add_argument("--rows", type=int, default=4)
    p.add_argument("--cols", type=int, default=1)


def _mc_flags(p) -> None:
    p.add_argument("--trials", "-n", type=int, default=1000)
    p.add_argument("--sigma", type=float, default=None,
                   help="relative sigma for t_ox, t_f and TMR at once")
    defaults = VariationSpec()
    for _, name in VARIED:
        p.add_argument("--" + name.replace("_", "-"), type=float,
                       default=getattr(defaults, name))
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility; has no effect")
    p.add_argument("--bins", type=int, default=32)


def _sweep_flags(p) -> None:
    p.add_argument("--axis", required=True, help="device parameter to sweep")
    p.add_argument("--min", type=float, required=True, dest="lo")
    p.add_argument("--max", type=float, required=True, dest="hi")
    p.add_argument("--points", type=int, default=10)


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, with every subcommand.

    :func:`main` builds it once per process and reuses it: parsing leaves
    it as it was, and help and usage are formatted when printed.
    """
    parser = argparse.ArgumentParser(
        prog="sotlogic",
        description="Stateful-logic simulator for SOT-MRAM memory arrays")
    sub = parser.add_subparsers(dest="command", required=True)
    common = [_common_flags()]
    for name, (_, help_text, add_flags) in _COMMANDS.items():
        p = sub.add_parser(name, parents=common, help=help_text)
        if add_flags is not None:
            add_flags(p)
    return parser


# --- config resolution --------------------------------------------------------

def _resolve_params(args) -> DeviceParams:
    VariationSpec(seed=args.seed)  # raises unless it fits mc's 64-bit key
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


def _op(args, spec: ArraySpec, kind: GateKind) -> GateOp:
    """The op at the flags' drive, write current and pulse, each defaulting
    as in :meth:`GateOp.for_kind`."""
    return GateOp.for_kind(kind, spec.topology, n_inputs=args.inputs,
                           v_drive=args.v_drive, i_sot=args.i_sot,
                           pulse=args.pulse)


def _calibrated_setup(args, spec: ArraySpec, kind: GateKind):
    """Return (spec, op, calibration-or-None) honoring explicit overrides.

    An explicit --ic-cal (read-current) or --i-sot (voltage-gated) skips
    auto-calibration; otherwise the operating point comes from
    calibrate_gate at --margin-fraction.
    """
    explicit = args.ic_cal is not None if spec.topology is Topology.TWO_T_ONE_R \
        else args.i_sot is not None
    if explicit:
        return spec, _op(args, spec, kind), None
    cal = calibrate_gate(spec, kind, args.inputs,
                         margin_fraction=args.margin_fraction,
                         v_drive=args.v_drive)
    cal_spec, cal_op = cal.apply(spec)
    if args.pulse is not None:
        cal_op = dataclasses.replace(cal_op, pulse=args.pulse)
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
    kind = GateKind.parse(args.gate)
    spec, op, cal = _calibrated_setup(args, spec, kind)
    table = truth_table(spec, kind, args.inputs, op=op)

    obs_names = sorted(table.rows[0].observables)
    columns = input_columns(args.inputs) + ["OUT_expected", "OUT"] + obs_names
    rows = [tuple(reversed(r.bits)) + (r.expected, r.actual) +
            tuple(r.observables[n] for n in obs_names) for r in table.rows]
    extra = _calibration_meta(cal, op)
    bundle = make_bundle(_meta(args, spec, extra), tables=[
        Table("table", tuple(columns), tuple(zip(*rows)))])
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
    ops = parse_gate_ops(Path(args.ops).read_text(encoding="utf-8"), topology)
    if args.array:
        array = MramArray.from_csv(
            Path(args.array).read_text(encoding="utf-8"), params)
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
                     int(array.bits[op.output_row, op.col]),
                     trace.energy, all(trace.disturb_ok)))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    state_path = out_dir / "gate_state.csv"
    state_path.write_bytes(array.to_csv().encode())

    columns = ("op", "kind", "col", "in_rows", "out_row", "switched", "out_bit",
               "energy_j", "disturb_ok")
    data = tuple(zip(*rows)) or ((),) * len(columns)  # a recipe may be empty
    bundle = make_bundle(_meta(args, array.spec),
                         tables=[Table("traces", columns, data)])
    paths = _emit(args, bundle, "gate")
    print(f"gate: executed {len(ops)} ops -> {state_path}, {paths[0]}")
    return EXIT_OK


def _variation_from_args(args) -> VariationSpec:
    """The spec of the sigma flags; --sigma sets every sigma but RA's."""
    sig = args.sigma
    return VariationSpec(seed=args.seed, **{
        name: sig if sig is not None and field != "RA" else getattr(args, name)
        for field, name in VARIED})


def cmd_mc(args) -> int:
    if args.bins < 1:
        raise ConfigError("--bins must be >= 1")
    if args.bins > MAX_BINS:
        raise ConfigError(f"--bins must be <= {MAX_BINS}")
    vspec = _variation_from_args(args)
    spec = _resolve_spec(args)
    if args.trials < 1:
        raise ConfigError("--trials must be >= 1")
    if args.trials * 2 ** args.inputs > MAX_TRIALS:
        raise ConfigError(f"--trials x 2^inputs must be <= {MAX_TRIALS}, got "
                          f"{args.trials} x {2 ** args.inputs}")
    kind = GateKind.parse(args.gate)
    spec, op, cal = _calibrated_setup(args, spec, kind)
    result = run_mc(spec, op, args.trials, vspec)

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
    kind = GateKind.parse(args.gate)
    op = _op(args, spec, kind)
    report = margin_analysis(spec, kind, args.inputs, op=op)

    patterns = Table("patterns", ("pattern", "must_switch", "metric", "v_bl",
                                  "max_input_current"),
                     ([pattern_label(bits) for bits in report.bits],
                      report.must_switch, report.metric,
                      [""] * report.must_switch.size if report.v_bl is None
                      else report.v_bl, report.max_input_current))
    summary = Table("summary", WINDOW, tuple(
        np.atleast_1d(getattr(report, name)) for name in WINDOW))
    bundle = make_bundle(_meta(args, spec), tables=[patterns, summary])
    paths = _emit(args, bundle, "margin")
    print(f"margin {kind.value} x{args.inputs} [{spec.topology.value}]: "
          f"{report.margin:.4e} (relative {report.relative_margin:.3f}) "
          f"-> {paths[0]}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    spec = _resolve_spec(args)
    kind = GateKind.parse(args.gate)
    cal = calibrate_gate(spec, kind, args.inputs,
                         margin_fraction=args.margin_fraction,
                         v_drive=args.v_drive)
    columns = ("topology", "kind", "inputs", "margin_fraction", "lo", "hi",
               "operating_point", "ic_cal", "i_sot", "v_drive")
    row = (cal.topology.value, cal.kind.value, cal.n_inputs,
           cal.margin_fraction, cal.lo, cal.hi, cal.operating_point,
           cal.ic_cal if cal.ic_cal is not None else "", cal.i_sot,
           cal.v_drive)
    bundle = make_bundle(_meta(args, spec), tables=[
        Table("calibration", columns, tuple(zip(row)))])
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
    if args.points > MAX_POINTS:
        raise ConfigError(f"--points must be <= {MAX_POINTS}")
    for flag, value in (("--min", args.lo), ("--max", args.hi)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
    spec = _resolve_spec(args)
    kind = GateKind.parse(args.gate)
    op = _op(args, spec, kind)
    # A span past the largest float gives nan values, raised below.
    with np.errstate(all="ignore"):
        values = np.linspace(args.lo, args.hi, args.points)
    if not np.isfinite(values).all():
        raise OverflowError("--max - --min is not finite")
    columns = sweep_margins(spec, kind, args.inputs, args.axis, values, op)
    flips = np.flatnonzero(np.diff(columns["feasible"])).tolist()
    boundary = (f"{values[flips[0]]:g}..{values[flips[0] + 1]:g}" if flips
                else "none")
    bundle = make_bundle(_meta(args, spec, {"axis": args.axis,
                                            "boundary": boundary}),
                         tables=[Table("sweep", tuple(columns),
                                       tuple(columns.values()))])
    paths = _emit(args, bundle, "sweep")
    print(f"sweep {args.axis} in [{args.lo}, {args.hi}] x{args.points} "
          f"[{spec.topology.value} {kind.value}]: boundary={boundary} "
          f"-> {paths[0]}")
    return EXIT_OK


# Subcommand -> (runner, help, adder of its own flags), in --help order.
_COMMANDS = {
    "truth-table": (cmd_truth_table, "nominal logic verification", None),
    "gate": (cmd_gate, "execute a gate recipe file on an array", _gate_flags),
    "mc": (cmd_mc, "Monte-Carlo variation campaign", _mc_flags),
    "margin": (cmd_margin, "per-pattern analog margins", None),
    "calibrate": (cmd_calibrate, "suggest an operating point", None),
    "sweep": (cmd_sweep, "sweep one device parameter", _sweep_flags),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)  # None: sys.argv[1:]
    try:
        return _COMMANDS[args.command][0](args)
    except InseparableError as exc:
        print(f"error: inseparable: {exc}", file=sys.stderr)
        return EXIT_LOGIC
    # ConfigError and GateConfigError are ValueErrors.
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # Finite inputs too large, or too small (an MTJ area that underflows
    # to 0), to compute with.
    except (OverflowError, ZeroDivisionError) as exc:
        print(f"error: numeric overflow: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
