"""Stateful logic gates: execution, truth tables, margins, calibration.

A gate is a conditional write: the output cell is initialized, the input
cells configure a resistive network, and the output switches only when the
resulting drive crosses its switching threshold. NOR/NAND initialize the
output to P ('1') and switch P->AP; OR/AND initialize to AP and reverse the
drive polarity. Margins, calibration and sweeps share one window solve.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .array import (ArraySpec, CellState, MramArray, Topology,
                    solve_2t1r_read, solve_vgsot_divider, write_cell)
from .device import (CellArrays, ConfigError, MagState, Polarity,
                     channel_resistance, check_read_disturb,
                     critical_sot_current, mtj_area, switch_decision)

# Default operating points.
V_DRIVE_2T1R = 1.1      # read bit-line drive [V]
V_DRIVE_VGSOT = 1.5     # input write-line drive [V]
I_SOT_DEFAULT = 60e-6   # output write current for the voltage-gated scheme [A]
PULSE_DEFAULT = 2e-9    # operation pulse width [s]

# Fan-in limit: a gate with n inputs is evaluated over all 2^n input
# patterns, so the input count is bounded before anything is allocated.
MAX_INPUTS = 8

# Analog observables per topology: the network's output (channel current or
# bit-line voltage), then the output cell's switching threshold.
OBSERVABLES = {Topology.TWO_T_ONE_R: ("i_out", "i_crit"),
               Topology.VGSOT: ("v_bl", "i_crit")}

# Drive-voltage scan used when the default voltage-gated operating point
# leaves no separating window (e.g. over-gated multi-input AND).
_V_SCAN_SCALES = [round(1.0 - 0.025 * k, 4) for k in range(33)]  # 1.0 .. 0.2


class GateKind(str, Enum):
    NOR = "nor"
    NAND = "nand"
    OR = "or"
    AND = "and"

    @classmethod
    def parse(cls, text: str) -> "GateKind":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(f"unknown gate kind {text!r}")

    @property
    def polarity(self) -> Polarity:
        """The output's transition: P->AP for NOR/NAND, AP->P for OR/AND."""
        return Polarity.P_TO_AP if self in (GateKind.NOR, GateKind.NAND) \
            else Polarity.AP_TO_P


class GateConfigError(ValueError):
    """Gate operation is inconsistent with the array it targets."""


class InseparableError(RuntimeError):
    """No threshold separates the must-switch and must-not-switch cases."""


def boolean_output(kind: GateKind, bits):
    """Ideal boolean value of the gate for the given input bits (ints, or
    bit arrays elementwise)."""
    combine = operator.or_ if kind in (GateKind.NOR, GateKind.OR) \
        else operator.and_
    inverted = kind in (GateKind.NOR, GateKind.NAND)
    return functools.reduce(combine, bits) ^ inverted


@dataclass(frozen=True)
class GateOp:
    """One stateful logic operation on a single column.

    ``v_drive`` is the read bit-line voltage in the 2T-1R scheme and the
    input write-line voltage in the VGSOT scheme. ``i_sot`` is the output
    write current (VGSOT only). Signs encode polarity: OR/AND use a
    reversed drive.
    """

    kind: GateKind
    input_rows: tuple
    output_row: int
    col: int
    v_drive: float
    i_sot: float = I_SOT_DEFAULT
    pulse: float = PULSE_DEFAULT

    def __post_init__(self):
        object.__setattr__(self, "input_rows", tuple(self.input_rows))
        if not self.input_rows:
            raise GateConfigError("gate needs at least one input row")
        check_fan_in(len(self.input_rows))
        if len(set(self.input_rows)) != len(self.input_rows):
            raise GateConfigError("input rows must be distinct")
        if self.output_row in self.input_rows:
            raise GateConfigError("output row must be disjoint from input rows")
        for name in ("v_drive", "i_sot", "pulse"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise GateConfigError(f"{name} must be finite, got {value}")
        if self.pulse < 0.0:
            raise GateConfigError("pulse width must be >= 0")

    @property
    def n_inputs(self) -> int:
        return len(self.input_rows)

    @property
    def out_init(self) -> MagState:
        """Output state before the gate: the start of its transition."""
        return MagState.P if self.kind.polarity is Polarity.P_TO_AP \
            else MagState.AP

    @classmethod
    def for_kind(cls, kind: GateKind, topology: Topology,
                 input_rows=None, output_row: int | None = None, col: int = 0,
                 v_drive: float | None = None, i_sot: float | None = None,
                 pulse: float | None = None, n_inputs: int = 2) -> "GateOp":
        """Build an op with the default operating point for the topology.

        Input rows default to 0..n-1 with the output on row n. A ``None``
        drive, write current or pulse takes the topology's default; OR/AND
        get the reversed drive polarity automatically.
        """
        if input_rows is None:
            check_fan_in(n_inputs)
            input_rows = tuple(range(n_inputs))
        input_rows = tuple(input_rows)
        if output_row is None:
            output_row = max(input_rows) + 1
        sign = kind.polarity.value
        if v_drive is None:
            base = V_DRIVE_2T1R if topology is Topology.TWO_T_ONE_R else V_DRIVE_VGSOT
            # Only the 2T-1R read drive reverses; the VGSOT input divider
            # stays positive and the output write current carries the sign.
            v_drive = sign * base if topology is Topology.TWO_T_ONE_R else base
        if i_sot is None:
            i_sot = sign * I_SOT_DEFAULT
        return cls(kind=kind, input_rows=input_rows, output_row=output_row,
                   col=col, v_drive=v_drive, i_sot=i_sot,
                   pulse=PULSE_DEFAULT if pulse is None else pulse)


@dataclass(frozen=True)
class GateTrace:
    """What the ``gate`` command reports of one executed gate."""

    switched: bool
    post: MramArray
    disturb_ok: tuple
    energy: float


def check_fan_in(n_inputs: int) -> None:
    """Raise GateConfigError unless 1 <= n_inputs <= ``MAX_INPUTS``."""
    if not 1 <= n_inputs <= MAX_INPUTS:
        raise GateConfigError(f"{n_inputs} inputs: a gate takes 1 up to "
                              f"the fan-in limit of {MAX_INPUTS}")


def check_op_fits(spec: ArraySpec, op: GateOp) -> None:
    """Raise GateConfigError unless the op's rows and column are in the array."""
    for row in op.input_rows + (op.output_row,):
        if not 0 <= row < spec.rows:
            raise GateConfigError(f"row {row} out of bounds for {spec.rows}-row array")
    if not 0 <= op.col < spec.cols:
        raise GateConfigError(f"column {op.col} out of bounds for {spec.cols}-col array")


def solve_pattern(topology: Topology, op: GateOp, bits, devs_in, dev_out,
                  v_drive):
    """Network solve, threshold and switch verdict of one gate: the solver
    of every gate evaluation.

    Input j holds ``bits[j]`` (a bit or bit array) with ``devs_in[j]``
    (DeviceParams or arrays); the output holds ``op.out_init`` with
    ``dev_out`` and then reads ``op.out_init ^ switched``. Returns
    (solution, first observable, i_crit, switched); the first observable
    is the output channel current (2T-1R) or the bit-line voltage (VGSOT),
    as named by ``OBSERVABLES``. Array-valued bits, parameters or drives
    give arrays throughout. Raises OverflowError when finite inputs give a
    non-finite observable or threshold.
    """
    cells_in = [CellState(b, dev) for b, dev in zip(bits, devs_in)]
    cell_out = CellState(op.out_init, dev_out)
    # A non-finite result raises below; numpy's warnings would repeat it.
    with np.errstate(all="ignore"):
        if topology is Topology.TWO_T_ONE_R:
            sol = solve_2t1r_read(cells_in, cell_out, v_drive)
            first = i_drive = sol.current("out")
            i_crit = critical_sot_current(dev_out, 0.0)
        else:
            sol = solve_vgsot_divider(cells_in, cell_out, v_drive)
            first = sol.voltage("bl")
            i_crit = critical_sot_current(dev_out, first)
            i_drive = op.i_sot
    if not (np.isfinite(first).all() and np.isfinite(i_crit).all()):
        raise OverflowError(f"{OBSERVABLES[topology][0]} or i_crit is not "
                            "finite; an input is too large to compute with")
    switched = switch_decision(i_drive, i_crit, op.kind.polarity)
    return sol, first, i_crit, switched


def execute_gate(array: MramArray, op: GateOp) -> GateTrace:
    """Run one stateful gate on the array at its nominal parameters.

    The op's input bits are solved by :func:`solve_pattern` with the output
    initialized to ``op.out_init``; the output cell then holds
    ``op.out_init ^ switched``. Input cells are never mutated; read-disturb
    is checked on every input MTJ current and recorded as an advisory
    verdict. The energy is a constant-drive estimate over the pulse: the
    source dissipation |V * I| * pulse (in 2T-1R the read path is the write
    path), plus in VGSOT the write current's dissipation in the output
    channel.
    """
    check_op_fits(array.spec, op)
    topology, dev = array.spec.topology, array.spec.nominal
    # Python ints, so that the verdict and energy are Python values too.
    bits = array.bits[list(op.input_rows), op.col].tolist()
    sol, _, _, switched = solve_pattern(topology, op, bits,
                                        (dev,) * op.n_inputs, dev, op.v_drive)
    post = write_cell(array, op.output_row, op.col, op.out_init ^ switched)
    disturb_ok = tuple(check_read_disturb(dev, sol.current(f"in{k}"))
                       for k in range(op.n_inputs))
    energy = abs(op.v_drive * sol.current("out")) * op.pulse
    if topology is Topology.VGSOT:
        energy += op.i_sot ** 2 * channel_resistance(dev) * op.pulse
    return GateTrace(switched=switched, post=post, disturb_ok=disturb_ok,
                     energy=energy)


# --- truth tables -------------------------------------------------------------

def pattern_bits(index, n_inputs: int) -> tuple:
    """Bit j of the pattern index (or of an array of them) is the logic
    value of input j."""
    return tuple((index >> j) & 1 for j in range(n_inputs))


def pattern_label(bits) -> str:
    """Display label, most-significant input first (e.g. (0,1) -> '10')."""
    return "".join(str(b) for b in reversed(bits))


def input_columns(n_inputs: int) -> list:
    """Report column names of the inputs, most-significant first."""
    return [f"IN{j}" for j in reversed(range(n_inputs))]


@dataclass(frozen=True)
class TruthRow:
    bits: tuple
    expected: int
    actual: int
    observables: dict

    @property
    def label(self) -> str:
        return pattern_label(self.bits)


@dataclass(frozen=True)
class TruthTable:
    rows: tuple

    @property
    def matches(self) -> bool:
        return all(r.actual == r.expected for r in self.rows)


def _patterns(n_inputs: int) -> list:
    return [pattern_bits(index, n_inputs) for index in range(2 ** n_inputs)]


def _solve_patterns(array_spec: ArraySpec, kind: GateKind, n_inputs: int,
                    op: GateOp | None, dev=None, v_drive=None):
    """Check the op (default: the topology's) and solve all 2^n input
    patterns as one array; input j holds bit j of the pattern index, the
    last axis. ``dev`` (default: nominal) serves every cell; columns in it
    or in ``v_drive`` (default: the op's) add a leading axis. Returns the
    op and the :func:`solve_pattern` result."""
    if op is None:
        op = GateOp.for_kind(kind, array_spec.topology, n_inputs=n_inputs)
    if op.kind is not kind or op.n_inputs != n_inputs:
        raise GateConfigError("op disagrees with the requested kind/input count")
    check_op_fits(array_spec, op)
    dev = array_spec.nominal if dev is None else dev
    bits = pattern_bits(np.arange(2 ** n_inputs), n_inputs)
    return op, solve_pattern(array_spec.topology, op, bits, (dev,) * n_inputs,
                             dev, op.v_drive if v_drive is None else v_drive)


def truth_table(array_spec: ArraySpec, kind: GateKind, n_inputs: int,
                op: GateOp | None = None) -> TruthTable:
    """Evaluate the gate at nominal parameters over all 2^n input patterns.

    Observables per pattern: output channel current and threshold for the
    read-current scheme; bit-line voltage and effective threshold for the
    voltage-gated scheme.
    """
    op, (_, first, i_crit, switched) = _solve_patterns(array_spec, kind,
                                                        n_inputs, op)
    first_name, crit_name = OBSERVABLES[array_spec.topology]
    first, i_crit = np.broadcast_arrays(first, i_crit)  # one 2T-1R threshold
    rows = tuple(
        TruthRow(bits, boolean_output(kind, bits), op.out_init ^ s,
                 {first_name: f, crit_name: c})
        for bits, f, c, s in zip(_patterns(n_inputs), first.tolist(),
                                 i_crit.tolist(), switched.tolist()))
    return TruthTable(rows)


# --- margins, sweeps and calibration -------------------------------------------

_SWEEP_CHUNK = 4096  # sweep points x input patterns per solve
WINDOW = ("lo", "hi", "margin", "relative_margin")  # report columns


@dataclass(frozen=True)
class MarginReport:
    """Separation between the worst must-switch and must-not-switch cases.

    For the read-current scheme the window is (max no-switch current,
    min must-switch current); for the voltage-gated scheme it is
    (max must-switch I_c, min no-switch I_c). ``margin`` = hi - lo; a
    nonpositive margin means no threshold realizes the truth table.

    The solve's arrays, pattern index last: must the output switch, the
    metric (|I_out| in 2T-1R, effective I_c in VGSOT), the bit-line voltage
    (None in 2T-1R) and the largest input MTJ current. A drive or parameter
    column adds a leading axis to them and to the (elementwise) window.
    """

    v_drive: float  # or the column of drives solved
    lo: np.ndarray
    hi: np.ndarray
    n_inputs: int
    must_switch: np.ndarray
    metric: np.ndarray
    v_bl: np.ndarray | None
    max_input_current: np.ndarray

    @property
    def bits(self) -> list:  # each pattern's input bits, by pattern index
        return _patterns(self.n_inputs)

    @property
    def margin(self):
        return self.hi - self.lo

    @property
    def midpoint(self):
        with np.errstate(over="ignore"):  # to inf, as Python floats do
            return 0.5 * (self.lo + self.hi)

    @property
    def relative_margin(self):
        midpoint = self.midpoint
        with np.errstate(all="ignore"):  # 0 where the midpoint is <= 0
            return np.where(midpoint > 0.0, self.margin / midpoint, 0.0)[()]


def margin_analysis(array_spec: ArraySpec, kind: GateKind, n_inputs: int,
                    op: GateOp | None = None, dev=None,
                    v_drive=None) -> MarginReport:
    """The separating window and per-pattern analog observables of one
    :func:`_solve_patterns` solve."""
    op, (sol, first, i_crit, _) = _solve_patterns(array_spec, kind, n_inputs,
                                                  op, dev, v_drive)
    read_current = array_spec.topology is Topology.TWO_T_ONE_R
    must = boolean_output(kind, pattern_bits(np.arange(2 ** n_inputs),
                                             n_inputs)) != op.out_init
    metric = abs(first) if read_current else i_crit
    switch, hold = metric[..., must], metric[..., ~must]
    lo, hi = (hold.max(-1), switch.min(-1)) if read_current \
        else (switch.max(-1), hold.min(-1))
    max_input = np.max([abs(sol.current(f"in{k}")) for k in range(n_inputs)],
                       axis=0)
    return MarginReport(op.v_drive if v_drive is None else v_drive, lo, hi,
                        n_inputs, must, metric, None if read_current else first,
                        max_input)


def sweep_margins(array_spec: ArraySpec, kind: GateKind, n_inputs: int,
                  axis: str, values: np.ndarray,
                  op: GateOp | None = None) -> dict:
    """The ``sweep`` report's columns (name -> array, in report order) at
    each value of device parameter ``axis``. A point is feasible when its
    window is open and, in 2T-1R, its weakest must-switch current reaches
    the device threshold; it is disturb-free while its worst input
    current density stays below ``J_stt_crit``."""
    if values.size == 0:
        raise ValueError("a sweep needs at least one value")
    # Each field rule (finite, > 0, >= 0, <= 1) holds on an interval, so
    # the ends, then the extremes, check every value before any solve.
    for value in (values[0], values[-1], values.min(), values.max()):
        array_spec.nominal.replace(**{axis: float(value)})
    columns = {axis: values, **{n: np.empty(values.size) for n in WINDOW}}
    worst = np.empty(values.size)
    step = max(1, _SWEEP_CHUNK >> n_inputs)
    for start in range(0, values.size, step):
        part = slice(start, start + step)
        report = margin_analysis(array_spec, kind, n_inputs, op, CellArrays(
            array_spec.nominal, **{axis: values[part, None]}))
        # Slices broadcast the scalar windows of an axis the network ignores.
        for name in WINDOW:
            columns[name][part] = getattr(report, name)
        worst[part] = report.max_input_current.max(-1)
    cell = CellArrays(array_spec.nominal, **{axis: values})
    # Python floats overflow to inf without a warning; so do these columns.
    with np.errstate(all="ignore"):
        i_dev = np.broadcast_to(critical_sot_current(cell, 0.0), values.shape)
        density = worst / mtj_area(cell)
    if not np.isfinite(density).all():  # e.g. an MTJ area that underflows
        raise OverflowError("worst_input_density is not finite")
    feasible = columns["margin"] > 0.0
    if array_spec.topology is Topology.TWO_T_ONE_R:
        feasible &= columns["hi"] >= i_dev
    return {**columns, "i_crit_device": i_dev, "worst_input_density": density,
            "disturb_ok": density < cell.J_stt_crit, "feasible": feasible}


@dataclass(frozen=True)
class Calibration:
    """Suggested operating point placing the threshold inside the window.

    ``margin_fraction`` locates the operating point within (lo, hi):
    0.5 is the midpoint; values near 0 sit tight against the worst case
    the scheme fails toward under variation (unintentional switching for
    the read-current scheme, missed switching for the voltage-gated one).
    """

    topology: Topology
    kind: GateKind
    n_inputs: int
    margin_fraction: float
    lo: float
    hi: float
    operating_point: float
    ic_cal: float | None     # read-current scheme: threshold scale factor
    i_sot: float             # signed write current (calibrated in VGSOT)
    v_drive: float

    def apply(self, array_spec: ArraySpec) -> tuple:
        """Return (array spec, gate op) configured at this operating point."""
        nominal = array_spec.nominal
        if self.ic_cal is not None:
            nominal = nominal.replace(Ic_cal=self.ic_cal)
        spec = ArraySpec(topology=array_spec.topology, rows=array_spec.rows,
                         cols=array_spec.cols, nominal=nominal)
        op = GateOp.for_kind(self.kind, array_spec.topology,
                             n_inputs=self.n_inputs, v_drive=self.v_drive,
                             i_sot=self.i_sot)
        return spec, op


def calibrate_gate(array_spec: ArraySpec, kind: GateKind, n_inputs: int,
                   margin_fraction: float = 0.5,
                   v_drive: float | None = None) -> Calibration:
    """Find an operating point that realizes the gate's truth table.

    Read-current scheme: scales the zero-bias critical current (Ic_cal) to
    sit at ``margin_fraction`` of the way through the (max no-switch,
    min must-switch) current window. Voltage-gated scheme: picks the output
    write current inside the effective-threshold window; if the base drive
    voltage leaves no window (over-gated thresholds clamp to zero), a
    descending drive-voltage scan picks the voltage with the widest one.

    ``v_drive`` overrides the base drive voltage (defaults per topology).
    Raises :class:`InseparableError` when no separating value exists, and
    :class:`ConfigError` when the output cell has no zero-bias barrier and
    that leaves nothing to calibrate.
    """
    if not 0.0 < margin_fraction < 1.0:
        raise ValueError("margin_fraction must be in (0, 1)")
    base_op = GateOp.for_kind(kind, array_spec.topology, n_inputs=n_inputs,
                              v_drive=v_drive)
    read_current = array_spec.topology is Topology.TWO_T_ONE_R
    drives = base_op.v_drive * np.array([1.0] if read_current
                                        else _V_SCAN_SCALES)
    report = margin_analysis(array_spec, kind, n_inputs, base_op,
                             v_drive=drives[:, None])
    margins = report.margin
    # Keep the base drive when it separates, else the first widest window.
    k = 0 if margins[0] > 0.0 else int(np.argmax(margins))
    lo, hi = report.lo[k].item(), report.hi[k].item()
    base_ic = critical_sot_current(array_spec.nominal.replace(Ic_cal=1.0), 0.0)
    if hi <= lo and (read_current or base_ic != 0.0):
        raise InseparableError(f"{kind.value} with {n_inputs} inputs: " + (
            f"no switching threshold separates the input cases (max hold "
            f"current {lo:.4e} A >= min switch current {hi:.4e} A); check "
            f"TMR0 and drive voltage" if read_current else
            f"no write current separates the input cases at any scanned drive "
            f"voltage (best window [{lo:.4e}, {hi:.4e}] A); check TMR0 and "
            f"the VCMA coefficient"))
    # A barrier gone at 0 V can return under bias (beta * v < 0), so the
    # voltage-gated scheme names it only when no drive separates.
    if base_ic == 0.0 and (read_current or hi <= lo):
        knob = "Ic_cal" if read_current else "write current"
        raise ConfigError(f"Ki0={array_spec.nominal.Ki0:g} leaves no zero-bias "
                          f"barrier (K_eff <= 0), so no {knob} can place the "
                          f"threshold")
    target = lo + margin_fraction * (hi - lo)
    return Calibration(topology=array_spec.topology, kind=kind,
                       n_inputs=n_inputs, margin_fraction=margin_fraction,
                       lo=lo, hi=hi, operating_point=target,
                       ic_cal=target / base_ic if read_current else None,
                       i_sot=base_op.i_sot if read_current
                       else kind.polarity.value * target,
                       v_drive=drives[k].item())


# --- gate recipe files -----------------------------------------------------------
#
# One op per line: kind,col,in_rows,out_row[,v_drive,i_sot,pulse]
# in_rows is ';'-joined. Omitted trailing fields take the defaults for the
# topology. Blank lines and '#' comments are skipped.

def parse_gate_ops(text: str, topology: Topology) -> list:
    ops = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if not 4 <= len(fields) <= 7:
            raise ValueError(f"op line {lineno}: need "
                             "kind,col,in_rows,out_row[,v_drive,i_sot,pulse]")
        fields += [""] * (7 - len(fields))
        try:
            kind = GateKind.parse(fields[0])
            col = int(fields[1])
            in_rows = tuple(int(r) for r in fields[2].split(";") if r)
            out_row = int(fields[3])
            v_drive, i_sot, pulse = (float(f) if f else None for f in fields[4:])
        except ValueError as exc:
            raise ValueError(f"op line {lineno}: {exc}") from exc
        ops.append(GateOp.for_kind(kind, topology, input_rows=in_rows,
                                   output_row=out_row, col=col,
                                   v_drive=v_drive, i_sot=i_sot, pulse=pulse))
    return ops

