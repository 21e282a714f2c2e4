"""Stateful logic gates: execution, truth tables, margins, calibration.

A gate is a conditional write: the output cell is initialized, the input
cells configure a resistive network, and the output switches only when the
resulting drive crosses its switching threshold. NOR/NAND initialize the
output to P ('1') and switch P->AP; OR/AND initialize to AP and reverse the
drive polarity.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .array import (ArraySpec, MramArray, Topology, solve_2t1r_read,
                    solve_vgsot_divider, write_cell)
from .device import (MagState, Polarity, channel_resistance,
                     check_read_disturb, critical_sot_current, mtj_area,
                     switch_decision)
from .network import NetworkSolution

# Default operating points.
V_DRIVE_2T1R = 1.1      # read bit-line drive [V]
V_DRIVE_VGSOT = 1.5     # input write-line drive [V]
I_SOT_DEFAULT = 60e-6   # output write current for the voltage-gated scheme [A]
PULSE_DEFAULT = 2e-9    # operation pulse width [s]

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


class GateConfigError(ValueError):
    """Gate operation is inconsistent with the array it targets."""


class InseparableError(RuntimeError):
    """No threshold separates the must-switch and must-not-switch cases."""


def boolean_output(kind: GateKind, bits) -> int:
    """Ideal boolean value of the gate for the given input bits."""
    if kind is GateKind.NOR:
        return int(not any(bits))
    if kind is GateKind.OR:
        return int(any(bits))
    if kind is GateKind.NAND:
        return int(not all(bits))
    return int(all(bits))


def required_out_init(kind: GateKind) -> MagState:
    return MagState.P if kind in (GateKind.NOR, GateKind.NAND) else MagState.AP


def switch_polarity(kind: GateKind) -> Polarity:
    return Polarity.P_TO_AP if kind in (GateKind.NOR, GateKind.NAND) \
        else Polarity.AP_TO_P


def _drive_sign(kind: GateKind) -> float:
    return 1.0 if kind in (GateKind.NOR, GateKind.NAND) else -1.0


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
    out_init: MagState | None = None  # None: derived from the gate kind

    def __post_init__(self):
        object.__setattr__(self, "input_rows", tuple(self.input_rows))
        if not self.input_rows:
            raise GateConfigError("gate needs at least one input row")
        if len(set(self.input_rows)) != len(self.input_rows):
            raise GateConfigError("input rows must be distinct")
        if self.output_row in self.input_rows:
            raise GateConfigError("output row must be disjoint from input rows")
        if self.out_init is None:
            object.__setattr__(self, "out_init", required_out_init(self.kind))
        elif self.out_init is not required_out_init(self.kind):
            raise GateConfigError(
                f"{self.kind.value} requires out_init="
                f"{required_out_init(self.kind).name}")
        if self.pulse < 0.0:
            raise GateConfigError("pulse width must be >= 0")

    @property
    def n_inputs(self) -> int:
        return len(self.input_rows)

    @classmethod
    def for_kind(cls, kind: GateKind, topology: Topology,
                 input_rows=None, output_row: int | None = None, col: int = 0,
                 v_drive: float | None = None, i_sot: float | None = None,
                 pulse: float = PULSE_DEFAULT, n_inputs: int = 2) -> "GateOp":
        """Build an op with the default operating point for the topology.

        Input rows default to 0..n-1 with the output on row n. OR/AND get
        the reversed drive polarity automatically.
        """
        if input_rows is None:
            input_rows = tuple(range(n_inputs))
        input_rows = tuple(input_rows)
        if output_row is None:
            output_row = max(input_rows) + 1
        sign = _drive_sign(kind)
        if v_drive is None:
            base = V_DRIVE_2T1R if topology is Topology.TWO_T_ONE_R else V_DRIVE_VGSOT
            # Only the 2T-1R read drive reverses; the VGSOT input divider
            # stays positive and the output write current carries the sign.
            v_drive = sign * base if topology is Topology.TWO_T_ONE_R else base
        if i_sot is None:
            i_sot = sign * I_SOT_DEFAULT
        return cls(kind=kind, input_rows=input_rows, output_row=output_row,
                   col=col, v_drive=v_drive, i_sot=i_sot, pulse=pulse,
                   out_init=required_out_init(kind))


@dataclass(frozen=True)
class GateTrace:
    """Everything observable about one executed gate."""

    op: GateOp
    solution: NetworkSolution
    i_crit: float
    switched: bool
    post: MramArray
    input_currents: tuple
    disturb_ok: tuple
    energy: float
    v_bl: float | None  # bit-line voltage (voltage-gated scheme only)


def check_op_fits(spec: ArraySpec, op: GateOp) -> None:
    """Raise GateConfigError unless the op's rows and column are in the array."""
    for row in op.input_rows + (op.output_row,):
        if not 0 <= row < spec.rows:
            raise GateConfigError(f"row {row} out of bounds for {spec.rows}-row array")
    if not 0 <= op.col < spec.cols:
        raise GateConfigError(f"column {op.col} out of bounds for {spec.cols}-col array")


def execute_gate(array: MramArray, op: GateOp, switch_width: float = 0.0,
                 rng=None) -> GateTrace:
    """Run one stateful gate and return the full trace.

    The output cell is (re)initialized to ``op.out_init``, the network is
    solved for the array's topology, and the output switches iff the drive
    crosses the output cell's critical current with matching polarity.
    Input cells are never mutated; read-disturb is checked on every input
    MTJ current and recorded as an advisory verdict.
    """
    check_op_fits(array.spec, op)
    arr = write_cell(array, op.output_row, op.col, op.out_init)
    cells_in = [arr.cell(r, op.col) for r in op.input_rows]
    cell_out = arr.cell(op.output_row, op.col)

    if array.spec.topology is Topology.TWO_T_ONE_R:
        sol = solve_2t1r_read(cells_in, cell_out, op.v_drive)
        i_drive = sol.current("out")
        i_crit = critical_sot_current(cell_out.dev, 0.0)
        v_bl = None
    else:
        sol = solve_vgsot_divider(cells_in, cell_out, op.v_drive)
        v_bl = sol.voltage("bl")
        i_crit = critical_sot_current(cell_out.dev, v_bl)
        i_drive = op.i_sot

    switched = switch_decision(i_drive, i_crit, switch_polarity(op.kind),
                               width=switch_width, rng=rng)
    post = write_cell(arr, op.output_row, op.col, op.out_init.flipped) \
        if switched else arr

    input_currents = tuple(sol.current(f"in{k}") for k in range(len(cells_in)))
    disturb_ok = tuple(check_read_disturb(c.dev, i)
                       for c, i in zip(cells_in, input_currents))
    energy = gate_energy_from_solution(sol, op, array.spec.topology, cell_out.dev)
    return GateTrace(op=op, solution=sol, i_crit=i_crit, switched=switched,
                     post=post, input_currents=input_currents,
                     disturb_ok=disturb_ok, energy=energy, v_bl=v_bl)


def gate_energy_from_solution(sol: NetworkSolution, op: GateOp,
                              topology: Topology, out_dev) -> float:
    """Constant-drive energy estimate over the pulse.

    2T-1R: the read path is the write path, so the energy is the source
    dissipation |V * I| * pulse. VGSOT: divider leakage plus the write
    current's dissipation in the output channel.
    """
    if topology is Topology.TWO_T_ONE_R:
        return abs(op.v_drive * sol.current("out")) * op.pulse
    leak = abs(op.v_drive * sol.current("out")) * op.pulse
    write = op.i_sot ** 2 * channel_resistance(out_dev) * op.pulse
    return leak + write


def gate_energy(trace: GateTrace, op: GateOp) -> float:
    """Recompute the energy of a recorded trace for the given op settings."""
    topology = trace.post.spec.topology
    out_dev = trace.post.cell(op.output_row, op.col).dev
    return gate_energy_from_solution(trace.solution, op, topology, out_dev)


# --- truth tables -------------------------------------------------------------

def pattern_bits(index: int, n_inputs: int) -> tuple:
    """Bit j of the pattern index is the logic value of input j."""
    return tuple((index >> j) & 1 for j in range(n_inputs))


def pattern_label(bits) -> str:
    """Display label, most-significant input first (e.g. (0,1) -> '10')."""
    return "".join(str(b) for b in reversed(bits))


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
    topology: Topology
    kind: GateKind
    op: GateOp
    rows: tuple

    @property
    def matches(self) -> bool:
        return all(r.actual == r.expected for r in self.rows)


def _default_op(array_spec: ArraySpec, kind: GateKind, n_inputs: int,
                op: GateOp | None) -> GateOp:
    if op is None:
        op = GateOp.for_kind(kind, array_spec.topology, n_inputs=n_inputs)
    if op.kind is not kind or op.n_inputs != n_inputs:
        raise GateConfigError("op disagrees with the requested kind/input count")
    if array_spec.rows <= max(op.input_rows + (op.output_row,)):
        raise GateConfigError("array too small for the gate's row addresses")
    return op


def _pattern_array(array_spec: ArraySpec, op: GateOp, bits) -> MramArray:
    arr = MramArray.uniform(array_spec)
    for row, b in zip(op.input_rows, bits):
        arr = write_cell(arr, row, op.col, MagState.from_bit(b))
    return arr


def truth_table(array_spec: ArraySpec, kind: GateKind, n_inputs: int,
                op: GateOp | None = None) -> TruthTable:
    """Execute the gate at nominal parameters over all 2^n input patterns.

    Observables per pattern: output channel current and threshold for the
    read-current scheme; bit-line voltage and effective threshold for the
    voltage-gated scheme.
    """
    op = _default_op(array_spec, kind, n_inputs, op)
    rows = []
    for index in range(2 ** n_inputs):
        bits = pattern_bits(index, n_inputs)
        trace = execute_gate(_pattern_array(array_spec, op, bits), op)
        actual = trace.post.cell(op.output_row, op.col).mag.bit
        if array_spec.topology is Topology.TWO_T_ONE_R:
            obs = {"i_out": trace.solution.current("out"), "i_crit": trace.i_crit}
        else:
            obs = {"v_bl": trace.v_bl, "i_crit": trace.i_crit}
        rows.append(TruthRow(bits=bits, expected=boolean_output(kind, bits),
                             actual=actual, observables=obs))
    return TruthTable(topology=array_spec.topology, kind=kind, op=op,
                      rows=tuple(rows))


# --- margins and calibration ---------------------------------------------------

@dataclass(frozen=True)
class PatternPoint:
    bits: tuple
    must_switch: bool
    metric: float            # |I_out| (2T-1R) or effective I_c (VGSOT)
    v_bl: float | None
    max_input_current: float

    @property
    def label(self) -> str:
        return pattern_label(self.bits)


@dataclass(frozen=True)
class MarginReport:
    """Separation between the worst must-switch and must-not-switch cases.

    For the read-current scheme the window is (max no-switch current,
    min must-switch current); for the voltage-gated scheme it is
    (max must-switch I_c, min no-switch I_c). ``margin`` = hi - lo; a
    nonpositive margin means no threshold realizes the truth table.
    """

    topology: Topology
    kind: GateKind
    n_inputs: int
    v_drive: float
    lo: float
    hi: float
    points: tuple

    @property
    def margin(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def relative_margin(self) -> float:
        return self.margin / self.midpoint if self.midpoint > 0.0 else 0.0


def _pattern_points(array_spec: ArraySpec, op: GateOp) -> list:
    out_bit = op.out_init.bit
    points = []
    for index in range(2 ** op.n_inputs):
        bits = pattern_bits(index, op.n_inputs)
        trace = execute_gate(_pattern_array(array_spec, op, bits), op)
        must_switch = boolean_output(op.kind, bits) != out_bit
        if array_spec.topology is Topology.TWO_T_ONE_R:
            metric = abs(trace.solution.current("out"))
        else:
            metric = trace.i_crit
        points.append(PatternPoint(
            bits=bits, must_switch=must_switch, metric=metric, v_bl=trace.v_bl,
            max_input_current=max(abs(i) for i in trace.input_currents)))
    return points


def _window(points, topology: Topology):
    switch = [p.metric for p in points if p.must_switch]
    hold = [p.metric for p in points if not p.must_switch]
    if not switch or not hold:
        raise GateConfigError("gate has no must-switch or no must-hold pattern")
    if topology is Topology.TWO_T_ONE_R:
        return max(hold), min(switch)
    return max(switch), min(hold)


def margin_analysis(array_spec: ArraySpec, kind: GateKind, n_inputs: int,
                    op: GateOp | None = None) -> MarginReport:
    """Compute the separating window and per-pattern analog observables."""
    op = _default_op(array_spec, kind, n_inputs, op)
    points = _pattern_points(array_spec, op)
    lo, hi = _window(points, array_spec.topology)
    return MarginReport(topology=array_spec.topology, kind=kind,
                        n_inputs=n_inputs, v_drive=op.v_drive,
                        lo=lo, hi=hi, points=tuple(points))


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
    i_sot: float | None      # voltage-gated scheme: signed write current
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
    Raises :class:`InseparableError` when no separating value exists.
    """
    if not 0.0 < margin_fraction < 1.0:
        raise ValueError("margin_fraction must be in (0, 1)")
    base_op = GateOp.for_kind(kind, array_spec.topology, n_inputs=n_inputs,
                              v_drive=v_drive)

    if array_spec.topology is Topology.TWO_T_ONE_R:
        points = _pattern_points(array_spec, base_op)
        lo, hi = _window(points, array_spec.topology)
        if hi <= lo:
            raise InseparableError(
                f"{kind.value} with {n_inputs} inputs: no switching threshold "
                f"separates the input cases (max hold current {lo:.4e} A >= "
                f"min switch current {hi:.4e} A); check TMR0 and drive voltage")
        target = lo + margin_fraction * (hi - lo)
        base_ic = critical_sot_current(array_spec.nominal.replace(Ic_cal=1.0), 0.0)
        return Calibration(topology=array_spec.topology, kind=kind,
                           n_inputs=n_inputs, margin_fraction=margin_fraction,
                           lo=lo, hi=hi, operating_point=target,
                           ic_cal=target / base_ic, i_sot=base_op.i_sot,
                           v_drive=base_op.v_drive)

    best = None  # (gap, v_drive, lo, hi)
    for scale in _V_SCAN_SCALES:
        v = base_op.v_drive * scale
        op = GateOp.for_kind(kind, array_spec.topology, n_inputs=n_inputs,
                             v_drive=v)
        lo, hi = _window(_pattern_points(array_spec, op), array_spec.topology)
        gap = hi - lo
        if best is None or gap > best[0]:
            best = (gap, v, lo, hi)
        if scale == 1.0 and gap > 0.0:
            break  # the default drive already separates; keep it
    gap, v, lo, hi = best
    if gap <= 0.0:
        raise InseparableError(
            f"{kind.value} with {n_inputs} inputs: no write current separates "
            f"the input cases at any scanned drive voltage (best window "
            f"[{lo:.4e}, {hi:.4e}] A); check TMR0 and the VCMA coefficient")
    magnitude = lo + margin_fraction * (hi - lo)
    return Calibration(topology=array_spec.topology, kind=kind,
                       n_inputs=n_inputs, margin_fraction=margin_fraction,
                       lo=lo, hi=hi, operating_point=magnitude,
                       ic_cal=None, i_sot=_drive_sign(kind) * magnitude,
                       v_drive=v)


# --- disturb summary ------------------------------------------------------------

def worst_input_density(report: MarginReport, params) -> float:
    """Largest input MTJ current density over all patterns, in A/m^2."""
    return max(p.max_input_current for p in report.points) / mtj_area(params)


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
        if len(fields) < 4:
            raise ValueError(
                f"op line {lineno}: need kind,col,in_rows,out_row")
        try:
            kind = GateKind.parse(fields[0])
            col = int(fields[1])
            in_rows = tuple(int(r) for r in fields[2].split(";") if r)
            out_row = int(fields[3])
            v_drive = float(fields[4]) if len(fields) > 4 and fields[4] else None
            i_sot = float(fields[5]) if len(fields) > 5 and fields[5] else None
            pulse = float(fields[6]) if len(fields) > 6 and fields[6] else PULSE_DEFAULT
        except ValueError as exc:
            raise ValueError(f"op line {lineno}: {exc}") from exc
        ops.append(GateOp.for_kind(kind, topology, input_rows=in_rows,
                                   output_row=out_row, col=col,
                                   v_drive=v_drive, i_sot=i_sot, pulse=pulse))
    return ops


def format_gate_ops(ops) -> str:
    lines = ["# kind,col,in_rows,out_row,v_drive,i_sot,pulse"]
    for op in ops:
        in_rows = ";".join(str(r) for r in op.input_rows)
        lines.append(f"{op.kind.value},{op.col},{in_rows},{op.output_row},"
                     f"{op.v_drive!r},{op.i_sot!r},{op.pulse!r}")
    return "\n".join(lines) + "\n"
