"""Array topologies, per-cell state, and the closed-form gate networks.

Two array organizations are supported:

* ``2t1r`` -- each cell has separate read/write access transistors; a gate
  drives the read bit-line and steers the summed read current of the input
  cells through the output cell's SOT channel.
* ``vgsot`` -- cells in a row share one SOT channel; a gate applies a drive
  voltage to the input rows so the floating bit-line settles to a divider
  voltage that gates the output cell's switching threshold.

The per-topology solvers here are hand-derived series/parallel forms; the
tests cross-check them against a general nodal solver. Unselected cells
are treated as disconnected (access transistors fully off).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .device import DeviceParams, MagState, channel_resistance, mtj_resistance
from .network import GROUND, Branch, NetworkSolution


class Topology(str, Enum):
    TWO_T_ONE_R = "2t1r"
    VGSOT = "vgsot"

    @classmethod
    def parse(cls, text: str) -> "Topology":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(f"unknown topology {text!r} (expected 2t1r or vgsot)")


@dataclass(frozen=True)
class ArraySpec:
    """Topology, dimensions, and the nominal device parameter set."""

    topology: Topology
    rows: int
    cols: int
    nominal: DeviceParams

    def __post_init__(self):
        if self.rows < 3:
            raise ValueError("array needs rows >= 3 (two inputs plus an output)")
        if self.cols < 1:
            raise ValueError("array needs cols >= 1")


@dataclass(frozen=True)
class CellState:
    """Magnetization (a MagState, or an array of bits: 1 = P) plus the
    (possibly variation-sampled) device parameters."""

    mag: MagState
    dev: DeviceParams


@dataclass(frozen=True)
class MramArray:
    """Immutable snapshot of the array; updates return a new snapshot."""

    spec: ArraySpec
    cells: tuple  # rows x cols of CellState

    @classmethod
    def uniform(cls, spec: ArraySpec, mag: MagState = MagState.AP) -> "MramArray":
        cell = CellState(mag, spec.nominal)
        row = (cell,) * spec.cols
        return cls(spec=spec, cells=(row,) * spec.rows)

    def cell(self, row: int, col: int) -> CellState:
        self._check_address(row, col)
        return self.cells[row][col]

    def _check_address(self, row: int, col: int) -> None:
        if not (0 <= row < self.spec.rows and 0 <= col < self.spec.cols):
            raise IndexError(
                f"cell ({row}, {col}) out of bounds for "
                f"{self.spec.rows}x{self.spec.cols} array")

    def with_cell(self, row: int, col: int, state: CellState) -> "MramArray":
        self._check_address(row, col)
        new_row = self.cells[row][:col] + (state,) + self.cells[row][col + 1:]
        new_cells = self.cells[:row] + (new_row,) + self.cells[row + 1:]
        return MramArray(spec=self.spec, cells=new_cells)

    def to_csv(self) -> str:
        """Serialize the logic state; device parameters are not serialized."""
        lines = ["rows,cols,topology",
                 f"{self.spec.rows},{self.spec.cols},{self.spec.topology.value}"]
        lines += [",".join(str(int(c.mag)) for c in row) for row in self.cells]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str, nominal: DeviceParams) -> "MramArray":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if len(lines) < 2 or lines[0] != "rows,cols,topology":
            raise ValueError("array CSV must start with a 'rows,cols,topology' header")
        fields = lines[1].split(",")
        if len(fields) != 3:
            raise ValueError("malformed array CSV header values")
        rows, cols = int(fields[0]), int(fields[1])
        topology = Topology.parse(fields[2])
        grid = lines[2:]
        if len(grid) != rows:
            raise ValueError(f"array CSV declares {rows} rows, found {len(grid)}")
        spec = ArraySpec(topology=topology, rows=rows, cols=cols, nominal=nominal)
        cells = []
        for row, line in enumerate(grid):
            bits = [b.strip() for b in line.split(",")]
            if len(bits) != cols:
                raise ValueError(f"array CSV row has {len(bits)} columns, expected {cols}")
            bad = [b for b in bits if b not in ("0", "1")]
            if bad:
                raise ValueError(f"array CSV row {row}: {bad[0]!r} is not a bit (0 or 1)")
            cells.append(tuple(
                CellState(MagState.from_bit(b == "1"), nominal) for b in bits))
        return cls(spec=spec, cells=tuple(cells))


def write_cell(array: MramArray, row: int, col: int, state: MagState) -> MramArray:
    """Unconditionally set one cell's magnetization; idempotent."""
    old = array.cell(row, col)
    if old.mag is state:
        return array
    return array.with_cell(row, col, CellState(state, old.dev))


# --- closed-form gate networks ----------------------------------------------
#
# Cell states, cell parameters and the drive may hold numpy arrays (input
# patterns, trials, sweep points, drive-scan steps), computed elementwise:
# every gate evaluation shares this one copy of the arithmetic.

def solve_2t1r_read(cells_in, cell_out: CellState, v_rbl: float) -> NetworkSolution:
    """Read-current network: inputs drive the output cell's SOT channel.

    The read bit-line at ``v_rbl`` feeds, per input cell, a branch of
    (R_on + R_MTJ) into the shared floating select-line node; the combined
    current exits through the output cell's (R_on + R_channel) to ground.
    The select line floats, so no current crosses the output MTJ.

    Branch names: ``in0``, ``in1``, ... (input MTJ currents, for disturb
    checks), ``out`` (output channel current) and ``source``.
    """
    if not cells_in:
        raise ValueError("need at least one input cell")
    r_in = [c.dev.R_on + mtj_resistance(c.dev, c.mag) for c in cells_in]
    r_out = cell_out.dev.R_on + channel_resistance(cell_out.dev)
    r_par = 1.0 / sum(1.0 / r for r in r_in)  # conductances summed in order
    i_total = v_rbl / (r_par + r_out)
    v_sl = i_total * r_out

    branches = [Branch(f"in{k}", "rbl", "sl", (v_rbl - v_sl) / r)
                for k, r in enumerate(r_in)]
    branches.append(Branch("out", "sl", GROUND, i_total))
    branches.append(Branch("source", "rbl", GROUND, -i_total))
    return NetworkSolution(node_voltages={"rbl": v_rbl, "sl": v_sl},
                           branches=tuple(branches))


def solve_vgsot_divider(cells_in, cell_out: CellState, v_in: float) -> NetworkSolution:
    """Voltage-divider network on the shared floating bit-line.

    The input rows' MTJs connect the drive voltage to the bit-line in
    parallel; the output MTJ (in its initialized state, write lines
    grounded) closes the divider to ground. Returns the bit-line voltage
    at node ``bl`` and the leakage current through every MTJ.
    """
    if not cells_in:
        raise ValueError("need at least one input cell")
    r_in = [mtj_resistance(c.dev, c.mag) for c in cells_in]
    r_out = mtj_resistance(cell_out.dev, cell_out.mag)
    r_par = 1.0 / sum(1.0 / r for r in r_in)  # conductances summed in order
    v_bl = v_in * r_out / (r_out + r_par)
    i_total = v_in / (r_par + r_out)

    branches = [Branch(f"in{k}", "wbl", "bl", (v_in - v_bl) / r)
                for k, r in enumerate(r_in)]
    branches.append(Branch("out", "bl", GROUND, i_total))
    branches.append(Branch("source", "wbl", GROUND, -i_total))
    return NetworkSolution(node_voltages={"wbl": v_in, "bl": v_bl},
                           branches=tuple(branches))
