"""sotlogic: stateful logic gates in SOT-MRAM arrays.

A desk-scale simulator covering the two array schemes (read-current 2T-1R
and voltage-gated VGSOT), with nominal logic verification, margin analysis,
operating-point calibration, Monte-Carlo process-variation campaigns and
energy estimation.
"""

from .array import (ArraySpec, CellState, MramArray, Topology,
                    solve_2t1r_read, solve_vgsot_divider, write_cell)
from .device import (MU0, OERSTED, ConfigError, DeviceParams, MagState,
                     Polarity, channel_resistance, check_read_disturb,
                     critical_sot_current, dump_device_params,
                     load_device_params, mtj_area, mtj_resistance,
                     switch_decision)
from .gates import (Calibration, GateConfigError, GateKind, GateOp, GateTrace,
                    InseparableError, MarginReport, TruthTable,
                    boolean_output, calibrate_gate, execute_gate,
                    margin_analysis, parse_gate_ops, sweep_margins,
                    truth_table)
from .network import Branch, NetworkSolution
from .report import (HistogramTable, ReportBundle, Table, config_digest,
                     emit_csv, emit_json, make_bundle)
from .variation import (HistogramReport, MCResult, PatternStats,
                        VariationSpec, current_histogram, mc_tables,
                        run_mc, sample_cell, trial_rng)
from .version import __version__

__all__ = [
    "ArraySpec", "Branch", "Calibration", "CellState", "ConfigError",
    "DeviceParams", "GateConfigError", "GateKind", "GateOp", "GateTrace",
    "HistogramReport", "HistogramTable", "InseparableError", "MCResult",
    "MU0", "MagState", "MarginReport", "MramArray", "NetworkSolution",
    "OERSTED", "PatternStats", "Polarity", "ReportBundle", "Table", "Topology",
    "TruthTable", "VariationSpec", "boolean_output", "calibrate_gate",
    "channel_resistance", "check_read_disturb", "config_digest",
    "critical_sot_current", "current_histogram", "dump_device_params",
    "emit_csv", "emit_json", "execute_gate",
    "load_device_params", "make_bundle", "margin_analysis",
    "mc_tables", "mtj_area",
    "mtj_resistance", "parse_gate_ops", "run_mc", "sample_cell",
    "solve_2t1r_read", "solve_vgsot_divider", "sweep_margins",
    "switch_decision", "trial_rng", "truth_table", "write_cell",
    "__version__",
]
