"""Gate execution, truth tables, margins, calibration and energy."""

import math
import re

import numpy as np
import pytest

from sotlogic import (ArraySpec, DeviceParams, GateConfigError, GateKind,
                      GateOp, InseparableError, MagState, MramArray, Topology,
                      boolean_output, calibrate_gate, execute_gate,
                      margin_analysis, truth_table, write_cell)
from sotlogic import gates
from sotlogic.device import CellArrays, ConfigError
from sotlogic.gates import (PULSE_DEFAULT, parse_gate_ops, pattern_bits,
                            pattern_label, solve_pattern, sweep_margins)

P2 = DeviceParams.default_2t1r()
PV = DeviceParams.default_vgsot()

A_MTJ = math.pi * (50e-9) ** 2 / 4
R_P = 10.0e-12 / A_MTJ
R_AP = 2 * R_P
R_CH = 1112.0


def spec_for(topology, n_inputs, params=None):
    if params is None:
        params = P2 if topology is Topology.TWO_T_ONE_R else PV
    return ArraySpec(topology, max(3, n_inputs + 1), 1, params)


def reference_truth(kind, bits):
    """Brute-force boolean oracle, independent of the gates module."""
    ones = sum(bits)
    return {
        GateKind.NOR: int(ones == 0),
        GateKind.OR: int(ones > 0),
        GateKind.NAND: int(ones < len(bits)),
        GateKind.AND: int(ones == len(bits)),
    }[kind]


def calibrated(topology, kind, n_inputs, margin_fraction=0.5, params=None):
    spec = spec_for(topology, n_inputs, params)
    cal = calibrate_gate(spec, kind, n_inputs, margin_fraction=margin_fraction)
    return cal.apply(spec)


# --- nominal logic --------------------------------------------------------------

@pytest.mark.parametrize("topology", list(Topology))
@pytest.mark.parametrize("kind", list(GateKind))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_truth_tables_match_boolean_oracle(topology, kind, n):
    spec, op = calibrated(topology, kind, n)
    table = truth_table(spec, kind, n, op=op)
    assert len(table.rows) == 2 ** n
    for row in table.rows:
        assert row.actual == reference_truth(kind, row.bits), \
            f"{kind.value} {row.bits}"


@pytest.mark.parametrize("kind", list(GateKind))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_boolean_output_is_elementwise_on_bit_arrays(kind, n):
    patterns = [pattern_bits(index, n) for index in range(2 ** n)]
    values = [boolean_output(kind, bits) for bits in patterns]
    assert values == [reference_truth(kind, bits) for bits in patterns]
    assert {type(v) for v in values} == {int}
    columns = pattern_bits(np.arange(2 ** n), n)
    assert boolean_output(kind, columns).tolist() == values


@pytest.mark.parametrize("topology", list(Topology))
def test_complementary_gate_pairs(topology):
    """NOR(x,y) = NOT(OR(x,y)) and NAND = NOT(AND), executed as own recipes."""
    for a, b in [(GateKind.NOR, GateKind.OR), (GateKind.NAND, GateKind.AND)]:
        spec_a, op_a = calibrated(topology, a, 2)
        spec_b, op_b = calibrated(topology, b, 2)
        ta = truth_table(spec_a, a, 2, op=op_a)
        tb = truth_table(spec_b, b, 2, op=op_b)
        for ra, rb in zip(ta.rows, tb.rows):
            assert ra.actual == 1 - rb.actual


def test_single_input_nor_is_not():
    spec, op = calibrated(Topology.TWO_T_ONE_R, GateKind.NOR, 1)
    table = truth_table(spec, GateKind.NOR, 1, op=op)
    assert [(r.bits[0], r.actual) for r in table.rows] == [(0, 1), (1, 0)]


def test_execute_gate_never_mutates_inputs():
    spec, op = calibrated(Topology.TWO_T_ONE_R, GateKind.NOR, 2)
    arr = MramArray.uniform(spec)
    arr = write_cell(arr, 0, 0, MagState.P)
    before = arr.bits.tolist()
    trace = execute_gate(arr, op)
    assert arr.bits.tolist() == before
    after = trace.post.bits.tolist()
    for r in range(spec.rows):
        if r != op.output_row:
            assert after[r] == before[r]


def test_post_state_differs_only_at_output():
    spec, op = calibrated(Topology.TWO_T_ONE_R, GateKind.NOR, 2)
    arr = MramArray.uniform(spec)
    trace = execute_gate(arr, op)
    diff = [(r, c) for r in range(spec.rows) for c in range(spec.cols)
            if trace.post.bits[r, c] != arr.bits[r, c]]
    assert all(rc == (op.output_row, op.col) for rc in diff)


def test_trace_records_disturb_verdicts():
    # Default parameters: the all-ones pattern pushes each input branch
    # current past the STT density limit, which is advisory, not blocking.
    spec, op = calibrated(Topology.TWO_T_ONE_R, GateKind.NOR, 2)
    arr = MramArray.uniform(spec)
    for r in op.input_rows:
        arr = write_cell(arr, r, 0, MagState.P)
    trace = execute_gate(arr, op)
    assert len(trace.disturb_ok) == 2
    assert not all(trace.disturb_ok)
    # A relaxed density limit clears the verdict.
    relaxed = spec.nominal.replace(J_stt_crit=1e12)
    spec2 = ArraySpec(spec.topology, spec.rows, spec.cols, relaxed)
    trace2 = execute_gate(MramArray.uniform(spec2), op)
    assert all(trace2.disturb_ok)


def test_invalid_ops_rejected():
    with pytest.raises(GateConfigError):
        GateOp(kind=GateKind.NOR, input_rows=(), output_row=2, col=0, v_drive=1.1)
    with pytest.raises(GateConfigError):
        GateOp(kind=GateKind.NOR, input_rows=(0, 1), output_row=1, col=0,
               v_drive=1.1)


def test_out_of_bounds_addresses_rejected():
    spec = spec_for(Topology.TWO_T_ONE_R, 2)
    row_op = GateOp.for_kind(GateKind.NOR, spec.topology, input_rows=(0, 7),
                             output_row=8)
    col_op = GateOp.for_kind(GateKind.NOR, spec.topology, col=1)
    for op in (row_op, col_op):
        with pytest.raises(GateConfigError):
            execute_gate(MramArray.uniform(spec), op)
        with pytest.raises(GateConfigError):
            truth_table(spec, GateKind.NOR, 2, op=op)
        with pytest.raises(GateConfigError):
            margin_analysis(spec, GateKind.NOR, 2, op=op)


def test_op_of_another_kind_or_input_count_rejected():
    spec = spec_for(Topology.TWO_T_ONE_R, 3)
    for op in (GateOp.for_kind(GateKind.NAND, spec.topology),
               GateOp.for_kind(GateKind.NOR, spec.topology, n_inputs=3)):
        with pytest.raises(GateConfigError, match="op disagrees"):
            truth_table(spec, GateKind.NOR, 2, op=op)


def test_fan_in_above_the_limit_rejected():
    # 2^n patterns are solved at once, so no op holds more input rows than
    # the limit, given rows (a gate recipe's) included.
    with pytest.raises(GateConfigError, match="fan-in limit of 8"):
        GateOp.for_kind(GateKind.NOR, Topology.TWO_T_ONE_R, input_rows=range(9))


@pytest.mark.parametrize("n", [0, 10 ** 6])
@pytest.mark.parametrize("entry", ["truth_table", "margin_analysis",
                                   "calibrate_gate", "for_kind"])
def test_fan_in_outside_its_bounds_rejected_at_every_entry(entry, n):
    # 0 inputs leave no input row to place the output after, and 10^6
    # would build a 10^6-row op: both are rejected before either happens.
    spec = spec_for(Topology.TWO_T_ONE_R, 2)
    calls = {"truth_table": lambda: truth_table(spec, GateKind.NOR, n),
             "margin_analysis": lambda: margin_analysis(spec, GateKind.NOR, n),
             "calibrate_gate": lambda: calibrate_gate(spec, GateKind.NOR, n),
             "for_kind": lambda: GateOp.for_kind(GateKind.NOR, spec.topology,
                                                 n_inputs=n)}
    with pytest.raises(GateConfigError, match="fan-in limit of 8"):
        calls[entry]()


def test_a_sweep_over_no_values_is_a_value_error():
    with pytest.raises(ValueError, match="at least one value"):
        sweep_margins(spec_for(Topology.TWO_T_ONE_R, 2), GateKind.NOR, 2,
                      "RA", np.array([]))


@pytest.mark.parametrize("topology", list(Topology))
@pytest.mark.parametrize("kind", list(GateKind))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_pattern_walk_equals_execute_gate_on_an_array(topology, kind, n):
    # Truth tables and margins solve all input patterns as one array; a
    # scalar solve_pattern call per pattern is the reference, and an
    # MramArray holding the pattern, run through execute_gate, gives the
    # same output bit.
    spec, op = calibrated(topology, kind, n)
    table = truth_table(spec, kind, n, op=op)
    report = margin_analysis(spec, kind, n, op=op)
    read_current = topology is Topology.TWO_T_ONE_R
    assert report.bits == [row.bits for row in table.rows]
    assert report.v_bl is None if read_current else len(report.v_bl) == 2 ** n
    for index, row in enumerate(table.rows):
        sol, first, i_crit, switched = solve_pattern(
            topology, op, row.bits, (spec.nominal,) * n, spec.nominal,
            op.v_drive)
        first_name = "i_out" if read_current else "v_bl"
        assert row.actual == op.out_init ^ switched
        assert row.observables == {first_name: first, "i_crit": i_crit}
        assert report.metric[index] == (abs(first) if read_current else i_crit)
        if not read_current:
            assert report.v_bl[index] == first
        assert report.max_input_current[index] == max(
            abs(sol.current(f"in{k}")) for k in range(n))
        arr = MramArray.uniform(spec)
        for r, b in zip(op.input_rows, row.bits):
            arr = write_cell(arr, r, op.col, MagState.from_bit(b))
        trace = execute_gate(arr, op)
        assert trace.switched == switched
        assert row.actual == trace.post.bits[op.output_row, op.col]


# --- margins -----------------------------------------------------------------------

def test_two_input_nor_margin_ideal_access():
    # From the network hand values: I(0,1) - I(0,0) at R_on = 0.
    spec = spec_for(Topology.TWO_T_ONE_R, 2, P2.replace(R_on=0.0))
    report = margin_analysis(spec, GateKind.NOR, 2)
    i00 = 1.1 / (R_AP / 2 + R_CH)
    i01 = 1.1 / (R_P * R_AP / (R_P + R_AP) + R_CH)
    assert report.margin == pytest.approx(i01 - i00, rel=1e-6)
    assert report.margin == pytest.approx(66.8e-6, rel=2e-3)


@pytest.mark.parametrize("topology", list(Topology))
def test_nor_margin_shrinks_with_more_inputs(topology):
    margins = [margin_analysis(spec_for(topology, n), GateKind.NOR, n).margin
               for n in (2, 3, 4)]
    assert margins[0] > margins[1] > margins[2] > 0.0


def test_zero_tmr_kills_margin():
    spec = spec_for(Topology.TWO_T_ONE_R, 2, P2.replace(TMR0=0.0))
    report = margin_analysis(spec, GateKind.NOR, 2)
    assert report.margin == pytest.approx(0.0, abs=1e-15)
    assert report.relative_margin == pytest.approx(0.0, abs=1e-12)


def test_margin_points_cover_all_patterns():
    # One value per pattern in every column, in pattern-index order.
    report = margin_analysis(spec_for(Topology.VGSOT, 2), GateKind.NOR, 2)
    assert [pattern_label(b) for b in report.bits] == ["00", "01", "10", "11"]
    assert report.must_switch.tolist() == [False, True, True, True]
    for column in (report.metric, report.v_bl, report.max_input_current):
        assert column.shape == (4,) and column.dtype == np.float64


@pytest.mark.parametrize("topology", list(Topology))
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind, axis", [(GateKind.NOR, "RA"),
                                        (GateKind.AND, "t_ox"),
                                        (GateKind.OR, "Ic_cal")])
def test_margin_analysis_over_a_column_equals_one_per_point(topology, n,
                                                            kind, axis):
    # One solve over a parameter column keeps its leading axis in every
    # field, or broadcasts along it: the 2T-1R network ignores Ic_cal, so
    # its windows there are one value for the whole column.
    spec = spec_for(topology, n)
    op = GateOp.for_kind(kind, topology, n_inputs=n)
    values = (getattr(spec.nominal, axis) * np.array([0.5, 1.0, 1.7])).tolist()
    report = margin_analysis(spec, kind, n, op, CellArrays(
        spec.nominal, **{axis: np.array(values)[:, None]}))
    for k, value in enumerate(values):
        point = margin_analysis(spec_for(topology, n, spec.nominal.replace(
            **{axis: value})), kind, n, op)
        for name in ("lo", "hi", "relative_margin", "must_switch", "metric",
                     "v_bl", "max_input_current"):
            expected = getattr(point, name)
            if expected is None:  # the bit-line voltage in 2T-1R
                assert getattr(report, name) is None
                continue
            column = np.broadcast_to(getattr(report, name),
                                     (len(values),) + np.shape(expected))
            assert column[k].tolist() == np.asarray(expected).tolist(), \
                (name, value)


def test_sweep_checks_every_value_of_an_unordered_column(monkeypatch):
    # The ends pass; the check still finds the middle value before a solve.
    monkeypatch.setattr(gates, "margin_analysis", None)
    with pytest.raises(ConfigError, match="R_on must be >= 0"):
        sweep_margins(spec_for(Topology.TWO_T_ONE_R, 2), GateKind.NOR, 2,
                      "R_on", np.array([1000.0, -1.0, 2000.0]))


# --- calibration ------------------------------------------------------------------------

def test_read_scheme_calibration_midpoint_ideal_access():
    spec = spec_for(Topology.TWO_T_ONE_R, 2, P2.replace(R_on=0.0))
    cal = calibrate_gate(spec, GateKind.NOR, 2)
    i00 = 1.1 / (R_AP / 2 + R_CH)
    i01 = 1.1 / (R_P * R_AP / (R_P + R_AP) + R_CH)
    assert cal.operating_point == pytest.approx((i00 + i01) / 2, rel=1e-6)
    assert cal.operating_point == pytest.approx(210.7e-6, rel=1e-3)


def test_calibration_places_threshold_at_fraction():
    spec = spec_for(Topology.TWO_T_ONE_R, 2)
    lo_cal = calibrate_gate(spec, GateKind.NOR, 2, margin_fraction=0.2)
    mid_cal = calibrate_gate(spec, GateKind.NOR, 2, margin_fraction=0.5)
    assert lo_cal.lo == mid_cal.lo and lo_cal.hi == mid_cal.hi
    assert lo_cal.operating_point == pytest.approx(
        lo_cal.lo + 0.2 * (lo_cal.hi - lo_cal.lo), rel=1e-12)
    assert lo_cal.operating_point < mid_cal.operating_point


def test_voltage_gated_calibration_within_threshold_window():
    from sotlogic import critical_sot_current, solve_vgsot_divider
    from sotlogic.array import CellState
    spec = spec_for(Topology.VGSOT, 2)
    cal = calibrate_gate(spec, GateKind.NOR, 2)

    def i_c(bits):
        cells = [CellState(MagState.from_bit(b), PV) for b in bits]
        sol = solve_vgsot_divider(cells, CellState(MagState.P, PV), 1.5)
        return critical_sot_current(PV, sol.voltage("bl"))

    lo, hi = i_c((0, 1)), i_c((0, 0))
    assert lo < cal.i_sot < hi
    assert cal.i_sot == pytest.approx((lo + hi) / 2, rel=1e-9)


def test_inseparable_with_zero_tmr():
    for topology in Topology:
        base = P2 if topology is Topology.TWO_T_ONE_R else PV
        spec = spec_for(topology, 2, base.replace(TMR0=0.0))
        with pytest.raises(InseparableError):
            calibrate_gate(spec, GateKind.NOR, 2)


def test_overgated_multi_input_and_lowers_drive():
    # At the default 1.5 V input drive all three-input AND cases clamp the
    # threshold to zero; calibration must find a lower separating voltage.
    spec = spec_for(Topology.VGSOT, 3)
    cal = calibrate_gate(spec, GateKind.AND, 3)
    assert cal.v_drive < 1.5
    spec2, op2 = cal.apply(spec)
    assert truth_table(spec2, GateKind.AND, 3, op=op2).matches


def test_bad_margin_fraction_rejected():
    spec = spec_for(Topology.TWO_T_ONE_R, 2)
    for frac in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            calibrate_gate(spec, GateKind.NOR, 2, margin_fraction=frac)


# --- energy --------------------------------------------------------------------------

def test_read_scheme_energy_hand_value():
    # (1,1) with ideal access: 1.1 V * 300.7 uA * 2 ns
    spec, op = calibrated(Topology.TWO_T_ONE_R, GateKind.NOR, 2,
                          params=P2.replace(R_on=0.0))
    arr = MramArray.uniform(spec)
    for r in op.input_rows:
        arr = write_cell(arr, r, 0, MagState.P)
    trace = execute_gate(arr, op)
    i11 = 1.1 / (R_P / 2 + R_CH)
    assert trace.energy == pytest.approx(1.1 * i11 * 2e-9, rel=1e-6)
    assert trace.energy == pytest.approx(661e-15, rel=2e-3)


def test_voltage_gated_energy_components():
    spec, op = calibrated(Topology.VGSOT, GateKind.NOR, 2)
    arr = MramArray.uniform(spec)
    trace = execute_gate(arr, op)
    r_pv = 650.0e-12 / A_MTJ
    # inputs (0,0): two AP branches in parallel = R_AP/2 = r_pv, output P = r_pv
    i_leak = 1.5 / (r_pv + r_pv)
    expected = 1.5 * i_leak * 2e-9 + op.i_sot ** 2 * R_CH * 2e-9
    assert trace.energy == pytest.approx(expected, rel=1e-6)


def test_energy_linear_in_pulse_and_nonnegative():
    spec, op = calibrated(Topology.TWO_T_ONE_R, GateKind.NOR, 2)
    arr = MramArray.uniform(spec)
    trace = execute_gate(arr, op)

    def energy(pulse):
        scaled = GateOp.for_kind(op.kind, spec.topology, n_inputs=2,
                                 v_drive=op.v_drive, i_sot=op.i_sot,
                                 pulse=pulse)
        return execute_gate(arr, scaled).energy

    assert energy(2 * op.pulse) == pytest.approx(2 * trace.energy, rel=1e-12)
    assert energy(0.0) == 0.0
    assert trace.energy >= 0.0


def test_reversed_polarity_energy_positive():
    spec, op = calibrated(Topology.TWO_T_ONE_R, GateKind.OR, 2)
    assert op.v_drive < 0.0
    trace = execute_gate(MramArray.uniform(spec), op)
    assert trace.energy > 0.0


# --- pattern helpers and recipe files ---------------------------------------------------

def test_pattern_bits_and_labels():
    assert pattern_bits(0, 2) == (0, 0)
    assert pattern_bits(1, 2) == (1, 0)      # input 0 carries bit 0
    assert pattern_label((1, 0)) == "01"     # display is IN1..IN0
    assert [pattern_label(pattern_bits(i, 2)) for i in range(4)] == \
        ["00", "01", "10", "11"]


def test_recipe_parse_defaults():
    ops = parse_gate_ops("nor,0,0;1,2\n# comment\n\nand,1,0;1;2,3\n",
                         Topology.TWO_T_ONE_R)
    assert len(ops) == 2
    assert ops[0].kind is GateKind.NOR
    assert ops[0].input_rows == (0, 1) and ops[0].output_row == 2
    assert ops[0].v_drive == pytest.approx(1.1)
    assert ops[0].pulse == pytest.approx(2e-9)
    assert ops[1].kind is GateKind.AND
    assert ops[1].col == 1 and ops[1].input_rows == (0, 1, 2)
    assert ops[1].v_drive == pytest.approx(-1.1)  # reversed polarity family


def test_omitted_pulse_takes_the_default():
    # None means the default pulse, as it does for v_drive and i_sot, in
    # the library and for a recipe line with no or an empty pulse field.
    for topology in Topology:
        op = GateOp.for_kind(GateKind.OR, topology, pulse=None)
        assert op == GateOp.for_kind(GateKind.OR, topology)
        assert op.pulse == PULSE_DEFAULT
        assert parse_gate_ops("or,0,0;1,2\nor,0,0;1,2,,,\n", topology) == \
            [op, op]


def test_recipe_parse_overrides_and_round_trip():
    text = "nand,0,2;3,1,0.9,5e-05,1e-09\n"
    ops = parse_gate_ops(text, Topology.VGSOT)
    assert ops[0].v_drive == pytest.approx(0.9)
    assert ops[0].i_sot == pytest.approx(5e-5)
    assert ops[0].pulse == pytest.approx(1e-9)
    # Written back in the recipe format with repr'd numbers, the op parses
    # to itself.
    op = ops[0]
    text = (f"{op.kind.value},{op.col},{';'.join(map(str, op.input_rows))},"
            f"{op.output_row},{op.v_drive!r},{op.i_sot!r},{op.pulse!r}\n")
    assert parse_gate_ops(text, Topology.VGSOT) == ops


def test_recipe_parse_errors():
    with pytest.raises(ValueError, match="line 1"):
        parse_gate_ops("nor,0,0;1\n", Topology.TWO_T_ONE_R)
    with pytest.raises(ValueError, match="line 2"):
        parse_gate_ops("nor,0,0;1,2\nxor,0,0;1,2\n", Topology.TWO_T_ONE_R)


# --- the voltage-gated drive scan ------------------------------------------------

def loop_drive_scan(spec, kind, n):
    """Reference: the drive scan as a loop of margin analyses, one per drive.

    Stops at scale 1.0 when that drive separates, else keeps the first
    report with the widest window.
    """
    base = GateOp.for_kind(kind, spec.topology, n_inputs=n).v_drive
    best = None
    for scale in [round(1.0 - 0.025 * k, 4) for k in range(33)]:
        op = GateOp.for_kind(kind, spec.topology, n_inputs=n,
                             v_drive=base * scale)
        report = margin_analysis(spec, kind, n, op=op)
        if best is None or report.margin > best.margin:
            best = report
        if scale == 1.0 and report.margin > 0.0:
            break
    return best


@pytest.mark.parametrize("kind", list(GateKind))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_drive_scan_equals_a_loop_of_margin_analyses(kind, n):
    # calibrate_gate solves all scanned drives as one array.
    spec = spec_for(Topology.VGSOT, n)
    best = loop_drive_scan(spec, kind, n)
    assert best.margin > 0.0
    cal = calibrate_gate(spec, kind, n)
    assert (cal.lo, cal.hi, cal.v_drive) == (best.lo, best.hi, best.v_drive)


@pytest.mark.parametrize("kind", list(GateKind))
def test_drive_scan_ties_keep_the_first_drive(kind):
    # Without TMR every drive gives an empty window (margin 0); the report
    # names the first one, the base drive, as the loop does.
    spec = spec_for(Topology.VGSOT, 2, PV.replace(TMR0=0.0))
    best = loop_drive_scan(spec, kind, 2)
    assert best.v_drive == 1.5 and best.margin == 0.0
    with pytest.raises(InseparableError,
                       match=re.escape(f"[{best.lo:.4e}, {best.hi:.4e}]")):
        calibrate_gate(spec, kind, 2)
