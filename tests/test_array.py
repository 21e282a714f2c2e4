"""Closed-form gate networks, array state handling, and CSV round trips.

The expected numbers here are computed inline from plain series/parallel
arithmetic, keeping the oracle route independent of the solver code.
"""

import itertools
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sotlogic import (ArraySpec, CellState, DeviceParams, MagState, MramArray,
                      Topology, channel_resistance, mtj_resistance,
                      solve_2t1r_read, solve_vgsot_divider, write_cell)

from nodal_oracle import ResistiveNetwork, solve_general

P_IDEAL = DeviceParams.default_2t1r().replace(R_on=0.0)  # ideal access
PV = DeviceParams.default_vgsot()

A_MTJ = math.pi * (50e-9) ** 2 / 4
R_P = 10.0e-12 / A_MTJ            # 5092.96 ohm
R_AP = 2 * R_P
R_CH = 2.78e-6 * 60e-9 / (50e-9 * 3e-9)   # 1112 ohm
R_PV = 650.0e-12 / A_MTJ          # 331.04 kohm


def cell(state, dev):
    return CellState(MagState.from_bit(state), dev)


def read_current(bits, v=1.1):
    """Series/parallel hand model, ideal access transistors."""
    g = sum(1.0 / (R_P if b else R_AP) for b in bits)
    return v / (1.0 / g + R_CH)


def divider_voltage(bits, out_p=True, v=1.5):
    g = sum(1.0 / (R_PV if b else 2 * R_PV) for b in bits)
    r_out = R_PV if out_p else 2 * R_PV
    return v * r_out / (r_out + 1.0 / g)


# --- 2T-1R read network ----------------------------------------------------------

@pytest.mark.parametrize("bits,ua", [((0, 0), 177.3), ((0, 1), 244.1),
                                     ((1, 0), 244.1), ((1, 1), 300.7)])
def test_read_currents_match_hand_values(bits, ua):
    sol = solve_2t1r_read([cell(b, P_IDEAL) for b in bits], cell(1, P_IDEAL), 1.1)
    assert sol.current("out") == pytest.approx(ua * 1e-6, rel=1e-3)
    assert sol.current("out") == pytest.approx(read_current(bits), rel=1e-6)
    assert sol.kcl_residual() < 1e-9


def test_input_branch_currents_sum_to_output():
    bits = (1, 0, 1)
    sol = solve_2t1r_read([cell(b, P_IDEAL) for b in bits], cell(1, P_IDEAL), 1.1)
    total = sum(sol.current(f"in{k}") for k in range(3))
    assert total == pytest.approx(sol.current("out"), rel=1e-12)


def test_read_current_symmetric_under_permutation():
    for bits in itertools.permutations((0, 1, 1)):
        sol = solve_2t1r_read([cell(b, P_IDEAL) for b in bits],
                              cell(1, P_IDEAL), 1.1)
        assert sol.current("out") == pytest.approx(read_current((0, 1, 1)), rel=1e-12)


def test_read_current_decreases_when_input_flips_to_ap():
    hi = solve_2t1r_read([cell(1, P_IDEAL), cell(1, P_IDEAL)], cell(1, P_IDEAL), 1.1)
    lo = solve_2t1r_read([cell(1, P_IDEAL), cell(0, P_IDEAL)], cell(1, P_IDEAL), 1.1)
    assert lo.current("out") < hi.current("out")


def test_read_current_linear_in_drive():
    cells = [cell(0, P_IDEAL), cell(1, P_IDEAL)]
    out = cell(1, P_IDEAL)
    i1 = solve_2t1r_read(cells, out, 1.1).current("out")
    i2 = solve_2t1r_read(cells, out, 2.2).current("out")
    assert i2 == pytest.approx(2 * i1, rel=1e-12)
    i3 = solve_2t1r_read(cells, out, -1.1).current("out")
    assert i3 == pytest.approx(-i1, rel=1e-12)


def test_access_resistance_enters_every_branch():
    p = DeviceParams.default_2t1r()  # R_on = 1 kohm
    sol = solve_2t1r_read([cell(0, p), cell(0, p)], cell(1, p), 1.1)
    expected = 1.1 / ((p.R_on + R_AP) / 2 + p.R_on + R_CH)
    assert sol.current("out") == pytest.approx(expected, rel=1e-9)


# --- VGSOT divider -------------------------------------------------------------------

@pytest.mark.parametrize("bits,v_bl", [((0, 0), 0.750), ((0, 1), 0.900),
                                       ((1, 0), 0.900), ((1, 1), 1.000)])
def test_divider_voltages_match_hand_values(bits, v_bl):
    sol = solve_vgsot_divider([cell(b, PV) for b in bits], cell(1, PV), 1.5)
    assert sol.voltage("bl") == pytest.approx(v_bl, rel=1e-3)
    assert sol.voltage("bl") == pytest.approx(divider_voltage(bits), rel=1e-12)
    assert sol.kcl_residual() < 1e-9


def test_divider_uses_output_state():
    sol = solve_vgsot_divider([cell(0, PV), cell(0, PV)], cell(0, PV), 1.5)
    assert sol.voltage("bl") == pytest.approx(divider_voltage((0, 0), out_p=False),
                                              rel=1e-12)


def test_divider_monotone_in_number_of_p_inputs():
    v = [solve_vgsot_divider([cell(b, PV) for b in bits], cell(1, PV), 1.5).voltage("bl")
         for bits in [(0, 0), (0, 1), (1, 1)]]
    assert v[0] < v[1] < v[2]


def test_divider_leakage_currents_balance():
    sol = solve_vgsot_divider([cell(1, PV), cell(0, PV)], cell(1, PV), 1.5)
    total = sol.current("in0") + sol.current("in1")
    assert total == pytest.approx(sol.current("out"), rel=1e-12)


# --- closed forms vs the general solver (dual route) ---------------------------------

def general_read_net(bits, dev, v):
    net = ResistiveNetwork()
    net.add_voltage_source("vs", "rbl", "gnd", v)
    for k, b in enumerate(bits):
        r = dev.R_on + (R_P if b else R_AP)
        net.add_resistor(f"in{k}", "rbl", "sl", r)
    net.add_resistor("out", "sl", "gnd", dev.R_on + R_CH)
    return solve_general(net)


def general_divider_net(bits, v):
    net = ResistiveNetwork()
    net.add_voltage_source("vs", "wbl", "gnd", v)
    for k, b in enumerate(bits):
        net.add_resistor(f"in{k}", "wbl", "bl", R_PV if b else 2 * R_PV)
    net.add_resistor("out", "bl", "gnd", R_PV)
    return solve_general(net)


@pytest.mark.parametrize("bits", list(itertools.product((0, 1), repeat=2)))
def test_general_solver_reproduces_read_network(bits):
    dev = DeviceParams.default_2t1r()
    closed = solve_2t1r_read([cell(b, dev) for b in bits], cell(1, dev), 1.1)
    general = general_read_net(bits, dev, 1.1)
    assert general.current("out") == pytest.approx(closed.current("out"), rel=1e-9)
    for k in range(len(bits)):
        assert general.current(f"in{k}") == pytest.approx(
            closed.current(f"in{k}"), rel=1e-9)
    assert general.voltage("sl") == pytest.approx(closed.voltage("sl"), rel=1e-9)


@pytest.mark.parametrize("bits", list(itertools.product((0, 1), repeat=2)))
def test_general_solver_reproduces_divider(bits):
    closed = solve_vgsot_divider([cell(b, PV) for b in bits], cell(1, PV), 1.5)
    general = general_divider_net(bits, 1.5)
    assert general.voltage("bl") == pytest.approx(closed.voltage("bl"), rel=1e-9)
    assert general.current("out") == pytest.approx(closed.current("out"), rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=8),
       out_bit=st.integers(0, 1), r_on=st.floats(0.0, 5e3),
       ra=st.floats(1.0, 1000.0), tmr0=st.floats(0.0, 3.0),
       v=st.floats(0.1, 2.0), sign=st.sampled_from((-1.0, 1.0)))
def test_both_networks_match_the_nodal_oracle(bits, out_bit, r_on, ra, tmr0,
                                              v, sign):
    # The cell resistances come from the device model; the network
    # arithmetic is what is checked.
    dev = DeviceParams.default_2t1r().replace(R_on=r_on, RA=ra, TMR0=tmr0)
    cells = [cell(b, dev) for b in bits]
    out = cell(out_bit, dev)
    v *= sign
    read = (solve_2t1r_read, "rbl", "sl", dev.R_on,
            dev.R_on + channel_resistance(dev))
    divider = (solve_vgsot_divider, "wbl", "bl", 0.0,
               mtj_resistance(dev, out.mag))
    for solve, source, node, r_access, r_out in (read, divider):
        net = ResistiveNetwork()
        net.add_voltage_source("vs", source, "gnd", v)
        for k, c in enumerate(cells):
            net.add_resistor(f"in{k}", source, node,
                             r_access + mtj_resistance(dev, c.mag))
        net.add_resistor("out", node, "gnd", r_out)
        general = solve_general(net)
        closed = solve(cells, out, v)
        assert closed.voltage(node) == pytest.approx(general.voltage(node),
                                                     rel=1e-12)
        for name in [f"in{k}" for k in range(len(bits))] + ["out"]:
            assert closed.current(name) == pytest.approx(
                general.current(name), rel=1e-12)
        assert closed.kcl_residual() < 1e-12


def test_empty_input_list_rejected():
    with pytest.raises(ValueError):
        solve_2t1r_read([], cell(1, P_IDEAL), 1.1)
    with pytest.raises(ValueError):
        solve_vgsot_divider([], cell(1, PV), 1.5)


# --- array state -----------------------------------------------------------------------

def make_array(rows=4, cols=2):
    spec = ArraySpec(Topology.TWO_T_ONE_R, rows, cols,
                     DeviceParams.default_2t1r())
    return MramArray.uniform(spec)


def test_write_then_read():
    arr = write_cell(make_array(), 1, 0, MagState.P)
    assert arr.bits.tolist() == [[0, 0], [1, 0], [0, 0], [0, 0]]


def test_write_idempotent():
    arr = make_array()
    once = write_cell(arr, 2, 1, MagState.P)
    twice = write_cell(once, 2, 1, MagState.P)
    assert twice is once
    assert once is not arr


def test_overwrite():
    arr = write_cell(make_array(), 0, 0, MagState.P)
    arr = write_cell(arr, 0, 0, MagState.AP)
    assert arr.bits[0, 0] == MagState.AP


def test_write_does_not_mutate_source_snapshot():
    arr = make_array()
    write_cell(arr, 0, 0, MagState.P)
    assert arr.bits[0, 0] == MagState.AP
    with pytest.raises(ValueError):  # the grid is read-only
        arr.bits[0, 0] = MagState.P


def test_out_of_bounds_write():
    with pytest.raises(IndexError):
        write_cell(make_array(), 9, 0, MagState.P)
    with pytest.raises(IndexError):
        write_cell(make_array(), 0, 5, MagState.P)
    with pytest.raises(IndexError):  # no wrap-around from the end
        write_cell(make_array(), -1, 0, MagState.P)


def test_spec_validation():
    with pytest.raises(ValueError):
        ArraySpec(Topology.TWO_T_ONE_R, 2, 1, DeviceParams.default_2t1r())
    with pytest.raises(ValueError):
        ArraySpec(Topology.TWO_T_ONE_R, 3, 0, DeviceParams.default_2t1r())
    ArraySpec(Topology.TWO_T_ONE_R, 4096, 4096, DeviceParams.default_2t1r())
    with pytest.raises(ValueError, match=re.escape("rows * cols <= 16777216")):
        ArraySpec(Topology.TWO_T_ONE_R, 4096, 4097, DeviceParams.default_2t1r())
    with pytest.raises(ValueError, match="shape \\(3, 2\\) does not fit a 3x1"):
        MramArray(ArraySpec(Topology.TWO_T_ONE_R, 3, 1,
                            DeviceParams.default_2t1r()), [[0, 1]] * 3)


def test_csv_round_trip():
    arr = make_array(rows=3, cols=3)
    arr = write_cell(arr, 0, 1, MagState.P)
    arr = write_cell(arr, 2, 2, MagState.P)
    text = arr.to_csv()
    assert text.splitlines()[0] == "rows,cols,topology"
    assert text.splitlines()[1] == "3,3,2t1r"
    back = MramArray.from_csv(text, DeviceParams.default_2t1r())
    assert back.bits.tolist() == arr.bits.tolist() == \
        [[0, 1, 0], [0, 0, 0], [0, 0, 1]]
    assert back.spec.topology is Topology.TWO_T_ONE_R


def test_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        MramArray.from_csv("nope\n1,1,1\n", DeviceParams.default_2t1r())


def test_csv_rejects_ragged_grid():
    text = "rows,cols,topology\n3,2,2t1r\n0,0\n0\n0,0\n"
    with pytest.raises(ValueError):
        MramArray.from_csv(text, DeviceParams.default_2t1r())


def test_csv_cells_are_exactly_bits():
    text = "rows,cols,topology\n3,2,2t1r\n 1 ,0\n0, 0\n1,1\n"
    back = MramArray.from_csv(text, DeviceParams.default_2t1r())
    assert back.bits.tolist() == [[1, 0], [0, 0], [1, 1]]
    for cell in ("2", "-1", "01", "+1", "1.0", "", "x"):
        text = f"rows,cols,topology\n3,2,2t1r\n0,0\n0,{cell}\n0,0\n"
        with pytest.raises(ValueError,
                           match=re.escape(f"row 1: {cell!r} is not a bit")):
            MramArray.from_csv(text, DeviceParams.default_2t1r())
