"""General nodal solver: trivial nets, KCL, and singularity handling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodal_oracle import ResistiveNetwork, SingularNetworkError, solve_general

KCL_TOL = 1e-9


def test_single_resistor():
    net = ResistiveNetwork()
    net.add_voltage_source("vs", "a", "gnd", 5.0)
    net.add_resistor("r", "a", "gnd", 1000.0)
    sol = solve_general(net)
    assert sol.current("r") == pytest.approx(5.0 / 1000.0, rel=1e-12)
    assert sol.voltage("a") == pytest.approx(5.0, rel=1e-12)
    assert sol.voltage("gnd") == 0.0
    assert sol.kcl_residual() < KCL_TOL


def test_equal_divider_midpoint():
    net = ResistiveNetwork()
    net.add_voltage_source("vs", "top", "gnd", 2.0)
    net.add_resistor("r1", "top", "mid", 4700.0)
    net.add_resistor("r2", "mid", "gnd", 4700.0)
    sol = solve_general(net)
    assert sol.voltage("mid") == pytest.approx(1.0, rel=1e-12)
    assert sol.kcl_residual() < KCL_TOL


def test_parallel_series_hand_value():
    # 1 V over (100 || 200) + 50: total 83.333... + 50
    net = ResistiveNetwork()
    net.add_voltage_source("vs", "in", "gnd", 1.0)
    net.add_resistor("ra", "in", "x", 100.0)
    net.add_resistor("rb", "in", "x", 200.0)
    net.add_resistor("rc", "x", "gnd", 50.0)
    sol = solve_general(net)
    r_par = 100.0 * 200.0 / 300.0
    assert sol.current("rc") == pytest.approx(1.0 / (r_par + 50.0), rel=1e-12)
    assert sol.current("ra") == pytest.approx(2 * sol.current("rb"), rel=1e-12)
    assert sol.kcl_residual() < KCL_TOL


@given(v=st.floats(0.1, 10.0), r1=st.floats(10.0, 1e5), r2=st.floats(10.0, 1e5))
@settings(max_examples=50)
def test_divider_property(v, r1, r2):
    net = ResistiveNetwork()
    net.add_voltage_source("vs", "top", "gnd", v)
    net.add_resistor("r1", "top", "mid", r1)
    net.add_resistor("r2", "mid", "gnd", r2)
    sol = solve_general(net)
    assert sol.voltage("mid") == pytest.approx(v * r2 / (r1 + r2), rel=1e-9)
    assert sol.kcl_residual() < KCL_TOL


def test_currents_linear_in_drive():
    def solve(v):
        net = ResistiveNetwork()
        net.add_voltage_source("vs", "a", "gnd", v)
        net.add_resistor("r1", "a", "b", 330.0)
        net.add_resistor("r2", "b", "gnd", 220.0)
        return solve_general(net).current("r2")

    assert solve(2.2) == pytest.approx(2.0 * solve(1.1), rel=1e-12)
    assert solve(-1.1) == pytest.approx(-solve(1.1), rel=1e-12)


def test_floating_subgraph_is_singular():
    net = ResistiveNetwork()
    net.add_voltage_source("vs", "a", "gnd", 1.0)
    net.add_resistor("r", "a", "gnd", 100.0)
    net.add_resistor("island", "x", "y", 100.0)
    with pytest.raises(SingularNetworkError, match="floating"):
        net.solve()


def test_no_source_is_singular():
    net = ResistiveNetwork()
    net.add_resistor("r", "a", "gnd", 100.0)
    with pytest.raises(SingularNetworkError):
        net.solve()


def test_no_ground_reference_is_singular():
    net = ResistiveNetwork()
    net.add_voltage_source("vs", "a", "b", 1.0)
    net.add_resistor("r", "a", "b", 100.0)
    with pytest.raises(SingularNetworkError):
        net.solve()


def test_duplicate_names_rejected():
    net = ResistiveNetwork()
    net.add_resistor("r", "a", "gnd", 1.0)
    with pytest.raises(ValueError, match="duplicate"):
        net.add_resistor("r", "a", "gnd", 2.0)


def test_nonpositive_resistance_rejected():
    net = ResistiveNetwork()
    with pytest.raises(ValueError):
        net.add_resistor("r", "a", "gnd", 0.0)


def test_branch_lookup_errors():
    net = ResistiveNetwork()
    net.add_voltage_source("vs", "a", "gnd", 1.0)
    net.add_resistor("r", "a", "gnd", 1.0)
    sol = net.solve()
    with pytest.raises(KeyError):
        sol.branch("nope")
