"""Device compact-model tests against hand-derived values."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sotlogic import (ConfigError, DeviceParams, MagState, Polarity,
                      channel_resistance, check_read_disturb,
                      critical_sot_current, dump_device_params,
                      load_device_params, mtj_area, mtj_resistance,
                      switch_decision)
from sotlogic.device import HBAR, MU0, OERSTED, Q_E
from sotlogic.variation import CellArrays

P2 = DeviceParams.default_2t1r()
PV = DeviceParams.default_vgsot()


# --- geometry and resistances -------------------------------------------------

def test_mtj_area_matches_direct_formula():
    assert mtj_area(P2) == pytest.approx(math.pi * (50e-9) ** 2 / 4, rel=1e-12)
    assert mtj_area(P2) == pytest.approx(1.9635e-15, rel=1e-4)


def test_area_scaling_quadratic():
    assert mtj_area(P2.replace(D=100e-9)) == pytest.approx(4 * mtj_area(P2), rel=1e-12)


def test_zero_diameter_rejected():
    with pytest.raises(ConfigError):
        P2.replace(D=0.0)


def test_parallel_resistance_low_ra():
    # 10 ohm um^2 over a 50 nm disc: 10e-12 / (pi 2.5e-15 / 4)
    expected = 10.0e-12 / (math.pi * (50e-9) ** 2 / 4)
    assert mtj_resistance(P2, MagState.P) == pytest.approx(expected, rel=1e-12)
    assert mtj_resistance(P2, MagState.P) == pytest.approx(5093.0, rel=1e-3)


def test_antiparallel_resistance_low_ra():
    assert mtj_resistance(P2, MagState.AP) == pytest.approx(10185.9, rel=1e-4)


def test_parallel_resistance_high_ra():
    assert mtj_resistance(PV, MagState.P) == pytest.approx(331.0e3, rel=1e-3)


def test_tmr_ratio_exact():
    r_p = mtj_resistance(P2, MagState.P)
    r_ap = mtj_resistance(P2, MagState.AP)
    assert r_ap / r_p == pytest.approx(1.0 + P2.TMR0, rel=1e-12)


def test_channel_resistance_reference_geometry():
    assert channel_resistance(P2) == pytest.approx(
        2.78e-6 * 60e-9 / (50e-9 * 3e-9), rel=1e-12)
    assert channel_resistance(P2) == pytest.approx(1112.0, rel=1e-6)


def test_channel_resistance_scaling():
    assert channel_resistance(P2.replace(L=120e-9)) == pytest.approx(
        2 * channel_resistance(P2), rel=1e-12)
    assert channel_resistance(P2.replace(W=100e-9)) == pytest.approx(
        channel_resistance(P2) / 2, rel=1e-12)


@given(scale=st.floats(0.1, 50.0))
def test_resistances_homogeneous_degree_one(scale):
    assert mtj_resistance(P2.replace(RA=P2.RA * scale), MagState.P) == pytest.approx(
        scale * mtj_resistance(P2, MagState.P), rel=1e-9)
    assert channel_resistance(P2.replace(rho_SOT=P2.rho_SOT * scale)) == pytest.approx(
        scale * channel_resistance(P2), rel=1e-9)


# --- switching threshold --------------------------------------------------------

def test_zero_bias_threshold_matches_independent_evaluation():
    # Algebraically collapsed form of the macrospin threshold:
    # I_c = (2e/hbar) (W T / theta) (Ki0 - t_f mu0 Ms^2 / 2)
    expected = (2 * Q_E / HBAR) * (P2.W * P2.T / P2.theta_SH) * (
        P2.Ki0 - P2.t_f * MU0 * P2.Ms ** 2 / 2)
    got = critical_sot_current(P2, 0.0)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(91e-6, rel=0.01)


def test_threshold_independent_of_gate_voltage_without_vcma():
    p = P2.replace(beta=0.0)
    assert critical_sot_current(p, 0.0) == critical_sot_current(p, 1.0)


def test_threshold_monotone_in_gate_voltage():
    sweep = [critical_sot_current(P2, v) for v in
             [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5]]
    assert all(a >= b for a, b in zip(sweep, sweep[1:]))
    assert sweep[-1] == 0.0  # clamped once the barrier collapses


@given(v1=st.floats(0.0, 1.5), v2=st.floats(0.0, 1.5))
@settings(max_examples=50)
def test_threshold_ordering_property(v1, v2):
    lo, hi = sorted((v1, v2))
    assert critical_sot_current(P2, lo) >= critical_sot_current(P2, hi)


def test_threshold_scales_with_calibration_factor():
    assert critical_sot_current(P2.replace(Ic_cal=2.5), 0.0) == pytest.approx(
        2.5 * critical_sot_current(P2, 0.0), rel=1e-12)


def test_threshold_on_arrays_equals_scalar_calls():
    # The batched Monte-Carlo kernel evaluates the same law on arrays; the
    # clamp must act elementwise and scalar calls must stay Python floats.
    import numpy as np
    volts = np.array([0.0, 0.5, 1.0, 1.25, 1.5, 3.0])
    scalar = [critical_sot_current(P2, float(v)) for v in volts]
    assert all(type(i) is float for i in scalar)
    assert scalar[-1] == 0.0 and scalar[0] > 0.0
    assert np.array_equal(critical_sot_current(P2, volts), scalar)


def test_threshold_of_array_fields_clamps_without_a_barrier():
    # A sweep column of a field outside the barrier term (here Ic_cal)
    # gives an array threshold while the barrier test stays one bool.
    import numpy as np
    gone = P2.replace(Ki0=1e-9)
    ic_cal = np.array([0.5, 1.0, 2.0])
    assert np.array_equal(critical_sot_current(CellArrays(gone, Ic_cal=ic_cal)),
                          np.zeros(3))
    assert np.array_equal(critical_sot_current(CellArrays(P2, Ic_cal=ic_cal)),
                          [critical_sot_current(P2.replace(Ic_cal=c))
                           for c in ic_cal.tolist()])


# --- switch decision ---------------------------------------------------------------

def test_switch_above_threshold():
    assert switch_decision(150e-6, 100e-6, Polarity.P_TO_AP)


def test_no_switch_below_threshold():
    assert not switch_decision(50e-6, 100e-6, Polarity.P_TO_AP)


def test_boundary_is_inclusive():
    assert switch_decision(100e-6, 100e-6, Polarity.P_TO_AP)


def test_polarity_must_match_current_sign():
    assert not switch_decision(150e-6, 100e-6, Polarity.AP_TO_P)
    assert switch_decision(-150e-6, 100e-6, Polarity.AP_TO_P)
    assert not switch_decision(-150e-6, 100e-6, Polarity.P_TO_AP)


def test_switches_on_arrays_matches_switch_decision():
    import numpy as np
    currents = np.array([-150e-6, -100e-6, -50e-6, 0.0, 50e-6, 100e-6,
                         150e-6])
    for polarity in Polarity:
        expected = [switch_decision(float(i), 100e-6, polarity)
                    for i in currents]
        assert all(type(v) is bool for v in expected)
        assert switch_decision(currents, 100e-6, polarity).tolist() == expected


def test_decision_is_pure():
    args = (123e-6, 100e-6, Polarity.P_TO_AP)
    assert all(switch_decision(*args) for _ in range(10))


# --- read disturb -------------------------------------------------------------------

def test_zero_current_passes():
    assert check_read_disturb(P2, 0.0)


def test_disturb_fails_above_density_limit():
    # 200 uA over the 50 nm disc is ~1.02e11 A/m^2, above the 5e10 default.
    assert 200e-6 / mtj_area(P2) == pytest.approx(1.019e11, rel=1e-3)
    assert not check_read_disturb(P2, 200e-6)


def test_disturb_boundary():
    limit = P2.J_stt_crit * mtj_area(P2)
    assert check_read_disturb(P2, limit * 0.999)
    assert not check_read_disturb(P2, limit)


@given(i=st.floats(0.0, 500e-6), frac=st.floats(0.0, 1.0))
@settings(max_examples=50)
def test_disturb_monotone(i, frac):
    if check_read_disturb(P2, i):
        assert check_read_disturb(P2, i * frac)


# --- parameter loading ----------------------------------------------------------------

def test_defaults_match_reference_set():
    assert P2.D == 50e-9 and P2.t_f == 1.1e-9 and P2.t_ox == 1.4e-9
    assert P2.Ms == 6.25e5 and P2.Ki0 == 3.2e-4
    assert P2.alpha == 0.05 and P2.P == 0.58 and P2.TMR0 == 1.0
    assert P2.beta == 60e-15 and P2.theta_SH == 0.25
    assert P2.H_EX == pytest.approx(-50.0 * OERSTED)
    assert (P2.L, P2.W, P2.T) == (60e-9, 50e-9, 3e-9)
    assert P2.rho_SOT == 2.78e-6
    assert P2.RA == 10.0 and PV.RA == 650.0


def test_load_from_json_file(tmp_path):
    cfg = tmp_path / "dev.json"
    cfg.write_text(json.dumps({"RA": 20.0, "H_EX_Oe": -25.0, "R_on": 0.0}))
    p = load_device_params(cfg)
    assert p.RA == 20.0
    assert p.H_EX == pytest.approx(-25.0 * OERSTED)
    assert p.R_on == 0.0
    assert p.D == P2.D  # untouched keys keep defaults


def test_unknown_key_is_hard_error():
    with pytest.raises(ConfigError, match="bogus"):
        load_device_params({"bogus": 1.0})


def test_non_numeric_value_rejected():
    with pytest.raises(ConfigError, match="RA"):
        load_device_params({"RA": "ten"})


def test_dump_round_trips():
    p = P2.replace(RA=13.5, TMR0=1.7)
    assert load_device_params(dump_device_params(p)) == p


def test_validation_names_offending_field():
    for field in ("t_f", "Ms", "rho_SOT", "Ic_cal"):
        with pytest.raises(ConfigError, match=field):
            P2.replace(**{field: -1.0})
    with pytest.raises(ConfigError, match="theta_SH"):
        P2.replace(theta_SH=1.5)
    with pytest.raises(ConfigError, match="R_on"):
        P2.replace(R_on=-1.0)
