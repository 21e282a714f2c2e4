"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Tolerances are fixed here, not tuned at runtime.
"""

import itertools
import math

import numpy as np
from scipy import stats as scipy_stats

from sotlogic import (ArraySpec, DeviceParams, GateKind, MagState, MramArray,
                      Topology, VariationSpec,
                      calibrate_gate, current_histogram, execute_gate,
                      margin_analysis, run_mc, sample_cell, solve_2t1r_read,
                      solve_vgsot_divider, trial_rng,
                      truth_table, write_cell)
from sotlogic.array import CellState
from sotlogic.cli import main as cli_main

from nodal_oracle import ResistiveNetwork, solve_general

P2 = DeviceParams.default_2t1r()
PV = DeviceParams.default_vgsot()

# Hand-derived reference values (series/parallel arithmetic, ideal access).
A_MTJ = math.pi * (50e-9) ** 2 / 4
R_P_LOW = 10.0e-12 / A_MTJ
R_P_HIGH = 650.0e-12 / A_MTJ
R_CH = 2.78e-6 * 60e-9 / (50e-9 * 3e-9)

# Published reference energies for the two NOR operating points.
E_REF_2T1R = 243e-15
E_REF_VGSOT = 86e-15


def report(num: int, description: str, ok: bool) -> None:
    print(f"[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


def within(value, target, rel):
    return abs(value - target) <= rel * abs(target)


def calibrated(topology, kind, n, margin_fraction=0.5, params=None):
    if params is None:
        params = P2 if topology is Topology.TWO_T_ONE_R else PV
    spec = ArraySpec(topology, max(3, n + 1), 1, params)
    cal = calibrate_gate(spec, kind, n, margin_fraction=margin_fraction)
    return cal.apply(spec)


def test_criterion_1_resistance_oracle():
    from sotlogic import channel_resistance, mtj_resistance
    checks = [
        within(mtj_resistance(P2, MagState.P), 5093.0, 1e-3),
        within(mtj_resistance(PV, MagState.P), 331.0e3, 1e-3),
        within(channel_resistance(P2), 1112.0, 1e-3),
        within(mtj_resistance(P2, MagState.P), R_P_LOW, 1e-9),
        within(mtj_resistance(PV, MagState.P), R_P_HIGH, 1e-9),
        within(channel_resistance(P2), R_CH, 1e-9),
    ]
    report(1, "resistances match hand-derived values within 0.1%", all(checks))


def test_criterion_2_network_oracle():
    ideal = P2.replace(R_on=0.0)
    checks = []

    def cells(bits, dev):
        return [CellState(MagState.from_bit(b), dev) for b in bits]

    expected_current = {(0, 0): 177.3e-6, (0, 1): 244.1e-6,
                        (1, 0): 244.1e-6, (1, 1): 300.7e-6}
    expected_vbl = {(0, 0): 0.750, (0, 1): 0.900, (1, 0): 0.900, (1, 1): 1.000}
    for bits in itertools.product((0, 1), repeat=2):
        read = solve_2t1r_read(cells(bits, ideal),
                               CellState(MagState.P, ideal), 1.1)
        checks.append(within(read.current("out"), expected_current[bits], 1e-3))
        checks.append(read.kcl_residual() < 1e-9)

        div = solve_vgsot_divider(cells(bits, PV),
                                  CellState(MagState.P, PV), 1.5)
        checks.append(within(div.voltage("bl"), expected_vbl[bits], 1e-3))
        checks.append(div.kcl_residual() < 1e-9)

        # General nodal route must agree with both closed forms to 1e-9.
        net = ResistiveNetwork()
        net.add_voltage_source("vs", "rbl", "gnd", 1.1)
        for k, b in enumerate(bits):
            net.add_resistor(f"in{k}", "rbl", "sl",
                             R_P_LOW if b else 2 * R_P_LOW)
        net.add_resistor("out", "sl", "gnd", R_CH)
        general = solve_general(net)
        checks.append(within(general.current("out"), read.current("out"), 1e-9))
        checks.append(general.kcl_residual() < 1e-9)

        net = ResistiveNetwork()
        net.add_voltage_source("vs", "wbl", "gnd", 1.5)
        for k, b in enumerate(bits):
            net.add_resistor(f"in{k}", "wbl", "bl",
                             R_P_HIGH if b else 2 * R_P_HIGH)
        net.add_resistor("out", "bl", "gnd", R_P_HIGH)
        general = solve_general(net)
        checks.append(within(general.voltage("bl"), div.voltage("bl"), 1e-9))
        checks.append(general.kcl_residual() < 1e-9)

    report(2, "network currents/voltages match oracles; KCL < 1e-9", all(checks))


def test_criterion_3_nominal_logic_zero_mismatches():
    def oracle(kind, bits):
        ones = sum(bits)
        return {GateKind.NOR: ones == 0, GateKind.OR: ones > 0,
                GateKind.NAND: ones < len(bits),
                GateKind.AND: ones == len(bits)}[kind]

    mismatches = 0
    for topology in Topology:
        for kind in GateKind:
            for n in (2, 3):
                spec, op = calibrated(topology, kind, n)
                table = truth_table(spec, kind, n, op=op)
                mismatches += sum(r.actual != int(oracle(kind, r.bits))
                                  for r in table.rows)
    report(3, "calibrated truth tables exact for all gates, inputs, topologies",
           mismatches == 0)


def test_criterion_4_mc_pattern_fidelity():
    # Tight operating points (margin_fraction = 0.2) reproduce where each
    # scheme concentrates its errors under 3% parameter spread.
    spec, op = calibrated(Topology.TWO_T_ONE_R, GateKind.NOR, 2,
                          margin_fraction=0.2)
    res = run_mc(spec, op, 1000, VariationSpec(seed=12345))
    zero = res.pattern((0, 0)).success_rate
    others = [p.success_rate for p in res.patterns if any(p.bits)]
    read_ok = all(zero < r for r in others)

    spec, op = calibrated(Topology.VGSOT, GateKind.NOR, 2, margin_fraction=0.2)
    res = run_mc(spec, op, 1000, VariationSpec(seed=12345))
    singles = [p.success_rate for p in res.patterns if sum(p.bits) == 1]
    rest = [p.success_rate for p in res.patterns if sum(p.bits) != 1]
    gated_ok = max(singles) < min(rest)

    report(4, "error mass: (0,0) lowest for read scheme; (0,1)/(1,0) lowest "
              "for voltage-gated", read_ok and gated_ok)


def test_criterion_5_overlap_cross_consistency():
    spec, op = calibrated(Topology.TWO_T_ONE_R, GateKind.NOR, 2,
                          margin_fraction=0.2)

    def consistent(vspec):
        res = run_mc(spec, op, 1000, vspec)
        zero = res.pattern((0, 0))
        failures = zero.trials - zero.successes
        overlap = current_histogram(res).overlap_fraction
        return (overlap > 0.0) == (failures >= 1)

    quiet = VariationSpec(sigma_t_ox=0.0, sigma_t_f=0.0, sigma_tmr=0.0, seed=11)
    noisy = VariationSpec(sigma_ra=0.10, seed=12345)
    report(5, "overlap fraction > 0 exactly when (0,0) switches "
              "unintentionally (both regimes)",
           consistent(quiet) and consistent(noisy))


def test_criterion_6_energy_ordering_and_scale():
    def max_pattern_energy(topology, kind):
        spec, op = calibrated(topology, kind, 2)
        energies = []
        for bits in itertools.product((0, 1), repeat=2):
            arr = MramArray.uniform(spec)
            for row, b in zip(op.input_rows, bits):
                arr = write_cell(arr, row, op.col, MagState.from_bit(b))
            energies.append(execute_gate(arr, op).energy)
        return max(energies)

    e_read = max_pattern_energy(Topology.TWO_T_ONE_R, GateKind.NOR)
    e_gated = max_pattern_energy(Topology.VGSOT, GateKind.NOR)
    checks = [
        e_gated < e_read,
        max(e_read / E_REF_2T1R, E_REF_2T1R / e_read) < 10.0,
        max(e_gated / E_REF_VGSOT, E_REF_VGSOT / e_gated) < 10.0,
    ]
    report(6, f"energy ordering and scale (read {e_read * 1e15:.0f} fJ, "
              f"gated {e_gated * 1e15:.1f} fJ)", all(checks))


def test_criterion_7_margin_monotonicity():
    ok = True
    for topology in Topology:
        spec = ArraySpec(topology, 5, 1,
                         P2 if topology is Topology.TWO_T_ONE_R else PV)
        margins = [margin_analysis(spec, GateKind.NOR, n).margin
                   for n in (2, 3, 4)]
        ok = ok and margins[0] > margins[1] > margins[2]
    report(7, "NOR margin strictly decreases 2 -> 3 -> 4 inputs, both "
              "topologies", ok)


def test_criterion_8_determinism(tmp_path):
    base = ["mc", "-n", "200", "--seed", "77", "--margin-fraction", "0.2"]
    dirs = [tmp_path / name for name in ("a", "b", "w2")]
    assert cli_main(base + ["--workers", "1", "--out", str(dirs[0])]) == 0
    assert cli_main(base + ["--workers", "1", "--out", str(dirs[1])]) == 0
    assert cli_main(base + ["--workers", "2", "--out", str(dirs[2])]) == 0
    csv_ok = all((dirs[0] / n).read_bytes() == (d / n).read_bytes()
                 for d in dirs[1:]
                 for n in ("mc_summary.csv", "mc_trials.csv", "mc_histogram.csv"))

    json_dirs = [tmp_path / name for name in ("ja", "jb")]
    for d in json_dirs:
        assert cli_main(base + ["--format", "json", "--out", str(d)]) == 0
    json_ok = (json_dirs[0] / "mc_report.json").read_bytes() == \
        (json_dirs[1] / "mc_report.json").read_bytes()
    report(8, "byte-identical outputs across reruns and worker counts",
           csv_ok and json_ok)


def test_criterion_9_statistical_sanity():
    vspec = VariationSpec(seed=99)
    ratios = np.empty(100_000)
    for t in range(ratios.size):
        ratios[t] = sample_cell(P2, vspec, trial_rng(99, 0, t)).t_ox / P2.t_ox
    std_ok = 0.028 <= ratios.std() <= 0.032

    spec, op = calibrated(Topology.TWO_T_ONE_R, GateKind.NOR, 2,
                          margin_fraction=0.2)
    res = run_mc(spec, op, 1000, VariationSpec(seed=12345))
    ks = scipy_stats.ks_2samp(res.pattern((0, 1)).observables["i_out"],
                              res.pattern((1, 0)).observables["i_out"])
    report(9, f"sampled t_ox std {ratios.std():.4f} in [0.028, 0.032]; "
              f"(0,1)/(1,0) KS p={ks.pvalue:.3f} > 0.01",
           std_ok and ks.pvalue > 0.01)
