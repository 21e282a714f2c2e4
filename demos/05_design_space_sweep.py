"""Map the feasible design region of the read-current NOR.

Raising the resistance-area product shrinks the read currents: margins fall,
and past a boundary the accumulated current can no longer reach the device's
own switching threshold. Lowering it instead pushes the inputs' current
density into read-disturb territory. Both limits show up in one sweep.

Run: python demos/05_design_space_sweep.py
"""

import numpy as np

from sotlogic import (ArraySpec, DeviceParams, GateKind, Topology,
                      margin_analysis, sweep_margins)


def main():
    spec = ArraySpec(Topology.TWO_T_ONE_R, 3, 1, DeviceParams.default_2t1r())
    sweep = sweep_margins(spec, GateKind.NOR, 2, "RA", np.linspace(5, 50, 10))
    print("RA sweep, 2-input NOR, 1.1 V drive, R_on = 1 kohm")
    print(" RA      margin   min-switch  device-Ic  feasible  disturb")
    print("[ohm um^2] [uA]      [uA]        [uA]")
    previous = None
    rows = zip(*(sweep[name].tolist() for name in (
        "RA", "margin", "hi", "i_crit_device", "feasible", "disturb_ok")))
    for ra, margin, hi, i_dev, feasible, disturb_ok in rows:
        print(f"  {ra:5.1f}   {margin * 1e6:6.2f}    {hi * 1e6:7.2f}"
              f"     {i_dev * 1e6:6.2f}     {str(feasible):5s}    "
              f"{'ok' if disturb_ok else 'RISK'}")
        if previous is not None and previous != feasible:
            print("        ^-- feasibility boundary")
        previous = feasible

    print("\nVCMA slope sweep, voltage-gated NOR at 1.5 V drive")
    print(" beta [fJ/(V m)]   threshold window [uA]")
    for beta_fj in (15, 30, 45, 60, 75, 90, 105, 120):
        params = DeviceParams.default_vgsot().replace(beta=beta_fj * 1e-15)
        spec = ArraySpec(Topology.VGSOT, 3, 1, params)
        rep = margin_analysis(spec, GateKind.NOR, 2)
        print(f"   {beta_fj:5.0f}           [{rep.lo * 1e6:6.2f}, "
              f"{rep.hi * 1e6:6.2f}]  margin {rep.margin * 1e6:6.2f}")
    print("A stronger VCMA slope widens the window until the drive over-gates")
    print("the thresholds to zero; calibration then has to lower the drive.")


if __name__ == "__main__":
    main()
