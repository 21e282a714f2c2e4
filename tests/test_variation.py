"""Sampling determinism, Monte-Carlo campaigns, and histogram statistics."""

import itertools
import os

import numpy as np
import pytest
from scipy import stats as scipy_stats

from sotlogic import (ArraySpec, DeviceParams, GateKind, MagState, MramArray,
                      Topology, VariationSpec, calibrate_gate,
                      critical_sot_current, current_histogram, execute_gate,
                      mc_tables, run_mc, sample_cell, trial_rng)
from sotlogic.array import CellState
from sotlogic.variation import (BLOCK, TRUNCATION_SIGMA, _pool_size,
                                block_deviates, sample_block,
                                truncated_normal)

P2 = DeviceParams.default_2t1r()


def nor_setup(topology=Topology.TWO_T_ONE_R, margin_fraction=0.5):
    params = P2 if topology is Topology.TWO_T_ONE_R \
        else DeviceParams.default_vgsot()
    spec = ArraySpec(topology, 3, 1, params)
    cal = calibrate_gate(spec, GateKind.NOR, 2, margin_fraction=margin_fraction)
    return cal.apply(spec)


# --- per-cell sampling ------------------------------------------------------------

def test_zero_sigma_returns_nominal_exactly():
    spec = VariationSpec(sigma_t_ox=0.0, sigma_t_f=0.0, sigma_tmr=0.0, seed=1)
    assert sample_cell(P2, spec, trial_rng(1, 0, 0)) == P2


def test_same_stream_same_sample():
    spec = VariationSpec(seed=42)
    a = sample_cell(P2, spec, trial_rng(42, 3, 17))
    b = sample_cell(P2, spec, trial_rng(42, 3, 17))
    assert a == b


def test_different_streams_differ():
    spec = VariationSpec(seed=42)
    a = sample_cell(P2, spec, trial_rng(42, 0, 0))
    b = sample_cell(P2, spec, trial_rng(42, 0, 1))
    c = sample_cell(P2, spec, trial_rng(43, 0, 0))
    assert a != b and a != c


def test_only_named_parameters_vary():
    spec = VariationSpec(seed=7)
    s = sample_cell(P2, spec, trial_rng(7, 0, 0))
    assert s.t_ox != P2.t_ox and s.t_f != P2.t_f and s.TMR0 != P2.TMR0
    assert s.RA == P2.RA and s.D == P2.D and s.Ms == P2.Ms
    assert s.Ic_cal == P2.Ic_cal


def test_ra_knob_enables_resistance_variation():
    spec = VariationSpec(sigma_ra=0.05, seed=7)
    s = sample_cell(P2, spec, trial_rng(7, 0, 0))
    assert s.RA != P2.RA


def test_empirical_sigma_of_t_ox():
    # 1e5 draws of the block sampler campaigns use, at sigma = 3%:
    # relative std in [0.028, 0.032], deviates truncated at 4 sigma.
    spec = VariationSpec(seed=99)
    z = block_deviates(spec, 0, 0, 100_000, 1)
    ratios = sample_block(P2, spec, z)[0].t_ox / P2.t_ox
    assert ratios.size == 100_000
    assert 0.028 <= ratios.std() <= 0.032
    assert abs(ratios.mean() - 1.0) < 5e-4
    assert np.abs(z).max() <= TRUNCATION_SIGMA


def test_block_deviates_layout():
    assert block_deviates(VariationSpec(seed=1), 2, 0, 10, 3).shape == (10, 3, 3)
    with_ra = VariationSpec(sigma_ra=0.05, seed=1)
    assert block_deviates(with_ra, 2, 0, 10, 3).shape == (10, 3, 4)
    a = block_deviates(with_ra, 2, 0, 10, 3)
    assert np.array_equal(a, block_deviates(with_ra, 2, 0, 10, 3))
    assert not np.array_equal(a, block_deviates(with_ra, 2, 1, 10, 3))
    assert not np.array_equal(a, block_deviates(with_ra, 3, 0, 10, 3))


def test_truncation_bounds_deviates():
    rng = trial_rng(5, 0, 0)
    zs = [truncated_normal(rng) for _ in range(20_000)]
    assert max(abs(z) for z in zs) <= TRUNCATION_SIGMA


def test_variation_spec_validation():
    with pytest.raises(ValueError):
        VariationSpec(sigma_t_ox=-0.1)
    with pytest.raises(ValueError):
        VariationSpec(sigma_tmr=0.3)  # 4 sigma would cross zero
    with pytest.raises(ValueError):
        VariationSpec(seed=-1)
    with pytest.raises(ValueError):
        trial_rng(0, 0, 2 ** 32)


@pytest.mark.parametrize("name", ["sigma_t_ox", "sigma_t_f", "sigma_tmr",
                                  "sigma_ra"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_variation_spec_rejects_non_finite_sigma(name, value):
    with pytest.raises(ValueError, match=name):
        VariationSpec(**{name: value})


# --- Monte-Carlo campaigns -----------------------------------------------------------

def results_equal(a, b):
    return all(
        pa.successes == pb.successes and
        np.array_equal(pa.success_flags, pb.success_flags) and
        all(np.array_equal(pa.observables[k], pb.observables[k])
            for k in pa.observables)
        for pa, pb in zip(a.patterns, b.patterns))


def test_same_seed_bit_identical():
    spec, op = nor_setup()
    v = VariationSpec(seed=321)
    assert results_equal(run_mc(spec, op, 300, v), run_mc(spec, op, 300, v))


def test_worker_count_does_not_change_results():
    spec, op = nor_setup()
    v = VariationSpec(seed=321)
    serial = run_mc(spec, op, 150, v, n_workers=1)
    pooled = run_mc(spec, op, 150, v, n_workers=3)
    assert results_equal(serial, pooled)


def test_different_seed_changes_results():
    spec, op = nor_setup()
    a = run_mc(spec, op, 200, VariationSpec(seed=1))
    b = run_mc(spec, op, 200, VariationSpec(seed=2))
    assert not results_equal(a, b)


def test_zero_variation_reduces_to_nominal_execution():
    spec, op = nor_setup()
    v = VariationSpec(sigma_t_ox=0.0, sigma_t_f=0.0, sigma_tmr=0.0, seed=5)
    result = run_mc(spec, op, 50, v)
    nominal = execute_gate(MramArray.uniform(spec), op)
    zero = result.pattern((0, 0))
    assert zero.successes == 50
    assert np.all(zero.observables["i_out"] ==
                  nominal.solution.current("out"))
    assert np.all(zero.observables["i_crit"] == nominal.i_crit)
    for p in result.patterns:
        assert p.successes == p.trials  # calibrated nominal never fails


def test_success_rates_monotone_in_sigma():
    spec, op = nor_setup(margin_fraction=0.2)
    rates = []
    for sigma in (0.0, 0.015, 0.03):
        v = VariationSpec(sigma_t_ox=sigma, sigma_t_f=sigma, sigma_tmr=sigma,
                          seed=777)
        rates.append(run_mc(spec, op, 600, v).pattern((0, 0)).success_rate)
    assert rates[0] >= rates[1] >= rates[2]
    assert rates[0] == 1.0 and rates[2] < 1.0


def test_failures_match_threshold_crossings():
    # Unintentional switch on a must-hold pattern <=> sampled output current
    # crossed the sampled threshold; counts must agree exactly.
    spec, op = nor_setup(margin_fraction=0.2)
    result = run_mc(spec, op, 1000, VariationSpec(seed=12345))
    zero = result.pattern((0, 0))
    crossings = int(np.sum(zero.observables["i_out"] >=
                           zero.observables["i_crit"]))
    assert zero.trials - zero.successes == crossings
    assert np.array_equal(~zero.success_flags,
                          zero.observables["i_out"] >= zero.observables["i_crit"])


def test_error_mass_concentrates_on_all_zero_pattern():
    spec, op = nor_setup(margin_fraction=0.2)
    result = run_mc(spec, op, 1000, VariationSpec(seed=12345))
    zero_rate = result.pattern((0, 0)).success_rate
    others = [p.success_rate for p in result.patterns if any(p.bits)]
    assert all(zero_rate < r for r in others)


def test_voltage_gated_errors_sit_on_single_one_patterns():
    spec, op = nor_setup(Topology.VGSOT, margin_fraction=0.2)
    result = run_mc(spec, op, 1000, VariationSpec(seed=12345))
    singles = [p.success_rate for p in result.patterns if sum(p.bits) == 1]
    others = [p.success_rate for p in result.patterns if sum(p.bits) != 1]
    assert max(singles) < min(others)


def test_symmetric_patterns_indistinguishable():
    # (0,1) and (1,0) observables come from the same distribution; a
    # two-sample KS test must not reject at alpha = 0.01.
    spec, op = nor_setup(margin_fraction=0.2)
    result = run_mc(spec, op, 1000, VariationSpec(seed=12345))
    a = result.pattern((1, 0)).observables["i_out"]
    b = result.pattern((0, 1)).observables["i_out"]
    assert scipy_stats.ks_2samp(a, b).pvalue > 0.01


@pytest.mark.parametrize("topology", list(Topology))
@pytest.mark.parametrize("kind", list(GateKind))
@pytest.mark.parametrize("n_inputs", [1, 2, 3])
def test_kernel_matches_execute_gate_trial_by_trial(topology, kind, n_inputs):
    # Replay every trial of one block through execute_gate on an array built
    # from that trial's sampled parameters: verdicts and observables must
    # agree exactly, since both run the same solver (this also pins the
    # reversed-polarity OR/AND conventions).
    params = P2 if topology is Topology.TWO_T_ONE_R \
        else DeviceParams.default_vgsot()
    spec = ArraySpec(topology, max(3, n_inputs + 1), 1, params)
    spec, op = calibrate_gate(spec, kind, n_inputs,
                              margin_fraction=0.2).apply(spec)
    vspec = VariationSpec(sigma_ra=0.05 if n_inputs == 2 else 0.0, seed=2024)
    n = 24
    result = run_mc(spec, op, n, vspec)
    first = "i_out" if topology is Topology.TWO_T_ONE_R else "v_bl"
    verdicts = set()
    for index, p in enumerate(result.patterns):
        cells = sample_block(spec.nominal, vspec,
                             block_deviates(vspec, index, 0, n, n_inputs + 1))
        for t in range(n):
            devs = [cell.nominal.replace(**{f: float(getattr(cell, f)[t])
                                            for f, _ in vspec.drawn})
                    for cell in cells]
            arr = MramArray.uniform(spec)
            for row, bit, dev in zip(op.input_rows, p.bits, devs):
                arr = arr.with_cell(row, op.col,
                                    CellState(MagState.from_bit(bit), dev))
            arr = arr.with_cell(op.output_row, op.col,
                                CellState(op.out_init, devs[-1]))
            trace = execute_gate(arr, op)
            actual = trace.post.cell(op.output_row, op.col).mag.bit
            assert bool(p.success_flags[t]) == (actual == p.expected)
            oracle = {"i_out": trace.solution.current("out"),
                      "v_bl": trace.v_bl, "i_crit": trace.i_crit}
            for name in (first, "i_crit"):
                assert p.observables[name][t] == oracle[name]
            verdicts.add(bool(p.success_flags[t]))
    assert verdicts == {True, False}


def test_campaign_spanning_blocks_is_worker_independent():
    spec, op = nor_setup()
    v = VariationSpec(seed=4242)
    serial = run_mc(spec, op, BLOCK + 3, v, n_workers=1)
    pooled = run_mc(spec, op, BLOCK + 3, v, n_workers=3)
    for a, b in zip(serial.patterns, pooled.patterns):
        assert a.trials == b.trials == BLOCK + 3
        assert a.success_flags.shape == (BLOCK + 3,)
        assert a.success_flags.tobytes() == b.success_flags.tobytes()
        for name in a.observables:
            assert a.observables[name].shape == (BLOCK + 3,)
            assert a.observables[name].tobytes() == b.observables[name].tobytes()
    # Trials past the first block come from the stream of block 1.
    out_cell = sample_block(spec.nominal, v, block_deviates(v, 0, 1, 3, 3))[-1]
    assert np.array_equal(serial.patterns[0].observables["i_crit"][BLOCK:],
                          critical_sot_current(out_cell, 0.0))


def test_pool_size_is_capped_without_starting_processes():
    cpus = os.cpu_count() or 1
    assert _pool_size(10 ** 9, 10 ** 6) == cpus
    assert _pool_size(10 ** 9, 3) == min(cpus, 3)
    assert _pool_size(2, 10) == min(2, cpus)
    assert _pool_size(1, 10) == 1
    assert _pool_size(0, 10) == 1
    assert _pool_size(-5, 10) == 1
    assert _pool_size(8, 1) == 1


def test_trial_rows_are_plain_python_values():
    spec, op = nor_setup()
    result = run_mc(spec, op, 7, VariationSpec(seed=3))
    _, trials, _, _ = mc_tables(result)
    assert trials.columns == ("pattern", "trial", "i_crit", "i_out", "success")
    assert len(trials.rows) == 4 * 7
    for (label, t, i_crit, i_out, ok), (p, k) in zip(
            trials.rows, itertools.product(result.patterns, range(7))):
        assert type(label) is str and label == p.label
        assert type(t) is int and t == k
        assert type(i_crit) is float and i_crit == p.observables["i_crit"][k]
        assert type(i_out) is float and i_out == p.observables["i_out"][k]
        assert type(ok) is bool and ok == p.success_flags[k]


def test_run_mc_validates_trial_count():
    spec, op = nor_setup()
    with pytest.raises(ValueError):
        run_mc(spec, op, 0, VariationSpec(seed=1))


# --- histograms -----------------------------------------------------------------------

def test_zero_sigma_single_occupied_bin():
    spec, op = nor_setup()
    v = VariationSpec(sigma_t_ox=0.0, sigma_t_f=0.0, sigma_tmr=0.0, seed=5)
    hist = current_histogram(run_mc(spec, op, 40, v), bins=16)
    for label, counts in hist.counts.items():
        assert (counts > 0).sum() == 1
        assert counts.sum() == 40
    assert hist.overlap_fraction == 0.0


def test_histogram_counts_sum_to_trials():
    spec, op = nor_setup(margin_fraction=0.2)
    result = run_mc(spec, op, 500, VariationSpec(seed=8))
    hist = current_histogram(result, bins=24)
    for counts in hist.counts.values():
        assert counts.sum() == 500


def test_overlap_cross_checks_failures_both_ways():
    spec, op = nor_setup(margin_fraction=0.2)
    # No variation: no unintentional switches and no overlap.
    quiet = run_mc(spec, op, 200, VariationSpec(
        sigma_t_ox=0.0, sigma_t_f=0.0, sigma_tmr=0.0, seed=6))
    assert quiet.pattern((0, 0)).successes == 200
    assert current_histogram(quiet).overlap_fraction == 0.0
    # Strong resistance spread: the current clouds overlap and the same
    # campaign records unintentional switches.
    noisy = run_mc(spec, op, 1000, VariationSpec(sigma_ra=0.10, seed=12345))
    zero = noisy.pattern((0, 0))
    assert zero.successes < zero.trials
    assert current_histogram(noisy).overlap_fraction > 0.0


def test_histogram_requires_data():
    spec, op = nor_setup()
    result = run_mc(spec, op, 5, VariationSpec(seed=1))
    with pytest.raises(ValueError):
        current_histogram(result, bins=0)
    with pytest.raises(KeyError):
        current_histogram(result, observable="nope")
