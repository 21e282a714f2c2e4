"""Sampling determinism, Monte-Carlo campaigns, and histogram statistics."""

import dataclasses
import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from sotlogic import (ArraySpec, DeviceParams, GateKind, Topology,
                      VariationSpec, calibrate_gate, critical_sot_current,
                      current_histogram, mc_tables, run_mc, sample_cell,
                      trial_rng)
from sotlogic.gates import (OBSERVABLES, boolean_output, pattern_bits,
                            solve_pattern)
from sotlogic.variation import (BLOCK, TRUNCATION_SIGMA, _rekey,
                                _truncated_deviates, sample_block)

P2 = DeviceParams.default_2t1r()


def block_deviates(spec, pattern_index, block_index, rows, cells):
    """Truncated standard normals of one (pattern, block) stream: the replay
    oracle of ``run_mc``'s sampling.

    Shape (rows, cells, draws): one row per trial, cells in input order
    then the output cell, draws in ``spec.drawn`` order. ``run_mc`` draws
    the same stream into its slice of a pattern group's array.
    """
    return _truncated_deviates(trial_rng(spec.seed, pattern_index, block_index),
                               np.empty((rows, cells, len(spec.drawn))))


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
    # 7000 cells of 3 draws from one stream; about one deviate in 16 000
    # lies beyond 4 sigma and is redrawn.
    spec = VariationSpec(seed=5)
    rng = trial_rng(5, 0, 0)
    cells = [sample_cell(P2, spec, rng) for _ in range(7000)]
    zs = np.array([[getattr(c, f) / getattr(P2, f) - 1.0 for f, _ in spec.drawn]
                   for c in cells]) / 0.03
    assert np.abs(zs).max() <= TRUNCATION_SIGMA * (1 + 1e-9)
    assert np.abs(zs).max() > 3.5


def test_sample_cell_is_one_trial_of_the_block_sampler():
    # trial_rng(s, p, t) is the stream of block t of pattern p, so one cell
    # drawn from it equals the one-trial, one-cell block. Trial 13921 (and
    # 17973, 18058) redraws a deviate beyond 4 sigma.
    spec = VariationSpec(seed=99)
    for t in [*range(100), 13921, 17973, 18058]:
        cell = sample_cell(P2, spec, trial_rng(99, 0, t))
        block = sample_block(P2, spec, block_deviates(spec, 0, t, 1, 1))[0]
        assert [getattr(cell, f) for f, _ in spec.drawn] == \
            [getattr(block, f).item() for f, _ in spec.drawn], t


def test_rekeyed_generator_restarts_at_the_fresh_stream():
    # An odd count of normals leaves part of Philox's four-word buffer, and
    # an odd count of 32-bit draws half a word; neither may carry over.
    # Both generators match a Philox built with the key.
    rng = trial_rng(3, 0, 0)
    for seed, p, i in [(5, 1, 2), (2 ** 64 - 1, 2 ** 32 - 1, 2 ** 32 - 1),
                       (5, 1, 2), (0, 0, 7)]:
        rng.standard_normal(7)
        rng.integers(2 ** 32, size=3, dtype=np.uint32)
        fresh = trial_rng(seed, p, i)
        keyed = np.random.Generator(np.random.Philox(
            key=np.array([seed, p << 32 | i], dtype=np.uint64)))
        assert _rekey(rng, seed, p, i) is rng
        normals = rng.standard_normal(1001)
        assert np.array_equal(normals, fresh.standard_normal(1001))
        assert np.array_equal(normals, keyed.standard_normal(1001))
        words = rng.integers(2 ** 32, size=5, dtype=np.uint32)
        assert np.array_equal(words, fresh.integers(2 ** 32, size=5,
                                                    dtype=np.uint32))
    with pytest.raises(ValueError, match="32 bits"):
        _rekey(rng, 0, 2 ** 32, 0)


@pytest.mark.parametrize("sigma_ra", [0.0, 0.05])
@pytest.mark.parametrize("lead", [(), (5,)])
def test_sample_block_is_the_broadcast_formula(sigma_ra, lead):
    # One field at a time gives what one broadcast over the draws axis
    # gives, bit for bit, for (rows, cells, draws) and for
    # (patterns, rows, cells, draws) deviates.
    spec = VariationSpec(sigma_ra=sigma_ra, seed=31)
    z = block_deviates(spec, 1, 0, 5 * 300, 3).reshape(
        lead + (-1, 3, len(spec.drawn)))
    base = np.array([getattr(P2, field) for field, _ in spec.drawn])
    sigma = np.array([sigma for _, sigma in spec.drawn])
    values = base * (1.0 + sigma * z)
    cells = sample_block(P2, spec, z)
    assert len(cells) == 3
    for k, cell in enumerate(cells):
        for d, (field, _) in enumerate(spec.drawn):
            assert np.array_equal(getattr(cell, field), values[..., k, d])
            assert getattr(cell, field).shape == z.shape[:-2]
        assert cell.D == P2.D and (sigma_ra or cell.RA == P2.RA)


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
    return np.array_equal(a.success, b.success) and all(
        np.array_equal(a.observables[k], b.observables[k])
        for k in a.observables)


def test_same_seed_bit_identical():
    spec, op = nor_setup()
    v = VariationSpec(seed=321)
    assert results_equal(run_mc(spec, op, 300, v), run_mc(spec, op, 300, v))


def test_different_seed_changes_results():
    spec, op = nor_setup()
    a = run_mc(spec, op, 200, VariationSpec(seed=1))
    b = run_mc(spec, op, 200, VariationSpec(seed=2))
    assert not results_equal(a, b)


def test_zero_variation_reduces_to_nominal_execution():
    spec, op = nor_setup()
    v = VariationSpec(sigma_t_ox=0.0, sigma_t_f=0.0, sigma_tmr=0.0, seed=5)
    result = run_mc(spec, op, 50, v)
    _, i_out, i_crit, _ = solve_pattern(spec.topology, op, (0, 0),
                                        (spec.nominal,) * 2, spec.nominal,
                                        op.v_drive)
    zero = result.pattern((0, 0))
    with pytest.raises(KeyError, match="no pattern"):
        result.pattern((0, 0, 0))
    assert zero.successes == 50
    assert np.all(zero.observables["i_out"] == i_out)
    assert np.all(zero.observables["i_crit"] == i_crit)
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
    assert np.array_equal(~result.success[0],
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
    # Replay every trial of one block through the scalar solve_pattern call
    # that execute_gate makes, at that trial's sampled DeviceParams:
    # verdicts and observables must agree exactly with the batched kernel
    # (this also pins the reversed-polarity OR/AND conventions).
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
            _, observed, i_crit, switched = solve_pattern(
                topology, op, p.bits, devs[:-1], devs[-1], op.v_drive)
            actual = op.out_init ^ switched
            assert bool(result.success[index, t]) == (actual == p.expected)
            assert p.observables[first][t] == observed
            assert p.observables["i_crit"][t] == i_crit
            verdicts.add(bool(result.success[index, t]))
    assert verdicts == {True, False}


def replay_mc(array_spec, op, n, vspec):
    """``run_mc``'s success and observables, solved one (pattern, block)
    stream at a time."""
    n_patterns = 2 ** op.n_inputs
    success = np.empty((n_patterns, n), dtype=bool)
    data = np.empty((2, n_patterns, n))
    for p in range(n_patterns):
        bits = pattern_bits(p, op.n_inputs)
        for block, start in enumerate(range(0, n, BLOCK)):
            rows = min(BLOCK, n - start)
            z = block_deviates(vspec, p, block, rows, op.n_inputs + 1)
            *devs_in, dev_out = sample_block(array_spec.nominal, vspec, z)
            _, first, i_crit, switched = solve_pattern(
                array_spec.topology, op, bits, devs_in, dev_out, op.v_drive)
            part = slice(start, start + rows)
            success[p, part] = \
                (op.out_init ^ switched) == boolean_output(op.kind, bits)
            data[:, p, part] = first, i_crit
    return success, dict(zip(OBSERVABLES[array_spec.topology], data))


@pytest.mark.parametrize("topology", list(Topology))
@pytest.mark.parametrize("kind", list(GateKind))
@pytest.mark.parametrize("n_inputs", [1, 3, 4, 8])
def test_grouped_kernel_matches_per_pattern_replay(topology, kind, n_inputs):
    # Short blocks are solved for many patterns at once; trial counts that
    # split the patterns into uneven groups, and campaigns of one and two
    # blocks, must give exactly the per-pattern replay's arrays.
    params = P2 if topology is Topology.TWO_T_ONE_R \
        else DeviceParams.default_vgsot()
    spec = ArraySpec(topology, max(3, n_inputs + 1), 1, params)
    spec, op = calibrate_gate(spec, kind, n_inputs,
                              margin_fraction=0.2).apply(spec)
    counts = (1, 3, 16) if n_inputs == 8 else \
        (1, 3, 250, 1000, 1366, BLOCK - 1, BLOCK + 3)
    for sigma_ra, n in itertools.product((0.0, 0.05), counts):
        vspec = VariationSpec(sigma_ra=sigma_ra, seed=808)
        result = run_mc(spec, op, n, vspec)
        success, observables = replay_mc(spec, op, n, vspec)
        assert np.array_equal(result.success, success), (sigma_ra, n)
        assert result.observables.keys() == observables.keys()
        for name, values in observables.items():
            assert np.array_equal(result.observables[name], values), \
                (sigma_ra, n, name)


def test_campaign_spanning_blocks_is_worker_independent():
    spec, op = nor_setup()
    v = VariationSpec(seed=4242)
    result = run_mc(spec, op, BLOCK + 3, v)
    assert result.success.shape == (4, BLOCK + 3)
    for values in result.observables.values():
        assert values.shape == (4, BLOCK + 3)
    for index, p in enumerate(result.patterns):
        assert p.trials == BLOCK + 3
        assert p.successes == result.success[index].sum()
        for name, values in p.observables.items():
            assert np.array_equal(values, result.observables[name][index])
    # Trials past the first block come from the stream of block 1.
    out_cell = sample_block(spec.nominal, v, block_deviates(v, 0, 1, 3, 3))[-1]
    assert np.array_equal(result.patterns[0].observables["i_crit"][BLOCK:],
                          critical_sot_current(out_cell, 0.0))


def test_trial_columns_are_arrays_of_the_row_values():
    spec, op = nor_setup()
    result = run_mc(spec, op, 7, VariationSpec(seed=3))
    _, trials, _, _ = mc_tables(result)
    assert trials.columns == ("pattern", "trial", "i_crit", "i_out", "success")
    labels, index, i_crit, i_out, ok = (c.tolist() for c in trials.data)
    cases = list(itertools.product(result.patterns, range(7)))
    assert labels == [p.label for p, _ in cases]
    assert index == [k for _, k in cases]
    assert i_crit == [p.observables["i_crit"][k] for p, k in cases]
    assert i_out == [p.observables["i_out"][k] for p, k in cases]
    assert ok == result.success.ravel().tolist()
    for column, kind in zip(trials.data, "Uiffb"):
        assert isinstance(column, np.ndarray) and column.ndim == 1
        assert column.dtype.kind == kind


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


@functools.cache
def small_campaign():
    spec, op = nor_setup()
    return run_mc(spec, op, 3, VariationSpec(seed=2))


# Values on the edges of the bins that split [-1, 4] or [0, 4] evenly.
on_edges = st.sampled_from((-1.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0))


@settings(max_examples=300, deadline=None)
@given(bins=st.sampled_from((1, 2, 3, 4, 5, 8, 32)),
       trials=st.integers(1, 12), equal=st.booleans(), data=st.data())
def test_histogram_counts_match_numpy_row_by_row(bins, trials, equal, data):
    campaign = small_campaign()
    values = np.array(data.draw(st.lists(
        st.one_of(on_edges, st.floats(-1e3, 1e3)), min_size=4 * trials,
        max_size=4 * trials))).reshape(4, trials)
    if equal:  # no spread: one bin padded around the value
        values[:] = values[0, 0]
    result = dataclasses.replace(
        campaign, observables={campaign.primary_observable: values})
    hist = current_histogram(result, bins=bins)
    for p, row in zip(result.patterns, values):
        expected = np.histogram(row, bins=hist.bin_edges)[0]
        assert np.array_equal(hist.counts[p.label], expected)
    if equal:
        assert [c.max() for c in hist.counts.values()] == [trials] * 4


@pytest.mark.parametrize("lo, hi, bins", [
    (-1.0, 4.0, 5), (0.0, 4.0, 32), (1.7e-4, 2.9e-4, 32), (-3e-5, 0.0, 7),
    # Bins a fraction of an ulp wide: edges repeat.
    (1.0, 1.0 + 4 * 2**-52, 32),
])
def test_histogram_bins_values_on_every_edge(lo, hi, bins):
    # Each edge once, lo and hi among them: every bin holds its lower edge,
    # and the last bin hi too.
    campaign = small_campaign()
    edges = np.linspace(lo, hi, bins + 1)
    values = np.tile(edges, (4, 1))
    result = dataclasses.replace(
        campaign, observables={campaign.primary_observable: values})
    hist = current_histogram(result, bins=bins)
    assert np.array_equal(hist.bin_edges, edges)
    expected = np.histogram(edges, bins=edges)[0]
    if len(set(edges.tolist())) == len(edges):
        assert expected.tolist() == [1] * (bins - 1) + [2]
    for counts in hist.counts.values():
        assert np.array_equal(counts, expected)


@pytest.mark.parametrize("value", [0.0, -0.0, 2.5e-4, -7.0, 1e300, 5e-324])
def test_histogram_of_a_degenerate_range(value):
    # No spread: the bins are padded around the one value, which lands in
    # the bin np.histogram puts it in, for any bin count.
    campaign = small_campaign()
    values = np.full((4, 5), value)
    result = dataclasses.replace(
        campaign, observables={campaign.primary_observable: values})
    for bins in (1, 2, 7, 32):
        hist = current_histogram(result, bins=bins)
        expected = np.histogram(values[0], bins=hist.bin_edges)[0]
        assert expected.sum() == 5
        for counts in hist.counts.values():
            assert np.array_equal(counts, expected)


def test_histogram_counts_match_numpy_past_one_block():
    # Rows of more than BLOCK trials are binned a part at a time.
    campaign = small_campaign()
    values = np.random.default_rng(4).normal(size=(4, BLOCK + 1))
    values[:, ::7] = np.linspace(values.min(), values.max(), 33)[
        np.arange(4 * ((BLOCK + 7) // 7)).reshape(4, -1) % 33]
    result = dataclasses.replace(
        campaign, observables={campaign.primary_observable: values})
    hist = current_histogram(result, bins=32)
    for p, row in zip(result.patterns, values):
        assert np.array_equal(hist.counts[p.label],
                              np.histogram(row, bins=hist.bin_edges)[0])


def test_histogram_requires_data():
    spec, op = nor_setup()
    result = run_mc(spec, op, 5, VariationSpec(seed=1))
    with pytest.raises(ValueError):
        current_histogram(result, bins=0)
