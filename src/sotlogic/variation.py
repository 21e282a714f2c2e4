"""Process-variation sampling and Monte-Carlo gate campaigns.

Campaigns run in one process, in blocks of ``BLOCK`` trials per input
pattern. Each (pattern, block) pair draws all of its deviates from one
counter-based Philox stream keyed by (seed, pattern index << 32 | block
index) -- random stream 2 -- and evaluates the whole block as array
operations, so campaigns are bit-reproducible. Device mismatch and
process variation are collapsed into independent per-cell sampling; the
varied quantities are the oxide thickness, the free-layer thickness and
the TMR ratio (plus an optional RA knob for sensitivity studies).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .array import ArraySpec, Topology
from .device import DeviceParams
from .gates import (OBSERVABLES, GateOp, boolean_output, check_op_fits,
                    input_columns, pattern_bits, pattern_label, solve_pattern)
from .report import HistogramTable, Table

RNG_STREAM = 2        # version of the stream layout, recorded in reports
BLOCK = 4096          # trials per random stream; part of the stream layout
TRUNCATION_SIGMA = 4.0
_MAX_INDEX = 2 ** 32

# Varied DeviceParams fields in draw order, each with its VariationSpec sigma.
VARIED = (("t_ox", "sigma_t_ox"), ("t_f", "sigma_t_f"), ("TMR0", "sigma_tmr"),
          ("RA", "sigma_ra"))


@dataclass(frozen=True)
class VariationSpec:
    """Relative standard deviations of the varied parameters, plus the seed.

    Deviates are Gaussian, truncated at +/- 4 sigma, applied as
    multiplicative (1 + sigma z) factors. ``sigma_ra`` defaults to off;
    resistance then varies only through TMR on the anti-parallel state.
    """

    sigma_t_ox: float = 0.03
    sigma_t_f: float = 0.03
    sigma_tmr: float = 0.03
    sigma_ra: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for _, name in VARIED:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value < 0.0:
                raise ValueError(f"{name} must be >= 0")
            if value * TRUNCATION_SIGMA >= 1.0:
                raise ValueError(f"{name} too large: truncated deviates would "
                                 "allow nonpositive parameters")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")

    @property
    def drawn(self) -> tuple:
        """(field, sigma) of every deviate drawn per cell, in draw order.

        t_ox, t_f and TMR0 are always drawn; RA only when ``sigma_ra > 0``.
        """
        return tuple((field, getattr(self, name)) for field, name in VARIED
                     if field != "RA" or self.sigma_ra > 0.0)


def _philox(seed: int, pattern_index: int, index: int) -> np.random.Generator:
    if not (0 <= pattern_index < _MAX_INDEX and 0 <= index < _MAX_INDEX):
        raise ValueError("pattern and trial or block indices must fit in 32 bits")
    key = np.array([seed, (pattern_index << 32) | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def trial_rng(seed: int, pattern_index: int, trial_index: int) -> np.random.Generator:
    """Independent Philox stream for one (pattern, trial) pair.

    A scalar view for statistical checks; campaigns draw per block
    (:func:`block_deviates`).
    """
    return _philox(seed, pattern_index, trial_index)


def _truncated_deviates(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard normals of ``shape``; entries beyond +/- 4 sigma are
    redrawn in row-major order from the same stream until none is left."""
    z = rng.standard_normal(shape)
    flat = z.reshape(-1)
    bad = (abs(flat) > TRUNCATION_SIGMA).nonzero()[0]
    while bad.size:
        flat[bad] = rng.standard_normal(bad.size)
        bad = bad[abs(flat[bad]) > TRUNCATION_SIGMA]
    return z


def sample_cell(nominal: DeviceParams, spec: VariationSpec,
                rng: np.random.Generator) -> DeviceParams:
    """Draw one cell's parameters; deterministic given the stream state.

    Draw order is fixed (t_ox, t_f, TMR0, then RA when enabled) so streams
    stay comparable across configurations. Given ``trial_rng(s, p, t)``,
    this is the one cell of a one-trial block of stream (p, t).
    """
    z = _truncated_deviates(rng, len(spec.drawn)).tolist()
    return nominal.replace(**{
        field: getattr(nominal, field) * (1.0 + sigma * dz)
        for (field, sigma), dz in zip(spec.drawn, z)})


def block_deviates(spec: VariationSpec, pattern_index: int, block_index: int,
                   rows: int, cells: int) -> np.ndarray:
    """Truncated standard normals of one (pattern, block) stream.

    Shape (rows, cells, draws): one row per trial, cells in input order
    then the output cell, draws in ``spec.drawn`` order.
    """
    return _truncated_deviates(_philox(spec.seed, pattern_index, block_index),
                               (rows, cells, len(spec.drawn)))


class CellArrays:
    """One cell's device parameters with some fields held as arrays.

    Each given field is an array: one entry per trial of a block, or a
    column of sweep points. Every other attribute reads through to the
    shared nominal DeviceParams. The closed forms of :mod:`.device` and
    :mod:`.array` accept it wherever they take DeviceParams.
    """

    def __init__(self, nominal: DeviceParams, **varied):
        self.nominal = nominal
        self.__dict__.update(varied)

    def __getattr__(self, name):
        return getattr(self.nominal, name)


def sample_block(nominal: DeviceParams, spec: VariationSpec,
                 z: np.ndarray) -> list:
    """Per-cell struct-of-arrays parameters from a block's deviates.

    Each drawn field is nominal * (1 + sigma z), elementwise as in
    :func:`sample_cell`; fields not drawn stay nominal.
    """
    drawn = spec.drawn
    base = np.array([getattr(nominal, field) for field, _ in drawn])
    sigma = np.array([sigma for _, sigma in drawn])
    values = base * (1.0 + sigma * z)
    return [CellArrays(nominal, **{field: values[:, k, d]
                                   for d, (field, _) in enumerate(drawn)})
            for k in range(z.shape[1])]


@dataclass
class PatternStats:
    """Per-input-pattern trial outcomes and sampled analog observables."""

    bits: tuple
    expected: int
    trials: int
    successes: int
    success_flags: np.ndarray  # per-trial verdicts, length ``trials``
    observables: dict          # name -> np.ndarray of length ``trials``

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials if self.trials else 0.0

    @property
    def label(self) -> str:
        return pattern_label(self.bits)


@dataclass
class MCResult:
    """Monte-Carlo campaign for one gate operation, as (patterns, trials)
    arrays in pattern-index order; ``patterns`` holds their rows."""

    topology: Topology
    op: GateOp
    success: np.ndarray  # bool verdicts
    observables: dict    # name -> float array
    patterns: tuple      # of PatternStats

    @property
    def primary_observable(self) -> str:
        # Output channel current in the read-current scheme; the effective
        # threshold in the voltage-gated one (its failures are threshold-side).
        return "i_out" if self.topology is Topology.TWO_T_ONE_R else "i_crit"

    def pattern(self, bits) -> PatternStats:
        for p in self.patterns:
            if p.bits == tuple(bits):
                return p
        raise KeyError(f"no pattern {bits!r}")


def _run_block(array_spec: ArraySpec, op: GateOp, spec: VariationSpec,
               pattern_index: int, block: int, rows: int):
    """Sample and execute trials [block * BLOCK, ... + rows) of one pattern.

    Draws the block's deviates and runs the per-trial cell parameters
    through :func:`.gates.solve_pattern`, the solver of every gate.
    Returns (success flags, observables in ``OBSERVABLES`` order).
    """
    bits = pattern_bits(pattern_index, op.n_inputs)
    z = block_deviates(spec, pattern_index, block, rows, op.n_inputs + 1)
    *devs_in, dev_out = sample_block(array_spec.nominal, spec, z)
    _, first, i_crit, switched = solve_pattern(array_spec.topology, op, bits,
                                               devs_in, dev_out, op.v_drive)
    success = (op.out_init ^ switched) == boolean_output(op.kind, bits)
    return success, (first, i_crit)


def run_mc(array_spec: ArraySpec, op: GateOp, n: int,
           spec: VariationSpec) -> MCResult:
    """Monte-Carlo campaign: n independent trials per input pattern.

    Each trial resamples every participating cell, executes the gate, and
    counts success iff the output matches the gate's boolean value. Trials
    run in blocks of up to ``BLOCK`` per pattern, each written into its
    slice of one (patterns, trials) array per quantity.
    """
    if n < 1:
        raise ValueError("need at least one trial")
    check_op_fits(array_spec, op)
    names = OBSERVABLES[array_spec.topology]

    n_patterns = 2 ** op.n_inputs
    flags = np.empty((n_patterns, n), dtype=bool)
    data = np.empty((len(names), n_patterns, n))
    patterns = []
    for p in range(n_patterns):
        for block, start in enumerate(range(0, n, BLOCK)):
            part = slice(start, start + BLOCK)
            flags[p, part], data[:, p, part] = _run_block(
                array_spec, op, spec, p, block, min(BLOCK, n - start))
        bits = pattern_bits(p, op.n_inputs)
        patterns.append(PatternStats(
            bits=bits, expected=boolean_output(op.kind, bits), trials=n,
            successes=int(flags[p].sum()), success_flags=flags[p],
            observables=dict(zip(names, data[:, p]))))
    return MCResult(topology=array_spec.topology, op=op, success=flags,
                    observables=dict(zip(names, data)),
                    patterns=tuple(patterns))


# --- histograms -----------------------------------------------------------------

@dataclass(frozen=True)
class HistogramReport:
    """Fixed-width histogram of one observable, per input pattern.

    ``overlap_fraction`` is the fraction of all-zero-pattern samples that
    exceed the minimum sample of the single-one patterns: the tell-tale of
    unintentional switching in the read-current scheme.
    """

    bin_edges: np.ndarray
    counts: dict  # pattern label -> np.ndarray of per-bin counts
    overlap_fraction: float


def current_histogram(result: MCResult, bins: int = 32) -> HistogramReport:
    """Histogram the campaign's primary observable over fixed-width bins."""
    if bins < 1:
        raise ValueError("need at least one bin")
    values = result.observables[result.primary_observable]
    lo, hi = float(values.min()), float(values.max())
    if hi <= lo:  # degenerate (e.g. zero variation): one occupied bin
        pad = max(abs(lo) * 1e-9, 1e-30)
        lo, hi = lo - pad, lo + pad
    edges = np.linspace(lo, hi, bins + 1)
    counts = {p.label: np.histogram(row, bins=edges)[0]
              for p, row in zip(result.patterns, values)}
    # Pattern 0 is all zeros; pattern 2^j has input j alone set.
    singles = values[[2 ** j for j in range(result.op.n_inputs)]]
    overlap = float(np.mean(values[0] > singles.min()))
    return HistogramReport(bin_edges=edges, counts=counts,
                           overlap_fraction=overlap)


# --- CSV-shaped exports ------------------------------------------------------------

def mc_tables(result: MCResult, bins: int = 32):
    """Serializable views of a campaign: summary, per-trial table, histogram.

    The summary has one row per input pattern (inputs rendered
    most-significant first, expected output, trials, successes, rate); the
    trials table has one row per (pattern, trial) with the sampled
    observables and the verdict. Returns (summary, trials, histogram
    table, histogram report).
    """
    patterns = result.patterns
    summary_rows = [tuple(reversed(p.bits)) +
                    (p.expected, p.trials, p.successes, p.success_rate)
                    for p in patterns]
    summary = Table("summary",
                    tuple(input_columns(result.op.n_inputs) +
                          ["OUT", "trials", "successes", "success_rate"]),
                    tuple(zip(*summary_rows)))

    obs_names = sorted(result.observables)
    chain = itertools.chain.from_iterable
    data = (list(chain(itertools.repeat(p.label, p.trials) for p in patterns)),
            list(chain(range(p.trials) for p in patterns)),
            *(result.observables[name].ravel().tolist() for name in obs_names),
            result.success.ravel().tolist())
    trials = Table("trials",
                   tuple(["pattern", "trial"] + obs_names + ["success"]), data)

    hist = current_histogram(result, bins=bins)
    histogram = HistogramTable(
        "histogram", tuple(float(e) for e in hist.bin_edges),
        tuple((label, tuple(int(c) for c in counts))
              for label, counts in sorted(hist.counts.items())))
    return summary, trials, histogram, hist
