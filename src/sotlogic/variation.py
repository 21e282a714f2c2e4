"""Process-variation sampling and Monte-Carlo gate campaigns.

Campaigns run in blocks of ``BLOCK`` trials per input pattern. Each
(pattern, block) pair draws all of its deviates from one counter-based
Philox stream keyed by (seed, pattern index << 32 | block index) -- random
stream 2 -- and evaluates the whole block as array operations, so
campaigns are bit-reproducible independent of execution order and worker
count. Device mismatch and process variation are collapsed into
independent per-cell sampling; the varied quantities are the oxide
thickness, the free-layer thickness and the TMR ratio (plus an optional RA
knob for sensitivity studies).
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .array import ArraySpec, Topology
from .device import DeviceParams
from .gates import (OBSERVABLES, GateOp, boolean_output, check_op_fits,
                    input_columns, pattern_bits, pattern_label, solve_pattern)
from .report import HistogramTable, Table

RNG_STREAM = 2        # version of the stream layout, recorded in reports
BLOCK = 4096          # trials per random stream; never depends on workers
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


def truncated_normal(rng: np.random.Generator) -> float:
    """Standard normal deviate, redrawn until within +/- 4 sigma."""
    z = rng.standard_normal()
    while abs(z) > TRUNCATION_SIGMA:
        z = rng.standard_normal()
    return float(z)


def sample_cell(nominal: DeviceParams, spec: VariationSpec,
                rng: np.random.Generator) -> DeviceParams:
    """Draw one cell's parameters; deterministic given the stream state.

    Draw order is fixed (t_ox, t_f, TMR0, then RA when enabled) so streams
    stay comparable across configurations.
    """
    return nominal.replace(**{
        field: getattr(nominal, field) * (1.0 + sigma * truncated_normal(rng))
        for field, sigma in spec.drawn})


def block_deviates(spec: VariationSpec, pattern_index: int, block_index: int,
                   rows: int, cells: int) -> np.ndarray:
    """Truncated standard normals of one (pattern, block) stream.

    Shape (rows, cells, draws): one row per trial, cells in input order
    then the output cell, draws in ``spec.drawn`` order. Entries beyond
    +/- 4 sigma are redrawn in row-major order from the same stream until
    none is left.
    """
    rng = _philox(spec.seed, pattern_index, block_index)
    z = rng.standard_normal((rows, cells, len(spec.drawn)))
    flat = z.reshape(-1)
    bad = np.flatnonzero(np.abs(flat) > TRUNCATION_SIGMA)
    while bad.size:
        flat[bad] = rng.standard_normal(bad.size)
        bad = bad[np.abs(flat[bad]) > TRUNCATION_SIGMA]
    return z


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
    """Aggregated Monte-Carlo campaign for one gate operation."""

    topology: Topology
    op: GateOp
    variation: VariationSpec
    trials: int
    patterns: tuple  # of PatternStats, in pattern-index order

    @property
    def seed(self) -> int:
        return self.variation.seed

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
               n: int, task: tuple):
    """Sample and execute trials [block * BLOCK, ...) of one pattern.

    Draws the block's deviates and runs the per-trial cell parameters
    through :func:`.gates.solve_pattern`, the solver of every gate.
    Returns (success flags, observables stacked in ``OBSERVABLES`` order).
    """
    pattern_index, block = task
    rows = min(BLOCK, n - block * BLOCK)
    bits = pattern_bits(pattern_index, op.n_inputs)
    z = block_deviates(spec, pattern_index, block, rows, op.n_inputs + 1)
    *devs_in, dev_out = sample_block(array_spec.nominal, spec, z)
    _, first, i_crit, switched = solve_pattern(array_spec.topology, op, bits,
                                               devs_in, dev_out, op.v_drive)
    observables = np.stack([first, i_crit])
    success = (op.out_init ^ switched) == boolean_output(op.kind, bits)
    return success, observables


def _pool_size(requested: int, n_tasks: int) -> int:
    """Worker processes for a campaign: capped by the CPUs and the tasks."""
    return max(1, min(requested, os.cpu_count() or 1, n_tasks))


def run_mc(array_spec: ArraySpec, op: GateOp, n: int, spec: VariationSpec,
           n_workers: int = 1) -> MCResult:
    """Monte-Carlo campaign: n independent trials per input pattern.

    Each trial resamples every participating cell, executes the gate, and
    counts success iff the output matches the gate's boolean value. Trials
    run in (pattern, block) tasks of up to ``BLOCK`` trials, in process or
    on a pool of at most ``n_workers`` processes; the result is
    bit-identical for any ``n_workers``.
    """
    if n < 1:
        raise ValueError("need at least one trial")
    check_op_fits(array_spec, op)
    names = OBSERVABLES[array_spec.topology]

    n_patterns = 2 ** op.n_inputs
    n_blocks = -(-n // BLOCK)  # ceil division
    tasks = [(p, b) for p in range(n_patterns) for b in range(n_blocks)]
    kernel = functools.partial(_run_block, array_spec, op, spec, n)
    workers = _pool_size(n_workers, len(tasks))
    if workers == 1:
        parts = [kernel(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(kernel, tasks))  # in task order

    patterns = []
    for p in range(n_patterns):
        own = parts[p * n_blocks:(p + 1) * n_blocks]
        flags = np.concatenate([part[0] for part in own])
        data = np.concatenate([part[1] for part in own], axis=1)
        bits = pattern_bits(p, op.n_inputs)
        patterns.append(PatternStats(
            bits=bits, expected=boolean_output(op.kind, bits), trials=n,
            successes=int(flags.sum()), success_flags=flags,
            observables=dict(zip(names, data))))
    return MCResult(topology=array_spec.topology, op=op, variation=spec,
                    trials=n, patterns=tuple(patterns))


# --- histograms -----------------------------------------------------------------

@dataclass(frozen=True)
class HistogramReport:
    """Fixed-width histogram of one observable, per input pattern.

    ``overlap_fraction`` is the fraction of all-zero-pattern samples that
    exceed the minimum sample of the single-one patterns: the tell-tale of
    unintentional switching in the read-current scheme.
    """

    observable: str
    bin_edges: np.ndarray
    counts: dict  # pattern label -> np.ndarray of per-bin counts
    overlap_fraction: float


def current_histogram(result: MCResult, bins: int = 32,
                      observable: str | None = None) -> HistogramReport:
    """Histogram the campaign's analog observable over fixed-width bins."""
    if bins < 1:
        raise ValueError("need at least one bin")
    observable = observable or result.primary_observable
    series = {p.label: np.asarray(p.observables[observable])
              for p in result.patterns}
    if not series or any(len(v) == 0 for v in series.values()):
        raise ValueError("result has no sampled observables")

    pooled = np.concatenate(list(series.values()))
    lo, hi = float(pooled.min()), float(pooled.max())
    if hi <= lo:  # degenerate (e.g. zero variation): one occupied bin
        pad = max(abs(lo) * 1e-9, 1e-30)
        lo, hi = lo - pad, lo + pad
    edges = np.linspace(lo, hi, bins + 1)
    counts = {label: np.histogram(values, bins=edges)[0]
              for label, values in series.items()}

    zero = next((p for p in result.patterns if not any(p.bits)), None)
    singles = [p for p in result.patterns if sum(p.bits) == 1]
    if zero is not None and singles:
        reference = min(float(np.min(p.observables[observable])) for p in singles)
        values = np.asarray(zero.observables[observable])
        overlap = float(np.mean(values > reference))
    else:
        overlap = 0.0
    return HistogramReport(observable=observable, bin_edges=edges,
                           counts=counts, overlap_fraction=overlap)


# --- CSV-shaped exports ------------------------------------------------------------

def mc_tables(result: MCResult, bins: int = 32):
    """Serializable views of a campaign: summary, per-trial rows, histogram.

    The summary has one row per input pattern (inputs rendered
    most-significant first, expected output, trials, successes, rate); the
    trials table has one row per (pattern, trial) with the sampled
    observables and the verdict. Returns (summary, trials, histogram
    table, histogram report).
    """
    summary_rows = [tuple(reversed(p.bits)) +
                    (p.expected, p.trials, p.successes, p.success_rate)
                    for p in result.patterns]
    summary = Table("summary",
                    tuple(input_columns(result.op.n_inputs) +
                          ["OUT", "trials", "successes", "success_rate"]),
                    tuple(summary_rows))

    obs_names = sorted(result.patterns[0].observables)
    trial_rows = []
    for p in result.patterns:
        trial_rows.extend(zip(itertools.repeat(p.label), range(p.trials),
                              *(p.observables[n].tolist() for n in obs_names),
                              p.success_flags.tolist()))
    trials = Table("trials",
                   tuple(["pattern", "trial"] + obs_names + ["success"]),
                   tuple(trial_rows))

    hist = current_histogram(result, bins=bins)
    histogram = HistogramTable(
        "histogram", tuple(float(e) for e in hist.bin_edges),
        tuple((label, tuple(int(c) for c in counts))
              for label, counts in sorted(hist.counts.items())))
    return summary, trials, histogram, hist
