"""Process-variation sampling and Monte-Carlo gate campaigns.

Campaigns run in one process, in blocks of ``BLOCK`` trials per input
pattern, each block solved as array operations together with those of
as many other patterns as fit in ``BLOCK`` trials. Each (pattern, block)
pair draws its deviates from one counter-based Philox stream keyed by
(seed, pattern index << 32 | block index) -- random stream 2 -- so
campaigns are bit-reproducible. Device mismatch and process variation
are collapsed into independent per-cell sampling; the varied quantities
are the oxide thickness, the free-layer thickness and the TMR ratio
(plus an optional RA knob for sensitivity studies).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .array import ArraySpec, Topology
from .device import CellArrays, DeviceParams
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


def _rekey(rng: np.random.Generator, seed: int, pattern_index: int,
           index: int) -> np.random.Generator:
    """Restart ``rng`` at stream (pattern, index) of ``seed``: a zero counter
    and an empty buffer, so nothing drawn before carries over. Cheaper than
    a new Philox, which first seeds itself from OS entropy."""
    if not (0 <= pattern_index < _MAX_INDEX and 0 <= index < _MAX_INDEX):
        raise ValueError("pattern and trial or block indices must fit in 32 bits")
    rng.bit_generator.state = {
        "bit_generator": "Philox", "buffer": (0,) * 4, "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0,
        "state": {"counter": (0,) * 4, "key": (seed, pattern_index << 32 | index)}}
    return rng


def trial_rng(seed: int, pattern_index: int, trial_index: int) -> np.random.Generator:
    """A new generator on the Philox stream of one (pattern, trial) pair.

    A scalar view for statistical checks: :func:`run_mc` draws block b of
    pattern p from stream (p, b), re-keying one generator per campaign.
    """
    return _rekey(np.random.Generator(np.random.Philox()), seed,
                  pattern_index, trial_index)


def _truncated_deviates(rng: np.random.Generator, z: np.ndarray) -> np.ndarray:
    """Fill C-contiguous ``z`` with standard normals from ``rng``, redrawing
    entries beyond +/- 4 sigma in row-major order until none is left."""
    rng.standard_normal(out=z)
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
    z = _truncated_deviates(rng, np.empty(len(spec.drawn))).tolist()
    return nominal.replace(**{
        field: getattr(nominal, field) * (1.0 + sigma * dz)
        for (field, sigma), dz in zip(spec.drawn, z)})


def sample_block(nominal: DeviceParams, spec: VariationSpec,
                 z: np.ndarray) -> list:
    """Per-cell struct-of-arrays parameters from (..., cells, draws) deviates.

    Each drawn field is nominal * (1 + sigma z), computed a field at a time
    and elementwise as in :func:`sample_cell`; fields not drawn stay nominal.
    """
    values = {field: getattr(nominal, field) * (1.0 + sigma * z[..., d])
              for d, (field, sigma) in enumerate(spec.drawn)}
    return [CellArrays(nominal, **{f: v[..., k] for f, v in values.items()})
            for k in range(z.shape[-2])]


@dataclass
class PatternStats:
    """Per-input-pattern trial outcomes and sampled analog observables."""

    bits: tuple
    expected: int
    trials: int
    successes: int
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
               ids: np.ndarray, z: np.ndarray):
    """Run patterns ``ids`` on their deviates z (patterns, rows, cells, draws).

    Runs the sampled cell parameters through :func:`.gates.solve_pattern`,
    the solver of every gate, as one call. Returns (success flags,
    observables in ``OBSERVABLES`` order), each of shape (patterns, rows).
    """
    bits = pattern_bits(ids[:, None], op.n_inputs)
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
    run in blocks of up to ``BLOCK`` per pattern; a block is solved with
    those of as many patterns as fit in ``BLOCK`` trials, and each lands in
    its slice of one (patterns, trials) array per quantity.
    """
    if n < 1:
        raise ValueError("need at least one trial")
    check_op_fits(array_spec, op)
    names = OBSERVABLES[array_spec.topology]

    n_patterns = 2 ** op.n_inputs
    flags = np.empty((n_patterns, n), dtype=bool)
    data = np.empty((len(names), n_patterns, n))
    rng = np.random.Generator(np.random.Philox())  # re-keyed per stream
    for block, start in enumerate(range(0, n, BLOCK)):
        rows = min(BLOCK, n - start)
        part, group = slice(start, start + rows), max(1, BLOCK // rows)
        for lo in range(0, n_patterns, group):
            ids = np.arange(lo, min(lo + group, n_patterns))
            z = np.empty((ids.size, rows, op.n_inputs + 1, len(spec.drawn)))
            for zp, p in zip(z, ids.tolist()):
                _truncated_deviates(_rekey(rng, spec.seed, p, block), zp)
            flags[ids, part], data[:, ids, part] = _run_block(array_spec, op,
                                                              spec, ids, z)
    patterns = []
    for p in range(n_patterns):
        bits = pattern_bits(p, op.n_inputs)
        patterns.append(PatternStats(
            bits=bits, expected=boolean_output(op.kind, bits), trials=n,
            successes=int(flags[p].sum()),
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
    # Bin k holds edges[k] <= v < edges[k + 1], and the last bin the last
    # edge too, as np.histogram counts. A block of at most BLOCK values (the
    # rows of as many patterns as fit, or a part of one pattern's row) is
    # binned by one binary search over the edges and one bincount.
    per_row = np.zeros((len(values), bins), np.int64)
    rows = max(1, BLOCK // values.shape[1])
    for start, part in itertools.product(range(0, len(values), rows),
                                         range(0, values.shape[1], BLOCK)):
        block = values[start:start + rows, part:part + BLOCK]
        index = np.searchsorted(edges, block, "right")
        index -= 1
        np.minimum(index, bins - 1, out=index)
        index += np.arange(len(block))[:, None] * bins
        per_row[start:start + rows] += np.bincount(
            index.ravel(), minlength=len(block) * bins).reshape(-1, bins)
    counts = {p.label: row for p, row in zip(result.patterns, per_row)}
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
    observables and the verdict, its columns held as 1-D arrays. Returns
    (summary, trials, histogram table, histogram report).
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
    n_patterns, n_trials = result.success.shape
    data = (np.repeat([p.label for p in patterns], n_trials),
            np.tile(np.arange(n_trials), n_patterns),
            *(result.observables[name].ravel() for name in obs_names),
            result.success.ravel())
    trials = Table("trials",
                   tuple(["pattern", "trial"] + obs_names + ["success"]), data)

    hist = current_histogram(result, bins=bins)
    histogram = HistogramTable(
        "histogram", tuple(hist.bin_edges.tolist()),
        tuple((label, tuple(counts.tolist()))
              for label, counts in sorted(hist.counts.items())))
    return summary, trials, histogram, hist
