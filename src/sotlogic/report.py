"""Deterministic serialization of simulation results to CSV and JSON.

Identical inputs serialize byte-for-byte identically: no timestamps, sorted
metadata, fixed column order, dot decimal separator, UTF-8 bytes with LF
line endings whatever the locale or OS, and floats rendered with 9
significant digits in CSV (full precision in JSON so round-trips are
lossless). A table holds each column as a 1-D numpy array of one of five
dtype kinds (float, int, unsigned int, bool, str), and each kind has one
rule per format (``_RULES``): a ``%`` spec, an optional map of a value to
the text the spec takes, and a byte-matrix kernel, which write the same
text. One renderer (``_rows``) yields the rows of every table as UTF-8
chunks for files opened in binary mode: byte matrices less their NUL
padding for a table of at least ``_MATRIX_ROWS`` rows, else one ``%``
template applied to each row. The float kernels, ``_float_cells``
(``%.9g``) and ``_repr_cells`` (repr, the shortest text that reads back),
make digits with numpy, laid out by one builder (``_layout``). The JSON
skeleton has a small writer of its own (``_json_text``).

Every file is written by one writer, ``write_chunks``, over the old file's
bytes and then cut to the length written, so a rerun into the same
directory leaves the bytes a fresh one gets. It hands each chunk to
``os.write`` on the descriptor it opens, with no buffered file object in
between, and cuts with ``os.ftruncate``. It does not open with
``O_TRUNC``: on ext4 mounted with ``discard`` (shared 2-CPU Xeon host),
rewriting 400 files of 3-100 KB took a median ~18-57 us a file when cut
to 0 bytes first, against ~15-27 us written over (~50-97 against ~4-7 us
for one file rewritten again and again). The closing ftruncate costs ~1 us
on a file just made.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .version import __version__

SIGNIFICANT_DIGITS = 9


@dataclass(frozen=True)
class Table:
    """A named table held as columns: ``data[k]`` holds the values of
    ``columns[k]``, one per row, given as a list or tuple of one exact type
    (float, int, bool or str) or as a 1-D array, and held as the 1-D array
    of kind f, i, u, b or U whose ``tolist()`` gives them back. Any other
    column raises TypeError or ValueError naming the table (``_column``)."""

    name: str
    columns: tuple
    data: tuple  # of equally-long 1-D arrays, one per column

    def __post_init__(self):
        data = tuple(_column(self.name, column) for column in self.data)
        if len(data) != len(self.columns) or len(set(map(len, data))) > 1:
            raise ValueError(f"table {self.name!r}: columns of unequal length")
        object.__setattr__(self, "data", data)


# The exact type of a sequence column's values -> the dtype that holds them.
_DTYPES = {float: np.float64, int: np.int64, bool: np.bool_, str: np.str_}


def _column(name: str, column) -> np.ndarray:
    """``column`` of table ``name`` as a 1-D array of kind f (at most 8
    bytes), i, u, b or U. A sequence's values must be of one exact type,
    checked before ``np.array``, which would coerce them silently:
    ``[1.5, 2]`` to floats (JSON would write ``2.0``), ``[True, 1]`` to
    ints, ``['a', 1]`` to text. Text holds no NUL (cells are NUL-padded,
    and numpy drops a string's trailing NULs) and no surrogate code point
    (UTF-8 has none): a sequence's text is checked joined, before
    ``np.array``, an array's code points in numpy."""
    if isinstance(column, (list, tuple)):
        types = set(map(type, column))
        if len(types) > 1 or not types <= _DTYPES.keys():
            raise TypeError(f"table {name!r}: a column holds values of types "
                            f"{sorted(t.__name__ for t in types)}, not one "
                            "of float, int, bool or str")
        dtype = _DTYPES[types.pop()] if types else np.float64
        try:  # UTF-8 encodes every code point but the surrogates
            if dtype is np.str_ and b"\0" in "".join(column).encode():
                raise ValueError(f"table {name!r}: text holds NUL")
            return np.array(column, dtype)
        except UnicodeEncodeError:
            raise ValueError(f"table {name!r}: text holds a surrogate") from None
        except OverflowError:
            raise ValueError(f"table {name!r}: an int lies outside int64") \
                from None
    if not isinstance(column, np.ndarray):
        raise TypeError(f"table {name!r}: a column is a list, tuple or "
                        f"array, not {type(column).__name__}")
    kind = column.dtype.kind
    if column.ndim != 1:
        raise ValueError(f"table {name!r}: array columns must be 1-D")
    if kind not in "fiubU" or kind == "f" and column.itemsize > 8:
        raise TypeError(f"table {name!r}: no rule renders dtype {column.dtype}")
    if kind == "U":
        # Scanned only where the column's extremes allow a NUL or a
        # surrogate; NUL-padded, text holds one if a NUL precedes a non-NUL.
        codes = _text_codes(column)
        if codes.min(initial=1) == 0 and np.count_nonzero(
                (codes[:, :-1] == 0) > (codes[:, 1:] == 0)):
            raise ValueError(f"table {name!r}: text holds NUL")
        if codes.max(initial=0) >= 0xD800 and np.count_nonzero(
                codes >> 11 == 0xD800 >> 11):  # U+D800-U+DFFF
            raise ValueError(f"table {name!r}: text holds a surrogate")
    return column


@dataclass(frozen=True)
class HistogramTable:
    """Per-bin counts of one observable, one count column per series, each
    series under its own label."""

    name: str
    bin_edges: tuple  # of floats
    series: tuple  # of (label, tuple of len(bin_edges) - 1 ints)

    def __post_init__(self):
        counts = [c for _, series in self.series for c in series]
        if not (set(map(type, self.bin_edges)) <= {float} and
                set(map(type, counts)) <= {int}):
            raise TypeError(f"histogram {self.name!r}: edges must be floats "
                            "and counts ints")
        if any(len(c) != len(self.bin_edges) - 1 for _, c in self.series):
            raise ValueError(f"histogram {self.name!r}: a series does not "
                             "hold one count per bin")
        labels = [label for label, _ in self.series]
        for label in labels:
            if labels.count(label) > 1:
                raise ValueError(f"histogram {self.name!r}: label {label!r} "
                                 "names two series")


@dataclass(frozen=True)
class ReportBundle:
    meta: dict
    tables: tuple = ()
    histograms: tuple = ()


def config_digest(config) -> str:
    """Stable hash of a fully resolved configuration mapping."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"),
                           default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def make_bundle(meta: dict, tables=(), histograms=()) -> ReportBundle:
    """A bundle of the tables and histograms, which name their files and
    JSON keys: a name given twice raises ValueError."""
    tables, histograms = tuple(tables), tuple(histograms)
    names = [item.name for item in (*tables, *histograms)]
    for name in names:
        if names.count(name) > 1:
            raise ValueError(f"report bundle: {name!r} is named twice")
    full_meta = {"tool": "sotlogic", "version": __version__}
    full_meta.update(meta)
    return ReportBundle(meta=full_meta, tables=tables, histograms=histograms)


def _meta_lines(meta: dict):
    return [f"# {key}={meta[key]}" for key in sorted(meta)]


# --- columns as byte matrices ---------------------------------------------------
#
# A cell is a row of a uint8 matrix holding its UTF-8 text, padded anywhere
# with NUL bytes, which are dropped when a table's rows are joined.

_CHUNK_ROWS = 4096  # rows of a table written as one byte matrix


def _words(texts):
    """Little-endian uint64 words holding the texts, each padded with NULs
    to 8 bytes."""
    return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), "<u8")


# Text of k = 0..9999 as 4 digits with leading zeros, one per 4-byte word,
# and spread over 8 bytes with a NUL after each digit.
_K4 = np.arange(10000)
_SPREAD = np.zeros((10000, 8), np.uint8)
_SPREAD[:, ::2] = np.stack([_K4 // 1000, _K4 // 100 % 10, _K4 // 10 % 10,
                            _K4 % 10], 1) + ord("0")
_DIGITS4_SPREAD = _SPREAD.view("<u8")[:, 0]
# _ZEROS4[k] counts the trailing zero digits of k (4 for 0).
_ZEROS4 = sum((_K4 % 10 ** k == 0).astype(np.uint8) for k in range(1, 5))
# The 4-digit groups of an int's text, one per 4-byte word: at [k] k with
# its leading zeros NUL, at [10000 + k] with them. 0 is no digit in the
# first table, for a group before an int's first digit, and "0" in the
# second, for an int's last group.
_INT_GROUPS = [np.concatenate([_SPREAD[:, ::2] * (_K4[:, None] >= least),
                               _SPREAD[:, ::2]]).view(np.uint32)[:, 0]
               for least in ([1000, 100, 10, 1], [1000, 100, 10, 0])]
_BOOL_WORDS = _words((b"false", b"true"))
_LEAD_WORDS = _words(bytes([0] * 6 + [d]) for d in b"0123456789")

# Per decimal exponent e, at [_E0 + e]: the correctly rounded 10**e, and
# the "0.000" that precedes the digits of positional text with e < 0.
_E0 = 300
_EXPONENTS = range(-_E0, 310)
_POW10 = np.array([float(f"1e{e}") for e in _EXPONENTS])
_PREFIXES = [b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b""
             for e in _EXPONENTS]
_PREFIX_WORDS = np.concatenate([_words(_PREFIXES),
                                _words(b"-" + p for p in _PREFIXES)])


@functools.cache
def _layout(n: int, end: int, point_zero: bool):
    """The tables that lay out an n-digit mantissa (n = 4k + 1) at decimal
    exponent e as text: positional for -4 <= e < ``end``, else a digit, the
    point, the rest and "e+XX"; ``point_zero`` keeps a digit after the point
    of positional text with e >= 0 (repr's "1.0" against %.9g's "1").

    ``shown[k][g]``: the digits up to the last significant one in 4-digit
    group k holding g, 0 for g = 0. ``keys[_E0 + e, shown]``: the mask key
    ``point_after * (n + 1) + max(shown, least)``, with ``point_after``
    digits before the point (0 where positional text starts "0.") and at
    least ``least`` shown. Per mask key, ``points`` holds the point word of
    each word of a cell and ``keeps`` the keep word of each group's word
    (the lead digit is always kept): digit j sits at byte 6 + 2j and is
    kept if j < shown; the point slot after it, byte 7 + 2j, holds "." if
    j = point_after - 1 and a digit follows. ``suffixes[_E0 + e]``: the
    "e+XX" word, empty for positional text."""
    e = np.array(_EXPONENTS)
    positional = (-4 <= e) & (e < end)
    after = np.where(positional, np.maximum(e + 1, 0), 1)
    least = np.where(positional & (e >= 0), after + point_zero, 1)
    shown = np.where(_K4 > 0, np.arange(5, n + 1, 4)[:, None] - _ZEROS4, 0)
    keys = after[:, None] * (n + 1) + np.maximum(np.arange(n + 1),
                                                 least[:, None])
    # Per mask key: the digits before the point and the digits shown.
    after, most = np.divmod(np.arange((n + 1) ** 2)[:, None], n + 1)
    j = np.arange(n)
    keep = np.zeros((len(most), 2 * n + 6), np.uint8)
    point = np.zeros_like(keep)
    keep[:, 6::2] = 255 * (j < most)
    point[:, 7::2] = ord(".") * ((j == after - 1) & (after < most))
    point, keep = point.view("<u8").T.copy(), keep.view("<u8").T.copy()
    return (shown.astype(np.uint8), keys, tuple(point), tuple(keep[1:]),
            _words(b"" if p else b"e%+03d" % k
                   for k, p in zip(_EXPONENTS, positional)))


def _mantissa_cells(x, e, lead, groups, layout, fallback, text):
    """Cells of the mantissas of ``x`` at decimal exponents ``e`` as
    ``layout`` (``_layout``) lays them out, from the lead digits and the
    4-digit groups after them. The values where ``fallback`` holds are
    written one at a time, as ``text(v)``.

    A cell is words: sign, "0.000" prefix, lead digit and point; 4 digits
    and points per group; the suffix. Digits past the last shown one are
    NUL, and so are the prefix and suffix bytes a cell has no use for.
    """
    shown_by_group, keys, points, keeps, suffixes = layout
    shown = shown_by_group[0][groups[0]]
    for table, group in zip(shown_by_group[1:], groups[1:]):
        shown = np.maximum(shown, table[group])
    i = _E0 + e
    # Indexed flat: a 2-D fancy index costs twice as much.
    key = keys.ravel()[i * keys.shape[1] + shown]
    prefix = _PREFIX_WORDS[np.signbit(x) * len(_EXPONENTS) + i]
    suffix = suffixes[i]
    words = np.empty((len(x), len(groups) + 2), "<u8")
    words[:, 0] = prefix | _LEAD_WORDS[lead] | points[0][key]
    for k, group in enumerate(groups, 1):
        words[:, k] = _DIGITS4_SPREAD[group] & keeps[k - 1][key] | \
            points[k][key]
    words[:, -1] = suffix
    end = 8 * words.shape[1]
    cells = words.view(np.uint8)[:, 0 if prefix.any() else 6:
                                 end if suffix.any() else end - 8]
    where = np.flatnonzero(fallback)
    return _fallback_cells(cells, where, [
        text(v).encode() for v in x[where].tolist()])


def _fallback_cells(cells, where, texts):
    """``cells`` with the rows ``where`` holding ``texts``, widened to fit."""
    width = max(map(len, texts), default=0)
    if width > cells.shape[1]:
        cells = np.pad(cells, ((0, 0), (0, width - cells.shape[1])))
    cells[where] = 0
    for row, text in zip(where.tolist(), texts):
        cells[row, :len(text)] = np.frombuffer(text, np.uint8)
    return cells


def _float_cells(x):
    """``'%.9g' % v`` of each value of the float64 array ``x``, as cells.

    A value's decimal exponent e is estimated from its binary exponent,
    low by at most one: the estimate is raised where the scaled value
    ``|x| * 10**(8 - e)`` reaches 1e9, and the mantissa is the scaled value
    rounded; a mantissa that rounds to 1e9 carries into e. ``10**k`` is
    correctly rounded, so the scaled value is within ~3e-7 of exact and
    rounds as the exact one does unless it lies within 1e-5 of a tie: such
    values, and those that are not finite or whose magnitude lies outside
    [1e-290, 1e290] (0 aside), are formatted one at a time by ``%``.
    """
    a = np.abs(x)
    regular = (a >= 1e-290) & (a <= 1e290)  # False for 0, inf and nan
    fallback = ~(regular | (x == 0))
    if not regular.all():
        a = np.where(regular, a, 1.0)
    # floor(log10(2) * binary exponent), exact in integers for every
    # double: the decimal exponent or one less.
    e = ((a.view(np.int64) >> 52) - 1023) * 78913 >> 18
    s = a * _POW10[_E0 + 8 - e]
    up = s >= 1e9
    e += up
    s = a * _POW10[_E0 + 8 - e]
    m = np.rint(s)
    fallback |= np.abs(s - m) > 0.5 - 1e-5
    carry = m >= 1e9
    if carry.any():
        e += carry
        m[carry] = 1e8
    # Zero keeps exponent 0 and takes mantissa 0, one digit: "0" or "-0".
    m = (m * regular).astype(np.intp)
    lead = m // 100000000
    high = m // 10000 - lead * 10000
    low = m - m // 10000 * 10000
    return _mantissa_cells(x, e, lead, (high, low), _layout(9, 9, False),
                           fallback, "%.9g".__mod__)


_TWO_PRODUCT_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into 26 bits
_UNDECIDED = 1e-7  # in units of the last of 17 digits


@functools.cache
def _repr_tables():
    """The power tables of ``_repr_cells``, built on its first call: per
    exponent k, at [_E0 + k], 10**k as hi + lo -- hi the correctly rounded
    ``_POW10[_E0 + k]``, lo the correctly rounded rest, from exact integers
    -- and hi split into two halves of at most 26 bits (scaled to stay
    finite)."""
    power = []
    for k, hi in zip(_EXPONENTS, _POW10.tolist()):
        if not math.isfinite(hi):
            power.append((hi, 0.0, 0.0, 0.0))
            continue
        n, d = hi.as_integer_ratio()  # d is a power of two
        lo = ((10 ** k * d - n) / d if k >= 0
              else (d - n * 10 ** -k) / (d * 10 ** -k))
        scale = 2.0 ** -128 if hi > 1e200 else 1.0
        t = _TWO_PRODUCT_SPLIT * (hi * scale)
        high = (t - (t - hi * scale)) / scale
        power.append((hi, high, hi - high, lo))
    return tuple(np.array(power).T.copy())


def _scaled(a, e, power):
    """a * 10**(16 - e) as an unevaluated sum of two doubles: the product
    of a with hi + lo, a * hi made exact by Dekker's two-product (numpy has
    no fused multiply-add), then normalised."""
    k = _E0 + 16 - e
    hi, high, low, lo = (table[k] for table in power)
    split = a * _TWO_PRODUCT_SPLIT
    a_high = split - (split - a)
    a_low = a - a_high
    p = a * hi
    rest = ((a_high * high - p) + a_high * low + a_low * high) + \
        a_low * low + a * lo
    s = p + rest
    return s, rest - (s - p)


def _shortest(a, power):
    """repr's digits of the magnitudes ``a``, each in [1e-290, 1e290]: the
    decimal exponents e, the digits as 17-digit mantissas m (trailing zeros
    padding a shorter text), and where the choice is undecided.

    The value scaled to 17 integer digits, s = a * 10**(16 - e), is formed
    in double-double arithmetic to ~1e-14, and its 15-, 16- and 17-digit
    roundings R15, R16, R17 come from its integer part by integer division.
    A rounding reads back iff it lies within half an ulp of a of s:
    h = 2**(E - 53) in s's units for a in [2**E, 2**(E + 1)). R15 is taken
    if it reads back (at most one 15-digit decimal does, so it gives the
    shortest text), else R16 if it does (the nearest of the 16-digit ones),
    else R17. Undecided are the choices that rest on a distance within
    ``_UNDECIDED`` of h or of a rounding tie (repr reads and rounds ties to
    even), and powers of two whose R15 does not read back: their rounding
    interval is narrower below them than above.
    """
    bits = a.view(np.int64)
    binary = (bits >> 52) - 1023
    # The decimal exponent or one less (see _float_cells), raised where the
    # rounded product reaches 1e17; checked on the exact sum, since the
    # product of a value just below a power of ten may round up to it.
    e = binary * 78913 >> 18
    e += a * _POW10[_E0 + 16 - e] >= 1e17
    s, rest = _scaled(a, e, power)
    fix = ((s > 1e17) | (s == 1e17) & (rest >= 0)).astype(np.int64) - \
        ((s < 1e16) | (s == 1e16) & (rest < 0))
    if fix.any():
        e += fix
        s, rest = _scaled(a, e, power)
    floor = np.floor(rest)
    frac = rest - floor
    i17 = s.astype(np.int64) + floor.astype(np.int64)
    h = _POW10[_E0 + 16 - e] * ((binary + (1023 - 53)) << 52).view(np.float64)
    r15 = (i17 + 50) // 100 * 100
    r16 = (i17 + 5) // 10 * 10
    d15 = (r15 - i17) - frac  # signed: R15 - s
    d16 = np.abs((r16 - i17) - frac)
    power_of_two = (bits & (1 << 52) - 1) == 0
    below = np.where(power_of_two, h / 2, h)
    ok15 = (d15 < h - _UNDECIDED) & (d15 > _UNDECIDED - below)
    ok16 = d16 < h - _UNDECIDED
    undecided = ~ok15 & (power_of_two | (np.abs(d15) < h + _UNDECIDED) |
                         (np.abs(d16 - h) < _UNDECIDED) |
                         (d16 > 5 - _UNDECIDED) |  # R16 at a tie
                         (np.abs(frac - 0.5) < _UNDECIDED))  # R17 at a tie
    m = np.where(ok15, r15, np.where(ok16, r16, i17 + (frac >= 0.5)))
    carry = m >= 10 ** 17
    if carry.any():
        e += carry
        m[carry] = 10 ** 16
    return e, m, undecided


_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(v: float) -> str:
    """``json.dumps(v)`` of a float, without the encoder it builds per call."""
    text = repr(v)
    return _JSON_NON_FINITE.get(text, text)


def _repr_cells(x):
    """``_json_float`` of each value of the float64 array ``x``, as cells:
    ``float.__repr__`` of a finite value, its digits from ``_shortest``.
    Out-of-range values (as in ``_float_cells``) and those whose digits
    ``_shortest`` leaves undecided are written one at a time instead."""
    a = np.abs(x)
    regular = (a >= 1e-290) & (a <= 1e290)  # False for 0, inf and nan
    if not regular.all():
        a = np.where(regular, a, 1.0)
    e, m, undecided = _shortest(a, _repr_tables())
    # Zero keeps exponent 0 and takes mantissa 0: "0.0" or "-0.0".
    m *= regular
    # The lead digit and four groups of 4, from two halves of 8 digits.
    high = m // 10 ** 8
    low = m - high * 10 ** 8
    lead = high // 10 ** 8
    high -= lead * 10 ** 8
    top, bottom = high // 10000, low // 10000
    return _mantissa_cells(
        x, e, lead, (top, high - top * 10000, bottom, low - bottom * 10000),
        _layout(17, 16, True), undecided | ~(regular | (x == 0)), _json_float)


def _int_cells(x):
    """``'%d' % v`` of each value of the integer array ``x``, as cells:
    values in [0, 1e16) by one lookup per 4-digit group (``_INT_GROUPS``),
    the rest one at a time."""
    x = x.astype(np.uint64 if x.dtype.kind == "u" else np.int64, copy=False)
    small = (x >= 0) & (x < 10 ** 16)
    v = x if small.all() else np.where(small, x, 0).astype(np.int64)
    groups = -(-len(str(int(v.max(initial=0)))) // 4)
    words = np.empty((len(x), groups), np.uint32)
    for g in range(groups):
        # A quotient below 10000 is the int's first digits, shown without
        # leading zeros; a larger one ends in a group shown with them.
        q = v // 10 ** (4 * (groups - 1 - g))
        words[:, g] = _INT_GROUPS[g == groups - 1][
            np.minimum(q, q % 10000 + 10000) if g else q]
    where = np.flatnonzero(~small)
    return _fallback_cells(words.view(np.uint8), where,
                           [b"%d" % v for v in x[where].tolist()])


def _text_codes(x):
    """The code points of a str array, one row per value, NUL-padded."""
    x = np.ascontiguousarray(x, x.dtype.newbyteorder("="))
    return x.view(np.uint32).reshape(len(x), x.itemsize // 4)


def _text_cells(x):
    """The UTF-8 bytes of each value of a str array, as cells. ASCII text
    is its code points; ``np.char.encode`` costs a Python call per value."""
    codes = _text_codes(x)
    if codes.max(initial=0) < 128:
        return codes.astype(np.uint8)
    return np.char.encode(x, "utf-8").view(np.uint8).reshape(len(x), -1)


# The code points that JSON text holds as they are, NUL (the padding of a
# cell) among them.
_JSON_PLAIN = b"\0" + bytes(range(0x20, 0x7f)).translate(None, b'"\\')


def _json_text_cells(x):
    """``encode_basestring_ascii`` of each value of a str array, as cells:
    text of printable ASCII but ``"`` and ``\\`` is its code points in
    quotes, and other text is escaped one value at a time, its rows sought
    only if a byte of the chunk is not plain."""
    codes = _text_codes(x)
    text = codes.astype(np.uint8)
    cells = np.full((len(x), codes.shape[1] + 2), ord('"'), np.uint8)
    cells[:, 1:-1] = text
    if codes.max(initial=0) < 128 and \
            not text.tobytes().translate(None, _JSON_PLAIN):
        return cells
    where = np.flatnonzero(~np.isin(codes, list(_JSON_PLAIN)).all(1))
    return _fallback_cells(cells, where, [
        encode_basestring_ascii(v).encode() for v in x[where].tolist()])


def _bool_cells(x):
    return _BOOL_WORDS[x.view(np.uint8)].view(np.uint8).reshape(len(x), 8)


_BOOL_TEXT = {True: "true", False: "false"}


class _Rule(NamedTuple):
    spec: str  # the ``%`` spec of a cell in a row template
    text: Callable | None  # a value -> the text ``spec`` takes, if not itself
    cells: Callable  # a slice of a column -> its byte-matrix cells


# The rule of each format and dtype kind of a column: the spec, fed the
# value or its text, writes what the kernel writes. An int's and a bool's
# JSON text is its CSV text.
_INT = _Rule("%d", None, _int_cells)
_BOOL = _Rule("%s", _BOOL_TEXT.__getitem__, _bool_cells)
_RULES = {
    "csv": {"f": _Rule(f"%.{SIGNIFICANT_DIGITS}g", None, _float_cells),
            "i": _INT, "u": _INT, "b": _BOOL,
            "U": _Rule("%s", None, _text_cells)},
    "json": {"f": _Rule("%s", _json_float, _repr_cells),
             "i": _INT, "u": _INT, "b": _BOOL,
             "U": _Rule("%s", encode_basestring_ascii, _json_text_cells)},
}
# The JSON text of a value of each exact type a column holds.
_JSON_FLAT = {t: _RULES["json"][np.dtype(d).kind].text or str
              for t, d in _DTYPES.items()}

# Tables of at least this many rows are written as byte matrices, smaller
# ones by one ``%`` template per row, in CSV and JSON alike. Measured in
# process (2-CPU Xeon host), an 8-row matrix of a sweep table (7 float and
# 2 bool columns) costs ~60 us in CSV and ~110 us in JSON (most of it the
# float kernel's), and ~12 us more per int column (~40 us at 4000 rows);
# a template row costs ~0.14 us (CSV) to ~0.5 us (JSON) per float cell
# more than a matrix row. The CSV paths break even at ~50 rows on a sweep
# table, ~120 on a margin table, ~140 on an MC trials table and ~230 on a
# truth table (10 int columns); the JSON paths at ~27, ~76, ~82 and ~128.
# At 64, tables of up to 5 inputs and 32-bin histograms take templates,
# sweeps and MC trials take matrices.
_MATRIX_ROWS = 64


def _rows(data, fmt: str, seps):
    """The rows of a table with columns ``data`` in format ``fmt``, as UTF-8
    chunks rendered as they are iterated: ``seps[0]`` before a row's first
    cell, ``seps[1]`` between cells and ``seps[2]`` after the last.

    Below ``_MATRIX_ROWS`` rows, one ``%`` template of the columns' specs
    between the separators (which hold no ``%``) renders each row. From
    ``_MATRIX_ROWS`` rows on, chunks of ``_CHUNK_ROWS`` rows are rendered by
    the kernels: per chunk, the float columns' cells come from one kernel
    call, and every column's cells are copied into one byte matrix laid
    with the separators as a template row, whose NULs are then dropped."""
    by_kind = _RULES[fmt]
    rules = [by_kind[column.dtype.kind] for column in data]
    n_rows = len(data[0]) if data else 0
    if n_rows < _MATRIX_ROWS:
        template = seps[0] + seps[1].join([r.spec for r in rules]) + seps[2]
        values = [column.tolist() if rule.text is None
                  else map(rule.text, column.tolist())
                  for rule, column in zip(rules, data)]
        yield "".join(map(template.__mod__, zip(*values))).encode()
        return
    floats = [k for k, column in enumerate(data) if column.dtype.kind == "f"]
    first, between, last = (np.frombuffer(s.encode(), np.uint8) for s in seps)
    for start in range(0, n_rows, _CHUNK_ROWS):
        part = slice(start, start + _CHUNK_ROWS)
        cells = [None if column.dtype.kind == "f" else
                 rule.cells(column[part]) for rule, column in zip(rules, data)]
        if floats:
            values = np.concatenate([data[k][part] for k in floats])
            stacked = by_kind["f"].cells(values.astype(np.float64, copy=False))
            blocks = stacked.reshape(len(floats), -1, stacked.shape[1])
            for k, block in zip(floats, blocks):
                cells[k] = block
        row = [first]
        for c in cells:
            row += [np.zeros(c.shape[1], np.uint8), between]
        row[-1] = last
        at = np.cumsum([0] + [len(p) for p in row]).tolist()
        matrix = np.empty((len(cells[0]), at[-1]), np.uint8)
        matrix[:] = np.concatenate(row)
        for c, k in zip(cells, at[1::2]):
            matrix[:, k:k + c.shape[1]] = c
        yield matrix.tobytes().translate(None, b"\0")


def _table_csv(table: Table, meta: dict):
    """``table``'s CSV file as UTF-8 chunks rendered as they are iterated."""
    head = "\n".join([*_meta_lines(meta), ",".join(table.columns), ""])
    return chain([head.encode()], _rows(table.data, "csv", ("", ",", "\n")))


def write_chunks(path, chunks) -> None:
    """Write the byte chunks to the file ``path`` over its old bytes, and
    cut it to what was written, also when a chunk raises part-way.
    ``O_BINARY`` keeps Windows from writing CRLF."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    written = 0
    try:
        for view in map(memoryview, chunks):
            while view:  # a short write leaves the rest of the chunk
                n = os.write(fd, view)
                written, view = written + n, view[n:]
    finally:
        try:
            os.ftruncate(fd, written)
        finally:
            os.close(fd)


def emit_csv(bundle: ReportBundle, out_dir, prefix: str):
    """Write one CSV per table/histogram, each headed by the metadata.

    File naming: ``<prefix>_<table>.csv``. Returns the written paths; a
    bundle without tables writes none.
    """
    out = Path(out_dir)
    if not os.path.isdir(out):
        out.mkdir(parents=True, exist_ok=True)
    histograms = [
        Table(h.name,
              ("bin_lo", "bin_hi", *(f"count_{label}" for label, _ in h.series)),
              (h.bin_edges[:-1], h.bin_edges[1:], *(c for _, c in h.series)))
        for h in bundle.histograms]
    written = []
    for table in (*bundle.tables, *histograms):
        written.append(out / f"{prefix}_{table.name}.csv")
        write_chunks(written[-1], _table_csv(table, bundle.meta))
    return written


def _json_text(value, depth: int) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` ``depth`` levels deep,
    without its pure-Python encoder: a flat list is one join of texts."""
    if isinstance(value, dict):  # a key that is no str is quoted JSON
        items = [encode_basestring_ascii(k if isinstance(k, str) else
                                         json.dumps(k)) + ": " +
                 _json_text(value[k], depth + 1) for k in sorted(value)]
    elif isinstance(value, (list, tuple)):
        types = set(map(type, value))
        text = _JSON_FLAT.get(types.pop()) if len(types) == 1 else None
        items = map(text, value) if text else [_json_text(v, depth + 1)
                                               for v in value]
    else:
        return json.dumps(value)
    ends, inner = "{}" if isinstance(value, dict) else "[]", "\n" + "  " * depth
    return (ends[0] + inner + "  " + ("," + inner + "  ").join(items) +
            inner + ends[1]) if value else ends


# Nesting depth of a table's row list in the document
# (document -> "tables" -> name -> "rows"), and of the values in a row.
_ROWS_DEPTH = 3
_VALUE_DEPTH = _ROWS_DEPTH + 2


def _rows_json(table: Table):
    """The rows of ``table`` as ``json.dumps(indent=2)`` writes them in the
    document, in chunks of bytes rendered as they are iterated."""
    if not (table.data and len(table.data[0])):
        yield b"[]"
        return
    outer = "\n" + "  " * (_ROWS_DEPTH + 1)
    inner = "\n" + "  " * _VALUE_DEPTH
    # A row opens with the comma after the row before it; the first row
    # opens the list instead.
    chunks = _rows(table.data, "json", ("," + outer + "[" + inner,
                                        "," + inner, outer + "]"))
    yield from (b"[", memoryview(next(chunks))[1:])
    yield from chunks
    yield b"\n" + b"  " * _ROWS_DEPTH + b"]"


def emit_json(bundle: ReportBundle, path) -> Path:
    """Write the whole bundle as one hierarchical document, keys sorted.

    The text is that of ``json.dumps(doc, sort_keys=True, indent=2)`` for
    ``doc`` = {"histograms", "meta", "tables"}. The skeleton is written here,
    each value at its depth, and each table's rows are streamed in place.
    """
    tables = {t.name: t for t in bundle.tables}
    names = sorted(tables)
    histograms = {
        h.name: {"bin_edges": h.bin_edges, "series": dict(h.series)}
        for h in bundle.histograms}
    head = ('{\n  "histograms": ' + _json_text(histograms, 1) +
            ',\n  "meta": ' + _json_text(bundle.meta, 1) + ',\n  "tables": {')
    # A table's head closes the table before it.
    table_heads = [(b"\n    }," if k else b"") +
                   f'\n    {_json_text(name, 2)}: {{\n      "columns": '
                   f'{_json_text(tables[name].columns, 3)},\n      "rows": '
                   .encode() for k, name in enumerate(names)]
    path = Path(path)
    if not os.path.isdir(path.parent):
        path.parent.mkdir(parents=True, exist_ok=True)
    write_chunks(path, chain([head.encode()], *(
        chain([table_head], _rows_json(tables[name]))
        for table_head, name in zip(table_heads, names)),
        [b"\n    }\n  }\n}\n" if names else b"}\n}\n"]))
    return path
