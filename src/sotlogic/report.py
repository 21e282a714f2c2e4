"""Deterministic serialization of simulation results to CSV and JSON.

Identical inputs serialize byte-for-byte identically: no timestamps, sorted
metadata, fixed column order, dot decimal separator, LF line endings, and
floats rendered with 9 significant digits in CSV (full precision in JSON so
round-trips are lossless). Table values are rendered a column at a time, by
one rule per column chosen from an array column's dtype or from a sequence
column's value types. A CSV table of array columns is written as byte
matrices, its floats formatted by one numpy kernel.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .version import __version__

SIGNIFICANT_DIGITS = 9


@dataclass(frozen=True)
class Table:
    """A named table held as columns: ``data[k]`` holds the values of
    ``columns[k]``, one per row, as a sequence or a 1-D numpy array; an
    array renders as its ``.tolist()`` would."""

    name: str
    columns: tuple
    data: tuple  # of equally-long sequences, one per column


@dataclass(frozen=True)
class HistogramTable:
    """Per-bin counts of one observable, one count column per series."""

    name: str
    bin_edges: tuple
    series: tuple  # of (label, tuple-of-counts)


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
    full_meta = {"tool": "sotlogic", "version": __version__}
    full_meta.update(meta)
    return ReportBundle(meta=full_meta, tables=tuple(tables),
                        histograms=tuple(histograms))


def render_number(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, f".{SIGNIFICANT_DIGITS}g")
    return str(value)


def _meta_lines(meta: dict):
    return [f"# {key}={meta[key]}" for key in sorted(meta)]


def _row_count(table: Table) -> int:
    """The table's number of rows; raises ValueError unless ``table.data``
    holds one sequence or 1-D array per column, all of one length."""
    if any(getattr(column, "ndim", 1) != 1 for column in table.data):
        raise ValueError(f"table {table.name!r}: array columns must be 1-D")
    lengths = set(map(len, table.data))
    if len(table.data) != len(table.columns) or len(lengths) > 1:
        raise ValueError(f"table {table.name!r}: columns of unequal length")
    return lengths.pop() if lengths else 0


def _column_type(column):
    """The one exact type of a column's values, or None when they differ.

    Exact, not ``isinstance``: ``bool`` is a subclass of ``int`` and numpy
    scalars subclass ``float``; both take the per-value rule.
    """
    types = set(map(type, column))
    return types.pop() if len(types) == 1 else None


# numpy dtype kind -> the type of the values ``tolist()`` gives; floats
# wider than a double give numpy scalars.
_KIND_TYPE = {"f": float, "i": int, "u": int, "b": bool, "U": str}
_CHUNK_ROWS = 4096  # rows of an array column converted or written at a time


def _plain_array(column) -> bool:
    """Whether ``column`` is an array whose ``tolist()`` values are all of
    one plain type: float, int, bool or str."""
    return isinstance(column, np.ndarray) and column.dtype.kind in _KIND_TYPE \
        and not (column.dtype.kind == "f" and column.itemsize > 8)


def _typed_values(column):
    """(the one exact type of the column's values or None, the values):
    a plain array's type comes from its dtype, and its values are
    converted ``_CHUNK_ROWS`` at a time as they are iterated; any other
    column's type comes from its values."""
    if _plain_array(column):
        return _KIND_TYPE[column.dtype.kind], chain.from_iterable(
            column[k:k + _CHUNK_ROWS].tolist()
            for k in range(0, len(column), _CHUNK_ROWS))
    values = column.tolist() if isinstance(column, np.ndarray) else column
    return _column_type(values), values


_BOOL_TEXT = {True: "true", False: "false"}


def _csv_column(column):
    """A column's ``%`` conversion spec and the values it converts: the
    values themselves where the column holds one plain type, else their
    ``render_number`` text. ``%.9g`` and ``%d`` write what ``render_number``
    writes for a float and an int."""
    kind, column = _typed_values(column)
    if kind is float:
        return f"%.{SIGNIFICANT_DIGITS}g", column
    if kind is int:
        return "%d", column
    if kind is bool:
        return "%s", map(_BOOL_TEXT.__getitem__, column)
    if kind is str:
        return "%s", column
    return "%s", map(render_number, column)


# --- columns as byte matrices ---------------------------------------------------
#
# A cell is a row of a uint8 matrix holding its ASCII text, padded anywhere
# with NUL bytes, which are dropped when a table's rows are joined.

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
_DIGITS4 = _SPREAD[:, ::2].copy().view(np.uint32)[:, 0]
_DIGITS4_SPREAD = _SPREAD.view("<u8")[:, 0]
# _ZEROS4[k] counts the trailing zero digits of k (4 for 0). Significant
# digits of a 9-digit mantissa ending in k: _SHOWN_LOW[k] for its last 4
# digits (0 where k is 0), _SHOWN_HIGH[k] for its 4 before them where the
# last 4 are 0; a mantissa has the larger of the two.
_ZEROS4 = sum((_K4 % 10 ** k == 0).astype(np.uint8) for k in range(1, 5))
_SHOWN_LOW = np.where(_K4 > 0, 9 - _ZEROS4, 0).astype(np.uint8)
_SHOWN_HIGH = (5 - _ZEROS4).astype(np.uint8)
_POW10_INT = 10 ** np.arange(16, dtype=np.int64)
_BOOL_WORDS = _words((b"false", b"true"))
_LEAD_WORDS = _words(bytes([0] * 6 + [d]) for d in b"0123456789")

# Per decimal exponent e of a %.9g value, at [_E0 + e]: the correctly
# rounded 10**e; the number of mantissa digits before the decimal point
# (at least 1; 0 where fixed-point text starts "0."); the "0.000" that
# precedes the digits of fixed-point text with e < 0; and the "e+XX" of
# exponent layout, empty for fixed-point text (-4 <= e < 9).
_E0 = 300
_EXPONENTS = range(-_E0, 310)
_POW10 = np.array([float(f"1e{e}") for e in _EXPONENTS])
_POINT_AFTER = np.array([e + 1 if 0 <= e < 9 else 0 if -4 <= e < 0 else 1
                         for e in _EXPONENTS])
_PREFIXES = [b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b""
             for e in _EXPONENTS]
_PREFIX_WORDS = np.concatenate([_words(_PREFIXES),
                                _words(b"-" + p for p in _PREFIXES)])
_SUFFIX_WORDS = _words(b"" if -4 <= e < 9 else b"e%+03d" % e
                       for e in _EXPONENTS)


def _mantissa_masks():
    """Masks and decimal points of a value's three mantissa words, as rows
    keyed by ``point_after * 10 + shown`` (see ``_float_cells``). Across
    the words, digit j sits at byte 6 + 2j and is kept if j < shown; the
    point slot after it is byte 7 + 2j, holding "." if j = point_after - 1
    and a digit follows."""
    after, shown = np.divmod(np.arange(100), 10)
    j = np.arange(9)
    keep = np.zeros((100, 24), np.uint8)
    point = np.zeros((100, 24), np.uint8)
    keep[:, 6::2] = 255 * (j < shown[:, None])
    point[:, 7::2] = ord(".") * ((j == after[:, None] - 1) &
                                 (after[:, None] < shown[:, None]))
    point, keep = point.view("<u8").T.copy(), keep.view("<u8").T.copy()
    return (*point, *keep[1:])


_POINT0, _POINT1, _POINT2, _KEEP1, _KEEP2 = _mantissa_masks()


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

    A cell is four words: sign, "0.000" prefix, lead digit and point; the
    next 4 digits and points; the last 4; the exponent suffix. Digits past
    the last significant one (or past the point, if later) are NUL.
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
    after = _POINT_AFTER[_E0 + e]
    key = after * 10 + np.maximum(np.maximum(_SHOWN_LOW[low],
                                             _SHOWN_HIGH[high]), after)
    prefix = _PREFIX_WORDS[np.signbit(x) * len(_EXPONENTS) + _E0 + e]
    suffix = _SUFFIX_WORDS[_E0 + e]
    words = np.empty((len(x), 4), "<u8")
    words[:, 0] = prefix | _LEAD_WORDS[lead] | _POINT0[key]
    words[:, 1] = _DIGITS4_SPREAD[high] & _KEEP1[key] | _POINT1[key]
    words[:, 2] = _DIGITS4_SPREAD[low] & _KEEP2[key] | _POINT2[key]
    words[:, 3] = suffix
    cells = words.view(np.uint8)[:, 0 if prefix.any() else 6:
                                 32 if suffix.any() else 24]
    where = np.flatnonzero(fallback)
    return _fallback_cells(cells, where, [
        b"%.9g" % v for v in x[where].tolist()])


def _int_cells(x):
    """``'%d' % v`` of each value of the integer array ``x``, as cells:
    values in [0, 1e16) by the 4-digit table, the rest one at a time."""
    x = x.astype(np.uint64 if x.dtype.kind == "u" else np.int64, copy=False)
    small = (x >= 0) & (x < 10 ** 16)
    v = x if small.all() else np.where(small, x, 0).astype(np.int64)
    width = 4 * -(-len(str(int(v.max(initial=0)))) // 4)
    parts = [v // 10 ** k % 10000 for k in range(width - 4, -4, -4)]
    cells = _DIGITS4[np.stack(parts, 1)].view(np.uint8).reshape(len(x), width)
    # Blank the leading zeros; 0 keeps its last digit.
    digits = np.maximum(np.searchsorted(_POW10_INT, v, side="right"), 1)
    cells *= np.arange(width) >= width - digits[:, None]
    where = np.flatnonzero(~small)
    return _fallback_cells(cells, where, [b"%d" % v for v in x[where].tolist()])


def _text_codes(x):
    """The code points of a str array, one row per value, NUL-padded."""
    x = np.ascontiguousarray(x, x.dtype.newbyteorder("="))
    return x.view(np.uint32).reshape(len(x), -1)


def _text_cells(x):
    return _text_codes(x).astype(np.uint8)


def _bool_cells(x):
    return _BOOL_WORDS[x.view(np.uint8)].view(np.uint8).reshape(len(x), 8)


def _cell_renderer(column):
    """The function that renders slices of ``column`` as cells, or None
    where the column takes the row path: it is not a plain array, or its
    text has no cell rule."""
    if not _plain_array(column):
        return None
    kind = column.dtype.kind
    if kind == "f":
        return _float_cells
    if kind in "iu":
        return _int_cells
    if kind == "b":
        return _bool_cells
    if kind == "U":
        # ASCII with no NUL but the padding (numpy drops trailing NULs
        # itself, as ``tolist()`` shows).
        codes = _text_codes(column)
        if codes.max(initial=0) < 128 and \
                not ((codes[:, :-1] == 0) & (codes[:, 1:] != 0)).any():
            return _text_cells
    return None


def _matrix_csv(data, renderers, n_rows: int):
    """The rows of a table whose every column has a cell renderer, as text
    chunks of ``_CHUNK_ROWS`` rows: per chunk, the float columns' cells come
    from one ``_float_cells`` call, every column's cells and the commas and
    newline go into one byte matrix, and its NULs are dropped."""
    floats = [k for k, render in enumerate(renderers) if render is _float_cells]
    for start in range(0, n_rows, _CHUNK_ROWS):
        part = slice(start, start + _CHUNK_ROWS)
        cells = [render(column[part]) if render is not _float_cells else None
                 for column, render in zip(data, renderers)]
        if floats:
            values = np.concatenate([data[k][part] for k in floats])
            stacked = _float_cells(values.astype(np.float64, copy=False))
            blocks = stacked.reshape(len(floats), -1, stacked.shape[1])
            for k, block in zip(floats, blocks):
                cells[k] = block
        widths = [c.shape[1] + 1 for c in cells]
        matrix = np.empty((len(cells[0]), sum(widths)), np.uint8)
        end = 0
        for c, width in zip(cells, widths):
            matrix[:, end:end + width - 1] = c
            end += width
            matrix[:, end - 1] = ord(",")
        matrix[:, -1] = ord("\n")
        yield matrix.tobytes().translate(None, b"\0").decode("ascii")


def _batched(texts, size: int = 1024):
    """The non-empty strings ``texts`` joined ``size`` at a time: a write per
    string costs more than joining them, and one joined string would hold
    the whole text."""
    texts = iter(texts)
    while chunk := "".join(islice(texts, size)):
        yield chunk


def _table_csv(table: Table, meta: dict):
    """The text of ``table``'s CSV file, in pieces rendered as they are
    iterated; the table is checked before the first one. A table whose
    every column is an array with a cell rule is written as byte matrices,
    any other row by row."""
    head = "".join(line + "\n" for line in _meta_lines(meta))
    head += ",".join(table.columns) + "\n"
    n_rows = _row_count(table)
    if not n_rows:
        return [head]
    renderers = list(map(_cell_renderer, table.data))
    if all(renderers):
        return chain([head], _matrix_csv(table.data, renderers, n_rows))
    specs, values = zip(*map(_csv_column, table.data))
    rows = map((",".join(specs) + "\n").__mod__, zip(*values))
    return chain([head], _batched(rows))


def emit_csv(bundle: ReportBundle, out_dir, prefix: str):
    """Write one CSV per table/histogram, each headed by the metadata.

    File naming: ``<prefix>_<table>.csv``. Returns the written paths; a
    bundle without tables writes none.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    histograms = [
        Table(h.name,
              ("bin_lo", "bin_hi", *(f"count_{label}" for label, _ in h.series)),
              (h.bin_edges[:-1], h.bin_edges[1:], *(c for _, c in h.series)))
        for h in bundle.histograms]
    written = []
    for table in (*bundle.tables, *histograms):
        path = out / f"{prefix}_{table.name}.csv"
        pieces = _table_csv(table, bundle.meta)  # checks the table first
        with path.open("w") as f:
            f.writelines(pieces)
        written.append(path)
    return written


def _json_text(value, depth: int) -> str:
    """``value`` as the document's encoder writes it ``depth`` levels deep."""
    return json.dumps(value, sort_keys=True, indent=2).replace(
        "\n", "\n" + "  " * depth)


# Nesting depth of a table's row list in the document
# (document -> "tables" -> name -> "rows"), and of the values in a row.
_ROWS_DEPTH = 3
_VALUE_DEPTH = _ROWS_DEPTH + 2


def _json_column(column):
    """The JSON text of each value of a column, by one C-level loop where
    the column holds a single plain type. ``float.__repr__`` spells
    non-finite floats ``nan``/``inf`` where JSON has ``NaN``/``Infinity``,
    so such a column is encoded value by value. The text of a column that
    is not a plain array is rendered here, so that a value the encoder
    rejects raises now."""
    kind, values = _typed_values(column)
    if kind is float and np.isfinite(column).all():
        texts = map(float.__repr__, values)
    elif kind is int:
        texts = map(int.__repr__, values)
    elif kind is bool:
        texts = map(_BOOL_TEXT.__getitem__, values)
    elif kind is str:
        texts = map(encode_basestring_ascii, values)
    else:
        texts = map(_json_text, values, repeat(_VALUE_DEPTH))
    return texts if _plain_array(column) else list(texts)


def _rows_json(table: Table):
    """The rows of ``table`` as ``json.dumps(indent=2)`` writes them in the
    document, rendered column by column: chunks of text, one per row and
    rendered as they are iterated, then the list's closing bracket. Raises
    here, not while iterated, for a value the encoder rejects."""
    if not _row_count(table):
        return ["[]"]
    outer = "\n" + "  " * (_ROWS_DEPTH + 1)
    inner = "\n" + "  " * _VALUE_DEPTH
    rows = map(("," + inner).join, zip(*map(_json_column, table.data)))
    openers = chain(["[" + outer + "[" + inner],
                    repeat(outer + "]," + outer + "[" + inner))
    return chain(map(str.__add__, openers, rows),
                 [outer + "]" + "\n" + "  " * _ROWS_DEPTH + "]"])


def emit_json(bundle: ReportBundle, path) -> Path:
    """Write the whole bundle as one hierarchical document, keys sorted.

    The text is that of ``json.dumps(doc, sort_keys=True, indent=2)`` for
    ``doc`` = {"histograms", "meta", "tables"}. The skeleton is written here,
    each value at its depth, and each table's rows are streamed in place.
    """
    tables = {t.name: t for t in bundle.tables}
    names = sorted(tables)
    histograms = {
        h.name: {"bin_edges": list(h.bin_edges),
                 "series": {label: list(counts) for label, counts in h.series}}
        for h in bundle.histograms}
    head = ('{\n  "histograms": ' + _json_text(histograms, 1) +
            ',\n  "meta": ' + _json_text(bundle.meta, 1) + ',\n  "tables": {')
    table_heads = [f'\n    {_json_text(name, 2)}: {{\n      "columns": '
                   f'{_json_text(list(tables[name].columns), 3)},\n      "rows": '
                   for name in names]
    for table in bundle.tables:
        _row_count(table)  # raises before the file is opened
    rows = [_rows_json(tables[name]) for name in names]  # so does this
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        f.write(head)
        for k, (table_head, table_rows) in enumerate(zip(table_heads, rows)):
            f.write(("," if k else "") + table_head)
            f.writelines(_batched(table_rows))
            f.write("\n    }")
        f.write("\n  }\n}\n" if names else "}\n}\n")
    return path
