"""Deterministic serialization of simulation results to CSV and JSON.

Identical inputs serialize byte-for-byte identically: no timestamps, sorted
metadata, fixed column order, dot decimal separator, LF line endings, and
floats rendered with 9 significant digits in CSV (full precision in JSON so
round-trips are lossless). Table values are rendered a column at a time, by
one rule per column chosen from the column's value types.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from itertools import chain, count, islice, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .version import __version__

SIGNIFICANT_DIGITS = 9


@dataclass(frozen=True)
class Table:
    """A named table held as columns: ``data[k]`` holds the values of
    ``columns[k]``, one per row."""

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
    holds one sequence per column, all of one length."""
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


_BOOL_TEXT = {True: "true", False: "false"}


def _csv_column(column):
    """A column's ``%`` conversion spec and the values it converts: the
    values themselves where the column holds one plain type, else their
    ``render_number`` text. ``%.9g`` and ``%d`` write what ``render_number``
    writes for a float and an int."""
    kind = _column_type(column)
    if kind is float:
        return f"%.{SIGNIFICANT_DIGITS}g", column
    if kind is int:
        return "%d", column
    if kind is bool:
        return "%s", map(_BOOL_TEXT.__getitem__, column)
    if kind is str:
        return "%s", column
    return "%s", map(render_number, column)


def _table_csv(table: Table, meta: dict):
    """The lines of ``table``'s CSV file, each ending in a newline, rendered
    as they are iterated; the table is checked before the first one."""
    head = [line + "\n" for line in _meta_lines(meta)]
    head.append(",".join(table.columns) + "\n")
    if not _row_count(table):
        return head
    specs, values = zip(*map(_csv_column, table.data))
    return chain(head, map((",".join(specs) + "\n").__mod__, zip(*values)))


def _write_chunked(f, texts, size: int = 1024) -> None:
    """Write the non-empty strings ``texts`` to ``f``, ``size`` at a time:
    a write per string costs more than joining them, and one joined
    string would hold the whole text."""
    texts = iter(texts)
    while chunk := "".join(islice(texts, size)):
        f.write(chunk)


def emit_csv(bundle: ReportBundle, out_dir, prefix: str):
    """Write one CSV per table/histogram (metadata-only file if none).

    File naming: ``<prefix>_<table>.csv``. Returns the written paths.
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
        lines = _table_csv(table, bundle.meta)  # checks the table first
        with path.open("w") as f:
            _write_chunked(f, lines)
        written.append(path)
    if not written:
        path = out / f"{prefix}_meta.csv"
        lines = _meta_lines(bundle.meta) + ["key,value"]
        lines += [f"{k},{bundle.meta[k]}" for k in sorted(bundle.meta)]
        path.write_text("\n".join(lines) + "\n")
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
    so such a column is encoded value by value."""
    kind = _column_type(column)
    if kind is float and all(map(math.isfinite, column)):
        return map(float.__repr__, column)
    if kind is int:
        return map(int.__repr__, column)
    if kind is bool:
        return map(_BOOL_TEXT.__getitem__, column)
    if kind is str:
        return map(encode_basestring_ascii, column)
    return map(_json_text, column, repeat(_VALUE_DEPTH))


def _rows_json(table: Table):
    """The rows of ``table`` as ``json.dumps(indent=2)`` writes them in the
    document, rendered column by column: chunks of text, one per row and
    rendered as they are iterated, then the list's closing bracket."""
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

    The text is that of ``json.dumps(doc, sort_keys=True, indent=2)``. The
    document is encoded with a placeholder string for each table's rows,
    and each table's rows are rendered and written in place of theirs.
    """
    tables = {t.name: t for t in bundle.tables}
    names = sorted(tables)
    doc = {
        "meta": dict(bundle.meta),
        "histograms": {
            h.name: {"bin_edges": list(h.bin_edges),
                     "series": {label: list(counts)
                                for label, counts in h.series}}
            for h in bundle.histograms
        },
    }
    # Placeholders are salted anew until each occurs in the text exactly
    # once, so no string of the bundle is taken for one.
    for salt in count():
        placeholders = [f"\0rows {salt}.{i}" for i in range(len(names))]
        doc["tables"] = {
            name: {"columns": list(tables[name].columns), "rows": placeholder}
            for name, placeholder in zip(names, placeholders)
        }
        text = json.dumps(doc, sort_keys=True, indent=2)
        tokens = [json.dumps(placeholder) for placeholder in placeholders]
        if all(text.count(token) == 1 for token in tokens):
            break
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        for name, token in zip(names, tokens):
            head, _, text = text.partition(token)
            f.write(head)
            _write_chunked(f, _rows_json(tables[name]))
        f.write(text + "\n")
    return path
