"""Row-by-row report emitters.

The straightforward serialization of ``sotlogic.report`` tables: a CSV table
or histogram rendered one value at a time with ``render_number``, and the
JSON document encoded whole by ``json.dumps``. Tables are given here as
rows, so callers transpose ``Table.data``. The tests use these emitters as
the oracle that the column-wise emitters of ``sotlogic.report`` must match
byte for byte.
"""

from __future__ import annotations

import json

from sotlogic.report import SIGNIFICANT_DIGITS, HistogramTable, \
    ReportBundle, _meta_lines


def render_number(value) -> str:
    """A CSV cell's text: a bool in lower case, a float at
    ``SIGNIFICANT_DIGITS`` significant digits, anything else by ``str``."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, f".{SIGNIFICANT_DIGITS}g")
    return str(value)


def rows_of(table) -> list:
    """The rows of a column-held ``Table``: the values of its columns'
    ``tolist()``."""
    return [list(row) for row in zip(*(c.tolist() for c in table.data))]


def table_csv(columns, rows, meta: dict) -> str:
    lines = _meta_lines(meta)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(render_number(v) for v in row))
    return "\n".join(lines) + "\n"


def histogram_csv(hist: HistogramTable, meta: dict) -> str:
    labels = [label for label, _ in hist.series]
    lines = _meta_lines(meta)
    lines.append(",".join(["bin_lo", "bin_hi"] + [f"count_{l}" for l in labels]))
    for b in range(len(hist.bin_edges) - 1):
        row = [hist.bin_edges[b], hist.bin_edges[b + 1]]
        row += [counts[b] for _, counts in hist.series]
        lines.append(",".join(render_number(v) for v in row))
    return "\n".join(lines) + "\n"


def json_text(bundle: ReportBundle) -> str:
    """The text ``emit_json`` writes for ``bundle``."""
    doc = {
        "meta": dict(bundle.meta),
        "tables": {
            t.name: {"columns": list(t.columns), "rows": rows_of(t)}
            for t in bundle.tables
        },
        "histograms": {
            h.name: {"bin_edges": list(h.bin_edges),
                     "series": {label: list(counts)
                                for label, counts in h.series}}
            for h in bundle.histograms
        },
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
