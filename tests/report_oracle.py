"""Row-by-row report emitters.

The straightforward serialization of ``sotlogic.report`` tables: a CSV table
rendered one value at a time with ``render_number``, and the JSON document
encoded whole by ``json.dumps``. The tests use them as the oracle that the
column-wise emitters of ``sotlogic.report`` must match byte for byte.
"""

from __future__ import annotations

import json

from sotlogic.report import ReportBundle, Table, _meta_lines, render_number


def table_csv(table: Table, meta: dict) -> str:
    lines = _meta_lines(meta)
    lines.append(",".join(table.columns))
    for row in table.rows:
        if len(row) != len(table.columns):
            raise ValueError(f"table {table.name!r}: row width mismatch")
        lines.append(",".join(render_number(v) for v in row))
    return "\n".join(lines) + "\n"


def json_text(bundle: ReportBundle) -> str:
    """The text ``emit_json`` writes for ``bundle``."""
    doc = {
        "meta": dict(bundle.meta),
        "tables": {
            t.name: {"columns": list(t.columns),
                     "rows": [list(r) for r in t.rows]}
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
