"""Output checks for benchmark commands.

A command passes when it returns the exit code recorded in
``references.json`` and its output matches the reference:

* nominal commands: the data rows (everything but the ``#`` metadata lines
  of a CSV, everything but ``meta`` of a JSON report) hash to the recorded
  digest;
* ``mc`` commands: the trials table has patterns x trials rows, the summary
  agrees with the trials table, and each pattern's success rate lies within
  a binomial tolerance of the reference rate. A change of random stream
  passes; a change of physics moves the rates and fails.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

RATE_Z = 5.0  # tolerance in standard errors of the rate difference


def read_outputs(out_dir, since_ns=0) -> dict:
    """File name -> bytes of every report a command wrote, leaving out
    files last modified before ``since_ns`` (nanoseconds since the epoch)."""
    out = Path(out_dir)
    if not out.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.stat().st_mtime_ns >= since_ns}


def raw_digest(files: dict) -> str:
    h = hashlib.sha256()
    for name, data in sorted(files.items()):
        h.update(name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def data_digest(files: dict) -> str:
    """Digest of the report data, metadata excluded."""
    h = hashlib.sha256()
    for name, data in sorted(files.items()):
        h.update(name.encode() + b"\n")
        if name.endswith(".json"):
            doc = json.loads(data)
            doc.pop("meta", None)
            h.update(json.dumps(doc, sort_keys=True).encode())
        else:
            for line in data.decode().splitlines():
                if not line.startswith("#"):
                    h.update(line.encode() + b"\n")
    return h.hexdigest()


def _csv_table(data: bytes):
    lines = [l for l in data.decode().splitlines() if not l.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def mc_tables(files: dict):
    """(summary columns, summary rows, trials columns, trials rows)."""
    if "mc_report.json" in files:
        tables = json.loads(files["mc_report.json"])["tables"]
        summary, trials = tables["summary"], tables["trials"]
        return (summary["columns"], summary["rows"],
                trials["columns"], trials["rows"])
    s_cols, s_rows = _csv_table(files["mc_summary.csv"])
    t_cols, t_rows = _csv_table(files["mc_trials.csv"])
    return s_cols, s_rows, t_cols, t_rows


def rate_tolerance(p_ref: float, n: int, n_ref: int) -> float:
    """Allowed |rate - reference rate| for n trials against n_ref."""
    var = max(p_ref * (1.0 - p_ref), 1.0 / n)
    return RATE_Z * math.sqrt(var * (1.0 / n + 1.0 / n_ref))


def check_mc(files: dict, trials: int, patterns: int, ref: dict) -> list:
    try:
        s_cols, s_rows, t_cols, t_rows = mc_tables(files)
        i_pat, i_ok = t_cols.index("pattern"), t_cols.index("success")
        i_trials, i_succ = s_cols.index("trials"), s_cols.index("successes")
    except (KeyError, ValueError, IndexError) as exc:
        return [f"unreadable mc report: {exc!r}"]
    problems = []
    if len(t_rows) != patterns * trials:
        problems.append(f"trials table has {len(t_rows)} rows, expected "
                        f"{patterns * trials}")
    counted = {}
    for row in t_rows:
        ok = row[i_ok] in (True, "true")
        counted[str(row[i_pat])] = counted.get(str(row[i_pat]), 0) + ok
    in_cols = [k for k, c in enumerate(s_cols) if c.startswith("IN")]
    rates = ref["rates"]
    seen = set()
    for row in s_rows:
        label = "".join(str(row[k]) for k in in_cols)
        seen.add(label)
        n, successes = int(row[i_trials]), int(row[i_succ])
        if n != trials:
            problems.append(f"pattern {label}: {n} trials, expected {trials}")
            continue
        if counted.get(label, 0) != successes:
            problems.append(f"pattern {label}: summary says {successes} "
                            f"successes, trials table {counted.get(label, 0)}")
        if label not in rates:
            continue
        rate, p_ref = successes / n, rates[label]
        tol = rate_tolerance(p_ref, n, ref["trials"])
        if abs(rate - p_ref) > tol:
            problems.append(f"pattern {label}: success rate {rate:.4f} is "
                            f"outside {p_ref:.4f} +/- {tol:.4f}")
    if seen != set(rates):
        problems.append(f"patterns {sorted(seen)} differ from the reference "
                        f"{sorted(rates)}")
    return problems


def check_command(command, exit_code, files: dict, ref: dict | None) -> list:
    """Problems found in one command's outcome; empty when it passes."""
    if ref is None:
        return [f"no reference for {command.ref_key!r}"]
    if exit_code != ref["exit"]:
        return [f"exit code {exit_code!r}, expected {ref['exit']}"]
    if command.mc_trials:
        return check_mc(files, command.mc_trials, command.patterns, ref)
    try:
        digest = data_digest(files)
    except ValueError as exc:
        return [f"unreadable report: {exc!r}"]
    if digest != ref["data_sha256"]:
        return ["data rows differ from the reference"]
    return []
