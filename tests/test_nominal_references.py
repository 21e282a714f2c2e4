"""Nominal commands reproduce the benchmark's recorded reference outputs.

Runs every nominal command of ``benchmarks/workloads.py`` (calibrate,
truth-table, margin and sweep over both topologies and all gates) through
``cli.main`` and checks each outcome with ``benchmarks/checks.py`` against
``benchmarks/references.json``: the exit code and the digest of the data
rows must match. A refactor that must keep the same output bytes is held to
it here. Nothing under ``benchmarks/`` is written.
"""

import contextlib
import io
import json
import sys
import types
from pathlib import Path

from sotlogic import cli

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name):
    """Import a benchmark helper module under a name of its own, writing
    no bytecode cache into ``benchmarks/``."""
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    sys.modules[module.__name__] = module  # dataclasses look their module up
    exec(compile(path.read_text(), str(path), "exec"), vars(module))
    return module


def test_nominal_commands_match_references(tmp_path):
    checks, workloads = _load("checks"), _load("workloads")
    refs = json.loads((BENCH / "references.json").read_text())
    commands = workloads.nominal_commands(seed=0)
    assert len(commands) == 104
    problems = []
    for i, command in enumerate(commands):
        out = tmp_path / f"c{i:03d}"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(command.argv) + ["--out", str(out)])
        problems += [(command.ref_key, p) for p in checks.check_command(
            command, code, checks.read_outputs(out), refs.get(command.ref_key))]
    assert problems == []
