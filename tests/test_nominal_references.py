"""Benchmark commands reproduce the benchmark's recorded reference outputs.

Runs every nominal command of ``benchmarks/workloads.py`` (calibrate,
truth-table, margin and sweep over both topologies and all gates) through
``cli.main`` and checks each outcome with ``benchmarks/checks.py`` against
``benchmarks/references.json``: the exit code and the digest of the data
rows must match. A refactor that must keep the same output bytes is held to
it here. The ``mc`` commands of the mc_narrow (CSV) and mc_wide (JSON)
workloads are checked the same way, which parses both report formats: the
trials table's size, the summary's agreement with it and the success
rates. Every command runs with warnings turned into errors, so a numpy
RuntimeWarning fails it. The benchmark's tracer must find every function
it times, so renaming or deleting one fails here. Nothing under
``benchmarks/`` is written.
"""

import contextlib
import io
import json
import sys
import types
import warnings
from pathlib import Path

import pytest

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


def _problems(commands, tmp_path) -> list:
    checks = _load("checks")
    refs = json.loads((BENCH / "references.json").read_text())
    problems = []
    for i, command in enumerate(commands):
        out = tmp_path / f"c{i:03d}"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()), \
                warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails
            code = cli.main(list(command.argv) + ["--out", str(out)])
        problems += [(command.ref_key, p) for p in checks.check_command(
            command, code, checks.read_outputs(out), refs.get(command.ref_key))]
    return problems


def test_nominal_commands_match_references(tmp_path):
    commands = _load("workloads").nominal_commands(seed=0)
    assert len(commands) == 104
    assert _problems(commands, tmp_path) == []


@pytest.mark.parametrize("workload", ["mc_narrow", "mc_wide"])
def test_mc_commands_match_references(tmp_path, workload):
    commands = _load("workloads").build(workload, 1).commands
    assert all(command.mc_trials for command in commands)
    assert _problems(commands, tmp_path) == []


def test_tracer_finds_every_traced_layer():
    tracing = _load("tracing")
    tracer = tracing.Tracer()  # raises AttributeError for a missing function
    bound = {(ns.__name__.split(".")[-1], func)
             for ns, func, _, _ in tracer._bindings}
    assert set(tracing.LAYERS.values()) <= bound  # its defining module
    assert len(tracer._bindings) == 29
