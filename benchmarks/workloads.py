"""Benchmark workloads: the CLI argument lists one pass runs.

A workload is built from its name and the workload seed. Every command
carries ``--seed``; for ``mc`` commands that value is derived from the
workload seed, for the nominal commands it only reaches the report
metadata. Each command also states how many gate evaluations its report
covers, counted from the command itself and never from the program.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

TOPOLOGIES = ("2t1r", "vgsot")
GATES = ("nor", "nand", "or", "and")
NOMINAL_INPUTS = (2, 3, 4, 5)
SWEEP_POINTS = 250
# Each axis sweeps from half to 1.5 times its nominal value.
SWEEP_NOMINAL = {
    "2t1r": {"RA": 10.0, "TMR0": 1.0, "t_ox": 1.4e-9, "beta": 60e-15},
    "vgsot": {"RA": 650.0, "TMR0": 1.0, "t_ox": 1.4e-9, "beta": 60e-15},
}

MC_NARROW_TRIALS = 750
MC_NARROW_REPEATS = 2  # each of its two commands, with different seeds
MC_WIDE_TRIALS = 250
MC_WIDE_COMMANDS = 4


@dataclass(frozen=True)
class Command:
    """One CLI invocation, without ``--out``."""

    ref_key: str        # key of the command's entry in references.json
    argv: tuple         # CLI arguments, --seed included
    gate_evals: int     # patterns evaluated in the reported output
    mc_trials: int = 0  # trials per pattern; 0 for a nominal command

    @property
    def patterns(self) -> int:
        return 2 ** int(_flag(self.argv, "--inputs", "2"))

    def with_workers(self, workers: int) -> "Command":
        """The same command with ``--workers`` replaced, where it has one."""
        if "--workers" not in self.argv:
            return self
        argv = list(self.argv)
        argv[argv.index("--workers") + 1] = str(workers)
        return Command(self.ref_key, tuple(argv), self.gate_evals,
                       self.mc_trials)


@dataclass(frozen=True)
class Workload:
    name: str
    tail_pct: float     # percentile reported as cmd_tail_s
    commands: tuple

    @property
    def gate_evals(self) -> int:
        return sum(c.gate_evals for c in self.commands)

    @property
    def mc_evals(self) -> int:
        return sum(c.mc_trials * c.patterns for c in self.commands)

    @property
    def workers(self) -> int:
        return max((int(_flag(c.argv, "--workers", "1"))
                    for c in self.commands), default=1)


def _flag(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv else default


def mc_seed(workload: str, seed: int, index: int) -> int:
    """The ``mc --seed`` of command ``index``; below 2**32 by construction."""
    return random.Random(f"{workload}:{seed}:{index}").getrandbits(32)


def mc_command(topology, gate, inputs, trials, fmt, workers, seed) -> Command:
    key = f"mc --topology {topology} --gate {gate} --inputs {inputs}"
    argv = ("mc", "--topology", topology, "--gate", gate,
            "--inputs", str(inputs), "--trials", str(trials),
            "--format", fmt, "--workers", str(workers), "--seed", str(seed))
    return Command(key, argv, trials * 2 ** inputs, trials)


def nominal_commands(seed: int) -> list:
    commands = []
    for sub, topology, gate, inputs in itertools.product(
            ("calibrate", "truth-table", "margin"), TOPOLOGIES, GATES,
            NOMINAL_INPUTS):
        key = (sub, "--topology", topology, "--gate", gate,
               "--inputs", str(inputs))
        commands.append(Command(" ".join(key), key + ("--seed", str(seed)),
                                2 ** inputs))
    for topology in TOPOLOGIES:
        for axis, nominal in SWEEP_NOMINAL[topology].items():
            key = ("sweep", "--topology", topology, "--axis", axis,
                   "--min", repr(0.5 * nominal), "--max", repr(1.5 * nominal),
                   "--points", str(SWEEP_POINTS))
            commands.append(Command(" ".join(key), key + ("--seed", str(seed)),
                                    SWEEP_POINTS * 2 ** 2))  # --inputs 2
    return commands


def _mc_narrow(seed):
    return [mc_command(topology, gate, 2, MC_NARROW_TRIALS, "csv", 1,
                       mc_seed("mc_narrow", seed, 2 * k + j))
            for k in range(MC_NARROW_REPEATS)
            for j, (topology, gate) in enumerate((("2t1r", "nor"),
                                                  ("vgsot", "or")))]


def _mc_wide(seed):
    return [mc_command("vgsot", "and", 4, MC_WIDE_TRIALS, "json", 2,
                       mc_seed("mc_wide", seed, k))
            for k in range(MC_WIDE_COMMANDS)]


# name -> (percentile reported as cmd_tail_s, command-list function). The
# percentile is the highest of 50/75/90/99 that leaves at least ten latency
# samples beyond it in a 30 s run at the commit that defined the benchmark.
# Why each workload was chosen is stated in BENCHMARK.json.
_WORKLOADS = {
    "mc_narrow": (75.0, _mc_narrow),
    "mc_wide": (75.0, _mc_wide),
    "nominal_scan": (99.0, nominal_commands),
}

NAMES = tuple(_WORKLOADS)


def build(name: str, seed: int) -> Workload:
    tail_pct, commands = _WORKLOADS[name]
    return Workload(name, tail_pct, tuple(commands(seed)))
