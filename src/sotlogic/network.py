"""Solved resistive networks: node voltages and labeled branch currents.

The closed-form gate networks in :mod:`.array` return these; the tests
cross-check them against a general nodal solver.
"""

from __future__ import annotations

from dataclasses import dataclass

GROUND = "gnd"


@dataclass(frozen=True)
class Branch:
    """One two-terminal element with its solved through-current (pos -> neg)."""

    name: str
    pos: str
    neg: str
    current: float


@dataclass(frozen=True)
class NetworkSolution:
    """Node voltages plus labeled branch currents of a solved network."""

    node_voltages: dict
    branches: tuple

    def voltage(self, node: str) -> float:
        if node == GROUND:
            return 0.0
        return self.node_voltages[node]

    def branch(self, name: str) -> Branch:
        for b in self.branches:
            if b.name == name:
                return b
        raise KeyError(f"no branch named {name!r}")

    def current(self, name: str) -> float:
        return self.branch(name).current

    def kcl_residual(self) -> float:
        """Worst node current imbalance, relative to the largest incident current."""
        net = {}
        scale = {}
        for b in self.branches:
            for node, sign in ((b.pos, +1.0), (b.neg, -1.0)):
                if node == GROUND:
                    continue
                net[node] = net.get(node, 0.0) + sign * b.current
                scale[node] = max(scale.get(node, 0.0), abs(b.current))
        worst = 0.0
        for node, imbalance in net.items():
            if scale[node] > 0.0:
                worst = max(worst, abs(imbalance) / scale[node])
            else:
                worst = max(worst, abs(imbalance))
        return worst
