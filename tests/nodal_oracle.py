"""General nodal solver for small linear resistive networks.

A dense modified-nodal-analysis build over numpy. The tests use it as the
oracle that cross-checks the closed-form gate networks of
``sotlogic.array``.
"""

from __future__ import annotations

import numpy as np

from sotlogic.network import GROUND, Branch, NetworkSolution


class SingularNetworkError(ValueError):
    """Network has no unique solution (floating subgraph, no source, ...)."""


class ResistiveNetwork:
    """Incremental builder for a linear resistive network.

    Nodes are referenced by name; ``gnd`` is the reference node. The network
    must contain at least one voltage source and every node must be reachable
    from ground, otherwise :class:`SingularNetworkError` is raised on solve.
    """

    def __init__(self):
        self._resistors = []   # (name, pos, neg, ohms)
        self._sources = []     # (name, pos, neg, volts)
        self._names = set()

    def add_resistor(self, name: str, pos: str, neg: str, ohms: float) -> None:
        if ohms <= 0.0:
            raise ValueError(f"resistor {name!r} must have positive resistance")
        self._register(name)
        self._resistors.append((name, pos, neg, float(ohms)))

    def add_voltage_source(self, name: str, pos: str, neg: str, volts: float) -> None:
        self._register(name)
        self._sources.append((name, pos, neg, float(volts)))

    def _register(self, name: str) -> None:
        if name in self._names:
            raise ValueError(f"duplicate element name {name!r}")
        self._names.add(name)

    def _check_connected(self, nodes: list) -> None:
        adjacency = {n: set() for n in nodes + [GROUND]}
        for _, pos, neg, _ in self._resistors + self._sources:
            adjacency[pos].add(neg)
            adjacency[neg].add(pos)
        seen = {GROUND}
        frontier = [GROUND]
        while frontier:
            for neighbor in adjacency[frontier.pop()]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        floating = [n for n in nodes if n not in seen]
        if floating:
            raise SingularNetworkError(
                f"floating subgraph with no ground reference: {sorted(floating)}")

    def solve(self) -> NetworkSolution:
        """Solve for node voltages and branch currents."""
        if not self._sources:
            raise SingularNetworkError("network has no voltage source")
        nodes = sorted({n for _, pos, neg, _ in self._resistors + self._sources
                        for n in (pos, neg) if n != GROUND})
        if not any(GROUND in (pos, neg)
                   for _, pos, neg, _ in self._resistors + self._sources):
            raise SingularNetworkError("no element references the ground node")
        self._check_connected(nodes)

        index = {n: i for i, n in enumerate(nodes)}
        n, m = len(nodes), len(self._sources)
        a = np.zeros((n + m, n + m))
        z = np.zeros(n + m)

        for _, pos, neg, ohms in self._resistors:
            g = 1.0 / ohms
            for node, other in ((pos, neg), (neg, pos)):
                if node == GROUND:
                    continue
                i = index[node]
                a[i, i] += g
                if other != GROUND:
                    a[i, index[other]] -= g

        for j, (_, pos, neg, volts) in enumerate(self._sources):
            col = n + j
            if pos != GROUND:
                a[index[pos], col] += 1.0
                a[col, index[pos]] += 1.0
            if neg != GROUND:
                a[index[neg], col] -= 1.0
                a[col, index[neg]] -= 1.0
            z[col] = volts

        try:
            x = np.linalg.solve(a, z)
        except np.linalg.LinAlgError as exc:
            raise SingularNetworkError(f"singular network: {exc}") from exc
        residual = np.linalg.norm(a @ x - z)
        if not np.isfinite(x).all() or residual > 1e-6 * max(1.0, np.linalg.norm(z)):
            raise SingularNetworkError("network solve did not converge")

        volts_of = {node: float(x[index[node]]) for node in nodes}

        def v(node):
            return 0.0 if node == GROUND else volts_of[node]

        branches = []
        for name, pos, neg, ohms in self._resistors:
            branches.append(Branch(name, pos, neg, (v(pos) - v(neg)) / ohms))
        for j, (name, pos, neg, _) in enumerate(self._sources):
            branches.append(Branch(name, pos, neg, float(x[n + j])))
        return NetworkSolution(node_voltages=volts_of, branches=tuple(branches))


def solve_general(net: ResistiveNetwork) -> NetworkSolution:
    """Nodal-analysis solution of an arbitrary linear resistive network."""
    return net.solve()
