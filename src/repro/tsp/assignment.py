"""Assignment problem (AP): Hungarian algorithm and the AP lower bound.

The AP relaxation of the DTSP — the minimum-cost collection of disjoint
directed cycles covering all cities — is the classic lower bound and the
basis of patching heuristics (Karp 1979).  The paper's appendix observes
that alignment instances often have a large AP-to-optimum gap (median 30%
on the esp.tl procedures where they differ), which is why the Held–Karp
bound and iterated 3-Opt are needed; the A2/appendix benches reproduce that
comparison with this module.

The from-scratch solver is the O(n³) shortest-augmenting-path Hungarian
algorithm with row/column potentials (the same scheme as Jonker–Volgenant),
implemented with numpy inner loops; its potentials let branch and bound
re-optimize a subproblem from its parent's solution
(:meth:`PureAssignment.resolve`).  It is the only solver: pure Python and
numpy, so every matching — and the patched tours and branch-and-bound
searches built on it — is the same on every host.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.tsp.instance import check_matrix


def solve_assignment(cost: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimum-cost perfect matching rows→columns.

    Returns ``(match, total)`` where ``match[i]`` is the column assigned to
    row ``i``.
    """
    solution = PureAssignment(check_matrix(cost))
    return solution.match, solution.total


class PureAssignment:
    """An optimal matching together with the row/column potentials that
    prove it optimal.

    :meth:`resolve` re-optimizes after costs *rise* — branch and bound only
    ever forbids arcs — by re-inserting just the rows whose matched arc got
    dearer: one augmenting path each, instead of one per row.  The old
    potentials stay feasible because no reduced cost fell.
    """

    def __init__(self, cost: np.ndarray) -> None:
        n = cost.shape[0]
        self.cost = cost
        # 1-based arrays; p[j] = row matched to column j (0 = none).
        self.u = np.zeros(n + 1)
        self.v = np.zeros(n + 1)
        self.p = np.zeros(n + 1, dtype=np.int64)
        self._insert(range(1, n + 1))

    def resolve(self, cost: np.ndarray) -> "PureAssignment":
        """The optimal matching for ``cost``, which must be ≥ this
        solution's cost matrix entry by entry."""
        child = copy.copy(self)
        child.cost = cost
        child.u, child.v, child.p = self.u.copy(), self.v.copy(), self.p.copy()
        rows = np.arange(cost.shape[0])
        match = self.match
        dearer = np.flatnonzero(cost[rows, match] > self.cost[rows, match])
        child.p[match[dearer] + 1] = 0
        child._insert(int(row) + 1 for row in dearer)
        return child

    def _insert(self, rows) -> None:
        """Match each 1-based row in ``rows`` by a shortest augmenting path
        over reduced costs (vectorized Dijkstra), updating the potentials."""
        n = self.cost.shape[0]
        inf = float("inf")
        u, v, p = self.u, self.v, self.p
        way = np.zeros(n + 1, dtype=np.int64)
        padded = np.zeros((n + 1, n + 1))
        padded[1:, 1:] = self.cost

        for i in rows:
            p[0] = i
            j0 = 0
            minv = np.full(n + 1, inf)
            used = np.zeros(n + 1, dtype=bool)
            while True:
                used[j0] = True
                i0 = p[j0]
                # Relax all unused columns against row i0 (vectorized).
                free = ~used
                free[0] = False
                cur = padded[i0] - u[i0] - v
                better = free & (cur < minv)
                minv[better] = cur[better]
                way[better] = j0
                candidates = np.where(free, minv, inf)
                j1 = int(np.argmin(candidates))
                delta = candidates[j1]
                u[p[used]] += delta
                v[used] -= delta
                minv[free] -= delta
                j0 = j1
                if p[j0] == 0:
                    break
            while j0 != 0:
                j1 = int(way[j0])
                p[j0] = p[j1]
                j0 = j1

    @property
    def match(self) -> np.ndarray:
        """``match[i]`` = the column assigned to row ``i``."""
        n = self.cost.shape[0]
        match = np.zeros(n, dtype=np.int64)
        match[self.p[1:] - 1] = np.arange(n)
        return match

    @property
    def total(self) -> float:
        total = 0.0
        for j in range(1, self.cost.shape[0] + 1):
            total += float(self.cost[self.p[j] - 1, j - 1])
        return total


@dataclass
class CycleCover:
    """An AP solution viewed as a directed cycle cover."""

    successor: np.ndarray
    cost: float

    def cycles(self) -> list[list[int]]:
        n = len(self.successor)
        seen = [False] * n
        cycles = []
        for start in range(n):
            if seen[start]:
                continue
            cycle = []
            city = start
            while not seen[city]:
                seen[city] = True
                cycle.append(city)
                city = int(self.successor[city])
            cycles.append(cycle)
        return cycles

    @property
    def is_tour(self) -> bool:
        return len(self.cycles()) == 1


def assignment_cycle_cover(matrix: np.ndarray) -> CycleCover:
    """Solve the AP relaxation of the DTSP (self-edges forbidden)."""
    matrix = check_matrix(matrix)
    n = matrix.shape[0]
    forbid = float(np.abs(matrix).max()) * n * 4.0 + 1.0
    work = matrix.copy()
    np.fill_diagonal(work, forbid)
    match, total = solve_assignment(work)
    return CycleCover(successor=match, cost=total)


def assignment_bound(matrix: np.ndarray) -> float:
    """The AP lower bound on the DTSP optimum."""
    return assignment_cycle_cover(matrix).cost
