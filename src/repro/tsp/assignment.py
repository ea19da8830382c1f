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
(:meth:`PureAssignment.resolve`).  When SciPy is importable its C
``linear_sum_assignment`` is used instead for the *value*-consuming callers
(bounds, branch and bound); both backends find a minimum-cost matching, so
the optimal total is identical, but tie-broken matchings may differ — code
whose *output structure* feeds deterministic downstream results (patching)
pins ``backend="pure"``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.errors import UnknownNameError
from repro.tsp.instance import check_matrix

try:  # SciPy is optional: CI images carry only numpy + pytest.
    from scipy.optimize import linear_sum_assignment as _scipy_assignment
except ImportError:  # pragma: no cover - exercised on scipy-less installs
    _scipy_assignment = None

#: Backend choices for :func:`solve_assignment`.
ASSIGNMENT_BACKENDS = ("auto", "scipy", "pure")


def resolve_assignment_backend(backend: str | None = None) -> str:
    """Resolve an assignment backend name to a concrete implementation.

    ``auto`` (the default) picks SciPy's C solver when importable, else the
    pure-python Hungarian; asking for ``scipy`` without scipy installed is
    an error rather than a silent fallback.
    """
    choice = backend or "auto"
    if choice not in ASSIGNMENT_BACKENDS:
        known = ", ".join(ASSIGNMENT_BACKENDS)
        raise UnknownNameError(
            f"unknown assignment backend {choice!r} (known: {known})"
        )
    if choice == "scipy" and _scipy_assignment is None:
        raise UnknownNameError(
            "assignment backend 'scipy' requested but scipy is not installed"
        )
    if choice == "auto":
        return "scipy" if _scipy_assignment is not None else "pure"
    return choice


def solve_assignment(
    cost: np.ndarray, *, backend: str | None = None
) -> tuple[np.ndarray, float]:
    """Minimum-cost perfect matching rows→columns.

    Returns ``(match, total)`` where ``match[i]`` is the column assigned to
    row ``i``.  The minimum *total* is backend-independent; the matching
    itself is only guaranteed identical across environments with
    ``backend="pure"``.
    """
    match, total, _ = assignment_solver(backend)(check_matrix(cost), None)
    return match, total


def assignment_solver(backend: str | None = None):
    """The resolved backend's solver, ``solve(cost, parent) -> (match,
    total, state)``, for callers that validate one matrix and then solve
    many derived from it (branch and bound): it checks nothing.

    The pure backend returns its :class:`PureAssignment` as ``state`` and,
    given a ``parent`` state whose costs ``cost`` only raises, re-optimizes
    from it (:meth:`PureAssignment.resolve`).  SciPy solves from scratch,
    which in C is cheaper than any warm start here, and returns no state.
    """
    if resolve_assignment_backend(backend) == "scipy":
        return _scipy_solve
    return _pure_solve


def _scipy_solve(cost: np.ndarray, parent: None = None):
    rows, cols = _scipy_assignment(cost)
    match = np.asarray(cols, dtype=np.int64)
    return match, float(cost[rows, cols].sum()), None


def _pure_solve(cost: np.ndarray, parent: "PureAssignment | None" = None):
    solution = PureAssignment(cost) if parent is None else parent.resolve(cost)
    return solution.match, solution.total, solution


class PureAssignment:
    """The pure backend's optimal matching together with the row/column
    potentials that prove it optimal.

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


def assignment_cycle_cover(
    matrix: np.ndarray, *, backend: str | None = None
) -> CycleCover:
    """Solve the AP relaxation of the DTSP (self-edges forbidden)."""
    matrix = check_matrix(matrix)
    n = matrix.shape[0]
    forbid = float(np.abs(matrix).max()) * n * 4.0 + 1.0
    work = matrix.copy()
    np.fill_diagonal(work, forbid)
    match, total = solve_assignment(work, backend=backend)
    return CycleCover(successor=match, cost=total)


def assignment_bound(matrix: np.ndarray) -> float:
    """The AP lower bound on the DTSP optimum."""
    return assignment_cycle_cover(matrix).cost
