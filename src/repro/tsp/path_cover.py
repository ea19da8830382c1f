"""Exact alignment DTSP as a maximum-weight path cover.

Every row of an alignment matrix (:mod:`repro.core.costmatrix`) costs one
default, except toward a few CFG successors.  A tour's cost is therefore
Σ defaults − Σ w over the successor arcs it follows, where w = default −
cost > 0, and the arcs it follows form vertex-disjoint paths.  The
optimum is Σ defaults minus a maximum-weight path cover over the
profitable arcs — the fall-through-only (k = 1) case of Mestre, Pupyrev
and Umboh's Ext-TSP (arXiv:2107.07815).

:func:`path_cover` finds that cover by Carpaneto–Toth branching on the
profitable arcs only.  Each node solves the assignment relaxation on a
k×k matrix over the k cities the arcs touch — −w on each arc, 0
everywhere else, so a matching is any set of arcs with at most one out
and one in per city — and branches on a cycle made entirely of arcs that
are still profitable (child j forbids arc j by raising it to 0, and
commits arcs 0..j-1 by raising the rest of their rows and columns).  Both
moves only raise costs, so the pure backend warm-starts each child from
its parent (:meth:`~repro.tsp.assignment.PureAssignment.resolve`).  The
matchings hold a few dozen arcs, so the search takes a handful of nodes
where the dense :func:`~repro.tsp.branch_and_bound.branch_and_bound`
takes thousands.

The tsp aligner certifies its first run with it and the bound stage
returns its optimum; neither needs a tour, a node cap or any other hint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.budget import Budget, BudgetTimer, ensure_timer
from repro.tsp.assignment import assignment_solver
from repro.tsp.instance import tour_cost


@dataclass
class PathCover:
    """An optimal path cover and the tour it reconstructs."""

    #: The cover's paths joined into one tour, lowest head city first.
    tour: list[int]
    #: ``tour``'s cost under the matrix.
    cost: float
    #: Σ defaults − the cover's weight: no tour costs less.
    floor: float
    nodes: int

    @property
    def optimal(self) -> bool:
        """Whether the reconstructed tour attains the floor.  It always
        does on an alignment instance of a shipped model; an arc that
        costs more than its row's default (a hand-built model) can break
        the join."""
        return self.cost <= self.floor + 1e-9 * max(1.0, abs(self.floor))

    @property
    def bound(self) -> float:
        """The certified lower bound: the tour's cost when it is optimal,
        the floor otherwise."""
        return self.cost if self.optimal else self.floor


def _join(n: int, arcs: list[tuple[int, int]]) -> list[int]:
    """The tour that follows each path of ``arcs`` from its head, heads in
    ascending order (city 0, with no arc into it, comes first)."""
    successor = dict(arcs)
    has_pred = set(successor.values())
    tour: list[int] = []
    for head in range(n):
        if head in has_pred:
            continue
        city = head
        while city is not None:
            tour.append(city)
            city = successor.get(city)
    return tour


def path_cover(
    matrix: np.ndarray,
    defaults: np.ndarray,
    arcs: np.ndarray,
    *,
    budget: Budget | BudgetTimer | None = None,
) -> PathCover | None:
    """The maximum-weight path cover over ``arcs`` (shape ``(m, 2)``, row
    ``(src, dst)``, each cheaper than ``defaults[src]``), or None when
    ``budget`` expires first.

    ``matrix`` must cost ``defaults[i]`` on every other arc out of city
    ``i`` that a join can use; the result's ``optimal`` says whether it
    did.  Polls the budget at every node, adds the subproblems solved to
    ``path_cover.nodes``, and runs inside a ``path_cover`` span that
    records them and the arc count.
    """
    timer = ensure_timer(budget)
    n = matrix.shape[0]
    cities = np.unique(arcs)
    k = len(cities)
    local = np.searchsorted(cities, arcs)
    weights = defaults[arcs[:, 0]] - matrix[arcs[:, 0], arcs[:, 1]]
    # Any committed row or column entry above the whole weight sum makes
    # a matching that uses it worse than the empty cover.
    commit = float(weights.sum()) + 1.0
    root = np.zeros((k, k))
    root[local[:, 0], local[:, 1]] = -weights

    best = 0.0
    best_arcs: list[tuple[int, int]] = []
    nodes = 0
    expired = False
    solve = assignment_solver()
    stack: list[tuple[np.ndarray, object]] = [(root, None)] if k else []
    eps = 1e-9

    with obs.span("path_cover", cities=n, arcs=len(arcs)) as sp:
        while stack:
            if timer is not None and timer.expired:
                expired = True
                break
            work, parent = stack.pop()
            nodes += 1
            match, total, solution = solve(work, parent)
            if total >= best - eps:
                continue
            successor = match.tolist()
            used = {
                src: dst for src, dst in enumerate(successor)
                if work[src, dst] < 0.0
            }
            cycles = []
            seen = set()
            for start in used:
                if start in seen:
                    continue
                city = start
                while city in used and city not in seen:
                    seen.add(city)
                    city = used[city]
                if city == start:
                    cycle = [start]
                    while used[cycle[-1]] != start:
                        cycle.append(used[cycle[-1]])
                    cycles.append(cycle)
            if not cycles:
                best = total
                best_arcs = [
                    (int(cities[src]), int(cities[dst]))
                    for src, dst in used.items()
                ]
                continue
            # Child j forbids arc j of the shortest cycle and commits arcs
            # 0..j-1, on one running matrix (see branch_and_bound).
            shortest = min(cycles, key=len)
            running = work.copy()
            last = len(shortest) - 1
            for j, src in enumerate(shortest):
                dst = used[src]
                child = running.copy() if j < last else running
                child[src, dst] = 0.0
                stack.append((child, solution))
                if j < last:
                    keep = running[src, dst]
                    running[src, :] = commit
                    running[:, dst] = commit
                    running[src, dst] = keep
        sp["nodes"] = nodes

    obs.count("path_cover.nodes", nodes)
    if expired:
        return None
    tour = _join(n, best_arcs)
    return PathCover(
        tour=tour,
        cost=tour_cost(matrix, tour),
        floor=float(defaults.sum()) + best,
        nodes=nodes,
    )
