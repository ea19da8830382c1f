"""Exact DTSP solving by assignment-based branch and bound.

Carpaneto–Toth-style subtour branching: solve the assignment relaxation at
each node; if the cycle cover is a single tour it is optimal for the node,
otherwise branch on the arcs of the shortest subtour (child k forbids arc k
and commits arcs 1..k-1).  Given a good upper bound — the cost of an
iterated 3-Opt tour, which the caller already has — this certifies
optimality on the mid-sized alignment instances the bitmask DP (n ≤ 16)
cannot reach: the tsp aligner uses it to stop searching at a proven
optimum, the bound stage to certify its floor, and the appendix bench to
measure true AP/HK gaps.  It never runs a heuristic of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.budget import Budget, BudgetTimer, ensure_timer
from repro.tsp.assignment import (
    CycleCover,
    PureAssignment,
    resolve_assignment_backend,
    solve_assignment,
)
from repro.tsp.instance import check_matrix, tour_cost, tour_from_successors


@dataclass
class BnBResult:
    """Outcome of a branch-and-bound run."""

    tour: list[int]
    cost: float
    optimal: bool          # False when the node budget ran out
    nodes: int


def _cycle_cover(
    work: np.ndarray, parent: PureAssignment | None, pure: bool
) -> tuple[CycleCover, PureAssignment | None]:
    """Solve one subproblem's assignment relaxation.  The pure backend
    re-optimizes its parent's solution (a child only forbids arcs); SciPy
    solves from scratch, which in C is cheaper than any warm start here."""
    if not pure:
        match, total = solve_assignment(work)
        return CycleCover(successor=match, cost=total), None
    solution = PureAssignment(work) if parent is None else parent.resolve(work)
    return CycleCover(successor=solution.match, cost=solution.total), solution


def branch_and_bound(
    matrix: np.ndarray,
    *,
    upper_bound: float | None = None,
    initial_tour: list[int] | None = None,
    max_nodes: int = 50_000,
    seed: int = 0,
    budget: Budget | BudgetTimer | None = None,
) -> BnBResult:
    """Solve the DTSP exactly (within ``max_nodes`` subproblems).

    Returns the best tour found and whether optimality was proved.  The
    incumbent is ``initial_tour`` (the identity tour when none is given)
    with its cost capped at ``upper_bound``: with only an upper bound the
    search proves that no tour beats it, and ``cost`` is then that bound
    rather than ``tour``'s cost.  An expired ``budget`` stops the node loop
    gracefully: the incumbent is returned with ``optimal=False`` (same
    contract as a node-limit hit).  Adds the subproblems solved to the
    ``bnb.nodes`` counter.  The search is deterministic; ``seed`` is
    accepted for callers of the signature that seeded a heuristic
    incumbent, and ignored.
    """
    matrix = check_matrix(matrix)
    timer = ensure_timer(budget)
    n = matrix.shape[0]
    forbid = float(np.abs(matrix).max()) * n * 4.0 + 1.0

    best_tour = list(initial_tour) if initial_tour is not None else list(range(n))
    best_cost = tour_cost(matrix, best_tour)
    if upper_bound is not None:
        best_cost = min(best_cost, upper_bound)

    nodes = 0
    optimal = True
    pure = resolve_assignment_backend() == "pure"
    # Each stack entry is the modified matrix of the subproblem (self-loops
    # forbidden) with its parent's pure-backend solution to warm-start
    # from.  Matrices are small (alignment instances are a few hundred
    # cities at most), so copying beats bookkeeping.
    root = matrix.copy()
    np.fill_diagonal(root, forbid)
    stack: list[tuple[np.ndarray, PureAssignment | None]] = [(root, None)]
    eps = 1e-9

    while stack:
        if nodes >= max_nodes or (timer is not None and timer.expired):
            optimal = False
            break
        work, parent = stack.pop()
        nodes += 1
        cover, solution = _cycle_cover(work, parent, pure)
        if cover.cost >= best_cost - eps or cover.cost >= forbid:
            continue
        cycles = cover.cycles()
        if len(cycles) == 1:
            tour = tour_from_successors(cover.successor, start=0)
            true_cost = tour_cost(matrix, tour)
            if true_cost < best_cost - eps:
                best_cost = true_cost
                best_tour = tour
            continue
        shortest = min(cycles, key=len)
        arcs = [
            (city, int(cover.successor[city]))
            for city in shortest
        ]
        committed: list[tuple[int, int]] = []
        for src, dst in arcs:
            child = work.copy()
            for csrc, cdst in committed:
                # Commit arc: forbid every alternative leaving csrc or
                # entering cdst.
                row = child[csrc].copy()
                child[csrc, :] = forbid
                child[csrc, cdst] = row[cdst]
                col = child[:, cdst].copy()
                child[:, cdst] = forbid
                child[csrc, cdst] = col[csrc]
            child[src, dst] = forbid
            stack.append((child, solution))
            committed.append((src, dst))

    obs.count("bnb.nodes", nodes)
    return BnBResult(tour=best_tour, cost=best_cost, optimal=optimal, nodes=nodes)
