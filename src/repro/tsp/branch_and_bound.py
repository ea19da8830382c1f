"""Exact DTSP solving by assignment-based branch and bound.

Carpaneto–Toth-style subtour branching: solve the assignment relaxation at
each node; if the cycle cover is a single tour it is optimal for the node,
otherwise branch on the arcs of the shortest subtour (child k forbids arc k
and commits arcs 1..k-1).  Given a good upper bound — the cost of an
iterated 3-Opt tour — this certifies optimality on general matrices the
bitmask DP (n ≤ 16) cannot reach.  Only the benchmark's bound probes
still time it; it never runs a heuristic of its own.  Alignment instances
have a sparser structure, and the aligner, the bound stage, the appendix
and ablation A2 search that instead (:mod:`repro.tsp.path_cover`).

The node loop is lean on purpose — a search can take thousands of nodes
(serve-cold's ``com`` instances take 4 157): the root matrix is validated
once, each later node re-optimizes its parent's assignment
(:meth:`~repro.tsp.assignment.PureAssignment.resolve`) and reads its
cycles from one ``tolist()``, and an expansion's children are built from
one running matrix that gains a commit per arc.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.budget import Budget, BudgetTimer, ensure_timer
from repro.tsp.assignment import PureAssignment
from repro.tsp.instance import check_matrix, tour_cost


@dataclass
class BnBResult:
    """Outcome of a branch-and-bound run."""

    tour: list[int]
    cost: float
    optimal: bool          # False when the node budget ran out
    nodes: int


def _cycles(successor: list[int]) -> list[list[int]]:
    """The cycles of a cycle cover, each from its lowest city, in order of
    that city (so the first one is the tour from city 0)."""
    seen = [False] * len(successor)
    cycles = []
    for start, done in enumerate(seen):
        if done:
            continue
        cycle = []
        city = start
        while not seen[city]:
            seen[city] = True
            cycle.append(city)
            city = successor[city]
        cycles.append(cycle)
    return cycles


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
    ``bnb.nodes`` counter, inside a ``bnb`` span that records them and
    the outcome.  The search
    is deterministic; ``seed`` is accepted for callers of the signature
    that seeded a heuristic incumbent, and ignored.
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
    # Each stack entry is the modified matrix of the subproblem (self-loops
    # forbidden) with its parent's solution to warm-start from.  Matrices
    # are small (alignment instances are a few hundred cities at most), so
    # copying beats bookkeeping.
    root = matrix.copy()
    np.fill_diagonal(root, forbid)
    stack: list[tuple[np.ndarray, PureAssignment | None]] = [(root, None)]
    eps = 1e-9

    with obs.span("bnb", cities=n) as sp:
        while stack:
            if nodes >= max_nodes or (timer is not None and timer.expired):
                optimal = False
                break
            work, parent = stack.pop()
            nodes += 1
            solution = (
                PureAssignment(work) if parent is None
                else parent.resolve(work)
            )
            total = solution.total
            if total >= best_cost - eps or total >= forbid:
                continue
            successor = solution.match.tolist()
            cycles = _cycles(successor)
            if len(cycles) == 1:
                tour = cycles[0]
                true_cost = tour_cost(matrix, tour)
                if true_cost < best_cost - eps:
                    best_cost = true_cost
                    best_tour = tour
                continue
            # Child k forbids arc k of the shortest subtour and commits
            # arcs 0..k-1 (every other arc leaving their sources or
            # entering their targets is forbidden).  The commits
            # accumulate on one running matrix, so each child is one copy
            # of it plus one forbidden arc (the last child takes the
            # running matrix itself).
            shortest = min(cycles, key=len)
            running = work.copy()
            last = len(shortest) - 1
            for k, src in enumerate(shortest):
                dst = successor[src]
                child = running.copy() if k < last else running
                child[src, dst] = forbid
                stack.append((child, solution))
                if k < last:
                    keep = running[src, dst]
                    running[src, :] = forbid
                    running[:, dst] = forbid
                    running[src, dst] = keep
        sp["nodes"] = nodes
        sp["optimal"] = optimal

    obs.count("bnb.nodes", nodes)
    return BnBResult(tour=best_tour, cost=best_cost, optimal=optimal, nodes=nodes)
