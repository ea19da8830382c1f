"""Exact alignment DTSP as a maximum-weight path cover.

Every row of an alignment matrix (:mod:`repro.core.costmatrix`) costs one
default, except toward a few CFG successors.  A tour's cost is therefore
Σ defaults − Σ w over the successor arcs it follows, where w = default −
cost > 0, and the arcs it follows form vertex-disjoint paths.  The
optimum is Σ defaults minus a maximum-weight path cover over the
profitable arcs — the fall-through-only (k = 1) case of Mestre, Pupyrev
and Umboh's Ext-TSP (arXiv:2107.07815).

:func:`path_cover` finds that cover by Carpaneto–Toth branching on the
profitable arcs only.  Each node relaxes "paths" to "at most one arc out
and one in per city" — a maximum-weight matching over the arcs the node
leaves open, which :func:`max_weight_matching` solves sparsely — and
branches on the uncommitted arcs of the matching's shortest cycle (child
j forbids arc j and commits arcs 0..j-1).  Dropping the lightest arc of
each cycle turns every node's matching into a cover, so the search holds
an incumbent from its first node: it prunes against it, and an expired
budget hands its joined tour on as the best tour found so far.  The
matchings hold a few dozen arcs, so the search takes a handful of nodes.

The tsp aligner lays out the cover's tour and the bound stage returns its
cost; neither needs a heuristic tour, a node cap or any other hint.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.budget import Budget, BudgetTimer, ensure_timer
from repro.errors import SolverBudgetExceeded
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


def max_weight_matching(
    out: list[list[tuple[int, float]]],
) -> tuple[list[int], float]:
    """A maximum-weight matching of rows to columns ``0..len(out)-1``:
    ``out[i]`` lists row ``i``'s arcs as ``(column, weight > 0)``, and each
    row and each column takes at most one arc.  Returns the column of
    each row (-1 = none) and the matching's weight.

    Successive shortest paths with potentials, in min-cost form (an arc
    costs −w): every row has a private zero-cost "unmatched" column, so
    every row is matched.  Rows start on their heaviest free arc (in
    ``out`` order among equals), or on their private column when they
    have no arc; each row left over is inserted by one Dijkstra over
    reduced costs, ties broken by (distance, column), private columns
    last.  Pure Python, so the result is the same on every host.
    """
    k = len(out)
    inf = float("inf")
    push, pop = heapq.heappush, heapq.heappop
    # Row potentials start at each row's cheapest option (its private
    # column costs 0), column potentials at 0; a column, once matched,
    # stays matched, so a free one keeps 0 and the duals prove optimality.
    u = [0.0] * k
    v = [0.0] * k
    owner = [-1] * k            # row matched to each column
    match = [-2] * k            # column of each row, -1 = private, -2 = none
    for i, arcs in enumerate(out):
        if not arcs:
            match[i] = -1
            continue
        top = arcs[0][1] if len(arcs) == 1 else max(w for _, w in arcs)
        u[i] = -top
        for j, w in arcs:
            if w == top and owner[j] < 0:
                owner[j], match[i] = i, j
                break

    for s in range(k):
        if match[s] != -2:
            continue
        dist: dict[int, float] = {}   # tentative distance of each column
        way: dict[int, int] = {}      # the row each column was reached from
        done: dict[int, float] = {}   # distance of each scanned column
        scanned = {s: 0.0}            # distance of each scanned row
        heap: list[tuple[float, int]] = []
        row, d = s, 0.0
        while True:
            base = d - u[row]
            for j, w in out[row]:
                nd = base - w - v[j]
                if j not in done and nd < dist.get(j, inf):
                    dist[j] = nd
                    way[j] = row
                    push(heap, (nd, j))
            # The row's private column costs 0 and is free: a row that
            # sits on its own is never reached from another.
            dist[k + row] = base
            way[k + row] = row
            push(heap, (base, k + row))
            while True:
                d, j = pop(heap)
                if j not in done and dist[j] == d:
                    break
            if j >= k or owner[j] < 0:
                break
            done[j] = d
            row = owner[j]
            scanned[row] = d
        # Re-price what was scanned by its distance below the augmenting
        # path's length d, then flip the path.
        for col, dc in done.items():
            v[col] -= d - dc
        for r, dr in scanned.items():
            u[r] += d - dr
        while True:
            row = way[j]
            previous = match[row]
            if j >= k:
                match[row] = -1
            else:
                match[row], owner[j] = j, row
            if row == s:
                break
            j = previous
    total = 0.0
    for i, arcs in enumerate(out):
        for j, w in arcs:
            if match[i] == j:
                total += w
                break
    return match, total


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


def _cycles(used: dict[int, int]) -> list[list[int]]:
    """The cycles of a matching given as ``{src: dst}``, each from the
    first of its cities in ``used`` order."""
    cycles = []
    seen: set[int] = set()
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
    return cycles


def path_cover(
    matrix: np.ndarray,
    defaults: np.ndarray,
    arcs: np.ndarray,
    *,
    budget: Budget | BudgetTimer | None = None,
) -> PathCover:
    """The maximum-weight path cover over ``arcs`` (shape ``(m, 2)``, row
    ``(src, dst)``, each cheaper than ``defaults[src]``).

    ``matrix`` must cost ``defaults[i]`` on every other arc out of city
    ``i`` that a join can use; the result's ``optimal`` says whether it
    did.  Polls the budget at every node and raises
    :class:`~repro.errors.SolverBudgetExceeded` on expiry, carrying the
    best cover found so far as a joined tour (``best_so_far``).  Adds the
    subproblems solved to ``path_cover.nodes`` and runs inside a
    ``path_cover`` span that records them and the arc count.
    """
    timer = ensure_timer(budget)
    n = matrix.shape[0]
    cities = np.unique(arcs).tolist()
    k = len(cities)
    local = np.searchsorted(cities, arcs).tolist()
    gains = (defaults[arcs[:, 0]] - matrix[arcs[:, 0], arcs[:, 1]]).tolist()
    weight = {(src, dst): w for (src, dst), w in zip(local, gains)}
    # Each row's arcs heaviest first, then by head (the matcher's tie
    # order), and the rows with an arc into each city.
    root: list[list[tuple[int, float]]] = [[] for _ in range(k)]
    into: list[list[int]] = [[] for _ in range(k)]
    for (src, dst), w in sorted(
        weight.items(), key=lambda item: (-item[1], item[0][1])
    ):
        root[src].append((dst, w))
        into[dst].append(src)
    eps = 1e-9 * max(1.0, sum(gains))

    def joined(cover: list[tuple[int, int]]) -> list[int]:
        return _join(n, [(cities[src], cities[dst]) for src, dst in cover])

    best = 0.0
    best_arcs: list[tuple[int, int]] = []
    nodes = 0
    # A node: each row's open arcs, its committed arcs and their weight,
    # and its parent's weight.  A committed arc's row has no open arc and
    # no other row has one into its head.
    stack = [(root, (), 0.0, float("inf"))] if k else []

    with obs.span("path_cover", cities=n, arcs=len(local)) as sp:
        try:
            while stack:
                out, committed, gained, ceiling = stack.pop()
                if ceiling <= best + eps:
                    continue
                if timer is not None:
                    timer.check(where="path-cover")
                nodes += 1
                match, total = max_weight_matching(out)
                total += gained
                if total <= best + eps:
                    continue
                used = {src: dst for src, dst in enumerate(match) if dst >= 0}
                used.update(committed)
                cycles = _cycles(used)
                # Dropping each cycle's lightest arc leaves a cover.
                lightest = [
                    min(((c, used[c]) for c in cycle), key=weight.__getitem__)
                    for cycle in cycles
                ]
                cover = total - sum(weight[arc] for arc in lightest)
                if cover > best + eps:
                    best = cover
                    best_arcs = [a for a in used.items() if a not in lightest]
                if not cycles:
                    continue
                # Child j forbids free arc j of the cycle with the fewest
                # free (uncommitted) arcs and commits free arcs 0..j-1.
                fixed = dict(committed)
                free = min(
                    (
                        [(c, used[c]) for c in cycle if c not in fixed]
                        for cycle in cycles
                    ),
                    key=len,
                )
                running = list(out)
                for src, dst in free:
                    child = list(running)
                    child[src] = [a for a in running[src] if a[0] != dst]
                    stack.append((child, committed, gained, total))
                    running[src] = []
                    for row in into[dst]:
                        if row != src:
                            running[row] = [
                                a for a in running[row] if a[0] != dst
                            ]
                    committed += ((src, dst),)
                    gained += weight[src, dst]
        except SolverBudgetExceeded as exc:
            exc.best_so_far = joined(best_arcs)
            raise
        finally:
            sp["nodes"] = nodes
            obs.count("path_cover.nodes", nodes)

    tour = joined(best_arcs)
    return PathCover(
        tour=tour,
        cost=tour_cost(matrix, tour),
        floor=float(defaults.sum()) - best,
        nodes=nodes,
    )
