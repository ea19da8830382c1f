"""List-based iterated 3-Opt: the reference the solver kernel is tested against.

This is the pre-kernel solver, kept as test code only.  The kernel's
``descend(or_opt=False)`` must replay :meth:`ThreeOptSearch.optimize` move
for move, and :func:`repro.tsp.kernel.kernel_iterated_three_opt` must
never cost more than :func:`iterated_three_opt` for the same effort and
seed (``tests/tsp/test_kernel.py``, ``tests/properties/test_property_tsp.py``).

:class:`ThreeOptSearch` searches the orientation-preserving directed 3-opt
moves — remove edges (a,a⁺), (b,b⁺), (c,c⁺) with a…b…c in cyclic order and
reconnect as a→b⁺…c→a⁺…b→c⁺ — with sorted candidate neighbor lists,
positive-gain pruning, first improvement and don't-look bits.
:func:`iterated_three_opt` repeats double-bridge kick + full re-descent,
keeping a kicked tour when it is no worse.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.budget import Budget, BudgetTimer, ensure_timer
from repro.errors import SolverBudgetExceeded
from repro.tsp.instance import check_matrix, out_neighbor_lists, tour_cost
from repro.tsp.kernel import RunResult, SolveResult, _construct

_EPS = 1e-9

#: Budget poll period inside the descent loop: one wall-clock read per this
#: many queue pops keeps the overhead unmeasurable.
_BUDGET_POLL = 64


@dataclass
class SearchStats:
    """Counters for one local-search run (used by reports and tests)."""

    moves: int = 0
    scans: int = 0


class ThreeOptSearch:
    """Reusable directed 3-opt engine for one cost matrix."""

    def __init__(self, matrix: np.ndarray, *, neighbors: int = 12):
        self.matrix = check_matrix(matrix)
        self.n = self.matrix.shape[0]
        self.out_neigh = out_neighbor_lists(self.matrix, neighbors)
        # In-neighbors: cities c with small c(c, j), for the second move form.
        self.in_neigh = out_neighbor_lists(self.matrix.T, neighbors)

    def optimize(
        self, tour: list[int], *, budget: BudgetTimer | None = None
    ) -> tuple[list[int], SearchStats]:
        """Run 3-opt to a local optimum, returning a new tour.

        ``budget`` (a running :class:`~repro.budget.BudgetTimer`) is polled
        every few queue pops; an expired wall clock aborts the descent by
        raising :class:`~repro.errors.SolverBudgetExceeded`.  The partially
        descended tour is discarded — callers salvage their last complete
        tour instead.
        """
        n = self.n
        stats = SearchStats()
        if n < 4:
            return list(tour), stats
        tour = list(tour)
        pos = [0] * n
        for i, city in enumerate(tour):
            pos[city] = i

        dont_look = [False] * n
        queue = list(tour)
        queued = [True] * n

        def wake(city: int) -> None:
            dont_look[city] = False
            if not queued[city]:
                queued[city] = True
                queue.append(city)

        pops = 0
        while queue:
            pops += 1
            if budget is not None and pops % _BUDGET_POLL == 0:
                budget.check(where="3opt-descent")
            a = queue.pop()
            queued[a] = False
            if dont_look[a]:
                continue
            improved = self._improve_from(a, tour, pos, stats, wake)
            if improved:
                wake(a)
            else:
                dont_look[a] = True
        return tour, stats

    # -- move search --------------------------------------------------------

    def _improve_from(self, a, tour, pos, stats, wake) -> bool:
        """Try to find one improving move with first removed edge (a, a+)."""
        w = self.matrix
        n = self.n
        pa = pos[a]
        a_next = tour[(pa + 1) % n]
        w_a = w[a, a_next]

        def sigma(city: int) -> int:
            return (pos[city] - pa) % n

        for b_next in self.out_neigh[a]:
            b_next = int(b_next)
            gain1 = w_a - w[a, b_next]
            if gain1 <= _EPS:
                break  # neighbor lists are sorted: no further candidate helps
            sb_next = sigma(b_next)
            if sb_next <= 1:  # b_next is a or a+: degenerate
                continue
            b = tour[(pos[b_next] - 1) % n]
            w_b = w[b, b_next]
            stats.scans += 1

            # Form 1: pick the third removed edge via out-neighbors of b.
            for c_next in self.out_neigh[b]:
                c_next = int(c_next)
                gain2 = gain1 + w_b - w[b, c_next]
                if gain2 <= _EPS:
                    break
                sc_next = sigma(c_next)
                # need sigma(c) in [sigma(b)+1 .. n-1] i.e. sigma(c+) in
                # [sigma(b+)+1 .. n-1] or c+ == a (sigma 0).
                if sc_next == 0:
                    sc = n - 1
                elif sc_next > sb_next:
                    sc = sc_next - 1
                else:
                    continue
                c = tour[(pa + sc) % n]
                delta = -gain2 + w[c, a_next] - w[c, tour[(pa + sc + 1) % n]]
                if delta < -_EPS:
                    self._apply(tour, pos, pa, sb_next - 1, sc)
                    stats.moves += 1
                    for city in (a, a_next, b, b_next, c, c_next):
                        wake(city)
                    return True

            # Form 2: pick c via in-neighbors of a+ (short new edge (c, a+)).
            for c in self.in_neigh[a_next]:
                c = int(c)
                sc = sigma(c)
                if not (sb_next <= sc <= n - 1):
                    continue
                c_next = tour[(pa + sc + 1) % n]
                gain2 = gain1 + w[c, c_next] - w[c, a_next]
                if gain2 <= _EPS:
                    # Not monotone in the (c, a+) ordering, so skip rather
                    # than break: w(c, c+) varies per candidate.
                    continue
                delta = -gain2 + w[b, c_next] - w_b
                if delta < -_EPS:
                    self._apply(tour, pos, pa, sb_next - 1, sc)
                    stats.moves += 1
                    for city in (a, a_next, b, b_next, c, c_next):
                        wake(city)
                    return True
        return False

    def _apply(self, tour, pos, pa, sb, sc) -> None:
        """Reconnect a→b⁺…c→a⁺…b→c⁺.

        ``pa`` is the tour index of a; ``sb``/``sc`` are the offsets (from a)
        of b and c.  Rebuilds the tour with a at index 0.
        """
        n = self.n
        rotated = tour[pa:] + tour[:pa]
        new_tour = (
            [rotated[0]]
            + rotated[sb + 1: sc + 1]
            + rotated[1: sb + 1]
            + rotated[sc + 1:]
        )
        tour[:] = new_tour
        for i, city in enumerate(tour):
            pos[city] = i


def double_bridge(tour: list[int], rng: random.Random) -> list[int]:
    """The classic 4-opt double-bridge kick: A B C D → A C B D.

    Preserves every segment's orientation, so it is directly usable on
    directed tours.
    """
    n = len(tour)
    if n < 8:
        # Tiny tours: rotate-and-swap two random cities instead.
        kicked = list(tour)
        if n >= 4:
            i, j = rng.sample(range(1, n), 2)
            kicked[i], kicked[j] = kicked[j], kicked[i]
        return kicked
    cuts = sorted(rng.sample(range(1, n), 3))
    i, j, k = cuts
    return tour[:i] + tour[j:k] + tour[i:j] + tour[k:]


def iterated_three_opt(
    matrix: np.ndarray,
    *,
    starts: tuple[str, ...] = ("greedy", "nn", "identity"),
    iterations: int | None = None,
    neighbors: int = 12,
    seed: int = 0,
    budget: Budget | BudgetTimer | None = None,
) -> SolveResult:
    """Run iterated 3-opt from each start; return the best tour found.

    ``iterations`` is the number of kick/re-descend steps per run; the
    paper uses 2N (pass ``None`` for that default).  A ``budget`` is
    checked at every start and kick boundary (and periodically inside the
    3-opt descent); on expiry :class:`SolverBudgetExceeded` propagates with
    the best complete tour found so far attached as ``best_so_far``.
    """
    matrix = check_matrix(matrix)
    n = matrix.shape[0]
    rng = random.Random(seed)
    search = ThreeOptSearch(matrix, neighbors=neighbors)
    kicks = 2 * n if iterations is None else iterations
    timer = ensure_timer(budget)

    best_tour: list[int] | None = None
    best_cost = float("inf")
    # Best locally-optimal tour seen at *any* boundary — only used to
    # salvage work when the budget expires mid-run.
    seen_tour: list[int] | None = None
    seen_cost = float("inf")
    runs: list[RunResult] = []
    try:
        for start_kind in starts:
            if timer is not None:
                timer.check(where="iterated-3opt")
            with obs.span("tsp_run", start=start_kind):
                obs.count("tsp.runs")
                current, _ = search.optimize(
                    _construct(start_kind, matrix, rng), budget=timer
                )
                current_cost = tour_cost(matrix, current)
                if current_cost < seen_cost:
                    seen_tour, seen_cost = current, current_cost
                run_best = current_cost
                for _ in range(kicks):
                    if timer is not None:
                        timer.tick(where="iterated-3opt")
                    obs.count("tsp.kicks")
                    candidate, _ = search.optimize(
                        double_bridge(current, rng), budget=timer
                    )
                    candidate_cost = tour_cost(matrix, candidate)
                    if candidate_cost <= current_cost + 1e-9:
                        if candidate_cost < current_cost - 1e-9:
                            obs.count("tsp.improving_moves")
                        current, current_cost = candidate, candidate_cost
                        run_best = min(run_best, current_cost)
                        if current_cost < seen_cost:
                            seen_tour, seen_cost = current, current_cost
                runs.append(RunResult(start_kind, run_best, kicks))
            if current_cost < best_cost:
                best_tour, best_cost = current, current_cost
    except SolverBudgetExceeded as exc:
        if exc.best_so_far is None and seen_tour is not None:
            exc.best_so_far = seen_tour
        raise
    assert best_tour is not None
    return SolveResult(tour=best_tour, cost=best_cost, runs=runs)
