"""Iterated 3-Opt on a flat-array DTSP solver kernel.

This is the heuristic behind :func:`repro.tsp.solve.solve_dtsp`: the
paper's appendix solver, iterated 3-Opt with double-bridge kicks
(Martin–Otto–Felten large-step Markov chains).  Each *run* starts from a
construction tour, descends to a 3-opt local optimum, and then repeats:
random double-bridge kick (the orientation-preserving 4-opt move, legal
for directed tours), re-descend, keep the result when it is no worse.  The
``paper`` effort performs 10 runs per instance — 5 randomized Greedy
starts, 4 randomized Nearest-Neighbor starts, 1 compiler-order start — of
2N kicks each, and returns the best tour found.

The descent searches orientation-preserving directed 3-opt (the only
moves legal on the paper's locked 2-node symmetrization, see
:mod:`repro.tsp.symmetrize`) with Johnson–McGeoch engineering — sorted
candidate neighbor lists, positive-gain pruning, first improvement and
don't-look bits — over flat arrays:

* **Array state** — the tour and the city→index permutation live in numpy
  ``int32`` arrays, don't-look bits in a numpy bool array.  Neighbor
  candidate lists are precomputed ``(n, k)`` int32 tables with their cost
  rows stored alongside, sorted ascending, so every gain scan is a
  prefix of a presorted row (``bisect`` over the row replaces per-element
  matrix lookups; the whole-row numpy forms are kept for construction and
  kick application).  The descent's innermost loops additionally bind
  python-list mirrors of those rows — scalar indexing into a list is
  several times cheaper than into an ndarray, and the mirrors are rebuilt
  once per matrix, not per descent.
* **Delta evaluation** — every move's and every kick's cost change is
  computed from the affected edges and accumulated; there is no per-kick
  O(n) ``tour_cost`` recompute (a full recount survives only in tests, as
  the invariant check).
* **Or-opt polish** — segment relocation (lengths 1–3, never reversed)
  can run inside the same descent, tried for a city only after its 3-opt
  scan fails, sharing the don't-look bits and the wake queue.  The solve
  uses it once per run, as a polish descent from the run's final tour, so
  it can only lower the run's cost.  Improving relocations count into
  ``tsp.or_opt_moves``.

The kernel is deterministic for a given (matrix, effort, seed) and polls
:class:`~repro.budget.BudgetTimer` inside the descent; on expiry the
*current* tour is always a complete, valid permutation whose delta-tracked
cost is exact, so mid-descent salvage is safe.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.budget import Budget, BudgetTimer, ensure_timer
from repro.errors import SolverBudgetExceeded
from repro.tsp.construction import (
    greedy_edge_tour,
    identity_tour,
    nearest_neighbor_tour,
)
from repro.tsp.instance import check_matrix, out_neighbor_lists, tour_cost
from repro.tsp.patching import patched_tour

_EPS = 1e-9

#: Budget poll period inside the descent loop (scans per wall-clock read).
_BUDGET_POLL = 64


@dataclass
class KernelStats:
    """Counters for one descent (tests and the solver microbench)."""

    moves: int = 0          # improving 3-opt moves applied
    or_opt_moves: int = 0   # improving Or-opt relocations applied
    scans: int = 0          # candidate edges examined


@dataclass
class KernelState:
    """One tour being optimized: flat arrays plus the wake queue.

    ``cost`` is maintained by delta accumulation and is exact at every
    move boundary (pinned by the kernel test suite).
    """

    tour: np.ndarray                 # int32 (n,) city at each index
    pos: np.ndarray                  # int32 (n,) index of each city
    dont_look: np.ndarray            # bool (n,)
    cost: float
    queue: list[int] = field(default_factory=list)


class SolverKernel:
    """Reusable flat-array 3-opt/Or-opt engine for one cost matrix."""

    def __init__(
        self, matrix: np.ndarray, *, neighbors: int = 12, max_segment: int = 3
    ):
        self.matrix = np.ascontiguousarray(check_matrix(matrix))
        n = self.n = self.matrix.shape[0]
        k = min(neighbors, n - 1)
        self.neighbors = k
        self.max_segment = max_segment
        self.out_neigh = out_neighbor_lists(self.matrix, k).astype(np.int32)
        self.in_neigh = out_neighbor_lists(self.matrix.T, k).astype(np.int32)
        rows = np.arange(n)[:, None]
        # Cost rows aligned with the neighbor tables, ascending — a gain
        # scan is a bisected prefix of one of these rows.
        self.out_cost = self.matrix[rows, self.out_neigh]
        self.in_cost = self.matrix.T[rows, self.in_neigh]
        # Python-list mirrors for the scalar-heavy innermost loops.
        self._w = self.matrix.tolist()
        self._out = self.out_neigh.tolist()
        self._outc = self.out_cost.tolist()
        self._in = self.in_neigh.tolist()

    # -- state ----------------------------------------------------------------

    def state_from(self, tour: list[int] | np.ndarray) -> KernelState:
        """A fresh state with every city queued for scanning."""
        tour_arr = np.asarray(tour, dtype=np.int32).copy()
        n = self.n
        pos = np.empty(n, dtype=np.int32)
        pos[tour_arr] = np.arange(n, dtype=np.int32)
        return KernelState(
            tour=tour_arr,
            pos=pos,
            dont_look=np.zeros(n, dtype=bool),
            cost=tour_cost(self.matrix, [int(c) for c in tour_arr]),
            queue=[int(c) for c in tour_arr],
        )

    def snapshot(self, state: KernelState) -> tuple[np.ndarray, float]:
        return state.tour.copy(), state.cost

    def restore(self, state: KernelState, snap: tuple[np.ndarray, float]) -> None:
        tour, cost = snap
        state.tour = tour.copy()
        state.pos[state.tour] = np.arange(self.n, dtype=np.int32)
        state.dont_look[:] = True
        state.queue.clear()
        state.cost = cost

    # -- the descent ----------------------------------------------------------

    def wake_all(self, state: KernelState) -> None:
        """Re-queue every city in tour order (a full restart of the scan)."""
        state.dont_look[:] = False
        state.queue = state.tour.tolist()

    def descend(
        self,
        state: KernelState,
        *,
        budget: BudgetTimer | None = None,
        stats: KernelStats | None = None,
        or_opt: bool = True,
    ) -> float:
        """Drain the wake queue to a (3-opt [+ Or-opt]) local optimum.

        With ``or_opt=False`` the move space — and, from the same queue,
        the first-improvement trajectory — is exactly that of the list-based
        3-opt search kept as a test reference (pinned by tests); the solve's
        never-worse-than-the-reference guarantee rests on that equivalence.

        Returns the delta-tracked tour cost.  On budget expiry the state is
        synced (complete tour, exact cost) before the exception propagates,
        so callers can salvage ``state.tour`` mid-descent.
        """
        n = self.n
        stats = stats if stats is not None else KernelStats()
        if n < 4 or not state.queue:
            state.queue.clear()
            return state.cost
        # Bind list mirrors of the mutable arrays: the scan loop is pure
        # python and list indexing beats ndarray scalar indexing ~3x.
        tour = state.tour.tolist()
        pos = state.pos.tolist()
        dont_look = state.dont_look.tolist()
        queue = state.queue
        queued = [False] * n
        for city in queue:
            queued[city] = True
        cost = state.cost

        w = self._w
        out = self._out
        outc = self._outc
        in_ = self._in
        max_seg = min(self.max_segment, n - 3) if or_opt else 0

        def sync() -> None:
            state.tour[:] = tour
            state.pos[:] = pos
            state.dont_look[:] = dont_look
            state.cost = cost

        def wake(city: int) -> None:
            dont_look[city] = False
            if not queued[city]:
                queued[city] = True
                queue.append(city)

        pops = 0
        try:
            while queue:
                pops += 1
                if budget is not None and pops % _BUDGET_POLL == 0:
                    budget.check(where="kernel-descent")
                a = queue.pop()
                queued[a] = False
                if dont_look[a]:
                    continue
                pa = pos[a]
                i_next = pa + 1
                if i_next == n:
                    i_next = 0
                a_next = tour[i_next]
                w_a_row = w[a]
                w_a = w_a_row[a_next]

                delta = self._improve_three_opt(
                    a, pa, a_next, w_a, tour, pos, wake, stats,
                    w, out, outc, in_,
                )
                if delta is None and max_seg > 0:
                    delta = self._improve_or_opt(
                        a, pa, a_next, w_a, tour, pos, wake, stats,
                        w, out, outc, max_seg,
                    )
                if delta is not None:
                    cost += delta
                    wake(a)
                else:
                    dont_look[a] = True
        finally:
            sync()
        return cost

    def _improve_three_opt(
        self, a, pa, a_next, w_a, tour, pos, wake, stats, w, out, outc, in_,
    ) -> float | None:
        """One first-improvement orientation-preserving 3-opt move rooted at
        the removed edge (a, a+); returns its delta or None.

        Form 1 picks the third removed edge via the out-neighbors of b,
        form 2 via the in-neighbors of a+; the positive-gain prefix of each
        candidate row is found by bisecting the presorted neighbor-cost row.
        """
        n = self.n
        outc_a = outc[a]
        out_a = out[a]
        m1 = bisect_left(outc_a, w_a - _EPS)
        for j1 in range(m1):
            b_next = out_a[j1]
            gain1 = w_a - outc_a[j1]
            sb_next = pos[b_next] - pa
            if sb_next < 0:
                sb_next += n
            if sb_next <= 1:    # b_next is a or a+: degenerate
                continue
            i_b = pos[b_next] - 1
            if i_b < 0:
                i_b = n - 1
            b = tour[i_b]
            w_b = w[b][b_next]
            stats.scans += 1

            # Form 1: third removed edge via out-neighbors of b.
            outc_b = outc[b]
            out_b = out[b]
            m2 = bisect_left(outc_b, gain1 + w_b - _EPS)
            for j2 in range(m2):
                c_next = out_b[j2]
                gain2 = gain1 + w_b - outc_b[j2]
                sc_next = pos[c_next] - pa
                if sc_next < 0:
                    sc_next += n
                if sc_next == 0:
                    sc = n - 1
                elif sc_next > sb_next:
                    sc = sc_next - 1
                else:
                    continue
                i_c = pa + sc
                if i_c >= n:
                    i_c -= n
                c = tour[i_c]
                i_cn = i_c + 1
                if i_cn == n:
                    i_cn = 0
                w_c_row = w[c]
                c_succ = tour[i_cn]     # == c_next (capture before the apply)
                delta = -gain2 + w_c_row[a_next] - w_c_row[c_succ]
                if delta < -_EPS:
                    self._apply_exchange(tour, pos, pa, sb_next - 1, sc)
                    stats.moves += 1
                    for city in (a, a_next, b, b_next, c, c_succ):
                        wake(city)
                    return delta

            # Form 2: third removed edge via in-neighbors of a+ (short new
            # edge (c, a+)); not monotone in the candidate order, so no
            # prefix cut — skip rather than break.
            for c in in_[a_next]:
                sc = pos[c] - pa
                if sc < 0:
                    sc += n
                if sc < sb_next:
                    continue
                i_cn = pa + sc + 1
                if i_cn >= n:
                    i_cn -= n
                c_next = tour[i_cn]
                w_c_row = w[c]
                gain2 = gain1 + w_c_row[c_next] - w_c_row[a_next]
                if gain2 <= _EPS:
                    continue
                delta = -gain2 + w[b][c_next] - w_b
                if delta < -_EPS:
                    self._apply_exchange(tour, pos, pa, sb_next - 1, sc)
                    stats.moves += 1
                    for city in (a, a_next, b, b_next, c, c_next):
                        wake(city)
                    return delta
        return None

    def _improve_or_opt(
        self, a, pa, a_next, w_a, tour, pos, wake, stats, w, out, outc, max_seg,
    ) -> float | None:
        """One first-improvement Or-opt relocation of the segment that
        *follows* a (lengths 1..max_seg, orientation preserved).

        Insertion points come from the out-neighbors of the segment's tail
        (cities the tail would like to precede), pruned by the positive-gain
        prefix ``w(tail, t) < removed - bridge``.
        """
        n = self.n
        w_a_row = w[a]
        seg = [a_next]
        i_end = pa + 1
        if i_end >= n:
            i_end -= n
        for length in range(1, max_seg + 1):
            if length > 1:
                i_end += 1
                if i_end == n:
                    i_end = 0
                seg.append(tour[i_end])
            s0 = seg[0]
            s_last = seg[-1]
            i_after = i_end + 1
            if i_after == n:
                i_after = 0
            after = tour[i_after]
            if after == a:
                break       # segment would swallow the whole tour
            removed = w_a_row[s0] + w[s_last][after]
            bridge = w_a_row[after]
            bound = removed - bridge - _EPS
            if bound <= 0:
                continue
            outc_t = outc[s_last]
            out_t = out[s_last]
            m = bisect_left(outc_t, bound)
            for j in range(m):
                t = out_t[j]
                if t == after or t in seg:
                    continue
                stats.scans += 1
                i_anchor = pos[t] - 1
                if i_anchor < 0:
                    i_anchor = n - 1
                anchor = tour[i_anchor]
                if anchor == a:
                    continue
                w_anchor = w[anchor]
                delta = (
                    bridge + w_anchor[s0] + outc_t[j]
                    - removed - w_anchor[t]
                )
                if delta < -_EPS:
                    self._apply_relocation(tour, pos, seg, anchor)
                    stats.or_opt_moves += 1
                    obs.count("tsp.or_opt_moves")
                    for city in (a, after, s0, s_last, anchor, t):
                        wake(city)
                    return delta
        return None

    @staticmethod
    def _apply_exchange(tour, pos, pa, sb, sc) -> None:
        """Reconnect a→b⁺…c→a⁺…b→c⁺ (offsets from a), a at index 0."""
        rotated = tour[pa:] + tour[:pa]
        tour[:] = (
            [rotated[0]]
            + rotated[sb + 1: sc + 1]
            + rotated[1: sb + 1]
            + rotated[sc + 1:]
        )
        for i, city in enumerate(tour):
            pos[city] = i

    @staticmethod
    def _apply_relocation(tour, pos, seg, anchor) -> None:
        """Move ``seg`` (contiguous, cyclic, orientation kept) to directly
        after ``anchor``."""
        segset = set(seg)
        remaining = [city for city in tour if city not in segset]
        at = remaining.index(anchor)
        tour[:] = remaining[: at + 1] + seg + remaining[at + 1:]
        for i, city in enumerate(tour):
            pos[city] = i

    # -- kicks ----------------------------------------------------------------

    def kick(self, state: KernelState, rng: random.Random) -> None:
        """Double-bridge the state in place (A B C D → A C B D, every
        segment's orientation preserved) and wake every city.

        Tours under 8 cities swap two random cities instead.  Cost is
        updated by the delta of the reconnected edges; the full wake makes
        the next descent a from-scratch scan of the kicked tour.
        """
        n = self.n
        t = state.tour
        w = self._w
        if n >= 8:
            i, j, k = sorted(rng.sample(range(1, n), 3))
            ti_1, ti = int(t[i - 1]), int(t[i])
            tj_1, tj = int(t[j - 1]), int(t[j])
            tk_1, tk = int(t[k - 1]), int(t[k])
            delta = (
                w[ti_1][tj] + w[tk_1][ti] + w[tj_1][tk]
                - w[ti_1][ti] - w[tj_1][tj] - w[tk_1][tk]
            )
            state.tour = np.concatenate([t[:i], t[j:k], t[i:j], t[k:]])
            state.pos[state.tour] = np.arange(n, dtype=np.int32)
            state.cost += delta
        elif n >= 4:
            i, j = rng.sample(range(1, n), 2)
            ci, cj = int(t[i]), int(t[j])
            tl = t.tolist()

            def edge_sum() -> float:
                total = 0.0
                for at in {i - 1, i, j - 1, j}:
                    total += w[tl[at]][tl[(at + 1) % n]]
                return total

            before = edge_sum()
            t[i], t[j] = cj, ci
            tl[i], tl[j] = cj, ci
            state.pos[ci], state.pos[cj] = j, i
            state.cost += edge_sum() - before
        self.wake_all(state)


# -- iterated 3-Opt -----------------------------------------------------------


@dataclass
class RunResult:
    """Outcome of one iterated-3-opt run."""

    start_kind: str
    cost: float
    iterations: int


@dataclass
class SolveResult:
    """Best tour over all runs, plus per-run outcomes for the appendix
    stability statistics ("on 128 of the 179 procedures [the best tour] was
    found on all 10 runs")."""

    tour: list[int]
    cost: float
    runs: list[RunResult] = field(default_factory=list)

    @property
    def runs_finding_best(self) -> int:
        return sum(1 for r in self.runs if r.cost <= self.cost + 1e-6)


def _construct(kind: str, matrix: np.ndarray, rng: random.Random) -> list[int]:
    n = matrix.shape[0]
    if kind == "greedy":
        return greedy_edge_tour(matrix, rng, jitter=0.15)
    if kind == "nn":
        return nearest_neighbor_tour(matrix, rng, candidates=3)
    if kind == "identity":
        return identity_tour(n)
    if kind == "patch":
        # AP + Karp patching: strong on instances with a small AP gap.
        tour, _ = patched_tour(matrix)
        return tour
    raise ValueError(f"unknown start kind {kind!r}")


def kernel_iterated_three_opt(
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
    paper uses 2N (pass ``None`` for that default).  Each kick is followed
    by a full 3-opt descent and kept when it is no worse; each run ends
    with one Or-opt polish descent from its final tour.  Counters:
    ``tsp.runs``, ``tsp.kicks``, ``tsp.improving_moves`` (improving kicks)
    and ``tsp.or_opt_moves``.  With Or-opt held back to the polish, the
    kick trajectory is that of the list-based reference solver the tests
    compare against, so the result never costs more than the reference's
    for the same effort and seed.

    A ``budget`` is checked at every start and kick boundary (and
    periodically inside the descent); on expiry
    :class:`SolverBudgetExceeded` propagates with the best complete tour
    found so far attached as ``best_so_far``.
    """
    matrix = check_matrix(matrix)
    n = matrix.shape[0]
    rng = random.Random(seed)
    kernel = SolverKernel(matrix, neighbors=neighbors)
    kicks = 2 * n if iterations is None else iterations
    timer = ensure_timer(budget)

    best_tour: list[int] | None = None
    best_cost = float("inf")
    # Best complete tour seen at *any* point — including mid-descent, where
    # the kernel's delta-tracked tour is still a valid permutation — used
    # to salvage work when the budget expires.
    seen_tour: list[int] | None = None
    seen_cost = float("inf")
    runs: list[RunResult] = []
    state: KernelState | None = None

    def note(cost: float) -> None:
        nonlocal seen_tour, seen_cost
        if cost < seen_cost:
            seen_tour = state.tour.tolist()
            seen_cost = cost

    try:
        for start_kind in starts:
            if timer is not None:
                timer.check(where="iterated-3opt")
            with obs.span("tsp_run", start=start_kind):
                obs.count("tsp.runs")
                state = kernel.state_from(_construct(start_kind, matrix, rng))
                current_cost = kernel.descend(state, budget=timer, or_opt=False)
                note(current_cost)
                run_best = current_cost
                kicked = 0
                while kicked < kicks:
                    kicked += 1
                    if timer is not None:
                        timer.tick(where="iterated-3opt")
                    obs.count("tsp.kicks")
                    snap = kernel.snapshot(state)
                    kernel.kick(state, rng)
                    candidate_cost = kernel.descend(
                        state, budget=timer, or_opt=False
                    )
                    if candidate_cost <= current_cost + 1e-9:
                        if candidate_cost < current_cost - 1e-9:
                            obs.count("tsp.improving_moves")
                        current_cost = candidate_cost
                        run_best = min(run_best, current_cost)
                        note(current_cost)
                    else:
                        kernel.restore(state, snap)
                # Or-opt polish: a full descent with relocations enabled
                # from the run's final tour.  Only improving moves apply,
                # so this can only lower the run's cost.
                kernel.wake_all(state)
                current_cost = kernel.descend(state, budget=timer)
                run_best = min(run_best, current_cost)
                note(current_cost)
                runs.append(RunResult(start_kind, run_best, kicked))
            if current_cost < best_cost:
                best_tour = state.tour.tolist()
                best_cost = current_cost
    except SolverBudgetExceeded as exc:
        if state is not None and state.cost < seen_cost:
            # descend() syncs the state before raising, so this is a
            # complete tour with an exact delta-tracked cost.
            seen_tour, seen_cost = state.tour.tolist(), state.cost
        if exc.best_so_far is None and seen_tour is not None:
            exc.best_so_far = [int(c) for c in seen_tour]
        raise
    assert best_tour is not None
    return SolveResult(
        tour=[int(c) for c in best_tour], cost=float(best_cost), runs=runs
    )
