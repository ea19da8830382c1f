"""Tests for the flat-array solver kernel.

Three contracts matter:

* the kernel's 3-opt descent is *bit-identical* to the list-based
  reference :class:`tests.tsp.reference_solver.ThreeOptSearch` (same tour,
  not just the same cost) — the solve's cost-dominance guarantee rests on it;
* iterated solves never cost more than the reference solver for the same
  effort and seed (the equivalence grid);
* the delta-tracked cost is always exact, including mid-descent when a
  budget expires.
"""

import numpy as np
import pytest

from repro import obs
from repro.budget import Budget
from repro.errors import SolverBudgetExceeded
from repro.tsp import (
    QUICK,
    KernelStats,
    SolverKernel,
    kernel_iterated_three_opt,
    solve_dtsp,
    tour_cost,
)
from tests.tsp.reference_solver import ThreeOptSearch, iterated_three_opt


def random_matrix(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.uniform(1, 100, size=(n, n))
    np.fill_diagonal(m, 0)
    return m


class TestDescentEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [5, 12, 30, 47])
    def test_descent_matches_legacy_three_opt_exactly(self, n, seed):
        """With or-opt off and a full wake, the kernel's descent replays
        the legacy scan order move for move: identical final tours."""
        m = random_matrix(n, seed)
        rng = np.random.default_rng(seed + 1000)
        start = [int(c) for c in rng.permutation(n)]
        legacy_tour, _ = ThreeOptSearch(m, neighbors=8).optimize(start)
        kernel = SolverKernel(m, neighbors=8)
        state = kernel.state_from(start)
        kernel.descend(state, or_opt=False)
        assert state.tour.tolist() == legacy_tour
        assert state.cost == pytest.approx(tour_cost(m, legacy_tour))

    def test_delta_cost_stays_exact_through_kicks(self):
        import random as pyrandom

        m = random_matrix(25, 9)
        kernel = SolverKernel(m, neighbors=8)
        state = kernel.state_from(list(range(25)))
        rng = pyrandom.Random(4)
        for _ in range(10):
            kernel.kick(state, rng)
            kernel.descend(state)
            assert sorted(state.tour.tolist()) == list(range(25))
            assert state.cost == pytest.approx(
                tour_cost(m, state.tour.tolist())
            )


class TestGuardedDominance:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kernel_never_worse_than_legacy_on_size_grid(self, seed):
        """The equivalence grid: for every instance size, kernel cost <=
        reference cost under the quick effort and the same seed."""
        quick = dict(starts=QUICK.starts, iterations=QUICK.iterations,
                     neighbors=QUICK.neighbors, seed=seed)
        for n in range(4, 61, 7):
            m = random_matrix(n, seed)
            legacy = iterated_three_opt(m, **quick)
            guarded = kernel_iterated_three_opt(m, **quick)
            assert guarded.cost <= legacy.cost + 1e-9, (n, seed)
            assert guarded.cost == pytest.approx(
                tour_cost(m, guarded.tour)
            )

    def test_run_results_keep_legacy_shape(self):
        m = random_matrix(30, 5)
        result = kernel_iterated_three_opt(
            m, starts=("greedy", "identity"), iterations=10,
            neighbors=8, seed=0,
        )
        assert len(result.runs) == 2
        assert [r.start_kind for r in result.runs] == ["greedy", "identity"]
        assert all(r.iterations == 10 for r in result.runs)
        assert result.cost == pytest.approx(min(r.cost for r in result.runs))


class TestOrOpt:
    def test_or_opt_fires_and_counts(self):
        """A pinned instance where the 3-opt local optimum still admits a
        segment relocation: the or-opt fold must find it, improve the
        tour, and bump both the stats field and the stable counter."""
        m = random_matrix(40, 11)
        kernel = SolverKernel(m, neighbors=8)
        state = kernel.state_from(list(range(40)))
        kernel.descend(state, or_opt=False)
        three_opt_optimum = state.cost
        kernel.wake_all(state)
        stats = KernelStats()
        before = obs.counters().get("tsp.or_opt_moves", 0)
        kernel.descend(state, stats=stats, or_opt=True)
        assert stats.or_opt_moves > 0
        assert obs.counters().get("tsp.or_opt_moves", 0) - before == (
            stats.or_opt_moves
        )
        assert state.cost < three_opt_optimum - 1e-9
        assert state.cost == pytest.approx(tour_cost(m, state.tour.tolist()))

    def test_guarded_polish_never_hurts(self):
        """The end-of-run or-opt polish only ever lowers cost, so the solve
        stays dominant over the or-opt-less reference trajectory."""
        for seed in range(3):
            m = random_matrix(35, seed)
            guarded = kernel_iterated_three_opt(
                m, starts=("identity",), iterations=20, neighbors=8,
                seed=seed,
            )
            legacy = iterated_three_opt(
                m, starts=("identity",), iterations=20, neighbors=8,
                seed=seed,
            )
            assert guarded.cost <= legacy.cost + 1e-9


class TestBudgetSalvage:
    def test_mid_descent_expiry_salvages_complete_tour(self):
        """Expire the wall clock *during* the first descent (a stepping
        clock advances 1 ms per read, so a budget poll trips before the
        descent completes): the salvaged best-so-far must still be a
        complete permutation (the kernel syncs state before raising)."""

        class SteppingClock:
            def __init__(self):
                self.now = 0.0

            def __call__(self):
                self.now += 0.001
                return self.now

        n = 60
        m = random_matrix(n, 2)
        timer = Budget(wall_ms=8).start(clock=SteppingClock())
        with pytest.raises(SolverBudgetExceeded) as info:
            kernel_iterated_three_opt(
                m, starts=("identity", "greedy"), iterations=50,
                neighbors=8, seed=0, budget=timer,
            )
        tour = info.value.best_so_far
        assert tour is not None
        assert sorted(tour) == list(range(n))

    def test_salvage_matches_engine_contract_via_solve(self):
        m = random_matrix(40, 1)
        with pytest.raises(SolverBudgetExceeded) as info:
            solve_dtsp(m, effort="paper", seed=0,
                       budget=Budget(max_iterations=40))
        tour = info.value.best_so_far
        assert tour is not None
        assert sorted(tour) == list(range(40))


class TestCounters:
    def test_run_and_kick_counters_flow(self):
        before = obs.counters()
        kernel_iterated_three_opt(
            random_matrix(25, 6), starts=("identity", "nn"), iterations=8,
            neighbors=8, seed=0,
        )
        after = obs.counters()
        assert after.get("tsp.runs", 0) - before.get("tsp.runs", 0) == 2
        assert after.get("tsp.kicks", 0) - before.get("tsp.kicks", 0) == 16
