"""Tests for iterated 3-opt and the double-bridge kick, on the kernel."""

import random

import numpy as np
import pytest

from repro.tsp import (
    SolverKernel,
    check_tour,
    kernel_iterated_three_opt,
    tour_cost,
)
from repro.tsp.exact import exact_tour


def random_matrix(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.uniform(1, 100, size=(n, n))
    np.fill_diagonal(m, 0)
    return m


def kicked(tour, rng):
    """Kick ``tour`` once on a kernel over a random matrix; return the
    state after the kick."""
    kernel = SolverKernel(random_matrix(len(tour), 0))
    state = kernel.state_from(tour)
    kernel.kick(state, rng)
    return state


class TestDoubleBridge:
    def test_permutation_preserved(self):
        rng = random.Random(0)
        tour = list(range(20))
        after = kicked(tour, rng).tour.tolist()
        assert sorted(after) == tour
        assert after != tour

    def test_segments_keep_orientation(self):
        """Every consecutive pair inside a segment survives the kick."""
        rng = random.Random(3)
        tour = list(range(30))
        after = kicked(tour, rng).tour.tolist()
        pairs_before = {(a, b) for a, b in zip(tour, tour[1:])}
        pairs_after = {(a, b) for a, b in zip(after, after[1:])}
        # A double bridge breaks exactly 3 interior adjacencies (plus the
        # wraparound), so most pairs survive *in order* — no reversals.
        assert len(pairs_before & pairs_after) >= len(tour) - 5
        reversed_pairs = {(b, a) for a, b in pairs_before}
        assert not (pairs_after - pairs_before) & reversed_pairs

    def test_tiny_tours_swapped(self):
        rng = random.Random(1)
        after = kicked([0, 1, 2, 3], rng).tour.tolist()
        assert sorted(after) == [0, 1, 2, 3]

    @pytest.mark.parametrize("n", [5, 20])
    def test_kick_wakes_every_city(self, n):
        """The next descent scans the whole kicked tour, in tour order."""
        state = kicked(list(range(n)), random.Random(2))
        assert not state.dont_look.any()
        assert state.queue == state.tour.tolist()


class TestIteratedThreeOpt:
    def test_matches_exact_on_small_instances(self):
        found_optimal = 0
        for seed in range(10):
            m = random_matrix(9, seed)
            _, optimal = exact_tour(m)
            result = kernel_iterated_three_opt(m, seed=seed)
            assert result.cost >= optimal - 1e-9
            if result.cost <= optimal + 1e-6:
                found_optimal += 1
        assert found_optimal >= 9

    def test_improves_on_single_descent(self):
        m = random_matrix(40, 2)
        kernel = SolverKernel(m)
        state = kernel.state_from(list(range(40)))
        single = kernel.descend(state, or_opt=False)
        iterated = kernel_iterated_three_opt(m, seed=0).cost
        assert iterated <= single + 1e-9

    def test_run_results_recorded(self):
        m = random_matrix(12, 4)
        result = kernel_iterated_three_opt(
            m, starts=("greedy", "nn", "identity", "patch"), seed=0
        )
        assert len(result.runs) == 4
        assert {r.start_kind for r in result.runs} == {
            "greedy", "nn", "identity", "patch",
        }
        assert 1 <= result.runs_finding_best <= 4
        check_tour(result.tour, 12)
        assert result.cost == pytest.approx(tour_cost(m, result.tour))

    def test_unknown_start_rejected(self):
        m = random_matrix(8, 5)
        with pytest.raises(ValueError, match="unknown start"):
            kernel_iterated_three_opt(m, starts=("bogus",))

    def test_deterministic_for_seed(self):
        m = random_matrix(15, 6)
        a = kernel_iterated_three_opt(m, seed=42)
        b = kernel_iterated_three_opt(m, seed=42)
        assert a.cost == b.cost
        assert a.tour == b.tour
