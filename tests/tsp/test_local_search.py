"""Tests for the kernel's directed 3-opt descent (Or-opt off)."""

import random

import numpy as np
import pytest

from repro.tsp import KernelStats, SolverKernel, check_tour, tour_cost
from repro.tsp.exact import exact_tour


def random_matrix(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.uniform(1, 100, size=(n, n))
    np.fill_diagonal(m, 0)
    return m


def three_opt(matrix, tour):
    """One 3-opt descent from ``tour``; returns (tour, delta-tracked cost)."""
    kernel = SolverKernel(matrix)
    state = kernel.state_from(tour)
    cost = kernel.descend(state, or_opt=False)
    return state.tour.tolist(), cost


class TestThreeOpt:
    def test_returns_valid_tour(self):
        m = random_matrix(15, 0)
        tour, cost = three_opt(m, list(range(15)))
        check_tour(tour, 15)
        assert cost == pytest.approx(tour_cost(m, tour))

    def test_never_worsens(self):
        for seed in range(5):
            m = random_matrix(12, seed)
            start = list(range(12))
            random.Random(seed).shuffle(start)
            before = tour_cost(m, start)
            _, after = three_opt(m, start)
            assert after <= before + 1e-9

    def test_tiny_instances_passthrough(self):
        m = random_matrix(3, 1)
        tour, _ = three_opt(m, [2, 0, 1])
        assert sorted(tour) == [0, 1, 2]

    def test_local_optimum_is_stable(self):
        m = random_matrix(12, 3)
        kernel = SolverKernel(m)
        state = kernel.state_from(list(range(12)))
        cost = kernel.descend(state, or_opt=False)
        kernel.wake_all(state)
        stats = KernelStats()
        again = kernel.descend(state, stats=stats, or_opt=False)
        assert again == pytest.approx(cost)
        assert stats.moves == 0

    def test_close_to_exact_on_small_instances(self):
        """Single-descent 3-opt from identity lands within 15% of optimal
        on small random asymmetric instances (iterated closes the rest)."""
        gaps = []
        for seed in range(10):
            m = random_matrix(10, seed + 10)
            _, optimal = exact_tour(m)
            _, found = three_opt(m, list(range(10)))
            gaps.append((found - optimal) / optimal)
        assert sum(gaps) / len(gaps) < 0.15

    def test_respects_forbidden_edges(self):
        """BIG edges (anchoring) are avoided when a feasible tour exists."""
        n = 8
        m = random_matrix(n, 5)
        big = 1e9
        # Forbid everything into city 0 except from city n-1.
        m[:, 0] = big
        m[n - 1, 0] = 0.0
        start = list(range(n))
        tour, cost = three_opt(m, start)
        assert cost < big

    def test_stats_counted(self):
        m = random_matrix(20, 6)
        kernel = SolverKernel(m)
        start = list(range(20))
        random.Random(1).shuffle(start)
        stats = KernelStats()
        kernel.descend(kernel.state_from(start), stats=stats, or_opt=False)
        assert stats.moves > 0
        assert stats.scans > 0
