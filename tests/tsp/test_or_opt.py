"""Tests for the Or-opt relocations folded into the kernel's descent."""

import random

import numpy as np
import pytest

from repro.tsp import SolverKernel, check_tour, tour_cost


def random_matrix(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.uniform(1, 100, size=(n, n))
    np.fill_diagonal(m, 0)
    return m


def or_opt_descent(matrix, tour):
    """One 3-opt + Or-opt descent from ``tour``; returns (tour, cost)."""
    kernel = SolverKernel(matrix)
    state = kernel.state_from(tour)
    cost = kernel.descend(state, or_opt=True)
    return state.tour.tolist(), cost


class TestOrOpt:
    def test_valid_tour_and_cost(self):
        m = random_matrix(15, 0)
        tour, cost = or_opt_descent(m, list(range(15)))
        check_tour(tour, 15)
        assert cost == pytest.approx(tour_cost(m, tour))

    def test_never_worsens(self):
        for seed in range(6):
            m = random_matrix(12, seed)
            start = list(range(12))
            random.Random(seed).shuffle(start)
            before = tour_cost(m, start)
            _, after = or_opt_descent(m, start)
            assert after <= before + 1e-9

    def test_finds_obvious_relocation(self):
        """A city parked in the wrong place gets moved next to its
        natural neighbors."""
        n = 8
        m = np.full((n, n), 50.0)
        np.fill_diagonal(m, 0)
        for i in range(n):
            m[i, (i + 1) % n] = 1.0   # cheap ring 0->1->...->n-1->0
        # Start with city 5 yanked out of place.
        start = [0, 5, 1, 2, 3, 4, 6, 7]
        tour, cost = or_opt_descent(m, start)
        assert cost == pytest.approx(n * 1.0)

    def test_respects_big_edges(self):
        m = random_matrix(10, 4)
        big = 1e9
        m[:, 0] = big
        m[9, 0] = 0.0
        tour, cost = or_opt_descent(m, list(range(10)))
        assert cost < big

    def test_tiny_instances_passthrough(self):
        m = random_matrix(3, 3)
        tour, _ = or_opt_descent(m, [2, 0, 1])
        assert sorted(tour) == [0, 1, 2]

    def test_local_optimum_stable(self):
        m = random_matrix(12, 5)
        tour, cost = or_opt_descent(m, list(range(12)))
        again, cost2 = or_opt_descent(m, tour)
        assert cost2 == pytest.approx(cost)
        assert again == tour
