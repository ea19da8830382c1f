"""Tests for Karp patching and the branch-and-bound exact solver."""

import numpy as np
import pytest

from repro.tsp import (
    branch_and_bound,
    check_tour,
    exact_tour,
    patched_tour,
    tour_cost,
)


def random_matrix(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.uniform(1, 100, size=(n, n))
    np.fill_diagonal(m, 0)
    return m


class TestPatching:
    def test_valid_tour(self):
        m = random_matrix(15, 0)
        tour, cost = patched_tour(m)
        check_tour(tour, 15)
        assert cost == pytest.approx(tour_cost(m, tour))

    def test_above_optimum(self):
        for seed in range(6):
            m = random_matrix(9, seed)
            _, optimal = exact_tour(m)
            _, cost = patched_tour(m)
            assert cost >= optimal - 1e-9

    def test_strong_on_random_asymmetric(self):
        """Random ATSP instances have AP ≈ OPT; patching should be within
        a few percent (the appendix's observation about such instances)."""
        gaps = []
        for seed in range(6):
            m = random_matrix(11, seed + 50)
            _, optimal = exact_tour(m)
            _, cost = patched_tour(m)
            gaps.append((cost - optimal) / optimal)
        assert sum(gaps) / len(gaps) < 0.10


class TestBranchAndBound:
    def test_matches_dp_exact(self):
        for seed in range(8):
            m = random_matrix(9, seed)
            _, optimal = exact_tour(m)
            result = branch_and_bound(m, seed=seed)
            assert result.optimal
            assert result.cost == pytest.approx(optimal)
            check_tour(result.tour, 9)

    def test_pure_backend_warm_starts_reach_the_same_optimum(self):
        """Every node re-optimizes its parent's matching; the certified
        optimum is exact DP's."""
        for n in (9, 12, 14):
            m = random_matrix(n, n)
            _, optimal = exact_tour(m)
            result = branch_and_bound(m)
            assert result.optimal
            assert result.cost == pytest.approx(optimal)
            check_tour(result.tour, n)

    def test_handles_structured_instances(self, loop_cfg, loop_profile):
        from repro.core import build_alignment_instance
        from repro.machine import ALPHA_21164

        instance = build_alignment_instance(
            loop_cfg, loop_profile["main"], ALPHA_21164
        )
        result = branch_and_bound(instance.matrix)
        assert result.optimal
        # Sanity: within the anchored feasible region.
        assert result.cost < instance.big

    def test_node_budget_degrades_gracefully(self):
        m = random_matrix(14, 3)
        result = branch_and_bound(m, max_nodes=1)
        assert not result.optimal or result.nodes <= 1
        # Even without optimality, a valid incumbent tour is returned.
        check_tour(result.tour, 14)
        assert result.cost == pytest.approx(tour_cost(m, result.tour))

    def test_initial_tour_used_as_incumbent(self):
        m = random_matrix(8, 4)
        _, optimal = exact_tour(m)
        result = branch_and_bound(m, initial_tour=list(range(8)))
        assert result.optimal
        assert result.cost == pytest.approx(optimal)
