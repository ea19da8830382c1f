"""Tests for the lower bounds: Held–Karp and assignment."""

import numpy as np
import pytest

from repro.tsp import (
    assignment_bound,
    assignment_cycle_cover,
    exact_tour,
    held_karp_bound_directed,
    held_karp_bound_symmetric,
    minimum_one_tree,
    resolve_assignment_backend,
    solve_assignment,
)


def random_matrix(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.uniform(1, 100, size=(n, n))
    np.fill_diagonal(m, 0)
    return m


class TestOneTree:
    def test_degrees_sum_to_edges(self):
        m = random_matrix(8, 0)
        sym = (m + m.T) / 2
        cost, degrees = minimum_one_tree(sym)
        # A 1-tree on n nodes has exactly n edges -> degree sum 2n.
        assert degrees.sum() == 2 * 8
        assert degrees[0] == 2
        assert cost > 0

    def test_cycle_graph_one_tree_is_the_cycle(self):
        n = 6
        m = np.full((n, n), 100.0)
        for i in range(n):
            m[i, (i + 1) % n] = m[(i + 1) % n, i] = 1.0
        np.fill_diagonal(m, 0)
        cost, degrees = minimum_one_tree(m)
        assert cost == pytest.approx(n * 1.0)
        assert (degrees == 2).all()


class TestHeldKarp:
    def test_bound_below_optimum_directed(self):
        for seed in range(8):
            m = random_matrix(8, seed)
            _, optimal = exact_tour(m)
            result = held_karp_bound_directed(m, tour_upper_bound=optimal)
            assert result.bound <= optimal + 1e-6

    def test_bound_nonnegative(self):
        m = random_matrix(6, 1)
        result = held_karp_bound_directed(m, tour_upper_bound=100.0)
        assert result.bound >= 0

    def test_symmetric_euclidean_tightness(self):
        """On symmetric metric instances HK is famously tight (≈1%)."""
        rng = np.random.default_rng(7)
        points = rng.uniform(0, 1, size=(14, 2))
        m = np.sqrt(
            ((points[:, None, :] - points[None, :, :]) ** 2).sum(-1)
        )
        _, optimal = exact_tour(m)
        result = held_karp_bound_symmetric(m, upper_bound=optimal)
        assert result.bound <= optimal + 1e-6
        assert result.bound >= 0.95 * optimal

    def test_converges_on_ring(self):
        """A pure cycle instance: the 1-tree becomes the tour itself."""
        n = 8
        m = np.full((n, n), 500.0)
        for i in range(n):
            m[i, (i + 1) % n] = m[(i + 1) % n, i] = 1.0
        np.fill_diagonal(m, 0)
        result = held_karp_bound_symmetric(m, upper_bound=float(n))
        assert result.bound == pytest.approx(n, abs=1e-6)
        assert result.converged_to_tour


class TestAssignment:
    def test_matches_scipy(self):
        pytest.importorskip("scipy")
        from scipy.optimize import linear_sum_assignment

        for seed in range(6):
            m = random_matrix(12, seed)
            match, total = solve_assignment(m)
            rows, cols = linear_sum_assignment(m)
            expected = m[rows, cols].sum()
            assert total == pytest.approx(expected)
            assert sorted(match) == list(range(12))

    def test_ap_bound_below_optimum(self):
        for seed in range(6):
            m = random_matrix(8, seed)
            _, optimal = exact_tour(m)
            assert assignment_bound(m) <= optimal + 1e-6

    def test_cycle_cover_structure(self):
        m = random_matrix(10, 3)
        cover = assignment_cycle_cover(m)
        cycles = cover.cycles()
        assert sum(len(c) for c in cycles) == 10
        assert cover.is_tour == (len(cycles) == 1)
        # No self-loops: the diagonal is forbidden.
        assert all(cover.successor[i] != i for i in range(10))

    def test_identity_matrix_assignment(self):
        m = np.full((4, 4), 10.0)
        for i in range(4):
            m[i, (i + 1) % 4] = 1.0
        match, total = solve_assignment(m)
        assert total == pytest.approx(4.0)


class TestAssignmentBackends:
    def test_resolution(self):
        from repro.tsp.assignment import _scipy_assignment

        assert resolve_assignment_backend("pure") == "pure"
        expected = "scipy" if _scipy_assignment is not None else "pure"
        assert resolve_assignment_backend() == expected
        assert resolve_assignment_backend("auto") == expected

    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError, match="assignment backend"):
            solve_assignment(random_matrix(5, 0), backend="gpu")

    def test_backends_agree_on_the_optimal_total(self):
        pytest.importorskip("scipy")
        for n in (2, 3, 6, 15, 40):
            for seed in (0, 1):
                m = random_matrix(n, seed)
                match_pure, total_pure = solve_assignment(m, backend="pure")
                match_sp, total_sp = solve_assignment(m, backend="scipy")
                assert total_sp == pytest.approx(total_pure)
                # Both are true matchings achieving their reported totals.
                for match in (match_pure, match_sp):
                    assert sorted(match.tolist()) == list(range(n))
                assert m[np.arange(n), match_sp].sum() == pytest.approx(
                    total_sp
                )

    def test_cycle_cover_pure_backend_is_environment_invariant(self):
        """The pure matching (what patching consumes) is a deterministic
        function of the matrix alone."""
        m = random_matrix(12, 3)
        a = assignment_cycle_cover(m, backend="pure")
        b = assignment_cycle_cover(m, backend="pure")
        assert a.successor.tolist() == b.successor.tolist()
        assert a.cost == b.cost

    def test_pure_resolve_after_costs_rise_matches_a_fresh_solve(self):
        """Warm-started re-optimization (what branch and bound does on the
        pure backend) reaches the same optimal total as solving anew."""
        from repro.tsp.assignment import PureAssignment

        rng = np.random.default_rng(5)
        for n in (2, 5, 17, 40):
            m = random_matrix(n, n)
            solution = PureAssignment(m)
            for _ in range(4):
                dearer = m.copy()
                rows = rng.integers(0, n, size=3)
                dearer[rows, solution.match[rows]] += 1000.0
                dearer[rng.integers(0, n), :] += 50.0
                solution = solution.resolve(dearer)
                m = dearer
                _, fresh = solve_assignment(m, backend="pure")
                assert solution.total == pytest.approx(fresh)
                assert sorted(solution.match.tolist()) == list(range(n))
                assert m[np.arange(n), solution.match].sum() == (
                    pytest.approx(solution.total)
                )

    def test_scipy_backend_explicitly_requested_without_scipy(self):
        from repro.tsp import assignment as mod

        original = mod._scipy_assignment
        mod._scipy_assignment = None
        try:
            assert resolve_assignment_backend() == "pure"
            with pytest.raises(KeyError, match="not installed"):
                resolve_assignment_backend("scipy")
        finally:
            mod._scipy_assignment = original
