"""Tests for the exact solvers (bitmask DP and Hamiltonian paths)."""

import itertools
import json
import pathlib

import numpy as np
import pytest

from repro.tsp import TSPError, exact_path, exact_tour, path_cost, tour_cost
from repro.tsp.exact import MAX_EXACT_CITIES


def brute_force_tour(matrix):
    n = matrix.shape[0]
    best = None
    best_cost = float("inf")
    for perm in itertools.permutations(range(1, n)):
        tour = [0, *perm]
        cost = tour_cost(matrix, tour)
        if cost < best_cost:
            best, best_cost = tour, cost
    return best, best_cost


class TestExactTour:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            n = int(rng.integers(4, 8))
            m = rng.uniform(1, 50, size=(n, n))
            np.fill_diagonal(m, 0)
            _, expected = brute_force_tour(m)
            tour, cost = exact_tour(m)
            assert cost == pytest.approx(expected)
            assert cost == pytest.approx(tour_cost(m, tour))

    def test_two_cities(self):
        m = np.array([[0.0, 3.0], [4.0, 0.0]])
        tour, cost = exact_tour(m)
        assert cost == 7.0

    def test_size_limit(self):
        with pytest.raises(TSPError, match="limited"):
            exact_tour(np.zeros((20, 20)))

    def test_asymmetry_respected(self):
        # Cheap one way around the ring, expensive the other.
        n = 6
        m = np.full((n, n), 50.0)
        np.fill_diagonal(m, 0)
        for i in range(n):
            m[i, (i + 1) % n] = 1.0
        tour, cost = exact_tour(m)
        assert cost == pytest.approx(n * 1.0)


class TestExactPath:
    def test_path_endpoints_respected(self):
        rng = np.random.default_rng(5)
        m = rng.uniform(1, 50, size=(6, 6))
        np.fill_diagonal(m, 0)
        path, cost = exact_path(m, start=2, end=4)
        assert path[0] == 2 and path[-1] == 4
        assert sorted(path) == list(range(6))
        assert cost == pytest.approx(path_cost(m, path))

    def test_path_optimality_by_brute_force(self):
        rng = np.random.default_rng(6)
        m = rng.uniform(1, 50, size=(6, 6))
        np.fill_diagonal(m, 0)
        _, cost = exact_path(m, start=0, end=5)
        middles = [c for c in range(6) if c not in (0, 5)]
        best = min(
            path_cost(m, [0, *perm, 5])
            for perm in itertools.permutations(middles)
        )
        assert cost == pytest.approx(best)

    def test_bad_endpoints(self):
        m = np.zeros((4, 4))
        with pytest.raises(TSPError):
            exact_path(m, 0, 0)
        with pytest.raises(TSPError):
            exact_path(m, 0, 9)


# -- tie-breaking, pinned ------------------------------------------------------

#: ``exact_golden.json``: the (tour, cost) of tie-heavy integer matrices at
#: every size the DP takes, recorded with the per-city relaxation loop the
#: one-gather-per-layer DP replaced.  Re-record (only on purpose) with
#: ``python -m tests.tsp.test_exact``.
EXACT_GOLDEN = pathlib.Path(__file__).with_name("exact_golden.json")


def _tie_heavy(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(100 * n + seed)
    m = rng.integers(0, 3 if seed % 2 else 6, size=(n, n)).astype(float)
    np.fill_diagonal(m, 0)
    return m


def _tie_cases():
    for n in range(3, MAX_EXACT_CITIES + 1):
        for seed in range(3):
            yield f"{n}/{seed}", _tie_heavy(n, seed)


def test_tie_breaking_matches_recorded_tours():
    recorded = json.loads(EXACT_GOLDEN.read_text())
    for name, matrix in _tie_cases():
        tour, cost = exact_tour(matrix)
        assert [tour, cost] == recorded[name], name


def _record() -> None:  # pragma: no cover - run by hand
    EXACT_GOLDEN.write_text(json.dumps(
        {name: [[int(c) for c in tour], cost]
         for name, matrix in _tie_cases()
         for tour, cost in [exact_tour(matrix)]},
        sort_keys=True,
    ) + "\n")


if __name__ == "__main__":  # pragma: no cover
    _record()
