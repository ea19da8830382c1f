"""Property-based tests of the TSP library's core invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tsp import (
    QUICK,
    branch_and_bound,
    assignment_bound,
    check_tour,
    exact_tour,
    held_karp_bound_directed,
    kernel_iterated_three_opt,
    patched_tour,
    solve_dtsp,
    tour_cost,
)
from tests.tsp.reference_solver import iterated_three_opt


def matrix_strategy(min_n=4, max_n=9):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.lists(
            st.lists(
                st.integers(1, 200), min_size=n, max_size=n
            ),
            min_size=n,
            max_size=n,
        ).map(lambda rows: _clean(np.array(rows, dtype=float)))
    )


def _clean(matrix: np.ndarray) -> np.ndarray:
    np.fill_diagonal(matrix, 0.0)
    return matrix


@settings(max_examples=25, deadline=None)
@given(matrix=matrix_strategy())
def test_bounds_below_heuristics(matrix):
    """HK bound <= exact optimum <= every heuristic tour; AP <= optimum."""
    _, optimal = exact_tour(matrix)
    heuristic = kernel_iterated_three_opt(matrix, seed=0)
    patched_cost = patched_tour(matrix)[1]
    hk = held_karp_bound_directed(matrix, tour_upper_bound=heuristic.cost)
    ap = assignment_bound(matrix)
    tolerance = 1e-6 * max(1.0, optimal)
    assert hk.bound <= optimal + tolerance
    assert ap <= optimal + tolerance
    assert heuristic.cost >= optimal - tolerance
    assert patched_cost >= optimal - tolerance


@settings(max_examples=20, deadline=None)
@given(matrix=matrix_strategy())
def test_branch_and_bound_matches_dp(matrix):
    _, optimal = exact_tour(matrix)
    result = branch_and_bound(matrix)
    assert result.optimal
    assert abs(result.cost - optimal) <= 1e-6 * max(1.0, optimal)


@settings(max_examples=20, deadline=None)
@given(matrix=matrix_strategy(), seed=st.integers(0, 100))
def test_solver_outputs_valid_tours(matrix, seed):
    result = solve_dtsp(matrix, effort="quick", seed=seed)
    n = matrix.shape[0]
    check_tour(result.tour, n)
    assert result.cost == tour_cost(matrix, result.tour)


@settings(max_examples=15, deadline=None)
@given(
    matrix=matrix_strategy(min_n=5, max_n=8),
    scale=st.integers(2, 50),
)
def test_cost_scaling_invariance(matrix, scale):
    """Scaling all costs scales the optimum; the optimal tour set is
    invariant, so the scaled exact cost is exactly scale times."""
    _, optimal = exact_tour(matrix)
    _, scaled = exact_tour(matrix * scale)
    assert abs(scaled - optimal * scale) <= 1e-6 * max(1.0, scaled)


@settings(max_examples=20, deadline=None)
@given(matrix=matrix_strategy(min_n=13, max_n=20), seed=st.integers(0, 50))
def test_kernel_engines_output_valid_exact_cost_tours(matrix, seed):
    """The kernel returns a permutation whose reported cost is the
    recomputed tour cost (delta evaluation never drifts), and never costs
    more than the list-based reference solver."""
    n = matrix.shape[0]
    result = solve_dtsp(matrix, effort="quick", seed=seed)
    check_tour(result.tour, n)
    assert abs(result.cost - tour_cost(matrix, result.tour)) <= 1e-6
    reference = iterated_three_opt(
        matrix, starts=QUICK.starts, iterations=QUICK.iterations,
        neighbors=QUICK.neighbors, seed=seed,
    )
    assert result.cost <= reference.cost + 1e-9


@settings(max_examples=15, deadline=None)
@given(matrix=matrix_strategy(min_n=14, max_n=20), seed=st.integers(0, 50))
def test_budget_expiry_salvage_is_complete(matrix, seed):
    """However early the budget trips, a salvaged best-so-far is a complete
    permutation — even when the kernel is mid-descent."""
    from repro.budget import Budget
    from repro.errors import SolverBudgetExceeded

    n = matrix.shape[0]
    try:
        solve_dtsp(matrix, effort="paper", seed=seed,
                   budget=Budget(max_iterations=3))
    except SolverBudgetExceeded as exc:
        if exc.best_so_far is not None:
            assert sorted(exc.best_so_far) == list(range(n))
    else:  # tiny instances may finish inside the budget
        pass
