"""Top-level DTSP solving facade with effort presets.

``solve_dtsp`` picks the right tool for the instance size: exact dynamic
programming for tiny instances, iterated 3-Opt otherwise, with start/
iteration budgets controlled by an :class:`Effort` preset.  The ``paper``
preset matches the appendix configuration (10 runs — 5 randomized Greedy,
4 randomized Nearest Neighbor, 1 compiler order — of 2N iterations each).

The heuristic path is
:func:`repro.tsp.kernel.kernel_iterated_three_opt`, iterated 3-Opt on the
flat-array solver kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import faults, obs
from repro.budget import Budget, BudgetTimer, ensure_timer
from repro.errors import UnknownNameError
from repro.tsp.exact import MAX_EXACT_CITIES, exact_tour
from repro.tsp.instance import check_matrix
from repro.tsp.kernel import RunResult, SolveResult, kernel_iterated_three_opt


@dataclass(frozen=True)
class Effort:
    """A solver budget: which starts, how many kicks, how many neighbors."""

    name: str
    starts: tuple[str, ...]
    iterations: int | None    # kicks per run; None = 2N (paper)
    neighbors: int = 12
    exact_threshold: int = 12  # use exact DP at or below this many cities


QUICK = Effort("quick", starts=("identity",), iterations=20, neighbors=8)
DEFAULT = Effort(
    "default", starts=("greedy", "nn", "identity", "patch"), iterations=None
)
#: The appendix configuration: 10 runs of 2N iterations each —
#: 5 randomized Greedy, 4 randomized Nearest Neighbor, 1 compiler order.
PAPER = Effort(
    "paper",
    starts=("greedy",) * 5 + ("nn",) * 4 + ("identity",),
    iterations=None,
)

EFFORTS = {e.name: e for e in (QUICK, DEFAULT, PAPER)}


def get_effort(effort: "Effort | str") -> Effort:
    if isinstance(effort, Effort):
        return effort
    try:
        return EFFORTS[effort]
    except KeyError:
        known = ", ".join(sorted(EFFORTS))
        raise UnknownNameError(
            f"unknown effort {effort!r} (known: {known})"
        ) from None


def solve_dtsp(
    matrix: np.ndarray,
    *,
    effort: Effort | str = DEFAULT,
    seed: int = 0,
    budget: Budget | BudgetTimer | None = None,
) -> SolveResult:
    """Find a (near-)optimal directed tour.

    Instances at or below the effort's exact threshold are solved optimally
    by Held–Karp DP; larger ones by iterated 3-Opt on the flat-array
    kernel.  ``budget`` bounds the search: on expiry
    :class:`~repro.errors.SolverBudgetExceeded` is raised (carrying the
    best tour found so far, if any) so callers can degrade to a cheaper
    construction.
    """
    faults.check_solver_timeout()
    matrix = check_matrix(matrix)
    effort = get_effort(effort)
    timer = ensure_timer(budget)
    n = matrix.shape[0]
    if n <= min(effort.exact_threshold, MAX_EXACT_CITIES):
        with obs.span("dtsp_solve", cities=n, mode="exact"):
            if timer is not None:
                timer.check(where="exact")
            tour, cost = exact_tour(matrix)
            return SolveResult(
                tour=tour, cost=cost, runs=[RunResult("exact", cost, 0)]
            )
    with obs.span("dtsp_solve", cities=n, mode="3opt"):
        return kernel_iterated_three_opt(
            matrix,
            starts=effort.starts,
            iterations=effort.iterations,
            neighbors=effort.neighbors,
            seed=seed,
            budget=timer,
        )


def solution_gap(cost: float, bound: float) -> float:
    """Relative gap between a tour cost and a lower bound (0 = provably
    optimal; the paper reports a mean of 0.3% across benchmarks)."""
    if bound <= 0:
        return 0.0 if cost <= 1e-9 else float("inf")
    return (cost - bound) / bound
