"""From-scratch TSP library: directed construction, iterated 3-Opt on a
flat-array kernel, the 2-node symmetrization, Held–Karp bounds, assignment
bounds, patching, exact DP for small instances, and the path-cover search
that solves alignment instances exactly."""

from repro.tsp.branch_and_bound import BnBResult, branch_and_bound
from repro.tsp.assignment import (
    CycleCover,
    assignment_bound,
    assignment_cycle_cover,
    solve_assignment,
)
from repro.tsp.construction import (
    greedy_edge_tour,
    identity_tour,
    nearest_neighbor_tour,
)
from repro.tsp.exact import exact_path, exact_tour
from repro.tsp.held_karp import (
    BoundResult,
    held_karp_bound_directed,
    held_karp_bound_symmetric,
    minimum_one_tree,
)
from repro.tsp.instance import (
    TSPError,
    check_matrix,
    check_tour,
    out_neighbor_lists,
    path_cost,
    tour_cost,
)
from repro.tsp.kernel import (
    KernelState,
    KernelStats,
    RunResult,
    SolveResult,
    SolverKernel,
    kernel_iterated_three_opt,
)
from repro.tsp.patching import patched_tour
from repro.tsp.path_cover import PathCover, path_cover
from repro.tsp.solve import (
    DEFAULT,
    EFFORTS,
    PAPER,
    QUICK,
    Effort,
    get_effort,
    solution_gap,
    solve_dtsp,
)
from repro.tsp.symmetrize import SymmetrizedInstance, directed_tour_to_sym, symmetrize

__all__ = [
    "BnBResult",
    "BoundResult",
    "branch_and_bound",
    "CycleCover",
    "DEFAULT",
    "EFFORTS",
    "Effort",
    "KernelState",
    "KernelStats",
    "PAPER",
    "PathCover",
    "QUICK",
    "RunResult",
    "SolveResult",
    "SolverKernel",
    "SymmetrizedInstance",
    "TSPError",
    "assignment_bound",
    "assignment_cycle_cover",
    "check_matrix",
    "check_tour",
    "directed_tour_to_sym",
    "exact_path",
    "exact_tour",
    "get_effort",
    "greedy_edge_tour",
    "held_karp_bound_directed",
    "held_karp_bound_symmetric",
    "identity_tour",
    "kernel_iterated_three_opt",
    "minimum_one_tree",
    "nearest_neighbor_tour",
    "out_neighbor_lists",
    "patched_tour",
    "path_cover",
    "path_cost",
    "solution_gap",
    "solve_assignment",
    "solve_dtsp",
    "symmetrize",
    "tour_cost",
]
