"""Ablation A2 — the solver ladder.

How much tour quality does each level of solver machinery buy, at what
cost?  Construction heuristics (NN, greedy-edge), AP + Karp patching, one
3-Opt descent from the compiler order, and iterated 3-Opt (default and the
appendix's 10-run "paper" budget), measured on alignment DTSP instances
against the branch-and-bound optimum.  The 3-Opt rungs run on the solver
kernel.
"""

import random
import time

from repro.experiments import esp_scale_instances, format_table
from repro.tsp import (
    SolverKernel,
    branch_and_bound,
    greedy_edge_tour,
    identity_tour,
    kernel_iterated_three_opt,
    nearest_neighbor_tour,
    patched_tour,
    tour_cost,
)
from repro.tsp.solve import PAPER

LADDER = ["nn", "greedy-edge", "patch", "3opt", "iterated", "paper"]


def solve(level, matrix, seed):
    rng = random.Random(seed)
    if level == "nn":
        return tour_cost(matrix, nearest_neighbor_tour(matrix, rng))
    if level == "greedy-edge":
        return tour_cost(matrix, greedy_edge_tour(matrix, rng))
    if level == "patch":
        return patched_tour(matrix)[1]
    if level == "3opt":
        kernel = SolverKernel(matrix)
        state = kernel.state_from(identity_tour(matrix.shape[0]))
        kernel.descend(state, or_opt=False)
        return tour_cost(matrix, state.tour.tolist())
    if level == "iterated":
        return kernel_iterated_three_opt(matrix, seed=seed).cost
    return kernel_iterated_three_opt(
        matrix, starts=PAPER.starts, iterations=PAPER.iterations, seed=seed
    ).cost


def compute():
    instances = [
        (name, matrix)
        for name, matrix in esp_scale_instances(procedures=20, seed=11)
        if matrix.shape[0] >= 8
    ]
    optima = {}
    for name, matrix in instances:
        result = branch_and_bound(matrix, max_nodes=30_000)
        optima[name] = result.cost if result.optimal else None

    rows = []
    mean_gaps = {}
    for level in LADDER:
        gaps = []
        started = time.perf_counter()
        for index, (name, matrix) in enumerate(instances):
            cost = solve(level, matrix, seed=index)
            optimum = optima[name]
            if optimum is not None and optimum > 0:
                gaps.append((cost - optimum) / optimum)
            elif optimum is not None:
                gaps.append(0.0 if cost <= 1e-9 else 1.0)
        elapsed = time.perf_counter() - started
        mean_gap = sum(gaps) / len(gaps)
        mean_gaps[level] = mean_gap
        rows.append([
            level,
            f"{100 * mean_gap:.2f}%",
            f"{100 * max(gaps):.2f}%",
            sum(1 for g in gaps if g <= 1e-6),
            elapsed,
        ])
    return rows, mean_gaps, len(instances)


def test_ablation_solvers(benchmark, emit):
    rows, mean_gaps, n = benchmark.pedantic(
        compute, rounds=1, iterations=1, warmup_rounds=0
    )
    emit("ablation_solvers", format_table(
        ["solver", "mean gap to optimum", "max gap", "optimal found",
         "seconds"],
        rows,
        title=f"Ablation A2: solver ladder on {n} alignment instances",
    ))

    # Local search beats pure construction...
    assert mean_gaps["3opt"] <= min(mean_gaps["nn"], mean_gaps["greedy-edge"])
    # ...iteration beats a single descent...
    assert mean_gaps["iterated"] <= mean_gaps["3opt"] + 1e-9
    # ...and the paper budget is essentially optimal on these instances.
    assert mean_gaps["paper"] <= mean_gaps["iterated"] + 1e-9
    assert mean_gaps["paper"] < 0.01
