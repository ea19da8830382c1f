"""Karp's patching heuristic for the DTSP.

Solve the assignment relaxation, then repeatedly merge the two largest
cycles with the cheapest 2-exchange patch (Karp 1979).  The appendix notes
these AP-based approaches are "designed to exploit small gaps between the
AP bound and the optimal tour length" and underperform on alignment
instances — the A2 solver-ablation bench shows exactly that.
"""

from __future__ import annotations

import numpy as np

from repro.tsp.assignment import assignment_cycle_cover
from repro.tsp.instance import check_matrix, tour_cost, tour_from_successors


def patched_tour(matrix: np.ndarray) -> tuple[list[int], float]:
    """AP + cycle patching; returns (tour, cost)."""
    matrix = check_matrix(matrix)
    cover = assignment_cycle_cover(matrix)
    successor = cover.successor.copy()
    cycles = cover.cycles()

    while len(cycles) > 1:
        cycles.sort(key=len)
        second, first = cycles[-2], cycles[-1]
        best_delta = None
        best_pair: tuple[int, int] | None = None
        for u in first:
            su = int(successor[u])
            for w in second:
                sw = int(successor[w])
                delta = (
                    matrix[u, sw]
                    + matrix[w, su]
                    - matrix[u, su]
                    - matrix[w, sw]
                )
                if best_delta is None or delta < best_delta:
                    best_delta = delta
                    best_pair = (u, w)
        assert best_pair is not None
        u, w = best_pair
        successor[u], successor[w] = successor[w], successor[u]
        merged = first + second
        cycles = cycles[:-2]
        cycles.append(merged)

    tour = tour_from_successors(successor, start=0)
    return tour, tour_cost(matrix, tour)
