"""The 2-node DTSP→STSP transformation.

City v becomes two nodes: *in(v)* (= v) and *out(v)* (= n + v).  The edge
{in(v), out(v)} gets weight −M and is locked into every optimal tour; the
edge {out(u), in(v)} gets the directed cost c(u, v); every other pair (in–in
or out–out) is forbidden at +M.  A symmetric tour containing all n locked
edges alternates in/out nodes and reads off as a directed tour of cost
(symmetric cost + n·M).

The alignment pipeline uses this transformation where the paper does: to
compute Held–Karp lower bounds on the symmetrized instance (Appendix).  The
local search explores the equivalent move space directly on the directed
matrix (see :mod:`repro.tsp.kernel`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tsp.instance import TSPError, check_matrix


@dataclass
class SymmetrizedInstance:
    """A doubled symmetric instance derived from a directed matrix."""

    sym_matrix: np.ndarray
    lock_weight: float     # the M of the −M locked edges
    forbid_weight: float   # the +M of in–in / out–out edges
    n_cities: int

    def in_node(self, city: int) -> int:
        return city

    def out_node(self, city: int) -> int:
        return self.n_cities + city

    def directed_cost(self, sym_tour_cost: float) -> float:
        """Directed tour cost corresponding to a feasible symmetric cost."""
        return sym_tour_cost + self.n_cities * self.lock_weight

    def directed_tour_from_sym(self, sym_tour: list[int]) -> list[int]:
        """Decode a feasible symmetric tour into the directed city order."""
        n = self.n_cities
        if sorted(sym_tour) != list(range(2 * n)):
            raise TSPError("symmetric tour is not a permutation of 2n nodes")
        # Walk the cycle; successive (in, out) pairs give the city order.
        # Normalize direction so we traverse in -> out across locked edges.
        start = sym_tour.index(0)  # in-node of city 0
        cycle = sym_tour[start:] + sym_tour[:start]
        if cycle[1] != self.out_node(0):
            cycle = [cycle[0]] + cycle[:0:-1]
        if cycle[1] != self.out_node(0):
            raise TSPError("symmetric tour does not honor the locked edges")
        cities = []
        for i in range(0, 2 * n, 2):
            in_node, out_node = cycle[i], cycle[i + 1]
            if out_node != in_node + n:
                raise TSPError("symmetric tour does not honor the locked edges")
            cities.append(in_node)
        return cities


def symmetrize(
    matrix: np.ndarray, *, tour_upper_bound: float | None = None
) -> SymmetrizedInstance:
    """Build the doubled symmetric instance for a directed matrix.

    ``tour_upper_bound`` should be the cost of any known feasible directed
    tour.  The lock weight only needs to exceed the optimal directed cost
    for locked edges to dominate, and keeping it small preserves floating-
    point precision in downstream bound computations.  Without a bound we
    fall back to n · max-entry, which is always sufficient (all costs are
    non-negative in alignment instances).
    """
    matrix = check_matrix(matrix)
    n = matrix.shape[0]
    if (matrix < 0).any():
        raise TSPError("symmetrize expects non-negative directed costs")
    if tour_upper_bound is None:
        tour_upper_bound = float(matrix.max()) * n
    lock = float(tour_upper_bound) + 1.0
    forbid = (2.0 * n + 4.0) * lock + 1.0

    sym = np.full((2 * n, 2 * n), forbid, dtype=float)
    # out(u) -- in(v) edges carry the directed costs (both triangle halves).
    sym[n:, :n] = matrix
    sym[:n, n:] = matrix.T
    # Locked in(v) -- out(v) pairs.
    idx = np.arange(n)
    sym[idx, idx + n] = -lock
    sym[idx + n, idx] = -lock
    np.fill_diagonal(sym, forbid)
    return SymmetrizedInstance(
        sym_matrix=sym, lock_weight=lock, forbid_weight=forbid, n_cities=n
    )


def directed_tour_to_sym(tour: list[int], n: int) -> list[int]:
    """Encode a directed tour as the corresponding symmetric tour."""
    sym_tour: list[int] = []
    for city in tour:
        sym_tour.append(city)
        sym_tour.append(n + city)
    return sym_tour
