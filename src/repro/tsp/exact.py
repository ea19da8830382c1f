"""Exact DTSP solution by Held–Karp dynamic programming.

O(n² · 2ⁿ) bitmask DP — practical to n ≈ 15, which covers a large share of
real alignment instances (small procedures) and gives the test suite ground
truth to validate the heuristics and lower bounds against.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.tsp.instance import TSPError, check_matrix

#: Refuse instances beyond this size (2^20 states would already be painful).
MAX_EXACT_CITIES = 16


@lru_cache(maxsize=None)
def _layers(m: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per popcount layer 1..m-1 of the DP over ``m`` cities: the source
    masks without city k, as row k of an ``m × C(m-1, layer)`` table, and
    the flat ``dp`` index of each one's target ``(mask | bit_k, k)``.
    Depends on ``m`` only, so it is built once per size (4 MB at m = 15)
    and shared read-only."""
    masks = np.arange(1 << m, dtype=np.intp)
    cities = np.arange(m, dtype=np.intp)
    popcount = ((masks[:, None] >> cities) & 1).sum(axis=1)
    tables = []
    for layer in range(1, m):
        in_layer = masks[popcount == layer]
        sources = np.stack(
            [in_layer[(in_layer >> k) & 1 == 0] for k in range(m)]
        )
        targets = (sources | (1 << cities)[:, None]) * m + cities[:, None]
        sources.flags.writeable = targets.flags.writeable = False
        tables.append((sources, targets))
    return tables


def exact_tour(matrix: np.ndarray) -> tuple[list[int], float]:
    """Minimum-cost Hamiltonian cycle (tour, cost), anchored at city 0.

    Anchoring at a fixed city loses no generality for cycles.
    """
    matrix = check_matrix(matrix)
    n = matrix.shape[0]
    if n > MAX_EXACT_CITIES:
        raise TSPError(
            f"exact solver limited to {MAX_EXACT_CITIES} cities, got {n}"
        )
    if n == 2:
        return [0, 1], float(matrix[0, 1] + matrix[1, 0])

    m = n - 1  # cities 1..n-1
    size = 1 << m
    inf = float("inf")
    dp = np.full((size, m), inf)
    parent = np.full((size, m), -1, dtype=np.int64)
    for j in range(m):
        dp[1 << j, j] = matrix[0, j + 1]

    # Layered vectorized Held–Karp: every transition grows the subset by
    # one city, so masks are processed popcount-layer by layer, every
    # (source mask, free city k) pair of a layer relaxed in one gather.
    # dp[mask | bit_k, k] has exactly one predecessor mask (mask itself),
    # so the min over j is a plain argmin (first minimum on ties) — no
    # scatter conflicts.  dp[mask, j] is inf whenever j is outside mask
    # (never written), so unreachable predecessors exclude themselves.
    into = np.ascontiguousarray(matrix[1:, 1:].T)[:, None, :]  # c(j, k)
    flat_dp = dp.reshape(-1)
    flat_parent = parent.reshape(-1)
    for sources, targets in _layers(m):
        cand = dp[sources] + into
        arg = np.argmin(cand, axis=2)
        best = np.take_along_axis(cand, arg[..., None], axis=2)[..., 0]
        flat_dp[targets] = best
        flat_parent[targets] = np.where(best < inf, arg, -1)

    full = size - 1
    closing = dp[full] + matrix[1:, 0]
    last = int(np.argmin(closing))
    best = float(closing[last])

    order = []
    mask, j = full, last
    while j != -1:
        order.append(j + 1)
        mask, j = mask ^ (1 << j), int(parent[mask, j])
    order.append(0)
    order.reverse()
    return order, best


def exact_path(matrix: np.ndarray, start: int, end: int) -> tuple[list[int], float]:
    """Minimum-cost Hamiltonian path from ``start`` to ``end``.

    Implemented by zeroing the closing edge: solve the cycle problem on a
    matrix where end→start costs 0 and end→anything-else is forbidden.
    """
    matrix = check_matrix(matrix).copy()
    n = matrix.shape[0]
    if not (0 <= start < n and 0 <= end < n) or start == end:
        raise TSPError("invalid path endpoints")
    big = float(matrix.max()) * n + 1.0
    matrix[end, :] = big
    matrix[end, start] = 0.0
    matrix[:, start] = big
    matrix[end, start] = 0.0
    # Re-anchor city indices so the DP's fixed city is `start`.
    perm = [start] + [c for c in range(n) if c != start]
    inv = {c: i for i, c in enumerate(perm)}
    permuted = matrix[np.ix_(perm, perm)]
    tour, cost = exact_tour(permuted)
    path = [perm[c] for c in tour]
    if path[-1] != end:
        raise TSPError("no Hamiltonian path respects the endpoints")
    return path, cost
