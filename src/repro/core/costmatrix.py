"""Reduction of branch alignment to a DTSP cost matrix (§2.2).

Cities are the procedure's basic blocks plus one dummy end-of-layout city.
The cost of directed edge (B, X) is the penalty charged at B's end when X
succeeds B in the layout, so the cost of the walk entry → … → dummy equals
the total control penalty of the layout.

The walk is anchored by construction: entering the entry city from anywhere
but the dummy is forbidden (BIG), and the dummy can only be left toward the
entry, so every finite-cost tour is ``entry, …, dummy`` up to rotation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cfg.blocks import TerminatorKind
from repro.cfg.graph import ControlFlowGraph
from repro.core.costmodel import successor_counts, terminator_cost
from repro.core.layout import Layout
from repro.machine.models import PenaltyModel
from repro.machine.predictors import StaticPredictor
from repro.profiles.edge_profile import EdgeProfile

#: Pseudo block id of the dummy end-of-layout city.
DUMMY_CITY = -1


@dataclass
class AlignmentInstance:
    """A DTSP instance for one procedure.

    ``cities[i]`` is the block id of matrix row/column ``i``; the entry block
    is city 0 and the dummy is the last city.  ``big`` marks forbidden edges;
    any tour with cost below ``big`` uses none of them.
    """

    cities: tuple[int, ...]
    matrix: np.ndarray
    big: float

    @property
    def n(self) -> int:
        return len(self.cities)

    @property
    def entry_index(self) -> int:
        return 0

    @property
    def dummy_index(self) -> int:
        return self.n - 1

    def sparse_form(self) -> tuple[np.ndarray, np.ndarray]:
        """``(defaults, arcs)``: each row's default cost and the
        profitable arcs, ``(src, dst)`` rows cheaper than their row's
        default.  A block's default is its cost toward the dummy (no CFG
        successor is the dummy); the dummy's is its zero toward the
        entry.  Self-loops and arcs into the entry are excluded, and so
        is a successor that costs more than its default — a tour that
        needs one pays more than the path-cover floor."""
        matrix = self.matrix
        entry, dummy = self.entry_index, self.dummy_index
        defaults = matrix[:, dummy].copy()
        defaults[dummy] = matrix[dummy, entry]
        profitable = matrix < defaults[:, None]
        profitable[:, entry] = False
        np.fill_diagonal(profitable, False)
        return defaults, np.argwhere(profitable)

    def index_of(self) -> dict[int, int]:
        return {city: i for i, city in enumerate(self.cities)}

    def layout_cost(self, layout: Layout) -> float:
        """Control penalty of a layout = cost of the corresponding walk."""
        index = self.index_of()
        order = [index[block_id] for block_id in layout.order]
        order.append(self.dummy_index)
        return float(
            sum(self.matrix[a, b] for a, b in zip(order, order[1:]))
        )

    def layout_from_cycle(self, cycle: list[int]) -> Layout:
        """Convert a Hamiltonian cycle (city indices) into a layout by
        rotating the dummy to the end."""
        if sorted(cycle) != list(range(self.n)):
            raise ValueError("cycle is not a permutation of the cities")
        at = cycle.index(self.dummy_index)
        rotated = cycle[at + 1:] + cycle[:at]
        return Layout(tuple(self.cities[i] for i in rotated))


def build_alignment_instance(
    cfg: ControlFlowGraph,
    profile: EdgeProfile,
    model: PenaltyModel,
    *,
    predictor: StaticPredictor | None = None,
) -> AlignmentInstance:
    """Build the DTSP matrix for one procedure.

    ``profile`` supplies the edge counts the costs are computed from;
    ``predictor`` defaults to static prediction trained on the same profile
    (the paper's setting — pass a predictor trained elsewhere to build
    cross-validation evaluation matrices).
    """
    if predictor is None:
        predictor = StaticPredictor.train(cfg, profile)

    block_ids = [cfg.entry] + sorted(b for b in cfg.block_ids if b != cfg.entry)
    cities = (*block_ids, DUMMY_CITY)
    n = len(cities)
    index = {city: i for i, city in enumerate(cities)}
    matrix = np.zeros((n, n), dtype=float)

    # Fill each block's row: the cost is the "no useful successor" default
    # everywhere except toward the block's own CFG successors, so each row
    # is O(n) plus a handful of exact recomputations.
    finite_total = 0.0
    for block_id in block_ids:
        block = cfg.block(block_id)
        counts = successor_counts(profile.counts, block)
        predicted = predictor.predict(block_id)
        row = index[block_id]
        default = terminator_cost(block, counts, predicted, None, model).total
        matrix[row, :] = default
        for succ in block.successors:
            cost = terminator_cost(block, counts, predicted, succ, model).total
            matrix[row, index[succ]] = cost
        finite_total += float(matrix[row].max())
    # Dummy row cost toward the entry is zero; set below with BIG elsewhere.

    big = 10.0 * (finite_total + 1.0) + 1000.0
    dummy = index[DUMMY_CITY]
    entry = index[cfg.entry]
    np.fill_diagonal(matrix, big)
    matrix[dummy, :] = big
    matrix[dummy, entry] = 0.0
    # Nothing but the dummy may precede the entry: anchors the walk.
    matrix[:, entry] = np.where(
        np.arange(n) == dummy, matrix[:, entry], big
    )
    # Blocks cost nothing toward the dummy beyond their computed default —
    # but the default column value was already written per-row above; the
    # dummy column keeps those defaults (no CFG successor is the dummy).
    return AlignmentInstance(cities=cities, matrix=matrix, big=big)


def instance_statistics(instance: AlignmentInstance) -> dict[str, float]:
    """Small descriptive summary used by reports and tests."""
    finite = instance.matrix[instance.matrix < instance.big]
    return {
        "cities": float(instance.n),
        "finite_edges": float(finite.size),
        "max_cost": float(finite.max()) if finite.size else 0.0,
        "mean_cost": float(finite.mean()) if finite.size else 0.0,
    }


def has_real_choice(cfg: ControlFlowGraph, profile: EdgeProfile) -> bool:
    """True when the procedure's alignment is non-trivial: at least one
    executed block with more than one possible layout benefit.  Procedures
    that never executed need no alignment at all."""
    for block in cfg:
        if profile.block_exit_count(block.block_id) > 0:
            if block.kind in (TerminatorKind.CONDITIONAL, TerminatorKind.MULTIWAY):
                return True
            if block.kind is TerminatorKind.UNCONDITIONAL:
                return True
    return False
