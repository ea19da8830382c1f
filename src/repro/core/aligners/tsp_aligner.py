"""The paper's contribution: near-optimal alignment via the DTSP reduction.

Build the §2.2 cost matrix, solve the DTSP exactly, and read the tour back
as a layout.  An alignment row costs one default except toward a few CFG
successors, so the optimum is a maximum-weight path cover over the
profitable successor arcs (:mod:`repro.tsp.path_cover`), and its paths
joined in order are an optimal tour.  The paper's iterated 3-Opt
(:func:`~repro.tsp.solve.solve_dtsp` at its ``default`` preset, exact DP
on small procedures) runs only when a hand-built model makes that tour
miss the cover's floor.
Also exposes the per-procedure certified lower bound — the provable floor
under any layout's control penalty, which is that same optimum.

Resilience: the aligner is a best-effort pass.  When the solver exhausts
its :class:`~repro.budget.Budget` (or a fault is injected), it *degrades*
instead of raising, stepping down a ladder of ever-cheaper rungs:

    tsp (full solve) → construction (best of greedy-edge / nearest-neighbor
    / identity tours, plus the best cover salvaged from the interrupted
    search) → greedy (Pettis–Hansen chaining) → original (no reordering)

Every rung yields a valid, penalty-evaluable layout; the construction rung
always considers the identity tour, so a degraded result is never worse
than the original layout under the training profile.  The rung used is
recorded on the returned :class:`TspAlignment` together with a structured
warning.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import faults
from repro.budget import Budget, BudgetTimer, ensure_timer
from repro.cfg.graph import ControlFlowGraph
from repro.core.aligners.greedy import pettis_hansen_layout
from repro.core.costmatrix import AlignmentInstance, build_alignment_instance
from repro.core.layout import Layout, original_layout
from repro.errors import ReproError, SolverBudgetExceeded
from repro.machine.models import PenaltyModel
from repro.machine.predictors import StaticPredictor
from repro.profiles.edge_profile import EdgeProfile
from repro.tsp.construction import (
    greedy_edge_tour,
    identity_tour,
    nearest_neighbor_tour,
)
from repro.tsp.instance import tour_cost
from repro.tsp.path_cover import PathCover, path_cover
from repro.tsp.solve import solve_dtsp

#: Rung names of the degradation ladder, in order of decreasing quality.
DEGRADATION_RUNGS = ("none", "construction", "greedy", "original")


@dataclass
class TspAlignment:
    """Result of aligning one procedure via the DTSP reduction."""

    layout: Layout
    cost: float                     # penalty cycles of the layout
    instance: AlignmentInstance
    #: Which ladder rung produced the layout ("none" = the full TSP solve).
    degraded: str = "none"
    #: Human-readable reason when ``degraded != "none"``.
    warning: str | None = None
    #: The path-cover search's result when the search ran to completion;
    #: its ``bound`` is this instance's certified lower bound.
    cover: PathCover | None = None


def _best_construction_layout(
    instance: AlignmentInstance,
    seed: int,
    salvaged: list[list[int]],
) -> tuple[Layout, float]:
    """The construction rung: cheapest of the deterministic construction
    tours and any tour salvaged from an interrupted solve.

    The identity tour (= the original layout) is always a candidate, so the
    result never costs more than the original layout.
    """
    rng = random.Random(seed)
    n = instance.n
    candidates: list[list[int]] = [identity_tour(n)]
    candidates.extend(list(tour) for tour in salvaged)
    try:
        candidates.append(greedy_edge_tour(instance.matrix, rng, jitter=0.0))
    except Exception:  # noqa: BLE001 — a broken heuristic must not block the rung
        pass
    try:
        candidates.append(
            nearest_neighbor_tour(instance.matrix, rng, candidates=1)
        )
    except Exception:  # noqa: BLE001
        pass
    best = min(candidates, key=lambda tour: tour_cost(instance.matrix, tour))
    layout = instance.layout_from_cycle(best)
    return layout, instance.layout_cost(layout)


def _optimum(
    instance: AlignmentInstance, timer: BudgetTimer | None
) -> PathCover:
    """The instance's path-cover optimum; raises
    :class:`~repro.errors.SolverBudgetExceeded` once ``timer`` expires."""
    return path_cover(instance.matrix, *instance.sparse_form(), budget=timer)


def tsp_align(
    cfg: ControlFlowGraph,
    profile: EdgeProfile,
    model: PenaltyModel,
    *,
    predictor: StaticPredictor | None = None,
    seed: int = 0,
    budget: Budget | BudgetTimer | None = None,
    instance: AlignmentInstance | None = None,
) -> TspAlignment:
    """Align one procedure, returning the layout and solver diagnostics.

    Never raises :class:`~repro.errors.SolverBudgetExceeded`: on budget
    expiry (or injected fault) the result comes from a cheaper rung of the
    degradation ladder, recorded in ``degraded``/``warning``.

    ``instance`` optionally supplies a pre-built DTSP instance for this
    exact (cfg, profile, model, predictor) — the pipeline's content-
    addressed cache passes one in so repeated solves share the matrix.

    The search always runs under this call's own ``budget``; a search
    that completes is returned as ``cover``, so the bound stage need not
    repeat it.  The 3-Opt fallback runs only when the cover's joined tour
    misses its floor, which needs a model that is not
    :attr:`~repro.machine.models.PenaltyModel.fallthrough_monotone`.
    Every shipped model, and every ``from_pipeline`` one with
    non-negative parameters, is monotone, so the fallback guards only
    hand-built models.
    """
    if instance is None:
        instance = build_alignment_instance(
            cfg, profile, model, predictor=predictor
        )
    if len(cfg) <= 2 or profile.total() == 0:
        layout = original_layout(cfg)
        return TspAlignment(
            layout=layout,
            cost=instance.layout_cost(layout),
            instance=instance,
        )

    timer = ensure_timer(budget)
    salvaged: list[list[int]] = []
    warning: str
    try:
        faults.check_solver_timeout()
        cover = _optimum(instance, timer)
        tour, cost = cover.tour, cover.cost
        if not cover.optimal:
            result = solve_dtsp(instance.matrix, seed=seed, budget=timer)
            if result.cost < cost:
                tour, cost = result.tour, result.cost
        if cost < instance.big:
            return TspAlignment(
                layout=instance.layout_from_cycle(tour),
                cost=cost,
                instance=instance,
                cover=cover,
            )
        # A tour through a forbidden edge (neither the cover's join nor
        # the fallback, with its identity start, needs one): fail safe.
        warning = "solver tour used a forbidden edge"
    except SolverBudgetExceeded as exc:
        warning = str(exc)
        if exc.best_so_far is not None:
            salvaged.append(exc.best_so_far)

    # Rung: best construction tour (identity always included, so never
    # worse than the original layout).
    try:
        faults.check_construction_failure()
        layout, cost = _best_construction_layout(instance, seed, salvaged)
        if cost < instance.big:
            return TspAlignment(
                layout=layout,
                cost=cost,
                instance=instance,
                degraded="construction",
                warning=warning,
            )
        warning += "; construction tour used a forbidden edge"
    except (ReproError, ValueError) as exc:
        warning += f"; construction rung failed: {exc}"

    # Rung: greedy (Pettis–Hansen) alignment.  Greedy chaining is not
    # guaranteed to beat the original order, so keep whichever is cheaper —
    # every rung of the ladder is never worse than no reordering.
    try:
        faults.check_greedy_failure()
        layout = pettis_hansen_layout(cfg, profile)
        cost = instance.layout_cost(layout)
        fallback = original_layout(cfg)
        fallback_cost = instance.layout_cost(fallback)
        if fallback_cost < cost:
            layout, cost = fallback, fallback_cost
        return TspAlignment(
            layout=layout,
            cost=cost,
            instance=instance,
            degraded="greedy",
            warning=warning,
        )
    except (ReproError, ValueError) as exc:
        warning += f"; greedy rung failed: {exc}"

    # Rung of last resort: the original layout, which always exists.
    layout = original_layout(cfg)
    return TspAlignment(
        layout=layout,
        cost=instance.layout_cost(layout),
        instance=instance,
        degraded="original",
        warning=warning,
    )


def alignment_lower_bound(
    cfg: ControlFlowGraph,
    profile: EdgeProfile,
    model: PenaltyModel,
    *,
    instance: AlignmentInstance | None = None,
    cover: PathCover | None = None,
    budget: Budget | BudgetTimer | None = None,
) -> float:
    """Certified lower bound on the procedure's achievable control penalty.

    No layout of this procedure can have a smaller total penalty under this
    profile and machine model.  The bound is the optimum: the cost of the
    tour the path-cover search reconstructs (see
    :mod:`repro.tsp.path_cover`), or the cover's floor in the rare case
    that tour does not attain it.  ``cover`` supplies a completed search
    of this procedure's instance (a :attr:`TspAlignment.cover`), which is
    then read instead of searched again.

    Degrades, never raises: on an exhausted budget (or injected fault) the
    loosest certified bound — 0.0, since penalties are non-negative — is
    returned.
    """
    if profile.total() == 0:
        return 0.0
    try:
        faults.check_bound_timeout()
    except SolverBudgetExceeded:
        return 0.0
    if cover is not None:
        return cover.bound
    if instance is None:
        instance = build_alignment_instance(cfg, profile, model)
    try:
        return _optimum(instance, ensure_timer(budget)).bound
    except SolverBudgetExceeded:
        return 0.0
