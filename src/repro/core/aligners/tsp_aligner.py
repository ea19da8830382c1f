"""The paper's contribution: near-optimal alignment via the DTSP reduction.

Build the §2.2 cost matrix, solve the DTSP with iterated 3-Opt (exact DP on
small procedures), and read the tour back as a layout.  The search stops
as soon as its tour is proved optimal — by the assignment bound or by a
small branch-and-bound certificate (see ``_stop_rule``).  Also exposes the
per-procedure Held–Karp lower bound — the provable floor under any layout's
control penalty.

Resilience: the aligner is a best-effort pass.  When the solver exhausts
its :class:`~repro.budget.Budget` (or a fault is injected), it *degrades*
instead of raising, stepping down a ladder of ever-cheaper rungs:

    tsp (full solve) → construction (best of greedy-edge / nearest-neighbor
    / identity tours, plus any tour salvaged from the interrupted solve)
    → greedy (Pettis–Hansen chaining) → original (no reordering)

Every rung yields a valid, penalty-evaluable layout; the construction rung
always considers the identity tour, so a degraded result is never worse
than the original layout under the training profile.  The rung used is
recorded on the returned :class:`TspAlignment` together with a structured
warning.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import faults, obs
from repro.budget import Budget, BudgetTimer, ensure_timer
from repro.cfg.graph import ControlFlowGraph
from repro.core.aligners.greedy import pettis_hansen_layout
from repro.core.costmatrix import AlignmentInstance, build_alignment_instance
from repro.core.layout import Layout, original_layout
from repro.errors import ReproError, SolverBudgetExceeded
from repro.machine.models import PenaltyModel
from repro.machine.predictors import StaticPredictor
from repro.profiles.edge_profile import EdgeProfile
from repro.tsp.assignment import assignment_cycle_cover
from repro.tsp.branch_and_bound import branch_and_bound
from repro.tsp.construction import (
    greedy_edge_tour,
    identity_tour,
    nearest_neighbor_tour,
)
from repro.tsp.held_karp import held_karp_bound_directed
from repro.tsp.instance import tour_cost
from repro.tsp.solve import DEFAULT, Effort, get_effort, solve_dtsp, solves_exactly

#: Rung names of the degradation ladder, in order of decreasing quality.
DEGRADATION_RUNGS = ("none", "construction", "greedy", "original")

#: Node cap of the first run's optimality certificate, per city.  Small on
#: purpose: a certificate that does not close quickly costs more than the
#: remaining starts it would save.
CERTIFY_NODES_PER_CITY = 8


@dataclass
class TspAlignment:
    """Result of aligning one procedure via the DTSP reduction."""

    layout: Layout
    cost: float                     # penalty cycles of the layout
    instance: AlignmentInstance
    runs_finding_best: int = 0
    runs_total: int = 0
    #: Which ladder rung produced the layout ("none" = the full TSP solve).
    degraded: str = "none"
    #: Human-readable reason when ``degraded != "none"``.
    warning: str | None = None
    #: The proven optimum of ``instance`` when the solve ended at a proof
    #: (exact DP, or a cost that met the AP target or the target a
    #: branch-and-bound certificate proved), and ``instance`` is the one
    #: the bound stage builds (no predictor).  The bound stage returns it
    #: instead of proving it again.  ``None`` on every degraded rung.
    optimum: float | None = None


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


class _Certificate:
    """Branch and bound on the first run's tour, capped at
    :data:`CERTIFY_NODES_PER_CITY` nodes per city and polling the budget:
    the ``certify`` callable of :func:`~repro.tsp.solve.solve_dtsp`.  It
    returns the proven optimum, or None, and keeps it as ``proven``."""

    def __init__(self, matrix, timer: BudgetTimer | None) -> None:
        self.matrix = matrix
        self.timer = timer
        self.proven: float | None = None

    def __call__(self, tour: list[int], cost: float) -> float | None:
        proof = branch_and_bound(
            self.matrix,
            upper_bound=cost,
            initial_tour=tour,
            max_nodes=CERTIFY_NODES_PER_CITY * self.matrix.shape[0],
            budget=self.timer,
            caller="certificate",
        )
        obs.count("tsp.certified_bnb", int(proof.optimal))
        if not proof.optimal:
            return None
        self.proven = proof.cost
        return self.proven


def _stop_rule(matrix, effort: Effort, timer: BudgetTimer | None):
    """The certify-and-stop rule for one solve: ``(target, certify)``.

    The target is the assignment (AP) bound, which no tour beats, so a tour
    that meets it is optimal.  ``certify`` is a :class:`_Certificate`.
    Only the proof is used — BnB's own tour never becomes a layout, so
    layouts stay the kernel's whichever assignment backend broke ties.
    The exact-DP path needs neither: ``(None, None)``.
    """
    if solves_exactly(matrix.shape[0], effort):
        return None, None
    return assignment_cycle_cover(matrix).cost, _Certificate(matrix, timer)


def _proven_optimum(result, n: int, effort: Effort, target, certify):
    """The optimum a finished solve proved, or None: its cost when exact
    DP found it, or when it met the AP target or the optimum the
    certificate proved (then the lower of the two, the certified floor)."""
    if solves_exactly(n, effort):
        return result.cost
    for floor in (target, None if certify is None else certify.proven):
        if floor is not None and result.cost <= floor + 1e-9:
            return min(result.cost, floor)
    return None


def tsp_align(
    cfg: ControlFlowGraph,
    profile: EdgeProfile,
    model: PenaltyModel,
    *,
    predictor: StaticPredictor | None = None,
    effort: Effort | str = DEFAULT,
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
    """
    effort = get_effort(effort)
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
        target, certify = _stop_rule(instance.matrix, effort, timer)
        result = solve_dtsp(
            instance.matrix, effort=effort, seed=seed, budget=timer,
            target=target, certify=certify,
        )
        if target is not None:
            obs.count("tsp.certified_ap", int(result.cost <= target + 1e-9))
        if result.cost < instance.big:
            return TspAlignment(
                layout=instance.layout_from_cycle(result.tour),
                cost=result.cost,
                instance=instance,
                runs_finding_best=result.runs_finding_best,
                runs_total=len(result.runs),
                optimum=(
                    None if predictor is not None
                    else _proven_optimum(
                        result, instance.n, effort, target, certify
                    )
                ),
            )
        # The solver failed to avoid a forbidden edge (cannot happen with an
        # identity start in the mix, but fail safe rather than corrupt).
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
    upper_bound: float | None = None,
    iterations: int | None = None,
    exact_nodes: int = 20_000,
    budget: Budget | BudgetTimer | None = None,
    optimum: float | None = None,
) -> float:
    """Certified lower bound on the procedure's achievable control penalty.

    No layout of this procedure can have a smaller total penalty under this
    profile and machine model.  The bound is the optimum when it can be
    proved: directly, when the assignment (AP) relaxation's cycle cover is
    a single tour, or by branch and bound within ``exact_nodes``
    subproblems (most suite procedures certify in a few dozen nodes; the
    eqntott ``eval_expr`` bound takes 1 146).  Otherwise it is the
    Held–Karp subgradient bound — the paper's appendix bound.  Pass
    ``exact_nodes=0`` to force pure Held–Karp.

    ``upper_bound`` should be the cost of a known tour (the tsp aligner's);
    without one, a quick solve supplies it.  Either way branch and bound
    starts from that incumbent and runs no heuristic of its own.

    ``optimum`` is an optimum the tsp aligner already proved on this
    instance (:attr:`TspAlignment.optimum`): it is returned, capped at
    ``upper_bound``, with no relaxation or search, and counted in
    ``bound.proofs_reused``.

    Degrades, never raises: on an exhausted budget (or injected fault) the
    loosest certified bound — 0.0, since penalties are non-negative — is
    returned.
    """
    if profile.total() == 0:
        return 0.0
    timer = ensure_timer(budget)
    try:
        faults.check_bound_timeout()
        if optimum is not None:
            obs.count("bound.proofs_reused")
            return optimum if upper_bound is None else min(optimum, upper_bound)
        if instance is None:
            instance = build_alignment_instance(cfg, profile, model)
        if exact_nodes > 0 and (timer is None or not timer.expired):
            cover = assignment_cycle_cover(instance.matrix)
            if cover.is_tour:
                # A tour as cheap as the relaxation is optimal.
                if upper_bound is None:
                    return cover.cost
                return min(cover.cost, upper_bound)
        incumbent = None
        if upper_bound is None:
            # A tight upper bound keeps the subgradient step sizes sane; a
            # quick heuristic tour is far tighter than the original layout.
            original_cost = instance.layout_cost(original_layout(cfg))
            upper_bound = original_cost
            try:
                quick = solve_dtsp(instance.matrix, effort="quick", budget=timer)
                if quick.cost < original_cost:
                    incumbent, upper_bound = quick.tour, quick.cost
            except SolverBudgetExceeded:
                pass
        if exact_nodes > 0:
            exact = branch_and_bound(
                instance.matrix,
                upper_bound=upper_bound,
                initial_tour=incumbent,
                max_nodes=exact_nodes,
                budget=timer,
            )
            if exact.optimal:
                return min(exact.cost, upper_bound)
        result = held_karp_bound_directed(
            instance.matrix,
            tour_upper_bound=upper_bound,
            iterations=iterations,
            budget=timer,
        )
        return min(result.bound, upper_bound)
    except SolverBudgetExceeded:
        return 0.0
