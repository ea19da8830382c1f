"""Top-level alignment API.

    profile = ...                     # ProgramProfile from a training run
    layouts = align_program(program, profile, method="tsp", jobs=4)
    penalty = evaluate_program(program, layouts, profile, ALPHA_21164)

Methods: ``original`` (no reordering), ``greedy`` (Pettis–Hansen frequency
chaining — the paper's baseline), ``cost-greedy`` (Calder–Grunwald-style),
``tsp`` (the paper's near-optimal DTSP alignment), and the modern
Ext-TSP pair — ``chain-merge`` (greedy chain splits/merges maximizing the
Ext-TSP gain, à la Newell–Pupyrev) and ``exttsp`` (the maximum-weight path
cover of the edge counts, exact under the default weights on a procedure
that fits the windows, or the chain-merge order where that scores
higher).  Every aligner's layout carries its Ext-TSP score
(:mod:`repro.core.exttsp`) on its
:class:`~repro.pipeline.task.ProcedureResult`; the ``tsp`` result also
carries its tour cost under the §2.2 DTSP instance, and every layout's
paper penalty comes from the evaluation stage.

Methods are *registered*, not hard-coded: each built-in below is a
:func:`~repro.pipeline.registry.register_aligner` entry mapping a
:class:`~repro.pipeline.task.ProcedureTask` to a
:class:`~repro.pipeline.task.ProcedureResult`, and ``ALIGN_METHODS`` is a
live view over the registry.  ``align_program`` itself is a thin wrapper
around the staged pipeline (:mod:`repro.pipeline.stages`), which adds
content-addressed caching of cost matrices / solved alignments and optional
per-procedure parallelism (``jobs=``) on top of the same dispatch.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field

from repro import obs
from repro.budget import Budget, RetryPolicy
from repro.cfg.graph import Program
from repro.core.aligners.exttsp_merge import (
    MergeStats,
    chain_merge_layout,
    exttsp_layout,
)
from repro.core.aligners.greedy import calder_grunwald_layout, pettis_hansen_layout
from repro.core.aligners.tsp_aligner import tsp_align
from repro.core.exttsp import exttsp_score
from repro.core.layout import ProgramLayout, original_layout
from repro.machine.models import ALPHA_21164, PenaltyModel
from repro.pipeline.registry import (
    MethodsView,
    normalize_method,
    register_aligner,
)
from repro.pipeline.stages import (
    align_procedures,
    instance_for,
    lower_bound_procedures,
    merge_order_for,
)
from repro.pipeline.task import ProcedureResult, ProcedureTask
from repro.profiles.edge_profile import ProgramProfile

# -- the built-in aligners ----------------------------------------------------


@register_aligner("original", description="keep the compiler's block order")
def _align_original(task: ProcedureTask) -> ProcedureResult:
    layout = original_layout(task.cfg)
    return ProcedureResult(
        task.name,
        layout,
        exttsp_score=exttsp_score(task.cfg, layout, task.profile),
    )


def _priced_result(task: ProcedureTask, layout) -> ProcedureResult:
    """Wrap a heuristic layout with its Ext-TSP score.  Its paper penalty
    is the evaluation stage's to compute: the result carries no DTSP cost
    or instance, so heuristics neither build nor look up the matrix."""
    return ProcedureResult(
        name=task.name,
        layout=layout,
        exttsp_score=exttsp_score(task.cfg, layout, task.profile),
    )


@register_aligner(
    "greedy",
    aliases=("pettis-hansen", "ph"),
    description="Pettis–Hansen frequency chaining (the paper's baseline)",
)
def _align_greedy(task: ProcedureTask) -> ProcedureResult:
    return _priced_result(
        task, pettis_hansen_layout(task.cfg, task.profile)
    )


@register_aligner(
    "cost-greedy",
    aliases=("calder-grunwald", "cg"),
    description="Calder–Grunwald cost-model greedy chaining",
)
def _align_cost_greedy(task: ProcedureTask) -> ProcedureResult:
    return _priced_result(
        task,
        calder_grunwald_layout(task.cfg, task.profile, task.model),
    )


@register_aligner(
    "cg-exhaustive",
    description="Calder–Grunwald plus exhaustive search over the blocks "
    "touched by the 15 hottest edges (§5)",
)
def _align_cg_exhaustive(task: ProcedureTask) -> ProcedureResult:
    return _priced_result(
        task,
        calder_grunwald_layout(
            task.cfg, task.profile, task.model, exhaustive_edges=15
        ),
    )


@register_aligner(
    "tsp",
    aliases=("dtsp",),
    description="the paper's near-optimal DTSP alignment",
)
def _align_tsp(task: ProcedureTask) -> ProcedureResult:
    instance = instance_for(task)
    with obs.span("tsp_solver", proc=task.name) as sp:
        alignment = tsp_align(
            task.cfg,
            task.profile,
            task.model,
            predictor=task.predictor,
            seed=task.effective_seed,
            budget=task.budget,
            instance=instance,
        )
        sp["cities"] = alignment.instance.n
        sp["degraded"] = alignment.degraded
    return ProcedureResult(
        name=task.name,
        layout=alignment.layout,
        cost=alignment.cost,
        exttsp_score=exttsp_score(task.cfg, alignment.layout, task.profile),
        cities=alignment.instance.n,
        degraded=alignment.degraded,
        warning=alignment.warning,
        instance=alignment.instance,
        cover=alignment.cover,
    )


def _exttsp_result(task: ProcedureTask, layout_of) -> ProcedureResult:
    """Lay out one procedure with an Ext-TSP aligner of
    :mod:`~repro.core.aligners.exttsp_merge` and score the layout.

    The merge phase comes from the ``merge`` artifact, so ``chain-merge``
    and ``exttsp`` over one procedure run it once; its counts are stored
    with it and reported by every call, hit or miss."""
    stats = MergeStats()
    with obs.span("exttsp_solver", proc=task.name, method=task.method) as sp:
        layout = layout_of(
            task.cfg, task.profile, stats=stats, merged=merge_order_for(task)
        )
        sp["merges"] = stats.merges
        sp["splits"] = stats.splits
        sp["merge_candidates"] = stats.merge_candidates
        sp["merge_kept"] = stats.merge_kept
        sp["score"] = stats.score
    # Deterministic per-task work, so these counters are stable (identical
    # for every worker count), like tsp.runs.
    obs.count("exttsp.merges", stats.merges)
    obs.count("exttsp.splits", stats.splits)
    obs.count("exttsp.merge_candidates", stats.merge_candidates)
    obs.count("exttsp.merge_kept", stats.merge_kept)
    result = _priced_result(task, layout)
    if stats.warning is None:
        return result
    return dataclasses.replace(
        result, degraded="construction", warning=stats.warning
    )


@register_aligner(
    "exttsp",
    aliases=("ext-tsp", "bolt"),
    description="maximum-weight path cover of the Ext-TSP edge counts, "
    "or the chain-merge order where it scores higher",
)
def _align_exttsp(task: ProcedureTask) -> ProcedureResult:
    return _exttsp_result(
        task, functools.partial(exttsp_layout, budget=task.budget)
    )


@register_aligner(
    "chain-merge",
    aliases=("newell-pupyrev", "np"),
    description="greedy chain splits/merges maximizing the Ext-TSP gain "
    "(the BOLT-style merge phase)",
)
def _align_chain_merge(task: ProcedureTask) -> ProcedureResult:
    return _exttsp_result(task, chain_merge_layout)


#: Live view of every registered method name, in registration order.
#: Tuple-compatible (iteration, ``in``, indexing, ``==``), but reflects
#: aligners registered after import as well.
ALIGN_METHODS = MethodsView()


# -- program-level entry points -----------------------------------------------


@dataclass
class AlignmentReport:
    """Per-procedure diagnostics from a TSP alignment pass."""

    cities: dict[str, int] = field(default_factory=dict)
    costs: dict[str, float] = field(default_factory=dict)
    #: Per-procedure Ext-TSP scores of the emitted layouts (dual pricing;
    #: every aligner fills this, including ``original``).
    exttsp_scores: dict[str, float] = field(default_factory=dict)
    #: Procedures whose layout came from a fallback rung (proc → rung name).
    degraded: dict[str, str] = field(default_factory=dict)
    #: Structured warnings explaining each degradation.
    warnings: list[str] = field(default_factory=list)
    #: Retry attempts the supervised executor spent on this pass.
    retried: int = 0
    #: Procedures poisoned out of the pass (proc → final error); their
    #: layouts are the identity stand-in.
    quarantined: dict[str, str] = field(default_factory=dict)
    #: Worker deaths the supervised executor absorbed during this pass —
    #: the circuit breaker's failure signal.
    worker_crashes: int = 0
    #: Per-attempt deadline expiries the executor absorbed during this pass.
    timeouts: int = 0


def align_program(
    program: Program,
    profile: ProgramProfile,
    *,
    method: str = "tsp",
    model: PenaltyModel = ALPHA_21164,
    seed: int = 0,
    budget: Budget | None = None,
    report: AlignmentReport | None = None,
    jobs: int | None = None,
    policy: RetryPolicy | None = None,
) -> ProgramLayout:
    """Align every procedure of ``program`` using ``profile`` as training
    data; returns one layout per procedure.

    ``budget`` is a *per-procedure* solver deadline for the ``tsp`` and
    ``exttsp`` path-cover searches: each procedure's search starts a fresh
    countdown, and a procedure that cannot be solved in time degrades
    instead of raising (``report.degraded`` records which rung each such
    procedure used).

    ``jobs`` > 1 solves procedures in parallel worker processes;
    ``jobs=None`` reads ``REPRO_JOBS`` (default 1).  Results — layouts and
    ``report`` contents — are identical for every worker count.

    ``policy`` tunes the supervised executor (retry budget, per-task
    deadline, backoff); failures that exhaust it quarantine the procedure
    with its identity layout (``report.quarantined``) instead of raising.
    """
    return align_procedures(
        program,
        profile,
        method=normalize_method(method),
        model=model,
        seed=seed,
        budget=budget,
        jobs=jobs,
        policy=policy,
        report=report,
    )


@dataclass
class LowerBoundReport:
    """Certified penalty lower bounds, per procedure and total."""

    per_procedure: dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return sum(self.per_procedure.values())


def lower_bound_program(
    program: Program,
    profile: ProgramProfile,
    *,
    model: PenaltyModel = ALPHA_21164,
    budget: Budget | None = None,
    jobs: int | None = None,
    policy: RetryPolicy | None = None,
) -> LowerBoundReport:
    """Certified lower bound on the total control penalty of any layout:
    per procedure, the alignment optimum (see
    :func:`~repro.core.aligners.tsp_aligner.alignment_lower_bound`)."""
    report = LowerBoundReport()
    report.per_procedure.update(lower_bound_procedures(
        program,
        profile,
        model=model,
        budget=budget,
        jobs=jobs,
        policy=policy,
    ))
    return report
