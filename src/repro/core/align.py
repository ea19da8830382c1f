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

The seven aligners, each mapping a
:class:`~repro.pipeline.task.ProcedureTask` to a
:class:`~repro.pipeline.task.ProcedureResult`, sit in one table in
:mod:`repro.pipeline.stages` beside the align stage that dispatches them;
``ALIGN_METHODS`` is the tuple of their canonical names.
``align_program`` itself is a thin wrapper around that staged pipeline,
which adds content-addressed caching of cost matrices / solved alignments
and optional per-procedure parallelism (``jobs=``) on top of the dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.budget import Budget, RetryPolicy
from repro.cfg.graph import Program
from repro.core.layout import ProgramLayout
from repro.machine.models import ALPHA_21164, PenaltyModel
from repro.pipeline.stages import (  # ALIGN_METHODS: re-exported
    ALIGN_METHODS,
    align_procedures,
    lower_bound_procedures,
)
from repro.profiles.edge_profile import ProgramProfile

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
        method=method,
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
