"""The staged alignment pipeline.

Decomposes ``align_program``'s historical monolithic loop into explicit,
individually cacheable stages with typed intermediate artifacts::

    ProcedureTask ──▶ AlignmentInstance ──▶ solved tour ──▶ Layout ──▶ penalty
       (task.py)        (cost-matrix           (align           (evaluate
                         stage, cached)         stage,            stage)
                                                cached,
                                                parallel)

* The **cost-matrix stage** (:func:`instance_for`) builds the §2.2 DTSP
  instance, content-addressed by (CFG, profile, model, predictor) — so
  greedy/tsp/lower-bound passes over the same procedure share one matrix.
* The **merge stage** (:func:`merge_order_for`) runs the Ext-TSP merge
  phase once per (CFG, profile, Ext-TSP parameters), shared by the
  ``chain-merge`` and ``exttsp`` aligners.
* The **align stage** (:func:`align_procedures`) dispatches each task to
  its registered aligner, fanning out over worker processes
  (:mod:`repro.pipeline.executor`) and serving repeated tasks from the
  artifact cache.  Results merge in program order, so layouts, reports,
  stored cases, and tables are identical for any worker count.
* The **evaluate stage** (:func:`evaluate_procedures`) is the single
  penalty-evaluation code path — ``evaluate_program`` delegates here, and
  the DTSP tour cost of an instance provably equals this stage's control
  penalty for the materialized layout (pinned by
  ``tests/properties/test_property_pipeline.py``).
* The **bound stage** (:func:`lower_bound_procedures`) computes certified
  per-procedure Held–Karp/branch-and-bound floors, cached and parallel.

Budgets stay per-procedure (each task starts its own countdown, exactly as
the serial loop did), the degradation ladder lives untouched inside the
aligners, and fault-injection plans are shipped to workers by the executor.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro import obs
from repro.budget import Budget, RetryPolicy
from repro.cfg.graph import Program
from repro.core.aligners.exttsp_merge import MergeOrder, merge_phase
from repro.core.aligners.tsp_aligner import alignment_lower_bound
from repro.core.costmatrix import AlignmentInstance, build_alignment_instance
from repro.core.exttsp import DEFAULT_PARAMS
from repro.core.layout import ProgramLayout, original_layout
from repro.machine.models import PenaltyModel
from repro.machine.predictors import StaticPredictor
from repro.pipeline.artifacts import (
    ArtifactCache,
    artifact_cache,
    fingerprint_budget,
    fingerprint_cfg,
    fingerprint_effort,
    fingerprint_model,
    fingerprint_predictor,
    fingerprint_profile,
)
from repro.pipeline.executor import (
    SupervisionReport,
    register_handler,
    run_tasks_supervised,
)
from repro.pipeline.registry import get_aligner
from repro.pipeline.task import (
    BoundResult,
    BoundTask,
    ProcedureResult,
    ProcedureTask,
    procedure_tasks,
)
from repro.profiles.edge_profile import EdgeProfile, ProgramProfile
from repro.tsp.solve import DEFAULT, Effort, get_effort

if TYPE_CHECKING:  # pragma: no cover — import cycle is fine at type time
    from repro.core.evaluate import ProgramPenalty


# -- cost-matrix stage --------------------------------------------------------


def instance_key(
    cfg, profile: EdgeProfile, model: PenaltyModel,
    predictor: StaticPredictor | None,
) -> str:
    return ArtifactCache.key(
        "instance",
        fingerprint_cfg(cfg),
        fingerprint_profile(profile),
        fingerprint_model(model),
        fingerprint_predictor(predictor),
    )


def instance_for(
    cfg,
    profile: EdgeProfile,
    model: PenaltyModel,
    *,
    predictor: StaticPredictor | None = None,
    cache: ArtifactCache | None = None,
) -> AlignmentInstance:
    """The DTSP instance for one procedure, served content-addressed.

    The key covers everything the matrix depends on — effort, seed, and
    budget deliberately excluded — so every method and every sweep over the
    same (CFG, profile, model, predictor) shares a single build.
    """
    cache = cache if cache is not None else artifact_cache()
    return cache.get_or_build(
        instance_key(cfg, profile, model, predictor),
        lambda: build_alignment_instance(
            cfg, profile, model, predictor=predictor
        ),
    )


# -- merge stage --------------------------------------------------------------


def merge_key(cfg, profile: EdgeProfile) -> str:
    return ArtifactCache.key(
        "merge",
        fingerprint_cfg(cfg),
        fingerprint_profile(profile),
        DEFAULT_PARAMS.fingerprint(),
    )


def merge_order_for(
    cfg, profile: EdgeProfile, *, cache: ArtifactCache | None = None
) -> MergeOrder:
    """The Ext-TSP merge phase's order for one procedure, served
    content-addressed.

    The merge reads only the CFG, the profile and the Ext-TSP parameters
    — method, model, predictor, effort, seed and budget are deliberately
    excluded — so ``chain-merge`` and ``exttsp`` (merge + climb) over the
    same procedure share a single run.
    """
    cache = cache if cache is not None else artifact_cache()
    return cache.get_or_build(
        merge_key(cfg, profile), lambda: merge_phase(cfg, profile)
    )


# -- align stage --------------------------------------------------------------


def align_one(task: ProcedureTask) -> ProcedureResult:
    """Run one task through its registered aligner (no caching: pure compute;
    this is the function worker processes execute)."""
    if task.method != "original" and task.profile.total() == 0:
        # No training data: every method keeps the original layout (the
        # historical align_program behaviour).  An empty profile scores
        # zero under the Ext-TSP objective by definition.
        return ProcedureResult(
            task.name, original_layout(task.cfg), exttsp_score=0.0
        )
    return get_aligner(task.method).fn(task)


register_handler("align", align_one)


def _is_trivial(task: ProcedureTask) -> bool:
    return task.method == "original" or task.profile.total() == 0


def align_key(task: ProcedureTask) -> str:
    # Every align artifact now carries dual pricing (penalty + Ext-TSP
    # score), so the key covers the Ext-TSP scoring parameters: changing a
    # weight or window must miss, not serve a stale score — and for the
    # exttsp-family aligners the parameters also shape the layout itself.
    return ArtifactCache.key(
        "align",
        task.method,
        fingerprint_cfg(task.cfg),
        fingerprint_profile(task.profile),
        fingerprint_model(task.model),
        fingerprint_predictor(task.predictor),
        fingerprint_effort(task.effort),
        task.effective_seed,
        fingerprint_budget(task.budget),
        DEFAULT_PARAMS.fingerprint(),
    )


def quarantined_result(task: ProcedureTask, error: str | None) -> ProcedureResult:
    """The degraded stand-in for a poisoned align task: the procedure keeps
    its identity layout (always valid, never worse than the original under
    the evaluation contract) and the failure is carried as a warning."""
    return ProcedureResult(
        name=task.name,
        layout=original_layout(task.cfg),
        degraded="quarantined",
        warning=error or "task quarantined",
        quarantined=True,
    )


def run_align_tasks(
    tasks: list[ProcedureTask],
    *,
    jobs: int | None = None,
    cache: ArtifactCache | None = None,
    policy: RetryPolicy | None = None,
    supervision: SupervisionReport | None = None,
) -> list[ProcedureResult]:
    """The align stage: cache lookup → supervised parallel solve of misses
    → store.

    Returns one :class:`ProcedureResult` per task, in task order.  Trivial
    tasks (method ``original`` or an empty profile slice) resolve inline;
    cache misses fan out through the supervised executor under ``policy``
    (retry/backoff/quarantine — see :mod:`repro.pipeline.executor`).  A
    task that exhausts its retry budget yields its *identity* layout,
    flagged ``quarantined``, instead of sinking the batch.  Pass a
    :class:`SupervisionReport` as ``supervision`` to observe retry and
    quarantine accounting.
    """
    cache = cache if cache is not None else artifact_cache()
    results: list[ProcedureResult | None] = [None] * len(tasks)
    miss_indices: list[int] = []
    with obs.span("stage:align", tasks=len(tasks)) as sp:
        for i, task in enumerate(tasks):
            if _is_trivial(task):
                results[i] = align_one(task)
                continue
            cached = cache.get(align_key(task))
            if cached is not None:
                results[i] = dataclasses.replace(cached, from_cache=True)
            else:
                miss_indices.append(i)
        # Stage-level hit/miss totals come from this parent-side scan, so
        # (unlike the per-process cache.* counters) they are worker-count
        # invariant.
        hits = sum(
            1 for r in results if r is not None and r.from_cache
        )
        sp["hits"] = hits
        sp["misses"] = len(miss_indices)
        obs.count("align.cache_hits", hits)
        obs.count("align.cache_misses", len(miss_indices))

        if miss_indices:
            report = run_tasks_supervised(
                "align", [tasks[i] for i in miss_indices], jobs=jobs,
                policy=policy,
            )
            if supervision is not None:
                supervision.merge_from(report)
            for i, outcome in zip(miss_indices, report.outcomes):
                if outcome.quarantined:
                    # Poison task: keep the procedure with its original
                    # order; deliberately NOT cached — a later run with a
                    # healthier environment should get a real solve.
                    results[i] = quarantined_result(tasks[i], outcome.error)
                    continue
                result = outcome.result
                results[i] = result
                cache.put(align_key(tasks[i]), result)
                if result.instance is not None:
                    # Seed the cost-matrix cache from the worker's build so
                    # the bound stage (and other methods) reuse it.
                    task = tasks[i]
                    cache.put(
                        instance_key(
                            task.cfg, task.profile, task.model, task.predictor
                        ),
                        result.instance,
                    )
    return results  # type: ignore[return-value]


def align_procedures(
    program: Program,
    profile: ProgramProfile,
    *,
    method: str,
    model: PenaltyModel,
    effort: Effort | str = DEFAULT,
    seed: int = 0,
    budget: Budget | None = None,
    jobs: int | None = None,
    cache: ArtifactCache | None = None,
    policy: RetryPolicy | None = None,
    report=None,
) -> ProgramLayout:
    """Align every procedure of ``program``: the full task → solve → layout
    pipeline behind :func:`repro.core.align.align_program`.

    ``report`` (an :class:`~repro.core.align.AlignmentReport`-shaped object)
    is populated from solver diagnostics in program order, keeping its
    contents deterministic and independent of worker count; it also
    receives retry/quarantine accounting from the supervised executor.
    """
    tasks = procedure_tasks(
        program,
        profile,
        method=method,
        model=model,
        effort=get_effort(effort),
        seed=seed,
        budget=budget,
    )
    supervision = SupervisionReport()
    results = run_align_tasks(
        tasks, jobs=jobs, cache=cache, policy=policy, supervision=supervision
    )
    layouts = ProgramLayout()
    for result in results:
        layouts[result.name] = result.layout
        if report is None:
            continue
        if result.quarantined and hasattr(report, "quarantined"):
            report.quarantined[result.name] = result.warning or "quarantined"
            report.warnings.append(
                f"{result.name}: quarantined after repeated failures, "
                f"kept identity layout ({result.warning})"
            )
            continue
        if result.exttsp_score is not None and hasattr(report, "exttsp_scores"):
            report.exttsp_scores[result.name] = result.exttsp_score
        if result.cities is not None:
            report.cities[result.name] = result.cities
            report.costs[result.name] = result.cost
            report.runs_finding_best[result.name] = (
                result.runs_finding_best,
                result.runs_total,
            )
            if result.degraded != "none":
                report.degraded[result.name] = result.degraded
                if result.warning:
                    report.warnings.append(
                        f"{result.name}: degraded to "
                        f"{result.degraded!r} ({result.warning})"
                    )
    if report is not None and hasattr(report, "retried"):
        report.retried += supervision.retried
    if report is not None and hasattr(report, "worker_crashes"):
        report.worker_crashes += supervision.worker_crashes
    if report is not None and hasattr(report, "timeouts"):
        report.timeouts += supervision.timeouts
    return layouts


# -- evaluate stage -----------------------------------------------------------


def evaluate_procedures(
    program: Program,
    layouts: ProgramLayout,
    profile: ProgramProfile,
    model: PenaltyModel,
    *,
    predictors: dict[str, StaticPredictor] | None = None,
) -> "ProgramPenalty":
    """The single penalty-evaluation code path.

    ``evaluate_program`` delegates here; per-procedure breakdowns are
    computed by :func:`repro.core.evaluate.evaluate_layout` (the walk the
    §2.2 matrix is built from) and merged in program order, so totals are
    bit-stable.  Evaluation stays in-process: it is a cheap linear walk,
    and shipping CFGs to workers would cost more than the walk itself.
    """
    from repro.core.evaluate import (  # local: import cycle
        CostBreakdown,
        ProgramPenalty,
        evaluate_layout,
        train_predictors,
    )

    with obs.span("stage:evaluate", procs=len(program.procedures)):
        if predictors is None:
            predictors = train_predictors(program, profile)
        result = ProgramPenalty()
        for proc in program:
            edge_profile = profile.procedures.get(proc.name)
            if edge_profile is None:
                result.per_procedure[proc.name] = CostBreakdown()
                continue
            result.per_procedure[proc.name] = evaluate_layout(
                proc.cfg,
                layouts[proc.name],
                edge_profile,
                model,
                predictor=predictors[proc.name],
            )
        return result


# -- bound stage --------------------------------------------------------------


def bound_one(task: BoundTask) -> BoundResult:
    """Certified lower bound for one procedure (worker-executable)."""
    if task.profile.total() == 0:
        return BoundResult(task.name, 0.0)
    return BoundResult(
        task.name,
        alignment_lower_bound(
            task.cfg,
            task.profile,
            task.model,
            instance=task.instance,
            upper_bound=task.upper_bound,
            iterations=task.iterations,
            budget=task.budget,
        ),
    )


register_handler("bound", bound_one)


def bound_key(task: BoundTask) -> str:
    # ``upper_bound`` is deliberately NOT part of the key: it only tightens
    # the subgradient schedule (a warm-start hint), and any certified floor
    # is valid for the (cfg, profile, model) instance regardless of which
    # hint produced it.  Keying on it split identical artifacts — an
    # align-then-bound run (hint = tour cost) could never hit the entry a
    # bound-only run (hint = None) had written, pinning the bound stage's
    # cross-run hit rate at zero.
    return ArtifactCache.key(
        "bound",
        fingerprint_cfg(task.cfg),
        fingerprint_profile(task.profile),
        fingerprint_model(task.model),
        repr(task.iterations),
        fingerprint_budget(task.budget),
    )


def run_bound_tasks(
    tasks: list[BoundTask],
    *,
    jobs: int | None = None,
    cache: ArtifactCache | None = None,
    policy: RetryPolicy | None = None,
    supervision: SupervisionReport | None = None,
) -> list[BoundResult]:
    """The bound stage: cache lookup → supervised parallel certification of
    misses.  A poisoned bound task degrades to 0.0 — the loosest certified
    bound — so program totals stay well-defined (and conservative)."""
    cache = cache if cache is not None else artifact_cache()
    results: list[BoundResult | None] = [None] * len(tasks)
    miss_indices: list[int] = []
    with obs.span("stage:bound", tasks=len(tasks)) as sp:
        for i, task in enumerate(tasks):
            if task.profile.total() == 0:
                results[i] = BoundResult(task.name, 0.0)
                continue
            cached = cache.get(bound_key(task))
            if cached is not None:
                results[i] = dataclasses.replace(cached, from_cache=True)
            else:
                miss_indices.append(i)
        hits = sum(1 for r in results if r is not None and r.from_cache)
        sp["hits"] = hits
        sp["misses"] = len(miss_indices)
        obs.count("bound.cache_hits", hits)
        obs.count("bound.cache_misses", len(miss_indices))
        if miss_indices:
            report = run_tasks_supervised(
                "bound", [tasks[i] for i in miss_indices], jobs=jobs,
                policy=policy,
            )
            if supervision is not None:
                supervision.merge_from(report)
            for i, outcome in zip(miss_indices, report.outcomes):
                if outcome.quarantined:
                    results[i] = BoundResult(
                        tasks[i].name, 0.0, quarantined=True
                    )
                    continue
                results[i] = outcome.result
                cache.put(bound_key(tasks[i]), outcome.result)
    return results  # type: ignore[return-value]


def lower_bound_procedures(
    program: Program,
    profile: ProgramProfile,
    *,
    model: PenaltyModel,
    iterations: int | None = None,
    upper_bounds: dict[str, float] | None = None,
    budget: Budget | None = None,
    jobs: int | None = None,
    cache: ArtifactCache | None = None,
    policy: RetryPolicy | None = None,
) -> dict[str, float]:
    """Per-procedure certified lower bounds, in program order."""
    tasks = []
    for index, proc in enumerate(program):
        edge_profile = profile.procedures.get(proc.name, EdgeProfile())
        tasks.append(BoundTask(
            name=proc.name,
            cfg=proc.cfg,
            profile=edge_profile,
            model=model,
            index=index,
            upper_bound=(upper_bounds or {}).get(proc.name),
            iterations=iterations,
            budget=budget,
            instance=(
                cache_lookup_instance(proc.cfg, edge_profile, model, cache)
                if edge_profile.total() else None
            ),
        ))
    results = run_bound_tasks(tasks, jobs=jobs, cache=cache, policy=policy)
    return {result.name: result.bound for result in results}


def cache_lookup_instance(
    cfg, profile: EdgeProfile, model: PenaltyModel,
    cache: ArtifactCache | None = None,
    predictor: StaticPredictor | None = None,
) -> AlignmentInstance | None:
    """A cached cost matrix if one exists — used to hand already-built
    instances to bound tasks without forcing a build."""
    cache = cache if cache is not None else artifact_cache()
    return cache.get(instance_key(cfg, profile, model, predictor))
