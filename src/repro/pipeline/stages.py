"""The staged alignment pipeline.

Decomposes ``align_program``'s historical monolithic loop into explicit,
individually cacheable stages with typed intermediate artifacts::

    ProcedureTask ──▶ AlignmentInstance ──▶ solved tour ──▶ Layout ──▶ penalty
       (task.py)        (cost-matrix           (align           (evaluate
                         stage, cached)         stage,            stage)
                                                cached,
                                                parallel)

Every stage key is built from its task's input digests
(:attr:`~repro.pipeline.task.ProcedureTask.digests`, computed once per
task), and every stage uses the process-wide
:func:`~repro.pipeline.artifacts.artifact_cache`.

* The **cost-matrix stage** (:func:`instance_for`) builds the §2.2 DTSP
  instance, content-addressed by (CFG, profile, model, predictor) — so
  tsp and lower-bound passes over the same procedure share one matrix.
* The **merge stage** (:func:`merge_order_for`) runs the Ext-TSP merge
  phase once per (CFG, profile, Ext-TSP parameters), shared by the
  ``chain-merge`` and ``exttsp`` aligners.
* The **align stage** (:func:`run_align_tasks`) runs each task through
  its method's aligner, one entry of the method table ``_ALIGNERS``
  (``ALIGN_METHODS`` lists its names, :func:`normalize_method` resolves
  aliases).  It and the **bound stage**
  (:func:`run_bound_tasks`: certified per-procedure path-cover floors)
  are one cached-stage loop, :func:`_run_cached`, fanning cache misses
  out over worker processes
  (:mod:`repro.pipeline.executor`).  A tsp solve carries its completed
  path-cover search back, and the bound stage reads a procedure's bound
  off it (:func:`_reused_bound`) instead of searching again.  Results
  merge in task order, so layouts, bounds, reports, stored cases, and
  tables are identical for any worker count.
* The **evaluate stage** (:func:`evaluate_procedures`) is the single
  penalty-evaluation code path — ``evaluate_program`` delegates here, and
  the DTSP tour cost of an instance provably equals this stage's control
  penalty for the materialized layout (pinned by
  ``tests/properties/test_property_pipeline.py``).

Budgets stay per-procedure (each task starts its own countdown, exactly as
the serial loop did), the degradation ladder lives untouched inside the
aligners, and fault-injection plans are shipped to workers by the executor.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro import obs
from repro.budget import Budget, RetryPolicy
from repro.cfg.graph import Program
from repro.core.aligners.exttsp_merge import (
    MergeOrder,
    MergeStats,
    chain_merge_layout,
    exttsp_layout,
    merge_phase,
)
from repro.core.aligners.greedy import calder_grunwald_layout, pettis_hansen_layout
from repro.core.aligners.tsp_aligner import alignment_lower_bound, tsp_align
from repro.core.costmatrix import AlignmentInstance, build_alignment_instance
from repro.core.exttsp import DEFAULT_PARAMS, exttsp_score
from repro.core.layout import ProgramLayout, original_layout
from repro.errors import UnknownNameError
from repro.machine.models import PenaltyModel
from repro.machine.predictors import StaticPredictor
from repro.pipeline.artifacts import EFFORT_SLOT, ArtifactCache, artifact_cache
from repro.pipeline.executor import SupervisionReport, run_tasks_supervised
from repro.pipeline.task import (
    BoundResult,
    BoundTask,
    ProcedureResult,
    ProcedureTask,
    bound_tasks,
    procedure_tasks,
)
from repro.profiles.edge_profile import ProgramProfile

if TYPE_CHECKING:  # pragma: no cover — import cycle is fine at type time
    from repro.core.align import AlignmentReport
    from repro.core.evaluate import ProgramPenalty


# -- stage keys ---------------------------------------------------------------


def instance_key(task: ProcedureTask | BoundTask) -> str:
    digests = task.digests
    return ArtifactCache.key(
        "instance",
        digests.cfg,
        digests.profile,
        digests.model,
        digests.predictor,
    )


def cover_key(task: ProcedureTask | BoundTask) -> str:
    # The instance's own key components: a completed search of the
    # instance is valid under any seed or budget.
    digests = task.digests
    return ArtifactCache.key(
        "cover",
        digests.cfg,
        digests.profile,
        digests.model,
        digests.predictor,
    )


def merge_key(task: ProcedureTask) -> str:
    digests = task.digests
    return ArtifactCache.key(
        "merge", digests.cfg, digests.profile, DEFAULT_PARAMS.fingerprint()
    )


def align_key(task: ProcedureTask) -> str:
    # Every align artifact now carries dual pricing (penalty + Ext-TSP
    # score), so the key covers the Ext-TSP scoring parameters: changing a
    # weight or window must miss, not serve a stale score — and for the
    # exttsp-family aligners the parameters also shape the layout itself.
    digests = task.digests
    return ArtifactCache.key(
        "align",
        task.method,
        digests.cfg,
        digests.profile,
        digests.model,
        digests.predictor,
        EFFORT_SLOT,
        task.effective_seed,
        digests.budget,
        DEFAULT_PARAMS.fingerprint(),
    )


def bound_key(task: BoundTask) -> str:
    # ``repr(None)`` fills the slot a Held–Karp iteration count once held,
    # so keys — and bounds in persisted stores — stay where they were.
    digests = task.digests
    return ArtifactCache.key(
        "bound",
        digests.cfg,
        digests.profile,
        digests.model,
        repr(None),
        digests.budget,
    )


# -- cost-matrix and merge stages ---------------------------------------------


def instance_for(task: ProcedureTask) -> AlignmentInstance:
    """The DTSP instance for one procedure, served content-addressed.

    The key covers everything the matrix depends on — seed and budget
    deliberately excluded — so every method and every sweep over the
    same (CFG, profile, model, predictor) shares a single build.
    """
    return artifact_cache().get_or_build(
        instance_key(task),
        lambda: build_alignment_instance(
            task.cfg, task.profile, task.model, predictor=task.predictor
        ),
    )


def merge_order_for(task: ProcedureTask) -> MergeOrder:
    """The Ext-TSP merge phase's order for one procedure, served
    content-addressed.

    The merge reads only the CFG, the profile and the Ext-TSP parameters
    — method, model, predictor, seed and budget are deliberately
    excluded — so ``chain-merge`` and ``exttsp`` (whose floor is the
    merge order) over the same procedure share a single run.
    """
    return artifact_cache().get_or_build(
        merge_key(task), lambda: merge_phase(task.cfg, task.profile)
    )


# -- the cached-stage loop ----------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _CachedStage:
    """What one stage brings to :func:`_run_cached`: its ``kind`` label
    (which names its spans and counters), the module-level ``solve`` the
    executor runs (shipped to workers by reference), the cache ``key``,
    which tasks are ``trivial`` (solved inline, never cached or
    dispatched), the ``stand_in`` result of a quarantined task, a hook
    called on each freshly ``stored`` one, and ``reuse``, which resolves a
    cache miss in the parent from another stage's artifact (``None``:
    dispatch it)."""

    kind: str
    solve: Callable[[Any], Any]
    key: Callable[[Any], str]
    trivial: Callable[[Any], bool]
    stand_in: Callable[[Any, str | None], Any]
    stored: Callable[[Any, Any], None] = lambda task, result: None
    reuse: Callable[[Any], Any] = lambda task: None


def _run_cached(
    stage: _CachedStage,
    tasks: Sequence[Any],
    *,
    jobs: int | None,
    policy: RetryPolicy | None,
    supervision: SupervisionReport | None,
) -> list:
    """Resolve trivial tasks inline → scan the cache → resolve what misses
    can be reused in the parent → supervised solve of the rest → store.
    Returns one result per task, in task order.

    A task that exhausts its retry budget yields ``stage.stand_in`` and is
    deliberately NOT cached — a later run with a healthier environment
    should get a real solve.
    """
    cache = artifact_cache()
    results: list = [None] * len(tasks)
    misses: list[tuple[int, str]] = []
    with obs.span(f"stage:{stage.kind}", tasks=len(tasks)) as sp:
        for i, task in enumerate(tasks):
            if stage.trivial(task):
                results[i] = stage.solve(task)
                continue
            key = stage.key(task)
            cached = cache.get(key)
            if cached is not None:
                results[i] = dataclasses.replace(cached, from_cache=True)
            else:
                misses.append((i, key))
        # Stage-level hit/miss totals come from this parent-side scan, so
        # (unlike the per-process cache.* counters) they are worker-count
        # invariant.
        hits = sum(1 for r in results if r is not None and r.from_cache)
        sp["hits"] = hits
        sp["misses"] = len(misses)
        obs.count(f"{stage.kind}.cache_hits", hits)
        obs.count(f"{stage.kind}.cache_misses", len(misses))

        # Reuse runs here, in the parent, at every worker count, so what
        # it resolves (and any fault site it consults) is the same for
        # every ``jobs``.
        unsolved = []
        for i, key in misses:
            result = stage.reuse(tasks[i])
            if result is None:
                unsolved.append((i, key))
                continue
            results[i] = result
            cache.put(key, result)
        reused = len(misses) - len(unsolved)
        sp["reused"] = reused
        if reused:
            obs.count(f"{stage.kind}.reused", reused)

        if unsolved:
            report = run_tasks_supervised(
                stage.solve, [tasks[i] for i, _ in unsolved],
                kind=stage.kind, jobs=jobs, policy=policy,
            )
            if supervision is not None:
                supervision.merge_from(report)
            for (i, key), outcome in zip(unsolved, report.outcomes):
                if outcome.quarantined:
                    results[i] = stage.stand_in(tasks[i], outcome.error)
                    continue
                results[i] = outcome.result
                cache.put(key, outcome.result)
                stage.stored(tasks[i], outcome.result)
    return results


# -- align stage --------------------------------------------------------------


def _priced_result(task: ProcedureTask, layout) -> ProcedureResult:
    """Wrap a heuristic layout with its Ext-TSP score.  Its paper penalty
    is the evaluation stage's to compute: the result carries no DTSP cost
    or instance, so heuristics neither build nor look up the matrix."""
    return ProcedureResult(
        name=task.name,
        layout=layout,
        exttsp_score=exttsp_score(task.cfg, layout, task.profile),
    )


def _align_original(task: ProcedureTask) -> ProcedureResult:
    return _priced_result(task, original_layout(task.cfg))


def _align_greedy(task: ProcedureTask) -> ProcedureResult:
    return _priced_result(
        task, pettis_hansen_layout(task.cfg, task.profile)
    )


def _align_cost_greedy(task: ProcedureTask) -> ProcedureResult:
    return _priced_result(
        task,
        calder_grunwald_layout(task.cfg, task.profile, task.model),
    )


def _align_cg_exhaustive(task: ProcedureTask) -> ProcedureResult:
    return _priced_result(
        task,
        calder_grunwald_layout(
            task.cfg, task.profile, task.model, exhaustive_edges=15
        ),
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


def _align_exttsp(task: ProcedureTask) -> ProcedureResult:
    return _exttsp_result(
        task, functools.partial(exttsp_layout, budget=task.budget)
    )


def _align_chain_merge(task: ProcedureTask) -> ProcedureResult:
    return _exttsp_result(task, chain_merge_layout)


#: The alignment methods by canonical name, in the order the CLI, sweeps
#: and reports list them.  Adding a method is one entry here.
_ALIGNERS: dict[str, Callable[[ProcedureTask], ProcedureResult]] = {
    "original": _align_original,
    "greedy": _align_greedy,
    "cost-greedy": _align_cost_greedy,
    "cg-exhaustive": _align_cg_exhaustive,
    "tsp": _align_tsp,
    "exttsp": _align_exttsp,
    "chain-merge": _align_chain_merge,
}

#: Other spellings of a method, accepted wherever a method name is.
_ALIASES = {
    "pettis-hansen": "greedy",
    "ph": "greedy",
    "calder-grunwald": "cost-greedy",
    "cg": "cost-greedy",
    "dtsp": "tsp",
    "ext-tsp": "exttsp",
    "bolt": "exttsp",
    "newell-pupyrev": "chain-merge",
    "np": "chain-merge",
}

ALIGN_METHODS = tuple(_ALIGNERS)


def normalize_method(name: str) -> str:
    """Resolve a method name or alias to its canonical form; every caller
    normalizes before a cache boundary, so an alias never reaches a key.

    Raises :class:`~repro.errors.UnknownNameError` (a ``ValueError``) for
    unknown names, listing the methods.
    """
    candidate = name.strip().lower() if isinstance(name, str) else name
    canonical = _ALIASES.get(candidate, candidate)
    if canonical not in _ALIGNERS:
        raise UnknownNameError(
            f"unknown method {name!r}; choose from {ALIGN_METHODS}"
        )
    return canonical


def align_one(task: ProcedureTask) -> ProcedureResult:
    """Run one task through its method's aligner (no caching: pure compute;
    this is the function worker processes execute)."""
    if task.method != "original" and task.profile.total() == 0:
        # No training data: every method keeps the original layout (the
        # historical align_program behaviour).  An empty profile scores
        # zero under the Ext-TSP objective by definition.
        return ProcedureResult(
            task.name, original_layout(task.cfg), exttsp_score=0.0
        )
    return _ALIGNERS[task.method](task)


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


def _seed_caches(task: ProcedureTask, result: ProcedureResult) -> None:
    """Seed the cache with what a tsp solve carries back — its instance
    and its completed search — for the bound stage over the same
    procedure (:func:`_reused_bound`, :func:`bound_one`)."""
    cache = artifact_cache()
    if result.instance is not None:
        cache.put(instance_key(task), result.instance)
    if result.cover is not None:
        cache.put(cover_key(task), result.cover)


def _is_trivial(task: ProcedureTask) -> bool:
    return task.method == "original" or task.profile.total() == 0


_ALIGN = _CachedStage(
    kind="align",
    solve=align_one,
    key=align_key,
    trivial=_is_trivial,
    stand_in=quarantined_result,
    stored=_seed_caches,
)


def run_align_tasks(
    tasks: list[ProcedureTask],
    *,
    jobs: int | None = None,
    policy: RetryPolicy | None = None,
    supervision: SupervisionReport | None = None,
) -> list[ProcedureResult]:
    """The align stage (see :func:`_run_cached`): one result per task, in
    task order.  A task that exhausts its retry budget under ``policy``
    keeps its *identity* layout, flagged ``quarantined``.  Pass a
    :class:`SupervisionReport` as ``supervision`` to observe retry and
    quarantine accounting."""
    return _run_cached(
        _ALIGN, tasks, jobs=jobs, policy=policy, supervision=supervision
    )


def align_procedures(
    program: Program,
    profile: ProgramProfile,
    *,
    method: str,
    model: PenaltyModel,
    seed: int = 0,
    budget: Budget | None = None,
    jobs: int | None = None,
    policy: RetryPolicy | None = None,
    report: AlignmentReport | None = None,
) -> ProgramLayout:
    """Align every procedure of ``program``: the full task → solve → layout
    pipeline behind :func:`repro.core.align.align_program`.  ``method`` may
    be an alias; its tasks carry the canonical name.

    ``report`` is populated from solver diagnostics in program order,
    keeping its contents deterministic and independent of worker count; it
    also receives retry/quarantine accounting from the supervised executor.
    """
    tasks = procedure_tasks(
        program,
        profile,
        method=normalize_method(method),
        model=model,
        seed=seed,
        budget=budget,
    )
    supervision = SupervisionReport()
    results = run_align_tasks(
        tasks, jobs=jobs, policy=policy, supervision=supervision
    )
    layouts = ProgramLayout()
    for result in results:
        layouts[result.name] = result.layout
        if report is None:
            continue
        if result.quarantined:
            report.quarantined[result.name] = result.warning or "quarantined"
            report.warnings.append(
                f"{result.name}: quarantined after repeated failures, "
                f"kept identity layout ({result.warning})"
            )
            continue
        if result.exttsp_score is not None:
            report.exttsp_scores[result.name] = result.exttsp_score
        if result.cities is not None:
            report.cities[result.name] = result.cities
            report.costs[result.name] = result.cost
        if result.degraded != "none":
            report.degraded[result.name] = result.degraded
            if result.warning:
                report.warnings.append(
                    f"{result.name}: degraded to "
                    f"{result.degraded!r} ({result.warning})"
                )
    if report is not None:
        report.retried += supervision.retried
        report.worker_crashes += supervision.worker_crashes
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
    """Certified lower bound for one procedure (worker-executable), on the
    cached instance when the cost-matrix stage has built it."""
    if task.profile.total() == 0:
        return BoundResult(task.name, 0.0)
    return BoundResult(
        task.name,
        alignment_lower_bound(
            task.cfg,
            task.profile,
            task.model,
            instance=artifact_cache().get(instance_key(task)),
            budget=task.budget,
        ),
    )


def _reused_bound(task: BoundTask) -> BoundResult | None:
    """The bound of a procedure whose instance the tsp aligner has already
    searched to completion, read off that search; ``None`` when no
    completed search is cached (the task is then dispatched and
    searched).  An aligner task with an explicit predictor searched
    another instance, under another key, so it never feeds a bound."""
    cover = artifact_cache().get(cover_key(task))
    if cover is None:
        return None
    return BoundResult(
        task.name,
        alignment_lower_bound(
            task.cfg, task.profile, task.model, cover=cover
        ),
    )


_BOUND = _CachedStage(
    kind="bound",
    solve=bound_one,
    key=bound_key,
    trivial=lambda task: task.profile.total() == 0,
    # 0.0 is the loosest certified bound, so program totals stay
    # well-defined (and conservative).
    stand_in=lambda task, error: BoundResult(task.name, 0.0, quarantined=True),
    reuse=_reused_bound,
)


def run_bound_tasks(
    tasks: list[BoundTask],
    *,
    jobs: int | None = None,
    policy: RetryPolicy | None = None,
    supervision: SupervisionReport | None = None,
) -> list[BoundResult]:
    """The bound stage over ``tasks`` (see :func:`_run_cached`).  A
    poisoned bound task degrades to 0.0."""
    return _run_cached(
        _BOUND, tasks, jobs=jobs, policy=policy, supervision=supervision
    )


def lower_bound_procedures(
    program: Program,
    profile: ProgramProfile,
    *,
    model: PenaltyModel,
    budget: Budget | None = None,
    jobs: int | None = None,
    policy: RetryPolicy | None = None,
) -> dict[str, float]:
    """Per-procedure certified lower bounds, in program order."""
    tasks = bound_tasks(program, profile, model=model, budget=budget)
    results = run_bound_tasks(tasks, jobs=jobs, policy=policy)
    return {result.name: result.bound for result in results}
