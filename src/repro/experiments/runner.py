"""End-to-end experiment runner.

Drives the full pipeline for one (benchmark, testing-data-set) case,
optionally cross-validated (train on a sibling data set): compile →
profile → align (per method) → evaluate penalties → simulate run time.
Profiling runs are cached per (benchmark, data set) because every figure
reuses them.

Resilience (see ``docs/robustness.md``): a per-procedure solver
:class:`~repro.budget.Budget` makes every case finish in bounded time
(procedures that cannot be solved in budget degrade down the aligner's
ladder, recorded per method in :attr:`MethodOutcome.degraded`), and
:func:`run_cases` sweeps many cases fault-tolerantly — each case is
retried once, recorded as a skipped row on repeated failure, and persisted
to a checkpoint so an interrupted sweep resumes where it stopped.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Sequence

from repro import obs
from repro.budget import Budget, RetryPolicy
from repro.core.align import AlignmentReport, align_program
from repro.core.costmodel import CostBreakdown
from repro.core.evaluate import evaluate_program, train_predictors
from repro.core.exttsp import exttsp_program_score
from repro.core.layout import ProgramLayout
from repro.pipeline.executor import resolve_jobs
from repro.pipeline.registry import normalize_method
from repro.pipeline.stages import run_align_tasks, run_bound_tasks
from repro.pipeline.task import BoundTask, procedure_tasks
from repro.machine.icache import DirectMappedICache
from repro.machine.models import ALPHA_21164, PenaltyModel
from repro.machine.timing import TimingBreakdown, simulate_timing
from repro.lang.vm import run_and_profile
from repro.profiles.edge_profile import ProgramProfile
from repro.profiles.trace import CompactTrace
from repro.tsp.solve import DEFAULT, Effort, get_effort
from repro.workloads.suite import compile_benchmark, get_benchmark

if TYPE_CHECKING:  # pragma: no cover — import cycle is fine at type time
    from repro.experiments.checkpoint import ExperimentCheckpoint

#: The sweep default: the paper's three methods plus the modern Ext-TSP
#: pair, so the 1997 near-optimal alignment and the 2020 BOLT-style
#: heuristics face off on every figure (both are cheap next to ``tsp``).
DEFAULT_METHODS = ("original", "greedy", "tsp", "exttsp", "chain-merge")


@dataclass
class ProfiledRun:
    """A cached profiling run of one benchmark on one data set."""

    benchmark: str
    dataset: str
    profile: ProgramProfile
    trace: CompactTrace
    instructions: int
    blocks: int
    run_seconds: float
    returned: int


@lru_cache(maxsize=None)
def profiled_run(benchmark: str, dataset: str) -> ProfiledRun:
    """Execute one benchmark/data-set pair under instrumentation (cached)."""
    module = compile_benchmark(benchmark)
    inputs = get_benchmark(benchmark).inputs(dataset)
    started = time.perf_counter()
    result, profile = run_and_profile(module, inputs)
    elapsed = time.perf_counter() - started
    assert result.trace is not None
    return ProfiledRun(
        benchmark=benchmark,
        dataset=dataset,
        profile=profile,
        trace=result.trace.trace,
        instructions=result.instructions_executed,
        blocks=result.blocks_executed,
        run_seconds=elapsed,
        returned=result.returned,
    )


@dataclass
class MethodOutcome:
    """One alignment method's results on one case."""

    method: str
    penalty: float
    breakdown: CostBreakdown
    timing: TimingBreakdown
    align_seconds: float
    layouts: ProgramLayout
    #: The layouts' Ext-TSP score on the *testing* profile (dual pricing:
    #: every method is priced under the paper's penalty model and the
    #: Ext-TSP objective; higher is better here).
    exttsp: float = 0.0
    #: Procedures laid out by a fallback rung (proc → rung name); empty when
    #: every procedure got the full solve.
    degraded: dict[str, str] = field(default_factory=dict)
    #: Structured warnings explaining each degradation.
    warnings: list[str] = field(default_factory=list)
    #: Retry attempts the supervised executor spent on this method.
    retried: int = 0
    #: Procedures poisoned out of the align stage (proc → final error);
    #: they keep their identity layout.
    quarantined: dict[str, str] = field(default_factory=dict)

    @property
    def cycles(self) -> float:
        return self.timing.total_cycles

    @property
    def degraded_summary(self) -> str:
        """Compact report-cell form, e.g. ``construction×3``."""
        if not self.degraded:
            return ""
        counts: dict[str, int] = {}
        for rung in self.degraded.values():
            counts[rung] = counts.get(rung, 0) + 1
        return ",".join(
            f"{rung}×{n}" if n > 1 else rung
            for rung, n in sorted(counts.items())
        )


@dataclass
class CaseResult:
    """Everything the tables/figures need for one benchmark case."""

    benchmark: str
    dataset: str            # the testing data set
    train_dataset: str      # equals `dataset` unless cross-validating
    methods: dict[str, MethodOutcome] = field(default_factory=dict)
    lower_bound: float = 0.0

    @property
    def label(self) -> str:
        return f"{self.benchmark}.{self.dataset}"

    @property
    def cross_validated(self) -> bool:
        return self.dataset != self.train_dataset

    def normalized_penalty(self, method: str) -> float:
        original = self.methods["original"].penalty
        if original == 0:
            return 1.0
        return self.methods[method].penalty / original

    def normalized_cycles(self, method: str) -> float:
        original = self.methods["original"].cycles
        if original == 0:
            return 1.0
        return self.methods[method].cycles / original

    def normalized_exttsp(self, method: str) -> float:
        """Ext-TSP score relative to the original layout (> 1 is better —
        the objective is a reward, not a penalty)."""
        original = self.methods["original"].exttsp
        if original == 0:
            return 1.0
        return self.methods[method].exttsp / original

    @property
    def normalized_bound(self) -> float:
        original = self.methods["original"].penalty
        if original == 0:
            return 1.0
        return self.lower_bound / original

    @property
    def degraded(self) -> bool:
        """True when any method degraded any procedure."""
        return any(outcome.degraded for outcome in self.methods.values())

    @property
    def retried(self) -> int:
        """Total supervised-executor retries across all methods."""
        return sum(outcome.retried for outcome in self.methods.values())

    @property
    def quarantined(self) -> int:
        """Total quarantined procedures across all methods."""
        return sum(
            len(outcome.quarantined) for outcome in self.methods.values()
        )


def run_case(
    benchmark: str,
    dataset: str,
    train_dataset: str | None = None,
    *,
    methods: tuple[str, ...] = DEFAULT_METHODS,
    model: PenaltyModel = ALPHA_21164,
    effort: Effort | str = DEFAULT,
    seed: int = 0,
    budget: Budget | None = None,
    compute_bound: bool = True,
    icache_bytes: int = 8192,
    icache_line: int = 32,
    jobs: int | None = None,
    policy: RetryPolicy | None = None,
) -> CaseResult:
    """Run one case: test on ``dataset``, train on ``train_dataset`` (same
    data set when omitted — the paper's §4.1 configuration).

    ``budget`` bounds each procedure's TSP solve; procedures that blow it
    degrade down the aligner's ladder, recorded in the method's outcome.
    ``jobs`` > 1 aligns procedures in parallel worker processes; every
    field of the result except the wall-clock ``align_seconds`` is
    identical for every worker count.
    """
    train_dataset = train_dataset or dataset
    methods = tuple(normalize_method(m) for m in methods)
    module = compile_benchmark(benchmark)
    program = module.program
    training = profiled_run(benchmark, train_dataset)
    testing = (
        training
        if train_dataset == dataset
        else profiled_run(benchmark, dataset)
    )
    predictors = train_predictors(program, training.profile)

    case = CaseResult(
        benchmark=benchmark, dataset=dataset, train_dataset=train_dataset
    )
    with obs.span(
        "case", benchmark=benchmark, dataset=dataset, train=train_dataset
    ):
        for method in methods:
            with obs.span("method", method=method):
                with obs.span("align", method=method) as align_span:
                    align_report = AlignmentReport()
                    layouts = align_program(
                        program,
                        training.profile,
                        method=method,
                        model=model,
                        effort=effort,
                        seed=seed,
                        budget=budget,
                        report=align_report,
                        jobs=jobs,
                        policy=policy,
                    )
                penalty = evaluate_program(
                    program, layouts, testing.profile, model,
                    predictors=predictors,
                )
                timing = simulate_timing(
                    program,
                    layouts,
                    testing.profile,
                    testing.trace,
                    model,
                    predictors=predictors,
                    icache=DirectMappedICache(icache_bytes, icache_line),
                )
            case.methods[method] = MethodOutcome(
                method=method,
                penalty=penalty.total,
                breakdown=penalty.breakdown,
                timing=timing,
                align_seconds=align_span.dur_ms / 1000.0,
                layouts=layouts,
                exttsp=exttsp_program_score(
                    program, layouts, testing.profile
                ),
                degraded=align_report.degraded,
                warnings=align_report.warnings,
                retried=align_report.retried,
                quarantined=align_report.quarantined,
            )

        if compute_bound:
            case.lower_bound = case_lower_bound(
                benchmark,
                dataset,
                model=model,
                effort=effort,
                seed=seed,
                budget=budget,
                jobs=jobs,
                policy=policy,
            )
    return case


@lru_cache(maxsize=None)
def _run_case_cached(
    benchmark: str,
    dataset: str,
    train_dataset: str,
    *,
    methods: tuple[str, ...],
    model: PenaltyModel,
    effort: Effort,
    seed: int,
    budget: Budget | None,
    jobs: int,
    policy: RetryPolicy | None,
) -> CaseResult:
    return run_case(
        benchmark,
        dataset,
        train_dataset,
        methods=methods,
        model=model,
        effort=effort,
        seed=seed,
        budget=budget,
        jobs=jobs,
        policy=policy,
    )


def run_case_cached(
    benchmark: str,
    dataset: str,
    train_dataset: str | None = None,
    *,
    methods: tuple[str, ...] = DEFAULT_METHODS,
    model: PenaltyModel = ALPHA_21164,
    effort: Effort | str = DEFAULT,
    seed: int = 0,
    budget: Budget | None = None,
    jobs: int | None = None,
    policy: RetryPolicy | None = None,
) -> CaseResult:
    """Memoized :func:`run_case` — figures share cases within a session.

    Arguments are normalized *before* the cache boundary, so the spellings
    ``(bm, ds)``, ``(bm, ds, ds)``, ``effort="default"`` vs the Effort
    object, and method aliases (``"dtsp"`` vs ``"tsp"``) all hit one
    entry.  Treat the result as read-only.
    """
    return _run_case_cached(
        benchmark,
        dataset,
        train_dataset or dataset,
        methods=tuple(normalize_method(m) for m in methods),
        model=model,
        effort=get_effort(effort),
        seed=seed,
        budget=budget,
        jobs=resolve_jobs(jobs),
        policy=policy,
    )


run_case_cached.cache_clear = _run_case_cached.cache_clear  # type: ignore[attr-defined]
run_case_cached.cache_info = _run_case_cached.cache_info  # type: ignore[attr-defined]


@lru_cache(maxsize=None)
def _case_lower_bound(
    benchmark: str,
    dataset: str,
    *,
    model: PenaltyModel,
    effort: Effort,
    seed: int,
    budget: Budget | None,
    jobs: int,
    policy: RetryPolicy | None = None,
) -> float:
    module = compile_benchmark(benchmark)
    run = profiled_run(benchmark, dataset)
    # The TSP tours serve as the subgradient targets.  Going through the
    # align stage means these solves are shared, via the artifact cache,
    # with the case's own ``tsp`` method — one solve feeds both.
    tasks = procedure_tasks(
        module.program,
        run.profile,
        method="tsp",
        model=model,
        effort=effort,
        seed=seed,
        budget=budget,
    )
    aligned = run_align_tasks(tasks, jobs=jobs, policy=policy)
    bound_tasks = [
        BoundTask(
            name=task.name,
            cfg=task.cfg,
            profile=task.profile,
            model=task.model,
            index=task.index,
            upper_bound=result.cost,
            budget=budget,
            instance=result.instance,
        )
        for task, result in zip(tasks, aligned)
        if task.profile.total()
    ]
    return sum(
        r.bound
        for r in run_bound_tasks(bound_tasks, jobs=jobs, policy=policy)
    )


def case_lower_bound(
    benchmark: str,
    dataset: str,
    *,
    model: PenaltyModel = ALPHA_21164,
    effort: Effort | str = DEFAULT,
    seed: int = 0,
    budget: Budget | None = None,
    jobs: int | None = None,
    policy: RetryPolicy | None = None,
) -> float:
    """Held–Karp lower bound for one case, with TSP tours as the subgradient
    targets (cached — every figure reuses it; arguments are normalized
    before the cache boundary)."""
    return _case_lower_bound(
        benchmark,
        dataset,
        model=model,
        effort=get_effort(effort),
        seed=seed,
        budget=budget,
        jobs=resolve_jobs(jobs),
        policy=policy,
    )


case_lower_bound.cache_clear = _case_lower_bound.cache_clear  # type: ignore[attr-defined]
case_lower_bound.cache_info = _case_lower_bound.cache_info  # type: ignore[attr-defined]


# -- fault-tolerant sweeps ----------------------------------------------------


@dataclass(frozen=True)
class SkippedCase:
    """A case that failed every attempt of a sweep — recorded, not raised."""

    benchmark: str
    dataset: str
    train_dataset: str
    error: str
    attempts: int = 2

    @property
    def label(self) -> str:
        return f"{self.benchmark}.{self.dataset}"


@dataclass
class SweepResult:
    """Outcome of :func:`run_cases` over many cases."""

    cases: list[CaseResult] = field(default_factory=list)
    skipped: list[SkippedCase] = field(default_factory=list)
    #: How many cases were served from the checkpoint vs computed fresh.
    from_checkpoint: int = 0
    computed: int = 0


def run_case_resilient(
    benchmark: str,
    dataset: str,
    train_dataset: str | None = None,
    *,
    methods: tuple[str, ...] = DEFAULT_METHODS,
    model: PenaltyModel = ALPHA_21164,
    effort: Effort | str = DEFAULT,
    seed: int = 0,
    budget: Budget | None = None,
    compute_bound: bool = True,
    checkpoint: "ExperimentCheckpoint | None" = None,
    retries: int = 1,
    jobs: int | None = None,
    policy: RetryPolicy | None = None,
) -> "CaseResult | SkippedCase":
    """:func:`run_case` with checkpoint lookup, retry, and skip-on-failure.

    A case already in ``checkpoint`` is served from it (no recompute); a
    fresh case is persisted to ``checkpoint`` on success.  A case that
    raises is retried ``retries`` more times; if every attempt fails the
    failure is folded into a :class:`SkippedCase` instead of propagating —
    one pathological case must not sink a whole figure run.

    ``jobs`` deliberately does not participate in the checkpoint key: a
    case's results are identical for every worker count, so a checkpoint
    written at ``jobs=1`` resumes byte-identically at ``jobs=4``.
    """
    from repro.experiments.checkpoint import CaseKey  # local: import cycle

    methods = tuple(normalize_method(m) for m in methods)
    key = None
    if checkpoint is not None:
        key = CaseKey.for_case(
            benchmark,
            dataset,
            train_dataset,
            methods=methods,
            model=model,
            effort=effort,
            seed=seed,
            budget=budget,
        )
        cached = checkpoint.get(key)
        if cached is not None:
            return cached

    last_error: Exception | None = None
    for _attempt in range(retries + 1):
        try:
            case = run_case(
                benchmark,
                dataset,
                train_dataset,
                methods=methods,
                model=model,
                effort=effort,
                seed=seed,
                budget=budget,
                compute_bound=compute_bound,
                jobs=jobs,
                policy=policy,
            )
        except Exception as exc:  # noqa: BLE001 — sweep survival by design
            last_error = exc
            continue
        if checkpoint is not None and key is not None:
            checkpoint.record(key, case)
        return case
    return SkippedCase(
        benchmark=benchmark,
        dataset=dataset,
        train_dataset=train_dataset or dataset,
        error=f"{type(last_error).__name__}: {last_error}",
        attempts=retries + 1,
    )


def run_cases(
    specs: Iterable[Sequence[str]],
    *,
    methods: tuple[str, ...] = DEFAULT_METHODS,
    model: PenaltyModel = ALPHA_21164,
    effort: Effort | str = DEFAULT,
    seed: int = 0,
    budget: Budget | None = None,
    compute_bound: bool = True,
    checkpoint: "ExperimentCheckpoint | None" = None,
    retries: int = 1,
    jobs: int | None = None,
    policy: RetryPolicy | None = None,
) -> SweepResult:
    """Run a sweep of cases fault-tolerantly.

    ``specs`` is an iterable of ``(benchmark, dataset)`` or
    ``(benchmark, dataset, train_dataset)`` tuples.  Completed cases land
    in ``result.cases`` in spec order; failures land in ``result.skipped``.
    ``jobs`` parallelizes the per-procedure solves *within* each case
    (cases themselves stay sequential so checkpoints grow in spec order).
    """
    from repro.experiments.checkpoint import CaseKey  # local: import cycle

    methods = tuple(normalize_method(m) for m in methods)
    result = SweepResult()
    for spec in specs:
        benchmark, dataset = spec[0], spec[1]
        train_dataset = spec[2] if len(spec) > 2 else None
        was_checkpointed = False
        if checkpoint is not None:
            was_checkpointed = (
                CaseKey.for_case(
                    benchmark,
                    dataset,
                    train_dataset,
                    methods=methods,
                    model=model,
                    effort=effort,
                    seed=seed,
                    budget=budget,
                )
                in checkpoint
            )
        outcome = run_case_resilient(
            benchmark,
            dataset,
            train_dataset,
            methods=methods,
            model=model,
            effort=effort,
            seed=seed,
            budget=budget,
            compute_bound=compute_bound,
            checkpoint=checkpoint,
            retries=retries,
            jobs=jobs,
            policy=policy,
        )
        if isinstance(outcome, SkippedCase):
            result.skipped.append(outcome)
        else:
            result.cases.append(outcome)
            if was_checkpointed:
                result.from_checkpoint += 1
            else:
                result.computed += 1
    return result
