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
retried once, recorded as a skipped row on repeated failure, and kept as
a ``case`` artifact, so a sweep re-run against the same store resumes
where it stopped.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

from repro import obs
from repro.budget import Budget, RetryPolicy
from repro.core.align import AlignmentReport, align_program
from repro.core.costmodel import CostBreakdown
from repro.core.evaluate import evaluate_program, train_predictors
from repro.core.exttsp import DEFAULT_PARAMS, exttsp_program_score
from repro.core.layout import ProgramLayout
from repro.pipeline.artifacts import (
    EFFORT_SLOT,
    ArtifactCache,
    artifact_cache,
    fingerprint_budget,
    fingerprint_model,
)
from repro.pipeline.executor import resolve_jobs
from repro.pipeline.stages import normalize_method, run_bound_tasks
from repro.pipeline.task import bound_tasks
from repro.machine.icache import DirectMappedICache
from repro.machine.models import ALPHA_21164, PenaltyModel
from repro.machine.timing import TimingBreakdown, simulate_timing
from repro.lang.vm import run_and_profile
from repro.profiles.edge_profile import ProgramProfile
from repro.profiles.trace import CompactTrace
from repro.workloads.suite import compile_benchmark, get_benchmark

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
    seed: int = 0,
    budget: Budget | None = None,
    compute_bound: bool = True,
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
                    icache=DirectMappedICache(),
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
                budget=budget,
                jobs=jobs,
                policy=policy,
            )
    return case


@lru_cache(maxsize=None)
def _case_lower_bound(
    benchmark: str,
    dataset: str,
    *,
    model: PenaltyModel,
    budget: Budget | None,
    jobs: int,
    policy: RetryPolicy | None = None,
) -> float:
    module = compile_benchmark(benchmark)
    run = profiled_run(benchmark, dataset)
    bounds = run_bound_tasks(
        bound_tasks(module.program, run.profile, model=model, budget=budget),
        jobs=jobs,
        policy=policy,
    )
    return sum(r.bound for r in bounds)


def case_lower_bound(
    benchmark: str,
    dataset: str,
    *,
    model: PenaltyModel = ALPHA_21164,
    budget: Budget | None = None,
    jobs: int | None = None,
    policy: RetryPolicy | None = None,
) -> float:
    """Certified lower bound for one case: the sum of its procedures'
    bounds (cached — every figure reuses it; arguments are normalized
    before the cache boundary)."""
    return _case_lower_bound(
        benchmark,
        dataset,
        model=model,
        budget=budget,
        jobs=resolve_jobs(jobs),
        policy=policy,
    )


case_lower_bound.cache_clear = _case_lower_bound.cache_clear  # type: ignore[attr-defined]
case_lower_bound.cache_info = _case_lower_bound.cache_info  # type: ignore[attr-defined]


# -- sweeps: a finished case is a ``case`` artifact ---------------------------


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
    #: How many cases were served from the ``case`` artifact cache vs
    #: computed fresh.
    resumed: int = 0
    computed: int = 0


def case_key(
    benchmark: str,
    dataset: str,
    train_dataset: str | None = None,
    *,
    methods: tuple[str, ...] = DEFAULT_METHODS,
    model: PenaltyModel = ALPHA_21164,
    seed: int = 0,
    budget: Budget | None = None,
    compute_bound: bool = True,
) -> str:
    """Content address of one finished case: the benchmark source, the
    testing and training inputs, the normalized methods, model, budget,
    seed, whether the bound is computed, and the Ext-TSP scoring
    parameters.

    ``jobs`` and ``policy`` are deliberately left out: a case's results
    are identical for every worker count, so a store written at
    ``jobs=1`` resumes at ``jobs=4``.
    """
    train_dataset = train_dataset or dataset
    spec = get_benchmark(benchmark)
    return ArtifactCache.key(
        "case",
        hashlib.sha256(spec.source.encode()).hexdigest(),
        benchmark,
        dataset,
        train_dataset,
        spec.inputs(dataset),
        spec.inputs(train_dataset),
        ",".join(normalize_method(m) for m in methods),
        fingerprint_model(model),
        EFFORT_SLOT,
        fingerprint_budget(budget),
        seed,
        compute_bound,
        DEFAULT_PARAMS.fingerprint(),
    )


def sweep_case(
    benchmark: str,
    dataset: str,
    train_dataset: str | None = None,
    *,
    methods: tuple[str, ...] = DEFAULT_METHODS,
    model: PenaltyModel = ALPHA_21164,
    seed: int = 0,
    budget: Budget | None = None,
    compute_bound: bool = True,
    jobs: int | None = None,
    policy: RetryPolicy | None = None,
) -> tuple[CaseResult | SkippedCase, bool]:
    """One case of a sweep; returns ``(outcome, resumed)``.

    A case already in the artifact cache — its memory tier, or the
    ``--store``/``$REPRO_STORE`` tier of an earlier run — is served from
    it (``resumed``).  Otherwise :func:`run_case` computes it, and the
    case is stored unless a procedure was quarantined (the align stage's
    rule: a healthier re-run should get a real solve).  A case that
    raises is retried once; a second failure becomes a
    :class:`SkippedCase` — one pathological case must not sink a sweep.
    A case whose key cannot be built — an unknown benchmark, data set or
    method — is skipped after one attempt: building the key is pure, so
    a retry would fail the same way.
    Treat a returned case as read-only: it may be the cached object.
    """

    def skipped(error: Exception, attempts: int) -> SkippedCase:
        return SkippedCase(
            benchmark=benchmark,
            dataset=dataset,
            train_dataset=train_dataset or dataset,
            error=f"{type(error).__name__}: {error}",
            attempts=attempts,
        )

    try:
        kwargs = dict(
            methods=tuple(normalize_method(m) for m in methods),
            model=model,
            seed=seed,
            budget=budget,
            compute_bound=compute_bound,
        )
        key = case_key(benchmark, dataset, train_dataset, **kwargs)
    except Exception as exc:  # noqa: BLE001 — sweep survival by design
        return skipped(exc, attempts=1), False
    cache = artifact_cache()
    cached = cache.get(key)
    if cached is not None:
        return cached, True
    error: Exception | None = None
    for _attempt in range(2):
        try:
            case = run_case(
                benchmark, dataset, train_dataset, jobs=jobs, policy=policy,
                **kwargs,
            )
        except Exception as exc:  # noqa: BLE001 — sweep survival by design
            error = exc
            continue
        if not case.quarantined:
            cache.put(key, case)
        return case, False
    return skipped(error, attempts=2), False


def run_cases(
    specs: Iterable[Sequence[str | None]],
    **case_kwargs,
) -> SweepResult:
    """Run a sweep of cases fault-tolerantly through :func:`sweep_case`.

    ``specs`` is an iterable of ``(benchmark, dataset)`` or
    ``(benchmark, dataset, train_dataset)`` tuples; ``case_kwargs`` are
    :func:`sweep_case`'s options.  Completed cases land in
    ``result.cases`` in spec order; failures land in ``result.skipped``.
    ``jobs`` parallelizes the per-procedure solves *within* each case.
    """
    result = SweepResult()
    for spec in specs:
        outcome, resumed = sweep_case(*spec, **case_kwargs)
        if isinstance(outcome, SkippedCase):
            result.skipped.append(outcome)
        else:
            result.cases.append(outcome)
            if resumed:
                result.resumed += 1
            else:
                result.computed += 1
    return result
