"""Supervised per-procedure parallel execution for pipeline stages.

Procedures are aligned independently (the paper's problem is
*intra*procedural), so the solve stage fans tasks out over a
``ProcessPoolExecutor`` with a serial fallback — under a supervisor that
treats individual failures as routine:

* **Determinism** — results are merged in task order and every task carries
  its own solver seed derived from ``(seed, method, index)`` (see
  :func:`repro.pipeline.task.derive_seed`), so output is byte-identical for
  any worker count (``jobs=1`` vs ``jobs=4`` produce the same layouts,
  reports, stored cases, and tables).
* **Chunking** — alignment tasks are small (most procedures solve in
  milliseconds), so the supervisor batches several payloads into one pool
  task (:func:`_chunk_size` — deterministic in task count and worker
  count), amortizing submit/pickle/IPC overhead.  Inside a chunk every
  payload still runs under its own fault plan and event capture, and
  sabotaged dispatches go out as singleton chunks, so supervision
  semantics are chunking-invariant.  Chunking is disabled whenever an
  outer per-task deadline is configured (the deadline binds per pool
  task).
* **Supervision** — a worker that dies (OOM, signal, ``BrokenProcessPool``)
  costs the affected tasks one attempt, never the run: the pool is rebuilt
  and the tasks resubmitted.  Each attempt may carry an outer wall-clock
  deadline (``task_timeout_ms``); an unresponsive attempt is abandoned
  (the pool is torn down to reclaim its workers) and retried.
* **Retry / quarantine** — failed attempts retry with capped exponential
  backoff under a deterministic :class:`~repro.budget.RetryPolicy` budget.
  A task failing every attempt is *quarantined*: recorded in a structured
  :class:`SupervisionReport` with its final error, while the rest of the
  batch completes.  Stage code maps quarantined procedures to their
  identity layout, so program-level results degrade gracefully.
* **Budgets** — a :class:`~repro.budget.Budget` is a per-procedure spec;
  each worker starts its own countdown exactly as the serial loop does.
* **Cache accounting** — each payload's per-kind artifact-cache lookups
  in a worker come back with its result and are added to the parent's
  cache statistics, so hit rates count worker lookups too.
* **Fault injection** — the armed :class:`~repro.faults.FaultPlan` (if any)
  is shipped to the worker and re-armed around each task, and the worker's
  call/trip counters are merged back into the parent plan.  ``True``-valued
  triggers therefore behave identically at any worker count; integer
  ("fire on the n-th call") triggers on *worker-side* sites count per task
  in parallel mode rather than globally.  The supervisor's own sites
  (``worker_crash``, ``task_timeout``) are counted in the parent and,
  for scheduled triggers, sampled once per task at its first dispatch,
  so they stay deterministic at any worker count and a sabotaged task's
  retry is never re-targeted.
* **Degradation** — if the pool cannot be created or a submit fails
  (fork failure, interpreter shutdown), execution falls back to the
  serial path instead of failing the run.  A payload that cannot be
  pickled is *not* such a case: its chunk fails in the pool like any
  other attempt, so the payload is retried and quarantined, and its
  chunk-mates are each charged the failed attempt.  Every pipeline
  payload is a picklable dataclass.

The handler is passed in: a module-level callable, which pickles by
reference, so a worker runs exactly the function the caller named.
``jobs=None`` resolves through the ``REPRO_JOBS`` environment variable
(default 1), so ``REPRO_JOBS=4 pytest`` exercises the parallel path across
the whole suite without touching call sites.  The retry policy comes only
from the caller (``None`` = :data:`~repro.budget.DEFAULT_RETRY_POLICY`).
"""

from __future__ import annotations

import atexit
import dataclasses
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor, TimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro import faults, obs
from repro.budget import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.errors import TaskTimeoutError, WorkerCrashError
from repro.pipeline.artifacts import artifact_cache

JOBS_ENV = "REPRO_JOBS"


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``jobs`` knob: explicit value, else ``REPRO_JOBS``, else 1."""
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        try:
            jobs = int(raw) if raw else 1
        except ValueError:
            jobs = 1
    return max(1, jobs)


# -- supervision records ------------------------------------------------------


@dataclass
class TaskOutcome:
    """What supervision observed for one payload."""

    index: int
    result: Any | None = None
    ok: bool = False
    #: ``"ErrorType: message"`` of the final failure, for quarantined tasks.
    error: str | None = None
    error_type: str | None = None
    attempts: int = 0
    #: Attempts beyond the first (== attempts - 1 unless never started).
    retried: int = 0
    quarantined: bool = False
    worker_crashes: int = 0
    timeouts: int = 0
    #: Supervisor bookkeeping: scheduled dispatch faults are sampled once,
    #: at the task's first dispatch (see :func:`_dispatch_faults`).
    fault_sampled: bool = field(default=False, repr=False, compare=False)


@dataclass
class SupervisionReport:
    """Structured account of one supervised batch: per-task outcomes plus
    batch-level counters.  ``quarantined`` tasks are *not* errors at this
    level — stage code decides the degraded stand-in result."""

    outcomes: list[TaskOutcome] = field(default_factory=list)
    #: Times the worker pool was torn down and rebuilt.
    pool_restarts: int = 0

    @property
    def retried(self) -> int:
        return sum(o.retried for o in self.outcomes)

    @property
    def worker_crashes(self) -> int:
        return sum(o.worker_crashes for o in self.outcomes)

    @property
    def timeouts(self) -> int:
        return sum(o.timeouts for o in self.outcomes)

    @property
    def quarantined(self) -> list[TaskOutcome]:
        return [o for o in self.outcomes if o.quarantined]

    def merge_from(self, other: "SupervisionReport") -> None:
        """Fold another batch's outcomes in (stages run several batches —
        e.g. align then bound — against one report)."""
        base = len(self.outcomes)
        for outcome in other.outcomes:
            self.outcomes.append(
                dataclasses.replace(outcome, index=base + outcome.index)
            )
        self.pool_restarts += other.pool_restarts


# -- the worker side ----------------------------------------------------------


def _worker_chunk(
    shipped: tuple[dict | None, Callable[[Any], Any], list[tuple[Any, bool]]],
) -> list[tuple[bool, Any, dict, dict, list[dict], dict]]:
    """Run ``handler`` on a chunk of payloads in one worker process.

    Each payload is executed under its *own* re-armed fault plan (or an
    inert empty plan, which also shadows any plan inherited across
    ``fork``) and its own observability capture, so per-task fault-trigger
    and event semantics are identical whether the chunk holds one payload
    or twenty.  Returns one ``(ok, result-or-exception, calls, trips,
    events, cache lookups)`` entry per payload — a payload that raises
    costs only itself, not its chunk-mates.  A ``crash`` flag (decided in the parent, so
    trigger counting is worker-count invariant) kills the process the way
    a real OOM/signal would, losing the chunk's earlier results with it —
    exactly what a real mid-batch crash does.
    """
    spec, handler, entries = shipped
    cache = artifact_cache()
    out: list[tuple[bool, Any, dict, dict, list[dict], dict]] = []
    for payload, crash in entries:
        if crash:
            os._exit(3)
        before = cache.stats_by_kind()
        with obs.collect() as events:
            with faults.inject_faults(**(spec or {})) as plan:
                try:
                    ok, value = True, handler(payload)
                except Exception as exc:  # noqa: BLE001 — shipped to parent
                    ok, value = False, exc
        calls, trips = plan.counters()
        out.append((ok, value, calls, trips, events, cache.stats_since(before)))
    return out


# -- the pool -----------------------------------------------------------------


def _cpu_count() -> int:
    """Cores the dispatcher plans for: the pool-path gate and chunk sizing
    both read it (tests patch it to take the pool path on one core)."""
    return os.cpu_count() or 1


_POOL: ProcessPoolExecutor | None = None
_POOL_JOBS: int = 0


def _get_pool(jobs: int) -> ProcessPoolExecutor:
    """A persistent pool, resized lazily (pool creation costs a fork per
    worker; align calls are frequent and small, so the pool is shared)."""
    global _POOL, _POOL_JOBS
    if _POOL is None or _POOL_JOBS != jobs:
        shutdown_pool()
        _POOL = ProcessPoolExecutor(max_workers=jobs)
        _POOL_JOBS = jobs
    return _POOL


def shutdown_pool() -> None:
    global _POOL, _POOL_JOBS
    if _POOL is not None:
        _POOL.shutdown(wait=True, cancel_futures=True)
        _POOL = None
        _POOL_JOBS = 0


def abandon_pool() -> None:
    """Tear the pool down *without* waiting: kill worker processes and drop
    the executor.  Used when a task blew its outer deadline — its worker
    may never return, so joining it would hang the supervisor too."""
    global _POOL, _POOL_JOBS
    if _POOL is None:
        return
    pool, _POOL, _POOL_JOBS = _POOL, None, 0
    try:
        processes = list(getattr(pool, "_processes", {}).values())
    except Exception:  # noqa: BLE001 — private API; best effort
        processes = []
    for proc in processes:
        try:
            proc.terminate()
        except Exception:  # noqa: BLE001
            pass
    pool.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_pool)


# -- the supervisor -----------------------------------------------------------

#: Target dispatch waves per worker: chunks are sized so each worker sees
#: about this many pool tasks per round, amortizing per-task IPC while
#: keeping enough chunks in flight to balance uneven task costs.
_CHUNK_WAVES = 4
#: Hard cap on payloads per pool task, bounding the work lost to one crash.
_MAX_CHUNK = 16


def _chunk_size(task_count: int, jobs: int, policy: RetryPolicy) -> int:
    """Payloads per pool task — a pure function of the round's task count,
    the worker count, and the machine's core count, so dispatch is
    deterministic.  Forced to 1 when an outer per-task deadline is set:
    the deadline is enforced per pool task, and batching would silently
    stretch it by the chunk width.

    Chunks are sized for ``_CHUNK_WAVES`` waves per *usable* worker
    (``min(jobs, cores)``) — oversubscribed workers add no parallelism,
    so spreading a small batch across them just multiplies dispatch
    overhead.  Results are chunking-invariant regardless (pinned by the
    determinism suite), so this only shifts wall-clock."""
    if policy.task_timeout_ms is not None:
        return 1
    workers = max(1, min(jobs, _cpu_count()))
    # Waves exist to rebalance uneven chunks across workers; with a single
    # usable worker there is nothing to balance, so take the whole round
    # in one wave of maximal chunks.
    waves = _CHUNK_WAVES if workers > 1 else 1
    per_wave = waves * workers
    return max(1, min(_MAX_CHUNK, -(-task_count // per_wave)))


def _record_failure(
    outcome: TaskOutcome, exc: BaseException, policy: RetryPolicy
) -> None:
    outcome.error = f"{type(exc).__name__}: {exc}"
    outcome.error_type = type(exc).__name__
    if isinstance(exc, (WorkerCrashError, BrokenProcessPool)):
        outcome.worker_crashes += 1
        outcome.error_type = WorkerCrashError.__name__
    if isinstance(exc, (TaskTimeoutError, TimeoutError)):
        outcome.timeouts += 1
        outcome.error_type = TaskTimeoutError.__name__
    if outcome.attempts >= policy.max_attempts:
        outcome.quarantined = True
    else:
        outcome.retried += 1


def _dispatch_faults(outcome: TaskOutcome) -> BaseException | None:
    """Parent-side fault decision for one dispatch: an exception to realize
    (serially as a recorded failure, in the pool as a crash flag or a
    pre-failed future), or ``None`` for a clean dispatch.

    Scheduled (integer / periodic) triggers are consulted only on a task's
    *first* dispatch: retries and uncharged requeues neither fire nor
    advance the counters, so the sabotage schedule is a pure function of
    task order — deterministic at any worker count — and a sabotaged task's
    retry always gets a clean dispatch instead of being re-targeted until
    its budget runs out.  ``True`` triggers stay unrelenting (they fire on
    every dispatch), which is how tests drive the quarantine path.
    """
    first = not outcome.fault_sampled
    outcome.fault_sampled = True
    if faults.worker_crash_fires(first):
        return WorkerCrashError("fault injection: worker crashed mid-task")
    if faults.task_timeout_fires(first):
        return faults.simulated_task_timeout_error()
    return None


def _run_serial(
    handler: Callable[[Any], Any],
    payloads: Sequence[Any],
    policy: RetryPolicy,
    report: SupervisionReport,
    sleep: Callable[[float], None],
) -> None:
    """The in-process path — same supervision semantics as the pool path
    (dispatch-order fault counting, retry budget, quarantine), so results
    are identical at any worker count."""
    for index, payload in enumerate(payloads):
        outcome = report.outcomes[index]
        while not outcome.ok and not outcome.quarantined:
            if outcome.attempts > 0:
                sleep(policy.backoff_ms(outcome.retried) / 1000.0)
            outcome.attempts += 1
            injected = _dispatch_faults(outcome)
            if injected is not None:
                _record_failure(outcome, injected, policy)
                continue
            try:
                outcome.result = handler(payload)
                outcome.ok = True
            except Exception as exc:  # noqa: BLE001 — supervision boundary
                _record_failure(outcome, exc, policy)


def _run_parallel(
    handler: Callable[[Any], Any],
    payloads: Sequence[Any],
    jobs: int,
    policy: RetryPolicy,
    report: SupervisionReport,
    sleep: Callable[[float], None],
) -> bool:
    """The pool path: chunk → submit → harvest (with outer deadlines) →
    retry in rounds until every task succeeds or quarantines.  Returns
    False if the pool could not be used at all (caller falls back to
    serial).

    Tasks are batched into chunks of :func:`_chunk_size` payloads per pool
    task, amortizing submit/pickle/IPC overhead over small payloads; fault
    sampling stays strictly per task in pending order (so the sabotage
    schedule is chunking-invariant) and sabotaged tasks are dispatched as
    singleton chunks so a crash's blast radius matches the un-chunked
    supervisor's."""
    plan = faults.active()
    spec = plan.spec() if plan is not None else None
    pending = [
        o.index for o in report.outcomes if not o.ok and not o.quarantined
    ]
    round_number = 0
    while pending:
        if round_number > 0:
            report.pool_restarts += _POOL is None
            sleep(policy.backoff_ms(round_number) / 1000.0)
        round_number += 1
        chunk_cap = _chunk_size(len(pending), jobs, policy)
        try:
            pool = _get_pool(jobs)
            #: (chunk member indices, future) in ascending-index order.
            futures: list[tuple[tuple[int, ...], Future]] = []
            crashed_round: set[int] = set()
            batch: list[int] = []

            def _flush() -> None:
                if batch:
                    entries = [(payloads[i], False) for i in batch]
                    futures.append((
                        tuple(batch),
                        pool.submit(_worker_chunk, (spec, handler, entries)),
                    ))
                    batch.clear()

            for index in pending:
                injected = _dispatch_faults(report.outcomes[index])
                report.outcomes[index].attempts += 1
                if isinstance(injected, TaskTimeoutError):
                    # Simulated deadline blow: fail the dispatch without
                    # occupying a worker.
                    _flush()
                    failed: Future = Future()
                    failed.set_exception(injected)
                    futures.append(((index,), failed))
                    continue
                if injected is not None:
                    # Sabotaged dispatch: a singleton chunk, so the crash
                    # takes down exactly one charged task (everything else
                    # broken with the pool is collateral, see below).
                    crashed_round.add(index)
                    _flush()
                    futures.append(((index,), pool.submit(
                        _worker_chunk,
                        (spec, handler, [(payloads[index], True)]),
                    )))
                    continue
                batch.append(index)
                if len(batch) >= chunk_cap:
                    _flush()
            _flush()
        except Exception:  # noqa: BLE001 — pool unusable: serial fallback
            for index in pending:
                # Un-count the attempt: the serial path owns it now.
                if report.outcomes[index].attempts > 0:
                    report.outcomes[index].attempts -= 1
            abandon_pool()
            return False

        timeout_s = (
            policy.task_timeout_ms / 1000.0
            if policy.task_timeout_ms is not None
            else None
        )
        killed_pool = False
        for indices, fut in futures:
            try:
                if killed_pool and not fut.done():
                    # We tore the pool down for an earlier timeout; these
                    # tasks never got to finish — requeue without charging
                    # an attempt.
                    for index in indices:
                        report.outcomes[index].attempts -= 1
                    continue
                entries = fut.result(timeout=timeout_s)
            except TimeoutError:
                # Outer deadlines force singleton chunks, so this charges
                # exactly the task that blew its deadline.
                for index in indices:
                    _record_failure(
                        report.outcomes[index],
                        TaskTimeoutError(
                            f"task exceeded its "
                            f"{policy.task_timeout_ms:.0f} ms deadline",
                            timeout_ms=policy.task_timeout_ms,
                        ),
                        policy,
                    )
                # The worker may never come back: reclaim its slot.
                abandon_pool()
                killed_pool = True
            except (BrokenProcessPool, TaskTimeoutError, OSError) as exc:
                if (
                    isinstance(exc, BrokenProcessPool)
                    and crashed_round
                    and not crashed_round.intersection(indices)
                ):
                    # An *injected* crash took the pool down and this chunk
                    # was collateral, not the culprit: requeue it without
                    # charging attempts, or a periodic crash schedule
                    # over a large batch would quarantine innocents (and
                    # make attempt counts timing-dependent).  For real
                    # crashes the culprit is unknowable, so every affected
                    # task is charged.
                    for index in indices:
                        report.outcomes[index].attempts -= 1
                else:
                    for index in indices:
                        _record_failure(report.outcomes[index], exc, policy)
                if isinstance(exc, BrokenProcessPool):
                    killed_pool = True
                    abandon_pool()
            except Exception as exc:  # noqa: BLE001 — chunk infrastructure
                # (e.g. an unpicklable payload or result) failed; task-level
                # exceptions come back *inside* entries, not here.
                for index in indices:
                    _record_failure(report.outcomes[index], exc, policy)
            else:
                for index, entry in zip(indices, entries):
                    ok, value, calls, trips, events, lookups = entry
                    outcome = report.outcomes[index]
                    if not ok:
                        # The payload raised in the worker.  Counters and
                        # events of failed attempts are dropped, matching
                        # the un-chunked contract ("only successful
                        # attempts ship events back").
                        _record_failure(outcome, value, policy)
                        continue
                    if plan is not None:
                        plan.merge_counts(calls, trips)
                    # Only successful attempts ship events (and cache
                    # lookups) back, so a retried task contributes one
                    # attempt's worth of them.
                    obs.absorb(events)
                    artifact_cache().absorb_stats(lookups)
                    # Proof that the pool really ran: a jobs comparison
                    # whose runs all took the serial path compares nothing.
                    obs.count("executor.pool_tasks", stable=False)
                    outcome.result = value
                    outcome.ok = True
        pending = [
            o.index
            for o in report.outcomes
            if not o.ok and not o.quarantined
        ]
    return True


def run_tasks_supervised(
    handler: Callable[[Any], Any],
    payloads: Sequence[Any],
    *,
    kind: str,
    jobs: int | None = None,
    policy: RetryPolicy | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> SupervisionReport:
    """Execute ``handler`` on each of ``payloads`` with full supervision,
    returning a :class:`SupervisionReport` whose ``outcomes`` line up with
    ``payloads``.

    Never raises for task failures: a task that exhausts its retry budget
    is quarantined in the report (``outcome.quarantined``), and everything
    else completes.  ``handler`` must be a module-level callable for the
    pool path (workers receive it by reference); ``kind`` only labels the
    ``executor:batch`` span.  ``jobs`` > 1 fans out over the process pool;
    1 (or a single payload, or a pool failure) runs the serial path
    in-process.  ``policy=None`` means :data:`DEFAULT_RETRY_POLICY`.
    ``sleep`` is injectable so tests observe backoff without waiting.
    """
    jobs = resolve_jobs(jobs)
    policy = policy or DEFAULT_RETRY_POLICY
    report = SupervisionReport(
        outcomes=[TaskOutcome(index=i) for i in range(len(payloads))]
    )
    # Fanning out needs a reason: a second usable core, process isolation
    # for an active fault plan (injected crashes must kill a *worker*),
    # or an enforceable per-task deadline (future.result(timeout)).  With
    # none of those the pool only adds IPC latency — results are
    # worker-count invariant either way (pinned by the determinism suite).
    want_pool = (
        jobs > 1
        and len(payloads) > 1
        and (
            _cpu_count() > 1
            or faults.active() is not None
            or policy.task_timeout_ms is not None
        )
    )
    with obs.span("executor:batch", kind=kind, tasks=len(payloads)) as sp:
        if not (
            want_pool
            and _run_parallel(handler, payloads, jobs, policy, report, sleep)
        ):
            _run_serial(handler, payloads, policy, report, sleep)
        sp["retried"] = report.retried
        sp["quarantined"] = len(report.quarantined)
    # Counters mirror the report exactly (they are *read from* it), so the
    # trace reconciles with SupervisionReport totals by construction.
    obs.count("executor.retried", report.retried)
    obs.count("executor.quarantined", len(report.quarantined))
    obs.count("executor.worker_crashes", report.worker_crashes)
    obs.count("executor.timeouts", report.timeouts)
    # Pool restarts depend on process placement, not on the work requested.
    obs.count("executor.pool_restarts", report.pool_restarts, stable=False)
    return report

