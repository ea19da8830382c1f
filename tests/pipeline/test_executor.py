"""The parallel executor: jobs resolution, fan-out, fault shipping."""

from __future__ import annotations

import os

from repro import faults
from repro.pipeline.executor import (
    JOBS_ENV,
    resolve_jobs,
    run_tasks_supervised,
    shutdown_pool,
)
from repro.pipeline.stages import align_one


def _results(handler, payloads, **kwargs):
    """Run a batch that must quarantine nothing; its results in order."""
    report = run_tasks_supervised(handler, payloads, kind="test", **kwargs)
    assert not report.quarantined
    return [outcome.result for outcome in report.outcomes]


def worker_pid(payload):
    """Module-level, so it pickles by reference into pool workers."""
    return os.getpid()


def test_resolve_jobs_explicit_wins(monkeypatch):
    monkeypatch.setenv(JOBS_ENV, "8")
    assert resolve_jobs(2) == 2
    assert resolve_jobs(None) == 8


def test_resolve_jobs_defaults_and_clamps(monkeypatch):
    monkeypatch.delenv(JOBS_ENV, raising=False)
    assert resolve_jobs(None) == 1
    assert resolve_jobs(0) == 1
    assert resolve_jobs(-3) == 1
    monkeypatch.setenv(JOBS_ENV, "not-a-number")
    assert resolve_jobs(None) == 1
    monkeypatch.setenv(JOBS_ENV, "  ")
    assert resolve_jobs(None) == 1


def test_serial_path_runs_in_process():
    seen = []
    results = _results(lambda x: seen.append(x) or x * 2, [1, 2, 3], jobs=1)
    assert results == [2, 4, 6]
    assert seen == [1, 2, 3]


def test_single_payload_stays_serial_even_with_jobs():
    # A lone task is not worth a round-trip through the pool.
    marker = object()     # unpicklable closure result proves in-process run
    [(value, got)] = _results(lambda x: (x, marker), [5], jobs=4)
    assert value == 5 and got is marker


def test_handed_in_handler_runs_in_pool_workers(force_pool, no_ambient_chaos):
    """The handler travels with the batch, so a function the workers never
    imported at fork time still runs in them, not in the parent."""
    before = force_pool()
    pids = _results(worker_pid, list(range(8)), jobs=2)
    shutdown_pool()
    assert all(pid != os.getpid() for pid in pids)
    assert force_pool() > before


def test_parallel_matches_serial_on_real_tasks():
    """The pool path must return exactly what the serial path returns, in
    order — exercised on real alignment tasks (``align_one`` is
    module-level, so it pickles into workers)."""
    from repro.experiments.runner import profiled_run
    from repro.pipeline.task import procedure_tasks
    from repro.machine.models import ALPHA_21164
    from repro.workloads.suite import compile_benchmark

    program = compile_benchmark("com").program
    profile = profiled_run("com", "in").profile
    tasks = procedure_tasks(program, profile, method="tsp", model=ALPHA_21164)
    serial = _results(align_one, tasks, jobs=1)
    parallel = _results(align_one, tasks, jobs=2)
    shutdown_pool()
    assert [r.name for r in serial] == [r.name for r in parallel]
    for a, b in zip(serial, parallel):
        assert a.layout.order == b.layout.order
        assert a.cost == b.cost
        assert a.degraded == b.degraded


def test_pool_tasks_counter_proves_the_pool_ran():
    """``executor.pool_tasks`` counts tasks finished in a pool worker, so a
    ``jobs > 1`` run that took the serial shortcut (one usable core) is
    visible as such."""
    from repro import obs
    from repro.experiments.runner import profiled_run
    from repro.machine.models import ALPHA_21164
    from repro.pipeline.task import procedure_tasks
    from repro.workloads.suite import compile_benchmark

    tasks = procedure_tasks(
        compile_benchmark("com").program, profiled_run("com", "in").profile,
        method="greedy", model=ALPHA_21164,
    )

    def pool_tasks():
        return obs.counters().get("executor.pool_tasks", 0)

    before = pool_tasks()
    _results(align_one, tasks, jobs=1)
    assert pool_tasks() == before
    _results(align_one, tasks, jobs=2)
    shutdown_pool()
    expected = len(tasks) if (os.cpu_count() or 1) > 1 else 0
    assert pool_tasks() - before == expected


def test_fault_plans_ship_to_workers_and_counters_merge():
    """A plan armed in the parent fires inside pool workers, and the
    workers' call/trip counters fold back into the parent plan."""
    from repro.experiments.runner import profiled_run
    from repro.pipeline.task import procedure_tasks
    from repro.machine.models import ALPHA_21164
    from repro.workloads.suite import compile_benchmark

    program = compile_benchmark("com").program
    profile = profiled_run("com", "in").profile
    tasks = procedure_tasks(program, profile, method="tsp", model=ALPHA_21164)
    with faults.inject_faults(solver_timeout=True) as plan:
        results = _results(align_one, tasks, jobs=2)
    shutdown_pool()
    solvable = [t for t in tasks if t.profile.total() and len(t.cfg) > 2]
    assert plan.trips("solver") >= len(solvable) > 0
    for task, result in zip(tasks, results):
        if task in solvable:
            assert result.degraded != "none"


def test_nested_plans_innermost_ships_to_workers():
    """With nested ``inject_faults`` contexts, the *innermost* plan is the
    one shipped to pool workers; its trip counters merge back into it and
    the outer plan stays untouched."""
    from repro.experiments.runner import profiled_run
    from repro.pipeline.task import procedure_tasks
    from repro.machine.models import ALPHA_21164
    from repro.workloads.suite import compile_benchmark

    program = compile_benchmark("com").program
    profile = profiled_run("com", "in").profile
    tasks = procedure_tasks(program, profile, method="tsp", model=ALPHA_21164)
    with faults.inject_faults(solver_timeout=True) as outer:
        with faults.inject_faults(solver_timeout=True) as inner:
            _results(align_one, tasks, jobs=2)
    shutdown_pool()
    assert inner.trips("solver") > 0
    assert outer.trips("solver") == 0


def test_caches_bypassed_while_pipeline_faults_armed(
    tmp_path, no_ambient_chaos
):
    """While a plan arms a pipeline site, neither the in-memory cache nor
    the on-disk store may serve (or absorb) artifacts — injected failures
    must reach the stage code under test."""
    from repro.pipeline.artifacts import ArtifactCache, ArtifactStore

    store = ArtifactStore(tmp_path / "store")
    cache = ArtifactCache(store=store)
    key = ArtifactCache.key("align", "bypass-probe")
    cache.put(key, "healthy")
    assert key in store
    with faults.inject_faults(worker_crash=True):
        assert cache.get(key) is None
        cache.put(key, "poisoned")
    assert cache.get(key) == "healthy"
    assert store.get(key) == "healthy"


def test_chunk_size_is_deterministic_and_capped(monkeypatch):
    from repro.budget import RetryPolicy
    from repro.pipeline import executor
    from repro.pipeline.executor import _CHUNK_WAVES, _MAX_CHUNK, _chunk_size

    free = RetryPolicy()
    assert free.task_timeout_ms is None
    # ~_CHUNK_WAVES dispatch waves per *usable* worker: pin the core count
    # so the assertions hold on any machine.
    monkeypatch.setattr(executor.os, "cpu_count", lambda: 4)
    assert _chunk_size(36, 4, free) == 3
    assert _chunk_size(16, 4, free) == 1
    assert _chunk_size(65, 4, free) == 5
    # Bounded blast radius for one lost worker.
    assert _chunk_size(10_000, 1, free) == _MAX_CHUNK
    # Oversubscription (jobs beyond cores) adds no parallelism, so it must
    # not shrink chunks below the core-limited size.
    monkeypatch.setattr(executor.os, "cpu_count", lambda: 1)
    assert _chunk_size(16, 4, free) == _MAX_CHUNK
    assert _chunk_size(10_000, 4, free) == _MAX_CHUNK
    # Pure function of (count, jobs, cores): same inputs, same chunks.
    assert _chunk_size(100, 2, free) == _chunk_size(100, 2, free)
    assert _CHUNK_WAVES > 1
    # An outer per-task deadline forces singleton chunks (the deadline is
    # enforced per pool task).
    deadline = RetryPolicy(task_timeout_ms=50.0)
    assert _chunk_size(10_000, 4, deadline) == 1


def test_worker_chunk_isolates_payload_failures():
    """Inside one chunk each payload gets its own outcome entry: a raising
    payload ships its exception back without poisoning its chunk-mates."""
    from repro.pipeline.executor import _worker_chunk

    def fussy(x):
        if x == 2:
            raise ValueError("payload 2 is cursed")
        return x * 10

    entries = [(x, False) for x in (1, 2, 3)]
    out = _worker_chunk((None, fussy, entries))
    assert [ok for ok, *_ in out] == [True, False, True]
    assert out[0][1] == 10 and out[2][1] == 30
    assert isinstance(out[1][1], ValueError)
    # Per-payload event capture: each entry carries its own events list.
    assert all(isinstance(entry[4], list) for entry in out)


def test_chunked_pool_matches_serial_on_large_batches():
    """Enough tasks that jobs=2 genuinely groups several payloads per pool
    task: results must still come back in payload order, equal to serial."""
    from repro.budget import RetryPolicy
    from repro.experiments.runner import profiled_run
    from repro.machine.models import ALPHA_21164
    from repro.pipeline.executor import _chunk_size
    from repro.pipeline.task import procedure_tasks
    from repro.workloads.suite import compile_benchmark

    program = compile_benchmark("com").program
    profile = profiled_run("com", "in").profile
    tasks = procedure_tasks(program, profile, method="tsp", model=ALPHA_21164)
    tasks = (tasks * 4)[:20]  # force multi-payload chunks
    assert _chunk_size(len(tasks), 2, RetryPolicy()) > 1
    serial = _results(align_one, tasks, jobs=1)
    parallel = _results(align_one, tasks, jobs=2)
    shutdown_pool()
    assert [r.name for r in serial] == [r.name for r in parallel]
    for a, b in zip(serial, parallel):
        assert a.layout.order == b.layout.order
        assert a.cost == b.cost
