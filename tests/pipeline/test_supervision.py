"""The supervised executor: retry/backoff, quarantine, crash recovery."""

from __future__ import annotations

import pytest

from repro import faults
from repro.budget import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.pipeline.executor import run_tasks_supervised, shutdown_pool
from repro.pipeline.stages import align_one

NO_SLEEP = lambda seconds: None  # noqa: E731 — tests never really back off

#: For tests that count attempts, crashes and timeouts exactly: an
#: environment chaos plan would add faults of its own to those counts.
#: The other tests here run under it.
only_own_faults = pytest.mark.usefixtures("no_ambient_chaos")


def _clean(tasks):
    """A serial batch that must quarantine nothing; its results in order."""
    report = run_tasks_supervised(
        align_one, tasks, kind="align", jobs=1, sleep=NO_SLEEP
    )
    assert not report.quarantined
    return [outcome.result for outcome in report.outcomes]


def _always_fails(n):
    raise RuntimeError(f"task {n} always fails")


def _com_tasks(method="tsp"):
    from repro.experiments.runner import profiled_run
    from repro.machine.models import ALPHA_21164
    from repro.pipeline.task import procedure_tasks
    from repro.workloads.suite import compile_benchmark

    program = compile_benchmark("com").program
    profile = profiled_run("com", "in").profile
    return procedure_tasks(program, profile, method=method, model=ALPHA_21164)


class TestRetryPolicy:
    def test_backoff_is_capped_exponential_and_deterministic(self):
        policy = RetryPolicy(retries=5, backoff_base_ms=25, backoff_cap_ms=100)
        assert [policy.backoff_ms(n) for n in range(5)] == [
            0.0, 25.0, 50.0, 100.0, 100.0,
        ]

    def test_max_attempts(self):
        assert RetryPolicy(retries=0).max_attempts == 1
        assert DEFAULT_RETRY_POLICY.max_attempts == 3

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(task_timeout_ms=0)


class TestOneRetryBudget:
    @only_own_faults
    def test_environment_does_not_configure_retries(self, monkeypatch):
        """The retry policy comes only from the caller: variables that
        once seeded it change nothing, so one process applies one budget."""
        monkeypatch.setenv("REPRO_RETRIES", "5")
        monkeypatch.setenv("REPRO_TASK_TIMEOUT_MS", "1")
        report = run_tasks_supervised(
            _always_fails, [0], kind="test", jobs=1, sleep=NO_SLEEP,
        )
        [outcome] = report.outcomes
        assert outcome.quarantined
        assert outcome.attempts == DEFAULT_RETRY_POLICY.max_attempts
        assert report.timeouts == 0


class TestSerialSupervision:
    @only_own_faults
    def test_flaky_task_retries_to_success(self):
        failures = {"left": 2}

        def flaky(n):
            if failures["left"]:
                failures["left"] -= 1
                raise RuntimeError("transient")
            return n * 10

        report = run_tasks_supervised(
            flaky, [7], kind="t-flaky", jobs=1,
            policy=RetryPolicy(retries=3), sleep=NO_SLEEP,
        )
        [outcome] = report.outcomes
        assert outcome.ok and outcome.result == 70
        assert outcome.attempts == 3 and outcome.retried == 2
        assert not outcome.quarantined

    def test_poison_task_quarantines_and_batch_survives(self):
        def poison(n):
            if n == 2:
                raise ValueError("always bad")
            return n

        report = run_tasks_supervised(
            poison, [1, 2, 3], kind="t-poison", jobs=1,
            policy=RetryPolicy(retries=1), sleep=NO_SLEEP,
        )
        assert [o.ok for o in report.outcomes] == [True, False, True]
        poisoned = report.outcomes[1]
        assert poisoned.quarantined
        assert poisoned.attempts == 2
        assert poisoned.error_type == "ValueError"
        assert "always bad" in poisoned.error
        assert [o.result for o in report.outcomes if o.ok] == [1, 3]

    def test_backoff_schedule_observed_through_injected_sleep(self):
        delays = []
        run_tasks_supervised(
            _always_fails, [0], kind="t-always-bad", jobs=1,
            policy=RetryPolicy(retries=3, backoff_base_ms=10,
                               backoff_cap_ms=20),
            sleep=delays.append,
        )
        assert delays == [0.010, 0.020, 0.020]

    def test_zero_retries_fails_fast(self):
        report = run_tasks_supervised(
            _always_fails, [0], kind="t-fragile", jobs=1,
            policy=RetryPolicy(retries=0), sleep=NO_SLEEP,
        )
        assert report.outcomes[0].attempts == 1
        assert report.outcomes[0].quarantined

    def test_exhausted_task_is_quarantined_with_its_last_error(self):
        report = run_tasks_supervised(
            _always_fails, [0], kind="t-strict", jobs=1,
            policy=RetryPolicy(retries=1), sleep=NO_SLEEP,
        )
        [outcome] = report.outcomes
        assert outcome.quarantined
        assert outcome.attempts == 2
        assert "always fails" in outcome.error


class TestInjectedDispatchFaults:
    @only_own_faults
    def test_worker_crash_is_retried_transparently(self):
        with faults.inject_faults(worker_crash=2) as plan:
            report = run_tasks_supervised(
                lambda n: n + 1, [10, 20, 30], kind="t-crashy", jobs=1,
                sleep=NO_SLEEP,
            )
        assert [o.result for o in report.outcomes] == [11, 21, 31]
        assert plan.trips("worker_crash") == 1
        assert report.worker_crashes == 1
        assert report.retried == 1

    def test_periodic_crashes_still_converge(self):
        with faults.inject_faults(worker_crash="%3") as plan:
            report = run_tasks_supervised(
                lambda n: n, list(range(6)), kind="t-periodic", jobs=1,
                sleep=NO_SLEEP,
            )
        assert all(o.ok for o in report.outcomes)
        assert plan.trips("worker_crash") >= 2

    @only_own_faults
    def test_simulated_timeout_counts_and_retries(self):
        with faults.inject_faults(task_timeout=1):
            report = run_tasks_supervised(
                lambda n: n, [1, 2], kind="t-slow", jobs=1, sleep=NO_SLEEP,
            )
        assert all(o.ok for o in report.outcomes)
        assert report.timeouts == 1
        assert report.outcomes[0].error_type == "TaskTimeoutError"

    @only_own_faults
    def test_unrelenting_timeouts_quarantine(self):
        with faults.inject_faults(task_timeout=True):
            report = run_tasks_supervised(
                lambda n: n, [1], kind="t-stuck", jobs=1,
                policy=RetryPolicy(retries=1), sleep=NO_SLEEP,
            )
        assert report.outcomes[0].quarantined
        assert report.outcomes[0].timeouts == 2


class TestParallelSupervision:
    @only_own_faults
    def test_clean_parallel_batch_matches_serial(self, force_pool):
        """With no fault plan armed, jobs=2 fans out over real workers
        (even on one core) and returns the serial run's results."""
        tasks = _com_tasks()
        clean = _clean(tasks)
        before = force_pool()
        report = run_tasks_supervised(
            align_one, tasks, kind="align", jobs=2, sleep=NO_SLEEP
        )
        assert force_pool() > before
        assert all(o.ok and o.attempts == 1 for o in report.outcomes)
        for expect, outcome in zip(clean, report.outcomes):
            assert outcome.result.name == expect.name
            assert outcome.result.layout.order == expect.layout.order
            assert outcome.result.cost == expect.cost

    def test_real_worker_crash_recovers_with_identical_results(
        self, force_pool
    ):
        """`worker_crash` in pool mode is a genuine ``os._exit`` in the
        worker — the pool breaks, is rebuilt, and the batch completes with
        the same results as a clean serial run."""
        tasks = _com_tasks()
        clean = _clean(tasks)
        before = force_pool()
        with faults.inject_faults(worker_crash=1) as plan:
            report = run_tasks_supervised(
                align_one, tasks, kind="align", jobs=2, sleep=NO_SLEEP,
            )
        shutdown_pool()
        assert force_pool() > before
        assert plan.trips("worker_crash") == 1
        assert report.worker_crashes >= 1
        assert all(o.ok for o in report.outcomes)
        for expect, outcome in zip(clean, report.outcomes):
            assert outcome.result.name == expect.name
            assert outcome.result.layout.order == expect.layout.order
            assert outcome.result.cost == expect.cost

    def test_parallel_timeout_abandons_and_quarantines(self):
        """An attempt that blows its deadline is charged one attempt, and
        exhausting the retry budget quarantines every sabotaged task."""
        tasks = _com_tasks()
        with faults.inject_faults(task_timeout=True):
            report = run_tasks_supervised(
                align_one, tasks, kind="align", jobs=2,
                policy=RetryPolicy(retries=1),
                sleep=NO_SLEEP,
            )
        shutdown_pool()
        assert all(o.quarantined for o in report.outcomes)
        assert all(o.attempts == 2 for o in report.outcomes)


class TestChaosMode:
    def test_chaos_crashes_are_invisible_in_results(self, monkeypatch):
        tasks = _com_tasks()
        clean = _clean(tasks)
        monkeypatch.setenv(faults.CHAOS_ENV, "worker_crash=%3")
        report = run_tasks_supervised(
            align_one, tasks, kind="align", jobs=1, sleep=NO_SLEEP
        )
        monkeypatch.setenv(faults.CHAOS_ENV, "")
        assert all(o.ok for o in report.outcomes)
        assert report.worker_crashes >= 1
        for expect, outcome in zip(clean, report.outcomes):
            assert outcome.result.layout.order == expect.layout.order
            assert outcome.result.cost == expect.cost

    def test_torn_store_writes_are_resolved_never_served(
        self, tmp_path, monkeypatch, force_pool
    ):
        """The store half of the chaos contract: a cold parallel run under
        crashes and torn store writes, then disarmed warm re-runs from
        fresh caches at jobs=1 and jobs=2, all return the clean results —
        torn entries are evicted and re-solved, the rest served from
        checksum-verified hits, and the second warm pass is all hits."""
        from repro.pipeline.artifacts import (
            reset_artifact_cache,
            reset_default_store,
            set_default_store,
        )
        from repro.pipeline.stages import run_align_tasks

        def fresh_run(jobs):
            reset_artifact_cache()
            return run_align_tasks(tasks, jobs=jobs)

        tasks = _com_tasks()
        clean = _clean(tasks)
        store = set_default_store(tmp_path / "store")
        try:
            monkeypatch.setenv(
                faults.CHAOS_ENV, "worker_crash=%5,store_corrupt=%3"
            )
            cold = fresh_run(2)
            monkeypatch.setenv(faults.CHAOS_ENV, "")
            assert store.stats.writes >= 3  # so %3 tore at least one
            warm = fresh_run(1)
            assert store.stats.evictions >= 1
            assert store.stats.hits >= 1
            rewarm = fresh_run(2)
        finally:
            reset_default_store()
            reset_artifact_cache()
        shutdown_pool()
        solved = [
            r for r, task in zip(rewarm, tasks) if task.profile.total() > 0
        ]
        assert solved and all(r.from_cache for r in solved)
        for expect, *runs in zip(clean, cold, warm, rewarm):
            for got in runs:
                assert got.name == expect.name
                assert got.layout.order == expect.layout.order
                assert got.cost == expect.cost
