"""Trace determinism: worker count is invisible in a trace's content.

The product contract (ISSUE 4): the span/counter *content* of a trace —
span identities and stable counter totals, with timing and process
identity excluded — is a pure function of the work requested, never of
how many workers executed it.  And the counters are *honest*: executor
totals reconcile exactly with the :class:`SupervisionReport`, store
totals with :class:`StoreStats`, cache totals with the cache's own
bookkeeping.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import faults, obs
from repro.budget import RetryPolicy
from repro.pipeline.artifacts import (
    STORE_ENV,
    ArtifactCache,
    ArtifactStore,
    reset_artifact_cache,
)
from repro.pipeline.executor import run_tasks_supervised, shutdown_pool

NO_SLEEP = lambda seconds: None  # noqa: E731


@pytest.fixture(autouse=True)
def _hermetic(monkeypatch):
    """Fresh caches/tracer and no ambient chaos, store, or trace env —
    the two compared runs must be identical-by-construction."""
    from repro.experiments.runner import case_lower_bound

    monkeypatch.delenv(faults.CHAOS_ENV, raising=False)
    monkeypatch.delenv(STORE_ENV, raising=False)
    monkeypatch.delenv(obs.TRACE_ENV, raising=False)

    def scrub():
        reset_artifact_cache()
        case_lower_bound.cache_clear()
        obs.reset_tracer()

    scrub()
    yield
    scrub()
    shutdown_pool()


def _traced_suite_run(path, jobs: int) -> list[dict]:
    from repro.cli import main

    assert main(
        ["suite", "com.in", "--jobs", str(jobs), "--trace", str(path)]
    ) == 0
    return obs.load_trace(path)


def _content(events: list[dict]):
    """The determinism-relevant view of a trace: the multiset of span
    identities plus every stable counter total."""
    spans = Counter(
        obs.span_identity(e) for e in events if e["type"] == "span"
    )
    counters = {
        e["name"]: e["value"]
        for e in events
        if e["type"] == "counter" and e["stable"]
    }
    return spans, counters


class TestTraceContentDeterminism:
    def test_suite_trace_content_invariant_across_worker_counts(
        self, tmp_path, capsys, force_pool
    ):
        from repro.experiments.runner import case_lower_bound

        traces = {}
        pool_tasks = {}
        for jobs in (1, 4):
            reset_artifact_cache()
            case_lower_bound.cache_clear()
            obs.reset_tracer()
            traces[jobs] = _traced_suite_run(
                tmp_path / f"j{jobs}.jsonl", jobs
            )
            pool_tasks[jobs] = force_pool()
            capsys.readouterr()  # the table itself is covered elsewhere
        # The --jobs 4 run really ran in worker processes, on any host.
        assert pool_tasks[1] == 0 and pool_tasks[4] > 0

        for events in traces.values():
            problems = [
                p for event in events for p in obs.validate_event(event)
            ]
            assert problems == []

        serial_spans, serial_counters = _content(traces[1])
        parallel_spans, parallel_counters = _content(traces[4])
        assert serial_spans == parallel_spans
        assert serial_counters == parallel_counters
        # The trace is not vacuously equal: real work was recorded.
        assert sum(serial_spans.values()) > 0
        assert serial_counters.get("path_cover.nodes", 0) > 0
        # Every search — the tsp and exttsp aligners' and the bound's — is
        # a path-cover span carrying its nodes (the span identities above
        # compare them across worker counts); no 3-Opt run, exact DP or
        # dense search runs.
        searches = [
            dict(attrs) for (name, attrs), count in serial_spans.items()
            if name == "path_cover" for _ in range(count)
        ]
        assert (
            sum(s["nodes"] for s in searches)
            == serial_counters["path_cover.nodes"]
        )
        assert not any(name == "dtsp_solve" for name, _ in serial_spans)
        for name in ("tsp.runs", "tsp.kicks"):
            assert name not in serial_counters, name
        assert "bnb.nodes" not in serial_counters
        # So is the Ext-TSP work: merges scored, not just applied, and a
        # path cover searched under each exttsp procedure, whose layout
        # never falls back to the merge order on the suite.
        assert serial_counters["exttsp.merge_candidates"] > 0
        assert serial_counters["exttsp.merge_kept"] == 0
        assert not any(name.startswith("exttsp.refine") for name in serial_counters)
        spans = [e for e in traces[1] if e["type"] == "span"]
        by_id = {e["span_id"]: e for e in spans}
        under_exttsp = [
            e for e in spans
            if e["name"] == "path_cover"
            and by_id[e["parent_id"]]["name"] == "exttsp_solver"
        ]
        exttsp_procs = [
            e for e in spans
            if e["name"] == "exttsp_solver"
            and e["attrs"]["method"] == "exttsp"
        ]
        assert len(under_exttsp) == len(exttsp_procs) > 0
        assert (
            serial_counters["align.cache_hits"]
            + serial_counters["align.cache_misses"]
            > 0
        )

    def test_worker_spans_are_merged_into_the_parent_trace(self, tmp_path, capsys):
        """Solver spans execute inside pool workers; the merge protocol
        must land them in the parent's trace file, parented under the
        executor's batch span."""
        events = _traced_suite_run(tmp_path / "t.jsonl", 4)
        capsys.readouterr()
        spans = [e for e in events if e["type"] == "span"]
        by_id = {e["span_id"]: e for e in spans}
        solver = [e for e in spans if e["name"] == "tsp_solver"]
        assert solver, "no solver spans were merged back"
        for event in solver:
            parent = by_id.get(event["parent_id"])
            assert parent is not None, "solver span is an orphan"
            assert parent["name"] == "executor:batch"


class TestCounterReconciliation:
    def test_executor_counters_match_supervision_report(self):
        failures = {"left": 2}

        def flaky(n):
            if n == 0 and failures["left"]:
                failures["left"] -= 1
                raise RuntimeError("transient")
            if n == 13:
                raise ValueError("poison")
            return n

        report = run_tasks_supervised(
            flaky, [0, 1, 13], kind="t-obs-flaky", jobs=1,
            policy=RetryPolicy(retries=2), sleep=NO_SLEEP,
        )
        counters = obs.counters()
        assert counters["executor.retried"] == report.retried
        assert counters["executor.quarantined"] == len(report.quarantined)
        assert counters["executor.worker_crashes"] == report.worker_crashes
        assert counters["executor.timeouts"] == report.timeouts
        # 2 flaky failures on task 0 + 2 futile retries of the poison task.
        assert report.retried == 4
        assert len(report.quarantined) == 1  # the poison task

    def test_executor_counters_accumulate_across_batches(self):
        for _ in range(2):
            with faults.inject_faults(worker_crash=1):
                run_tasks_supervised(
                    lambda n: n, [1, 2], kind="t-obs-clean", jobs=1,
                    sleep=NO_SLEEP,
                )
        counters = obs.counters()
        assert counters["executor.retried"] == 2
        assert counters["executor.worker_crashes"] == 2

    def test_store_counters_match_store_stats(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = ArtifactCache.key("align", "obs", "reconcile")
        store.get(key)          # miss
        store.put(key, [1, 2])  # write
        store.get(key)          # hit
        path = store.path_for(key)
        path.write_bytes(path.read_bytes()[:-1])  # truncate → corrupt
        store.get(key)          # miss + eviction
        counters = obs.counters()
        assert counters["store.hits"] == store.stats.hits == 1
        assert counters["store.misses"] == store.stats.misses == 2
        assert counters["store.writes"] == store.stats.writes == 1
        assert counters["store.evictions"] == store.stats.evictions == 1
        # Store activity is per-process by nature: never in the stable set.
        assert "store.hits" not in obs.counters(stable_only=True)

    def test_cache_counters_match_cache_stats(self):
        cache = ArtifactCache()
        key = ArtifactCache.key("align", "obs", "cache")
        cache.get(key)        # miss
        cache.put(key, "v")
        cache.get(key)        # hit
        stats = cache.stats("align")
        counters = obs.counters()
        assert counters["cache.align.hits"] == stats.hits == 1
        assert counters["cache.align.misses"] == stats.misses == 1

    def test_lock_steal_is_counted(self, tmp_path):
        import os

        from repro.pipeline.artifacts import EntryLock

        path = tmp_path / "e.lock"
        path.write_text("4242")
        os.utime(path, (1, 1))
        lock = EntryLock(path, timeout_ms=40, stale_ms=1000)
        assert lock.acquire()
        lock.release()
        assert obs.counters()["store.lock_steals"] == 1
