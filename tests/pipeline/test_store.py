"""The on-disk artifact store: checksums, crash safety, locks, wiring."""

from __future__ import annotations

import os

import pytest

from repro import faults
from repro.pipeline.artifacts import (
    STORE_ENV,
    ArtifactCache,
    ArtifactStore,
    DEFAULT_STORE_DIR,
    EntryLock,
    default_store,
    reset_default_store,
    resolve_store_path,
    set_default_store,
)


@pytest.fixture(autouse=True)
def _isolated_default_store(monkeypatch):
    monkeypatch.delenv(STORE_ENV, raising=False)
    reset_default_store()
    yield
    reset_default_store()


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


KEY = ArtifactCache.key("align", "some", "fingerprint", 7)

# Tests marked ``no_ambient_chaos`` read back exactly what they wrote: an
# environment plan's ``store_corrupt`` would tear one of those writes.
# The rest run under it.  The torn-write half of the chaos contract is
# pinned deterministically by ``test_supervision.py::TestChaosMode``.


class TestStoreBasics:
    @pytest.mark.usefixtures("no_ambient_chaos")
    def test_round_trip(self, store):
        assert store.get(KEY) is None
        assert store.put(KEY, {"layout": [3, 1, 2]})
        assert store.get(KEY) == {"layout": [3, 1, 2]}
        assert store.stats.writes == 1
        assert store.stats.hits == 1
        assert store.stats.misses == 1

    def test_layout_shards_by_digest_prefix(self, store):
        path = store.path_for(KEY)
        kind, _, digest = KEY.partition(":")
        assert path.suffix == ".art"
        assert path.parent.name == digest[:2]
        assert path.parent.parent.name == kind
        assert path.parent.parent.parent.name == f"v{ArtifactStore.VERSION}"

    def test_len_contains_clear(self, store):
        store.put(KEY, 1)
        other = ArtifactCache.key("bound", "x")
        store.put(other, 2)
        assert KEY in store and other in store
        assert len(store) == 2
        store.clear()
        assert len(store) == 0
        assert store.get(KEY) is None


class TestCorruptionSafety:
    def test_bit_rot_is_evicted_not_served(self, store):
        store.put(KEY, [1, 2, 3])
        path = store.path_for(KEY)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        assert store.get(KEY) is None
        assert store.stats.evictions == 1
        assert not path.exists()

    @pytest.mark.usefixtures("no_ambient_chaos")
    def test_kill_mid_write_is_a_miss_never_a_partial_artifact(self, store):
        """A torn write (process killed between publish and data sync,
        simulated by the ``store_corrupt`` fault) must read back as a miss
        and evict — never as a wrong or partial value."""
        with faults.inject_faults(store_corrupt=1) as plan:
            store.put(KEY, {"big": list(range(1000))})
            assert plan.trips("store_corrupt") == 1
            assert store.get(KEY) is None
        assert store.stats.evictions == 1
        assert not store.path_for(KEY).exists()
        # A healthy rewrite fully recovers the entry.
        store.put(KEY, {"big": [1]})
        assert store.get(KEY) == {"big": [1]}

    def test_header_key_mismatch_is_corruption(self, store):
        other = ArtifactCache.key("align", "different")
        store.put(KEY, "value")
        target = store.path_for(other)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(store.path_for(KEY).read_bytes())
        assert store.get(other) is None
        assert store.stats.evictions == 1

    def test_io_errors_absorbed_on_both_sides(self, store):
        with faults.inject_faults(store_io_error=True):
            assert store.put(KEY, 1) is False
            assert store.get(KEY) is None
        assert store.stats.io_errors == 2
        assert store.get(KEY) is None  # nothing was written

    def test_unwritable_root_never_raises(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        store = ArtifactStore(blocked)
        assert store.put(KEY, 1) is False
        assert store.get(KEY) is None
        assert store.stats.io_errors >= 1


class TestEntryLock:
    def test_acquire_release_cycle(self, tmp_path):
        lock = EntryLock(tmp_path / "e.lock")
        assert lock.acquire()
        assert (tmp_path / "e.lock").exists()
        lock.release()
        assert not (tmp_path / "e.lock").exists()

    def test_contended_lock_times_out_without_error(self, tmp_path):
        path = tmp_path / "e.lock"
        path.write_text("4242")  # a live writer holds it
        lock = EntryLock(path, timeout_ms=40, poll_ms=5, sleep=lambda s: None)
        assert not lock.acquire()
        assert path.exists()  # never stolen from a live owner

    def test_stale_lock_is_stolen(self, tmp_path):
        path = tmp_path / "e.lock"
        path.write_text("4242")
        os.utime(path, (1, 1))  # its writer died long ago
        lock = EntryLock(path, timeout_ms=40, stale_ms=1000)
        assert lock.acquire()
        lock.release()

    def test_future_dated_lock_is_stolen_not_waited_on(self, tmp_path):
        """Regression: staleness used wall-clock mtime age against a
        monotonic deadline, so a lock file dated in the future (clock step,
        NFS skew, a restored backup) had *negative* age and was treated as
        eternally fresh — every writer waited out its full timeout.  Ages
        beyond the small skew tolerance now read as infinitely old."""
        import time

        path = tmp_path / "e.lock"
        path.write_text("4242")
        future = time.time() + 3600.0
        os.utime(path, (future, future))
        lock = EntryLock(path, timeout_ms=40, stale_ms=60_000)
        assert lock.acquire()  # stolen immediately, not timed out
        lock.release()
        assert not path.exists()

    def test_small_clock_skew_is_tolerated_as_fresh(self, tmp_path):
        """Sub-second negative age (ordinary clock jitter) clamps to zero:
        the lock still counts as freshly written, not as stale."""
        import time

        path = tmp_path / "e.lock"
        path.write_text("4242")
        near_future = time.time() + 0.5
        os.utime(path, (near_future, near_future))
        lock = EntryLock(path, timeout_ms=40, poll_ms=5, sleep=lambda s: None)
        assert not lock.acquire()
        assert path.exists()  # never stolen from a live owner

    def test_unreadable_stat_counts_as_stale(self, tmp_path, monkeypatch):
        """A lock whose metadata cannot be read (EACCES, EIO) cannot prove
        it is fresh — it is treated as stale-eligible rather than blocking
        every writer until timeout."""
        from pathlib import Path

        path = tmp_path / "e.lock"
        path.write_text("4242")
        real_stat = Path.stat

        def broken_stat(self, **kwargs):
            if self == path:
                raise PermissionError("metadata unreadable")
            return real_stat(self, **kwargs)

        monkeypatch.setattr(Path, "stat", broken_stat)
        lock = EntryLock(path, timeout_ms=40, stale_ms=60_000)
        assert lock.acquire()
        lock.release()

    def test_contention_skips_the_write(self, store):
        path = store.path_for(KEY)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.with_suffix(path.suffix + ".lock").write_text("4242")
        store.lock_timeout_ms = 40
        assert store.put(KEY, 1) is False
        assert store.stats.lock_contention == 1


class TestStoreResolution:
    def test_explicit_path_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv(STORE_ENV, str(tmp_path / "env"))
        assert resolve_store_path(tmp_path / "flag") == tmp_path / "flag"

    def test_environment_fallback_and_disable(self, monkeypatch, tmp_path):
        monkeypatch.setenv(STORE_ENV, str(tmp_path / "env"))
        assert resolve_store_path(None) == tmp_path / "env"
        for spec in ("off", "0", "none", "False"):
            assert resolve_store_path(spec) is None
        monkeypatch.delenv(STORE_ENV)
        assert resolve_store_path(None) is None

    def test_auto_names_the_conventional_location(self):
        assert resolve_store_path("auto") == DEFAULT_STORE_DIR
        assert resolve_store_path("default") == DEFAULT_STORE_DIR

    def test_default_store_tracks_environment(self, monkeypatch, tmp_path):
        assert default_store() is None
        monkeypatch.setenv(STORE_ENV, str(tmp_path / "s"))
        resolved = default_store()
        assert resolved is not None
        assert resolved.root == tmp_path / "s"
        monkeypatch.setenv(STORE_ENV, "off")
        assert default_store() is None

    def test_set_default_store_overrides_environment(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(STORE_ENV, str(tmp_path / "env"))
        pinned = set_default_store(tmp_path / "pinned")
        assert default_store() is pinned
        set_default_store(None)
        assert default_store() is None


class TestCacheStoreTier:
    @pytest.mark.usefixtures("no_ambient_chaos")
    def test_write_through_and_cross_process_hit(self, store):
        cache = ArtifactCache(store=store)
        cache.put(KEY, "artifact")
        assert KEY in store
        # A fresh cache (≈ a fresh process) against the same store hits.
        fresh = ArtifactCache(store=store)
        assert fresh.get(KEY) == "artifact"
        assert fresh.stats("align").hits == 1

    def test_pipeline_faults_bypass_both_tiers(self, store):
        cache = ArtifactCache(store=store)
        cache.put(KEY, "clean")
        with faults.inject_faults(solver_timeout=True):
            assert not cache.enabled
            assert cache.get(KEY) is None
            cache.put(KEY, "sabotaged")
        assert cache.get(KEY) == "clean"
        assert store.stats.writes == 1  # the armed put never reached disk

    def test_store_only_faults_keep_the_cache_live(self, store):
        """A plan arming only store sites must leave the cache/store path
        enabled — that is the only way injected damage can reach the
        store."""
        cache = ArtifactCache(store=store)
        with faults.inject_faults(store_corrupt=True):
            assert cache.enabled
            cache.put(KEY, "torn")
            fresh = ArtifactCache(store=store)
            assert fresh.get(KEY) is None  # damage landed, and was caught
        assert store.stats.evictions == 1


class TestSerialParallelEquivalence:
    def _tasks(self):
        from repro.experiments.runner import profiled_run
        from repro.machine.models import ALPHA_21164
        from repro.pipeline.task import procedure_tasks
        from repro.workloads.suite import compile_benchmark

        program = compile_benchmark("com").program
        profile = profiled_run("com", "in").profile
        return procedure_tasks(
            program, profile, method="tsp", model=ALPHA_21164,
        )

    @pytest.mark.usefixtures("no_ambient_chaos")
    def test_cold_serial_then_warm_parallel_share_one_store(self, store):
        from repro.pipeline.artifacts import reset_artifact_cache
        from repro.pipeline.executor import shutdown_pool
        from repro.pipeline.stages import run_align_tasks

        set_default_store(store)
        reset_artifact_cache()
        cold = run_align_tasks(self._tasks(), jobs=1)
        # A fresh in-memory cache simulates a new process; every non-trivial
        # result must come from the verified store, byte-identical.
        reset_artifact_cache()
        warm = run_align_tasks(self._tasks(), jobs=4)
        reset_artifact_cache()
        shutdown_pool()
        for a, b in zip(cold, warm):
            assert a.name == b.name
            assert a.layout.order == b.layout.order
            assert a.cost == b.cost
        solved = [
            b for b, task in zip(warm, self._tasks())
            if task.profile.total() > 0
        ]
        assert solved and all(r.from_cache for r in solved)
