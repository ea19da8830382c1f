"""Store resource exhaustion: ENOSPC/EIO degrade to sticky read-only mode."""

from __future__ import annotations

import pytest

from repro import faults
from repro.pipeline.artifacts import (
    STORE_ENV,
    ArtifactCache,
    ArtifactStore,
    reset_default_store,
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


KEY = ArtifactCache.key("align", "degraded", 1)
OTHER = ArtifactCache.key("align", "degraded", 2)

# ``no_ambient_chaos``: the test reads back exactly what it wrote, which
# an environment plan's ``store_corrupt`` could tear.


class TestEnospcDegradation:
    def test_enospc_flips_sticky_read_only(self, store):
        assert store.put(KEY, {"layout": [0, 1]})
        with faults.inject_faults(store_enospc=1):
            # The OSError a full disk raises never escapes put().
            assert store.put(OTHER, {"layout": [1, 0]}) is False
        assert store.degraded
        assert store.stats.io_errors == 1
        # Sticky: the disk being "full" does not un-fill between calls;
        # later writes are skipped without touching the filesystem.
        assert store.put(OTHER, {"layout": [1, 0]}) is False
        assert store.put(OTHER, {"layout": [1, 0]}) is False
        assert store.stats.degraded_writes == 2
        assert store.stats.io_errors == 1  # no new I/O attempts

    @pytest.mark.usefixtures("no_ambient_chaos")
    def test_degraded_store_still_serves_reads(self, store):
        store.put(KEY, {"layout": [0, 1]})
        with faults.inject_faults(store_enospc=1):
            store.put(OTHER, {"layout": [1, 0]})
        assert store.degraded
        assert store.get(KEY) == {"layout": [0, 1]}
        assert store.get(OTHER) is None

    def test_transient_store_error_does_not_degrade(self, store):
        # The pre-existing injected store fault raises ArtifactStoreError —
        # transient sabotage, absorbed per-operation, not sticky.
        with faults.inject_faults(store_io_error=1):
            assert store.put(KEY, {"layout": [0, 1]}) is False
        assert not store.degraded
        assert store.put(KEY, {"layout": [0, 1]})

    def test_real_oserror_from_filesystem_degrades(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(KEY, 1)
        # Replace the store root with a file: every later write path
        # mkdir/rename fails with a real OSError, not an injected one.
        import shutil

        shutil.rmtree(store.root)
        store.root.parent.mkdir(parents=True, exist_ok=True)
        store.root.write_text("not a directory")
        assert store.put(OTHER, 2) is False
        assert store.degraded


class TestDegradedAlignment:
    def test_alignment_still_returns_with_a_dead_store(self, tmp_path):
        # End to end: a full disk mid-run must cost only caching, never
        # the answer.
        from repro.core import align_program
        from repro.lang import compile_source, run_and_profile
        from repro.machine.models import ALPHA_21164
        from repro.pipeline.artifacts import set_default_store

        source = """
        fn main() {
          var i = 0;
          var acc = 0;
          while (i < 8) {
            if (i % 2 == 0) { acc = acc + i; }
            i = i + 1;
          }
          output(acc);
          return acc;
        }
        """
        module = compile_source(source)
        _, profile = run_and_profile(module, [])
        store = ArtifactStore(tmp_path / "store")
        set_default_store(store)
        try:
            with faults.inject_faults(store_enospc=1):
                layouts = align_program(
                    module.program, profile, method="tsp",
                    model=ALPHA_21164, seed=0,
                )
        finally:
            reset_default_store()
        assert store.degraded
        for layout in layouts.layouts.values():
            assert sorted(layout.order) == list(range(len(layout.order)))
