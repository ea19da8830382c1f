"""The content-addressed artifact cache: fingerprints, stats, fault bypass."""

from __future__ import annotations

import random

import pytest

from repro import faults
from repro.budget import Budget
from repro.machine.models import ALPHA_21064, ALPHA_21164
from repro.pipeline.artifacts import (
    STORE_ENV,
    ArtifactCache,
    artifact_cache,
    fingerprint_cfg,
    fingerprint_model,
    fingerprint_profile,
    reset_artifact_cache,
    reset_default_store,
)


@pytest.fixture(autouse=True)
def _isolated_default_store(monkeypatch):
    """This module unit-tests the *in-memory* tier: hide any ambient
    process-default store (e.g. ``$REPRO_STORE`` in the chaos CI job), or
    miss/eviction assertions would be served from disk."""
    monkeypatch.delenv(STORE_ENV, raising=False)
    reset_default_store()
    yield
    reset_default_store()
from repro.pipeline.stages import instance_for
from repro.profiles.edge_profile import EdgeProfile
from repro.workloads import GeneratorConfig, random_procedure


def make_proc(seed: int = 7, blocks: int = 12):
    rng = random.Random(seed)
    return random_procedure("p", rng, GeneratorConfig(target_blocks=blocks))


def make_profile(proc, seed: int = 3) -> EdgeProfile:
    profile = EdgeProfile()
    rng = random.Random(seed)
    for block in proc.cfg:
        for succ in block.successors:
            profile.add(block.block_id, succ, rng.randrange(1, 100))
    return profile


# -- fingerprints -------------------------------------------------------------


def test_cfg_fingerprint_is_stable_and_content_sensitive():
    assert fingerprint_cfg(make_proc().cfg) == fingerprint_cfg(make_proc().cfg)
    assert fingerprint_cfg(make_proc(seed=7).cfg) != fingerprint_cfg(
        make_proc(seed=8).cfg
    )


def test_profile_fingerprint_ignores_zero_counts_and_ordering():
    a, b = EdgeProfile(), EdgeProfile()
    a.add(1, 2, 10)
    a.add(3, 4, 0)       # an explicit zero count changes nothing
    b.add(3, 4, 0)
    b.add(1, 2, 10)      # insertion order changes nothing
    assert fingerprint_profile(a) == fingerprint_profile(b)
    b.add(1, 2, 1)
    assert fingerprint_profile(a) != fingerprint_profile(b)


def test_model_fingerprint_distinguishes_models():
    assert fingerprint_model(ALPHA_21164) != fingerprint_model(ALPHA_21064)


# -- cache mechanics ----------------------------------------------------------


def test_get_put_and_per_kind_stats():
    cache = ArtifactCache()
    key = ArtifactCache.key("instance", "abc", 1)
    assert cache.get(key) is None               # miss
    cache.put(key, "artifact")
    assert cache.get(key) == "artifact"         # hit
    stats = cache.stats("instance")
    assert (stats.hits, stats.misses) == (1, 1)
    assert stats.hit_rate == 0.5
    assert cache.stats().lookups == 2           # aggregate
    assert cache.stats_by_kind().keys() == {"instance"}


def test_key_separates_kinds_and_components():
    assert ArtifactCache.key("align", "x") != ArtifactCache.key("bound", "x")
    assert ArtifactCache.key("align", "x") != ArtifactCache.key("align", "y")
    assert ArtifactCache.key("align", "x", None) != ArtifactCache.key(
        "align", "x", "None"
    )


@pytest.mark.usefixtures("no_ambient_store", "no_ambient_chaos")
def test_process_cache_is_bounded():
    """A long-lived service stores artifacts for every distinct request;
    the process-wide cache keeps only the newest ``DEFAULT_MAX_ENTRIES``."""
    from repro.pipeline.artifacts import DEFAULT_MAX_ENTRIES

    reset_artifact_cache()
    cache = artifact_cache()
    for i in range(DEFAULT_MAX_ENTRIES + 10):
        cache.put(ArtifactCache.key("probe", i), i)
    assert len(cache._entries) == DEFAULT_MAX_ENTRIES
    assert cache.get(ArtifactCache.key("probe", DEFAULT_MAX_ENTRIES + 9)) == (
        DEFAULT_MAX_ENTRIES + 9
    )
    reset_artifact_cache()


def test_fifo_eviction_respects_max_entries():
    cache = ArtifactCache(max_entries=2)
    for i in range(3):
        cache.put(ArtifactCache.key("k", i), i)
    assert len(cache) == 2
    assert cache.get(ArtifactCache.key("k", 0)) is None   # oldest evicted
    assert cache.get(ArtifactCache.key("k", 2)) == 2


def test_get_or_build_builds_once():
    cache = ArtifactCache()
    calls = []
    key = ArtifactCache.key("instance", "z")
    for _ in range(3):
        cache.get_or_build(key, lambda: calls.append(1) or "built")
    assert len(calls) == 1
    assert cache.stats("instance").hits == 2


def test_cache_is_bypassed_while_faults_are_armed():
    cache = ArtifactCache()
    key = ArtifactCache.key("align", "f")
    cache.put(key, "clean")
    with faults.inject_faults(solver_timeout=True):
        assert not cache.enabled
        assert cache.get(key) is None       # a cached clean result must not
        cache.put(key, "dirty")             # paper over the injected fault
    assert cache.get(key) == "clean"        # and the armed block writes nothing


def test_instance_for_shares_matrices_across_clients():
    from repro.pipeline.task import ProcedureTask

    reset_artifact_cache()
    proc = make_proc()
    profile = make_profile(proc)

    def task(method):
        return ProcedureTask(
            name="p", cfg=proc.cfg, profile=profile, method=method,
            model=ALPHA_21164,
        )

    first = instance_for(task("greedy"))
    second = instance_for(task("tsp"))
    assert first is second                  # literally one build
    stats = artifact_cache().stats("instance")
    assert stats.hits >= 1
    reset_artifact_cache()
    assert artifact_cache().stats("instance").lookups == 0


@pytest.mark.usefixtures("no_ambient_chaos")
def test_worker_cache_lookups_count_in_the_parent(force_pool):
    """Lookups a pool worker makes come back with its results: at jobs=4
    the parent's per-kind stats count the workers' instance lookups (one
    per tsp task), as the serial run counts its own."""
    from repro.experiments.runner import profiled_run
    from repro.pipeline.executor import shutdown_pool
    from repro.pipeline.stages import run_align_tasks
    from repro.pipeline.task import procedure_tasks
    from repro.workloads.suite import compile_benchmark

    program = compile_benchmark("esp").program
    profile = profiled_run("esp", "ti").profile
    tasks = [
        task
        for task in procedure_tasks(
            program, profile, method="tsp", model=ALPHA_21164
        )
        if task.profile.total()
    ]
    assert len(tasks) > 1
    lookups = {}
    for jobs in (1, 4):
        shutdown_pool()  # fresh workers, with empty caches
        reset_artifact_cache()
        run_align_tasks(tasks, jobs=jobs)
        lookups[jobs] = {
            kind: (stats.hits, stats.misses)
            for kind, stats in artifact_cache().stats_by_kind().items()
        }
    assert force_pool() > 0
    assert lookups[4]["instance"] == lookups[1]["instance"] == (0, len(tasks))
    assert lookups[4] == lookups[1]
    reset_artifact_cache()


# -- bound keying -------------------------------------------------------------


def _bound_task(**overrides):
    from repro.pipeline.task import BoundTask

    proc = make_proc()
    kwargs = dict(
        name="p", cfg=proc.cfg, profile=make_profile(proc), model=ALPHA_21164
    )
    kwargs.update(overrides)
    return BoundTask(**kwargs)


def test_bound_key_ignores_the_upper_bound_hint():
    """A certified floor is valid for (cfg, profile, model, budget) no
    matter which tour an aligner found first, so nothing an align run
    knows may split cache entries.  A bound task carries no upper-bound
    hint at all, and its key splits on exactly what does change the
    certified artifact."""
    from dataclasses import fields

    from repro.pipeline.stages import bound_key
    from repro.pipeline.task import BoundTask

    assert "upper_bound" not in {field.name for field in fields(BoundTask)}
    base = bound_key(_bound_task())
    assert bound_key(_bound_task()) == base
    assert bound_key(_bound_task(index=3)) == base
    assert bound_key(_bound_task(model=ALPHA_21064)) != base
    assert bound_key(_bound_task(budget=Budget(wall_ms=5.0))) != base
    assert bound_key(_bound_task(cfg=make_proc(seed=9).cfg)) != base


def test_bound_stage_hits_across_hinted_and_unhinted_runs():
    """An align-then-bound run knows the tour's cost before its bound
    task runs; a bound-only run does not.  Neither hands it to the task,
    so the bound-only run hits what the align-then-bound run wrote."""
    from repro.core.aligners.tsp_aligner import tsp_align
    from repro.pipeline.stages import run_bound_tasks

    reset_artifact_cache()
    task = _bound_task()
    tour_cost = tsp_align(task.cfg, task.profile, task.model).cost
    first = run_bound_tasks([task], jobs=1)
    second = run_bound_tasks([_bound_task()], jobs=1)
    assert not first[0].from_cache
    assert second[0].from_cache
    assert second[0].bound == first[0].bound <= tour_cost
    assert artifact_cache().stats("bound").hits == 1
    reset_artifact_cache()
