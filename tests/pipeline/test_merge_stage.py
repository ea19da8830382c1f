"""The merge stage: one Ext-TSP merge phase per procedure, shared by the
``chain-merge`` and ``exttsp`` aligners through the ``merge`` artifact."""

from __future__ import annotations

from collections import Counter

import pytest

from repro import faults, obs
from repro.core.align import align_program
from repro.core.aligners.exttsp_merge import merge_phase
from repro.experiments.runner import case_lower_bound, profiled_run, run_case
from repro.pipeline import stages
from repro.pipeline.artifacts import (
    ArtifactStore,
    artifact_cache,
    reset_artifact_cache,
    set_default_store,
)
from repro.workloads.suite import compile_benchmark

BENCHMARK, DATASET = "com", "in"


@pytest.fixture(autouse=True)
def _fresh(no_ambient_store, no_ambient_chaos):
    """Cold caches and tracer, no ambient store or chaos plan: the tests
    count artifact lookups and merge runs exactly."""

    def scrub():
        reset_artifact_cache()
        case_lower_bound.cache_clear()
        obs.reset_tracer()

    scrub()
    yield
    scrub()


def _program_and_profile():
    return (
        compile_benchmark(BENCHMARK).program,
        profiled_run(BENCHMARK, DATASET).profile,
    )


def _profiled_procedures() -> list:
    program, profile = _program_and_profile()
    return [
        (proc.cfg, profile.procedures[proc.name])
        for proc in program
        if proc.name in profile.procedures
        and profile.procedures[proc.name].total()
    ]


def _merge_task():
    """An ``exttsp`` task for the first profiled procedure."""
    from repro.machine.models import ALPHA_21164
    from repro.pipeline.task import procedure_tasks

    program, profile = _program_and_profile()
    return next(
        task
        for task in procedure_tasks(
            program, profile, method="exttsp", model=ALPHA_21164,
        )
        if task.profile.total()
    )


def _orders(layouts) -> dict:
    return {name: layout.order for name, layout in layouts.items()}


def test_merge_runs_once_per_procedure():
    """Both Ext-TSP methods in one sweep run the merge once per profiled
    procedure and serve the second method from the artifact; the stable
    counters still equal two separate cold runs', because every aligner
    call reports the merge it used."""
    profiled = len(_profiled_procedures())
    assert profiled > 1
    run_case(
        BENCHMARK, DATASET, methods=("exttsp", "chain-merge"),
        compute_bound=False, jobs=1,
    )
    merge = artifact_cache().stats("merge")
    assert (merge.misses, merge.hits) == (profiled, profiled)
    together = obs.counters(stable_only=True)

    apart: Counter = Counter()
    for method in ("exttsp", "chain-merge"):
        reset_artifact_cache()
        obs.reset_tracer()
        run_case(
            BENCHMARK, DATASET, methods=(method,), compute_bound=False,
            jobs=1,
        )
        assert artifact_cache().stats("merge").misses == profiled
        apart.update(obs.counters(stable_only=True))
    assert together == dict(apart)
    assert together["exttsp.merges"] > 0
    assert together["exttsp.merge_candidates"] > together["exttsp.merges"]


def test_merge_artifact_is_served_from_the_store(tmp_path):
    """With a store, a later process (here: a cleared in-memory cache)
    reads the merge from disk and produces the same layouts."""
    program, profile = _program_and_profile()
    # jobs=1: the lookups counted below happen in this process.
    expected = _orders(
        align_program(program, profile, method="exttsp", jobs=1)
    )
    reset_artifact_cache()
    store = set_default_store(tmp_path / "store")
    align_program(program, profile, method="chain-merge", jobs=1)
    assert store.stats.writes > 0
    reset_artifact_cache()
    layouts = align_program(program, profile, method="exttsp", jobs=1)
    merge = artifact_cache().stats("merge")
    assert merge.misses == 0
    assert merge.hits == len(_profiled_procedures())
    assert _orders(layouts) == expected


def test_damaged_merge_entry_is_evicted_and_recomputed(tmp_path):
    task = _merge_task()
    expected = merge_phase(task.cfg, task.profile)
    store = set_default_store(tmp_path / "store")
    with faults.inject_faults(store_corrupt=True) as plan:
        stages.merge_order_for(task)
        assert plan.trips("store_corrupt") == 1
    reset_artifact_cache()
    assert stages.merge_order_for(task) == expected
    assert store.stats.evictions == 1
    assert artifact_cache().stats("merge").misses == 1
    # The recomputed entry was written back whole.
    assert ArtifactStore(store.root).get(stages.merge_key(task)) == expected


def test_merge_artifact_is_bypassed_while_pipeline_faults_are_armed(
    monkeypatch,
):
    task = _merge_task()
    runs = []

    def counted(*args):
        runs.append(args)
        return merge_phase(*args)

    monkeypatch.setattr(stages, "merge_phase", counted)
    first = stages.merge_order_for(task)
    assert stages.merge_order_for(task) is first
    assert len(runs) == 1
    with faults.inject_faults(solver_timeout=True):
        stages.merge_order_for(task)
        stages.merge_order_for(task)
    assert len(runs) == 3
    assert stages.merge_order_for(task) is first
