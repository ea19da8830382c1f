"""Worker-count invariance: jobs=1 and jobs=4 produce identical results.

The contract: parallelism is a pure execution detail.  Layouts, alignment
reports, case results, stored ``case`` artifacts, and printed tables must be
identical for every worker count — including under injected faults.
(`align_seconds` is wall-clock and is the one field exempted.)
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import faults
from repro.core.align import AlignmentReport, align_program
from repro.experiments.runner import (
    case_key,
    profiled_run,
    run_case,
    run_cases,
    sweep_case,
)
from repro.pipeline.artifacts import (
    ArtifactStore,
    reset_artifact_cache,
    set_default_store,
)
from repro.pipeline.executor import shutdown_pool
from repro.workloads.suite import compile_benchmark


@pytest.fixture(autouse=True)
def _fresh_artifacts(force_pool, no_ambient_store, no_ambient_chaos):
    """Each run must genuinely recompute: a warm artifact cache or store
    would let the jobs=4 run serve the jobs=1 run's results and prove
    nothing.  And jobs=4 must mean worker processes, even on a one-core
    host.  An environment chaos plan counts its ``%N`` calls across the
    whole process, so the two runs would meet its faults at different
    tasks; tests that want faults inject one plan per run."""
    reset_artifact_cache()
    yield
    reset_artifact_cache()
    shutdown_pool()


def _normalized_state(case) -> dict:
    state = dataclasses.asdict(case)
    for payload in state["methods"].values():
        payload["align_seconds"] = 0.0
    return state


def align_both_ways(*, jobs: int, **kwargs):
    program = compile_benchmark("com").program
    profile = profiled_run("com", "in").profile
    report = AlignmentReport()
    layouts = align_program(
        program, profile, report=report, jobs=jobs, **kwargs
    )
    return layouts, report


def test_per_task_seeds_do_not_collide_across_methods():
    """Per-task seeds come from ``derive_seed(seed, method, index)`` — a
    stable hash — not the old ``seed + index`` arithmetic, which handed
    task 0 of every method the same stream (and task N of one method the
    stream of task N+1 of another).  The derivation is a pure function of
    the task identity, so it is worker-count invariant by construction."""
    from repro.pipeline.task import derive_seed

    seeds = {
        (method, index): derive_seed(7, method, index)
        for method in ("tsp", "greedy", "cost-greedy")
        for index in range(16)
    }
    assert len(set(seeds.values())) == len(seeds)  # no collisions
    # Stable across calls (it feeds cache keys and checkpoints).
    assert derive_seed(7, "tsp", 3) == derive_seed(7, "tsp", 3)
    assert derive_seed(7, "tsp", 3) != derive_seed(8, "tsp", 3)


def test_align_program_identical_across_worker_counts():
    serial_layouts, serial_report = align_both_ways(jobs=1, effort="quick")
    reset_artifact_cache()
    parallel_layouts, parallel_report = align_both_ways(
        jobs=4, effort="quick"
    )
    assert {n: l.order for n, l in serial_layouts.items()} == {
        n: l.order for n, l in parallel_layouts.items()
    }
    assert serial_report.cities == parallel_report.cities
    assert serial_report.costs == parallel_report.costs
    assert serial_report.runs_finding_best == parallel_report.runs_finding_best
    assert serial_report.degraded == parallel_report.degraded
    assert serial_report.warnings == parallel_report.warnings


def test_align_program_identical_under_injected_faults():
    """Degradation is deterministic too: with every solve faulted, jobs=1
    and jobs=4 degrade the same procedures to the same rungs with the same
    warnings, and the parent plan sees the workers' trips."""
    with faults.inject_faults(solver_timeout=True) as serial_plan:
        serial_layouts, serial_report = align_both_ways(
            jobs=1, effort="quick"
        )
    with faults.inject_faults(solver_timeout=True) as parallel_plan:
        parallel_layouts, parallel_report = align_both_ways(
            jobs=4, effort="quick"
        )
    assert serial_plan.trips("solver") > 0
    assert parallel_plan.trips("solver") == serial_plan.trips("solver")
    assert serial_report.degraded == parallel_report.degraded
    assert set(serial_report.degraded.values()) == {"construction"}
    assert serial_report.warnings == parallel_report.warnings
    assert {n: l.order for n, l in serial_layouts.items()} == {
        n: l.order for n, l in parallel_layouts.items()
    }


@pytest.mark.parametrize("method", ["exttsp", "chain-merge"])
def test_exttsp_family_identical_across_worker_counts(method, force_pool):
    """The chain-merge aligners are deterministic pure functions of
    (cfg, profile), so worker count must not leak into their layouts or
    either of their two prices — checked against real worker processes
    on any core count."""
    serial_layouts, serial_report = align_both_ways(
        jobs=1, method=method, effort="quick"
    )
    reset_artifact_cache()
    before = force_pool()
    parallel_layouts, parallel_report = align_both_ways(
        jobs=4, method=method, effort="quick"
    )
    assert force_pool() > before  # the jobs=4 run used the pool
    assert {n: l.order for n, l in serial_layouts.items()} == {
        n: l.order for n, l in parallel_layouts.items()
    }
    assert serial_report.exttsp_scores == parallel_report.exttsp_scores
    assert serial_report.exttsp_scores  # dual pricing actually recorded
    assert serial_report.degraded == parallel_report.degraded
    assert serial_report.warnings == parallel_report.warnings


def test_run_case_state_identical_across_worker_counts():
    serial = run_case("com", "in", jobs=1, effort="quick")
    reset_artifact_cache()
    parallel = run_case("com", "in", jobs=4, effort="quick")
    assert _normalized_state(serial) == _normalized_state(parallel)
    assert serial.lower_bound == parallel.lower_bound


def test_checkpoint_payloads_identical_across_worker_counts(tmp_path):
    """A sweep stored at jobs=1 and one stored at jobs=4 hold the same
    entries under the same keys and the same ``case`` artifact — so a
    store written at any worker count resumes at any other."""
    specs = [("com", "in")]
    key = case_key("com", "in", effort="quick")
    entries, states = {}, {}
    for jobs in (1, 4):
        reset_artifact_cache()
        store_dir = tmp_path / f"store-j{jobs}"
        set_default_store(store_dir)
        result = run_cases(specs, jobs=jobs, effort="quick")
        assert result.computed == 1 and not result.skipped
        entries[jobs] = sorted(
            path.relative_to(store_dir) for path in store_dir.rglob("*.art")
        )
        states[jobs] = _normalized_state(ArtifactStore(store_dir).get(key))
    assert entries[1] == entries[4]
    assert states[1] == states[4]


def test_checkpoint_written_serial_resumes_parallel(tmp_path):
    set_default_store(tmp_path / "store")
    specs = [("com", "in")]
    first = run_cases(specs, jobs=1, effort="quick")
    assert first.computed == 1
    reset_artifact_cache()
    set_default_store(tmp_path / "store")
    resumed = run_cases(specs, jobs=4, effort="quick")
    assert resumed.resumed == 1 and resumed.computed == 0
    assert _normalized_state(first.cases[0]) == _normalized_state(
        resumed.cases[0]
    )


def test_suite_cli_output_identical_across_worker_counts(capsys, monkeypatch):
    """The printed suite table — the user-facing artifact — is identical
    for jobs=1 and jobs=4.

    Runs with ambient chaos/store env hidden: the table's `retried` column
    reflects the chaos plan's *counter phase*, which advances across the
    two in-process runs (and the first run would warm a shared store) —
    the product contract is fresh-process determinism, which is what the
    two disarmed runs compare.
    """
    from repro.cli import main
    from repro.faults import CHAOS_ENV
    from repro.pipeline.artifacts import STORE_ENV

    monkeypatch.delenv(CHAOS_ENV, raising=False)
    monkeypatch.delenv(STORE_ENV, raising=False)
    outputs = {}
    for jobs in (1, 4):
        reset_artifact_cache()
        assert main(["suite", "com.in", "--jobs", str(jobs)]) == 0
        outputs[jobs] = capsys.readouterr().out
    assert outputs[1] == outputs[4]


def test_method_aliases_share_one_memo_entry():
    """The ``case`` key normalizes method spellings through the registry,
    so aliases share one cached case."""
    a, _ = sweep_case(
        "com", "in", methods=("original", "dtsp"), effort="quick"
    )
    b, resumed = sweep_case(
        "com", "in", methods=("original", "tsp"), effort="quick"
    )
    assert a is b and resumed
    assert set(a.methods) == {"original", "tsp"}


def test_align_program_identical_across_worker_counts_kernel_effort_quick(
    force_pool,
):
    """The solver kernel is a pure function of (instance, effort, seed), so
    worker count must not leak into layouts at the quick effort either."""
    serial_layouts, serial_report = align_both_ways(jobs=1, effort="quick")
    reset_artifact_cache()
    before = force_pool()
    parallel_layouts, parallel_report = align_both_ways(
        jobs=4, effort="quick"
    )
    assert force_pool() > before  # the jobs=4 run used the pool
    assert {n: l.order for n, l in serial_layouts.items()} == {
        n: l.order for n, l in parallel_layouts.items()
    }
    assert serial_report.costs == parallel_report.costs
    assert serial_report.runs_finding_best == parallel_report.runs_finding_best
