"""The tsp aligner's tour is the bound's proof.

The aligner lays out the path-cover search's tour
(:mod:`repro.tsp.path_cover`) and hands the completed search back, and
the bound stage reads the same optimum off it instead of searching
again.  The contract: the search's certified optimum, the bound read off
the aligner's cover and the searched bound equal the tour's cost bit for
bit on every suite and synth-large procedure; the bound stage reuses a
cover only from a completed search of the same instance, in the parent,
at every worker count, and searches otherwise; and the ``bound_timeout``
fault site is consulted once per bound task, on the serial path and on
the pool.
"""

from __future__ import annotations

import pytest

import repro.core.aligners.tsp_aligner as tsp_aligner
from repro import faults, obs
from repro.budget import Budget
from repro.core import AlignmentReport, align_program, lower_bound_program
from repro.core.aligners.tsp_aligner import alignment_lower_bound, tsp_align
from repro.core.costmatrix import build_alignment_instance
from repro.core.evaluate import train_predictors
from repro.experiments.runner import profiled_run
from repro.machine.models import ALPHA_21164, STANDARD_MODELS
from repro.pipeline.artifacts import artifact_cache, reset_artifact_cache
from repro.pipeline.stages import cover_key, run_align_tasks, run_bound_tasks
from repro.pipeline.task import bound_tasks, procedure_tasks
from repro.profiles.synthesize import synthesize_profile
from repro.tsp import branch_and_bound
from repro.workloads.suite import all_cases, compile_benchmark
from repro.workloads.synthetic import random_biases, random_program


def _profiled(program, profile):
    return [
        (proc.name, proc.cfg, profile.procedures[proc.name])
        for proc in program
        if proc.name in profile.procedures
        and profile.procedures[proc.name].total()
    ]


def _procedures():
    """Every profiled procedure of the suite cases and of the synth-large
    benchmark program: ``(label, cfg, edge profile)``."""
    out = []
    for benchmark, dataset in all_cases():
        program = compile_benchmark(benchmark).program
        profile = profiled_run(benchmark, dataset).profile
        out += [
            (f"{benchmark}.{dataset}/{name}", cfg, edges)
            for name, cfg, edges in _profiled(program, profile)
        ]
    program = random_program(
        procedures=12, seed=1997, min_blocks=16, max_blocks=64
    )
    profile = synthesize_profile(
        program, random_biases(program, 1998), seed=1999,
        walks_per_procedure=12, max_steps=4000,
    )
    out += [
        (f"synth-large/{name}", cfg, edges)
        for name, cfg, edges in _profiled(program, profile)
    ]
    return out


@pytest.mark.usefixtures("no_ambient_chaos")
@pytest.mark.parametrize("model_name", sorted(STANDARD_MODELS))
def test_reused_bound_equals_the_searched_bound(model_name):
    """The search's certified optimum, the bound read off the tsp
    aligner's cover and the searched bound are the same float; it is the
    dense search's optimum wherever that search closes, and it is the tsp
    tour's cost bit for bit on every procedure."""
    model = STANDARD_MODELS[model_name]
    procedures = _procedures()
    for label, cfg, edges in procedures:
        instance = build_alignment_instance(cfg, edges, model)
        aligned = tsp_align(cfg, edges, model, instance=instance)
        assert aligned.cover is not None, label
        searched = alignment_lower_bound(
            cfg, edges, model, instance=instance
        )
        reused = alignment_lower_bound(cfg, edges, model, cover=aligned.cover)
        proved = tsp_aligner._optimum(instance, None).bound
        assert proved.hex() == searched.hex(), label
        assert reused.hex() == searched.hex(), label
        assert searched.hex() == aligned.cost.hex(), label
        if instance.n <= 24:
            exact = branch_and_bound(instance.matrix, max_nodes=5_000)
            if exact.optimal:
                assert searched == exact.cost, label


@pytest.mark.usefixtures("no_ambient_store", "no_ambient_chaos")
@pytest.mark.parametrize("jobs", [1, 4])
def test_bound_fault_is_consulted_as_before(jobs, force_pool):
    """``bound_timeout`` is consulted once per non-trivial bound task and
    its fault yields 0.0, on the serial path and on the pool."""
    program = compile_benchmark("esp").program
    profile = profiled_run("esp", "ti").profile
    names = [name for name, _, _ in _profiled(program, profile)]
    reset_artifact_cache()
    # Every task: the same ones fire at every worker count.
    with faults.inject_faults(bound_timeout=True) as plan:
        floors = lower_bound_program(program, profile, jobs=jobs).per_procedure
    calls, trips = plan.counters()
    assert calls["bound"] == trips["bound"] == len(names) > 1
    assert {floors[name] for name in names} == {0.0}
    if jobs == 1:
        # The second bound task, and only it.
        with faults.inject_faults(bound_timeout=2) as plan:
            floors = lower_bound_program(
                program, profile, jobs=jobs
            ).per_procedure
        assert [n for n in names if floors[n] == 0.0] == [names[1]]
        assert plan.counters()[0]["bound"] == len(names)
    else:
        assert force_pool() > 0
    reset_artifact_cache()


def _esp():
    program = compile_benchmark("esp").program
    profile = profiled_run("esp", "ti").profile
    return program, profile, [name for name, _, _ in _profiled(program, profile)]


def _counted(run):
    """``run()``'s result, the path-cover nodes it searched and how many
    bound tasks it resolved from a tsp cover."""
    before = obs.counters()
    result = run()
    after = obs.counters()
    return result, *(
        after.get(name, 0) - before.get(name, 0)
        for name in ("path_cover.nodes", "bound.reused")
    )


def _bound_work(program, profile, jobs):
    return _counted(
        lambda: lower_bound_program(program, profile, jobs=jobs).per_procedure
    )


@pytest.mark.usefixtures("no_ambient_store", "no_ambient_chaos")
@pytest.mark.parametrize("jobs", [1, 4])
def test_bound_reads_the_tsp_cover_at_every_worker_count(jobs, force_pool):
    """After a tsp pass the bound stage resolves every task from the
    aligner's covers in the parent, searching nothing, and its bounds are
    the searched ones."""
    program, profile, names = _esp()
    reset_artifact_cache()
    searched, nodes, reused = _bound_work(program, profile, 1)
    assert nodes > 0 and reused == 0
    reset_artifact_cache()
    align_program(program, profile, method="tsp", jobs=jobs)
    floors, nodes, reused = _bound_work(program, profile, jobs)
    assert nodes == 0 and reused == len(names) > 1
    assert {n: floors[n].hex() for n in names} == {
        n: searched[n].hex() for n in names
    }
    if jobs > 1:
        assert force_pool() > 0
    reset_artifact_cache()


@pytest.mark.usefixtures("no_ambient_store", "no_ambient_chaos")
def test_budget_cut_tsp_leaves_its_bound_to_a_search():
    """A tsp search cut by its budget hands back no cover: the bound
    stage searches each procedure itself and certifies the optimum."""
    program, profile, names = _esp()
    reset_artifact_cache()
    report = AlignmentReport()
    align_program(
        program, profile, method="tsp", budget=Budget(max_iterations=0),
        report=report,
    )
    assert set(report.degraded) == set(names)
    assert not any(
        cover_key(task) in artifact_cache()
        for task in bound_tasks(program, profile, model=ALPHA_21164)
    )
    floors, nodes, reused = _bound_work(program, profile, 1)
    assert nodes > 0 and reused == 0
    for name in names:
        expect = alignment_lower_bound(
            program[name].cfg, profile.procedures[name], ALPHA_21164
        )
        assert floors[name].hex() == expect.hex() != (0.0).hex()
    reset_artifact_cache()


@pytest.mark.usefixtures("no_ambient_store", "no_ambient_chaos")
def test_align_with_an_explicit_predictor_never_feeds_a_bound():
    """A predictor handed to the aligner prices another instance, so its
    cover is keyed apart from every bound task's and the bound stage
    searches."""
    program, profile, names = _esp()
    reset_artifact_cache()
    tasks = procedure_tasks(
        program, profile, method="tsp", model=ALPHA_21164,
        predictor_for=train_predictors(program, profile),
    )
    results = run_align_tasks(tasks, jobs=1)
    seeded = [task for task, result in zip(tasks, results) if result.cover]
    assert len(seeded) == len(names)
    assert all(cover_key(task) in artifact_cache() for task in seeded)
    bounds = bound_tasks(program, profile, model=ALPHA_21164)
    assert not any(cover_key(task) in artifact_cache() for task in bounds)
    _, nodes, reused = _counted(lambda: run_bound_tasks(bounds, jobs=1))
    assert nodes > 0 and reused == 0
    reset_artifact_cache()
