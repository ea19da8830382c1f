"""The tsp aligner's tour is the bound's proof.

The aligner lays out the path-cover search's tour
(:mod:`repro.tsp.path_cover`) and the bound stage returns that same
search's optimum, so the cost the aligner reaches is the bound the stage
searches.  The contract: the search's certified optimum equals the
searched bound and the tour's cost bit for bit on every suite and
synth-large procedure, and the ``bound_timeout`` fault site is consulted
once per bound task, on the serial path and on the pool.
"""

from __future__ import annotations

import pytest

import repro.core.aligners.tsp_aligner as tsp_aligner
from repro import faults
from repro.core import lower_bound_program
from repro.core.aligners.tsp_aligner import alignment_lower_bound, tsp_align
from repro.core.costmatrix import build_alignment_instance
from repro.experiments.runner import profiled_run
from repro.machine.models import STANDARD_MODELS
from repro.pipeline.artifacts import reset_artifact_cache
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
    """The search's certified optimum and the bound stage return the same
    float; it is the dense search's optimum wherever that search closes,
    and it is the tsp tour's cost bit for bit on every procedure."""
    model = STANDARD_MODELS[model_name]
    procedures = _procedures()
    for label, cfg, edges in procedures:
        instance = build_alignment_instance(cfg, edges, model)
        tour_cost = tsp_align(cfg, edges, model, instance=instance).cost
        searched = alignment_lower_bound(
            cfg, edges, model, instance=instance
        )
        proved = tsp_aligner._optimum(instance, None).bound
        assert proved.hex() == searched.hex(), label
        assert searched.hex() == tour_cost.hex(), label
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
