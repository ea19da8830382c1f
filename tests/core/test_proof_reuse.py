"""The tsp aligner's proof of optimality is the bound.

When a tsp solve ends at a proof (exact DP, the AP target met, or the
target its branch-and-bound certificate proved), the bound stage returns
that optimum instead of running the AP relaxation and branch and bound
again.  The contract: the reused bound equals the searched one bit for
bit, the fault site is consulted exactly as before, and ``bnb.nodes``
falls by the searches no longer run.
"""

from __future__ import annotations

import pytest

from repro import faults, obs
from repro.core import AlignmentReport, align_program, lower_bound_program
from repro.core.aligners.tsp_aligner import alignment_lower_bound, tsp_align
from repro.core.costmatrix import build_alignment_instance
from repro.experiments.runner import profiled_run
from repro.machine.models import STANDARD_MODELS
from repro.machine.predictors import StaticPredictor
from repro.pipeline.artifacts import reset_artifact_cache
from repro.profiles.synthesize import synthesize_profile
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


@pytest.mark.parametrize("model_name", sorted(STANDARD_MODELS))
def test_reused_bound_equals_the_searched_bound(model_name):
    model = STANDARD_MODELS[model_name]
    proved = 0
    procedures = _procedures()
    for label, cfg, edges in procedures:
        instance = build_alignment_instance(cfg, edges, model)
        aligned = tsp_align(cfg, edges, model, instance=instance)
        searched = alignment_lower_bound(
            cfg, edges, model, instance=instance, upper_bound=aligned.cost
        )
        if aligned.optimum is None:
            continue
        proved += 1
        assert aligned.optimum == aligned.cost, label
        reused = alignment_lower_bound(
            cfg, edges, model, upper_bound=aligned.cost,
            optimum=aligned.optimum,
        )
        assert reused.hex() == searched.hex(), label
    # Nearly every procedure is proved; the rest keep their search.
    assert proved >= 0.8 * len(procedures)


def test_no_optimum_under_a_predictor_or_on_a_degraded_rung():
    program = compile_benchmark("eqn").program
    profile = profiled_run("eqn", "fx").profile
    model = STANDARD_MODELS["alpha21164"]
    proved = [
        (cfg, edges) for _, cfg, edges in _profiled(program, profile)
        if tsp_align(cfg, edges, model).optimum is not None
    ]
    assert proved
    for cfg, edges in proved:
        predicted = tsp_align(
            cfg, edges, model, predictor=StaticPredictor.train(cfg, edges)
        )
        assert predicted.optimum is None
        with faults.inject_faults(solver_timeout=True):
            degraded = tsp_align(cfg, edges, model)
        assert degraded.degraded != "none"
        assert degraded.optimum is None


def _tsp_pass(program, profile, jobs):
    report = AlignmentReport()
    align_program(program, profile, method="tsp", jobs=jobs, report=report)
    return report


@pytest.mark.usefixtures("no_ambient_store", "no_ambient_chaos")
def test_program_bound_reuses_the_proofs_and_skips_their_searches():
    """eqn.fx: its ``eval_expr`` keeps its 1 146-node search (the aligner
    cannot prove it), every other procedure's proof is reused."""
    program = compile_benchmark("eqn").program
    profile = profiled_run("eqn", "fx").profile
    reset_artifact_cache()
    report = _tsp_pass(program, profile, jobs=1)
    assert report.optima and "eval_expr" not in report.optima

    def bound(**kwargs):
        reset_artifact_cache()  # a cache hit would hide the search
        obs.tracer().reset_counters()
        floors = lower_bound_program(
            program, profile, upper_bounds=report.costs, jobs=1, **kwargs
        ).per_procedure
        return floors, obs.counters()

    searched, before = bound()
    reused, after = bound(optima=report.optima)
    assert reused == searched
    assert after["bound.proofs_reused"] == len(report.optima)
    assert "bound.proofs_reused" not in before
    assert after["bnb.nodes"] == 1146 < before["bnb.nodes"]
    reset_artifact_cache()


@pytest.mark.usefixtures("no_ambient_store", "no_ambient_chaos")
@pytest.mark.parametrize("jobs", [1, 4])
def test_bound_fault_is_consulted_as_before(jobs, force_pool):
    """``bound_timeout`` is consulted once per non-trivial bound task and
    its fault still yields 0.0, whether the bound is searched or reused,
    on the serial path and on the pool."""
    program = compile_benchmark("esp").program
    profile = profiled_run("esp", "ti").profile
    reset_artifact_cache()
    report = _tsp_pass(program, profile, jobs=1)
    names = [name for name, _, _ in _profiled(program, profile)]
    profiled = len(names)
    assert 1 < len(report.optima) <= profiled

    for optima in (None, report.optima):
        # Every task: the same ones fire at every worker count.
        with faults.inject_faults(bound_timeout=True) as plan:
            floors = lower_bound_program(
                program, profile, upper_bounds=report.costs,
                optima=optima, jobs=jobs,
            ).per_procedure
        calls, trips = plan.counters()
        assert calls["bound"] == trips["bound"] == profiled
        assert {floors[name] for name in names} == {0.0}
        if jobs == 1:
            # The second bound task, and only it, before and after reuse.
            with faults.inject_faults(bound_timeout=2) as plan:
                floors = lower_bound_program(
                    program, profile, upper_bounds=report.costs,
                    optima=optima, jobs=jobs,
                ).per_procedure
            assert [n for n in names if floors[n] == 0.0] == [names[1]]
            assert plan.counters()[0]["bound"] == profiled
    if jobs > 1:
        assert force_pool() > 0
    reset_artifact_cache()
