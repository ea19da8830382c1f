"""The path-cover search solves alignment instances exactly.

Its optimum is the one the dense branch and bound recorded on every real
instance of ``bnb_golden.json`` (the suite, synth-large and serve-cold
shapes), under both assignment backends and in a pinned number of nodes;
it matches exact DP on random small alignment instances; an exhausted
budget leaves the bound at 0.0 and the aligner on its ladder; and a
hand-built model whose successor arcs can cost more than their row's
default still gets a bound no tour beats.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.budget import Budget
from repro.core.aligners.tsp_aligner import alignment_lower_bound, tsp_align
from repro.core.costmatrix import AlignmentInstance, build_alignment_instance
from repro.machine.models import STANDARD_MODELS, BranchPenalties, PenaltyModel
from repro.profiles.synthesize import synthesize_profile
from repro.tsp.exact import exact_tour
from repro.tsp.path_cover import path_cover
from repro.workloads.synthetic import random_biases, random_program

from .test_bnb_golden import BACKENDS, _golden, _matrices, _use_backend

#: Subproblems the search solves over the 60 real golden instances, on
#: either backend.  The dense search took 7 367 (pure) or 25 935 (SciPy).
GOLDEN_NODES = 469

#: A conditional taken-mispredict dearer than a predicted-taken miss plus
#: a jump: some successor arcs then cost more than their row's default.
SKEWED = PenaltyModel(
    "skewed",
    conditional=BranchPenalties(p_tt=1.0, p_tn=1.0, p_nt=9.0),
    multiway=BranchPenalties(p_tt=3.0, p_tn=3.0, p_nt=3.0),
    unconditional=2.0,
)


def _cover(matrix, budget=None):
    instance = AlignmentInstance(
        cities=tuple(range(matrix.shape[0])), matrix=matrix, big=0.0
    )
    return path_cover(matrix, *instance.sparse_form(), budget=budget)


def _procedures(seed, *, min_blocks, max_blocks):
    """``(cfg, edge profile)`` of the executed procedures of one small
    synthetic program."""
    program = random_program(
        procedures=8, seed=seed, min_blocks=min_blocks, max_blocks=max_blocks
    )
    profile = synthesize_profile(
        program, random_biases(program, seed + 1), seed=seed + 2,
        walks_per_procedure=8, max_steps=500,
    )
    return [
        (proc.cfg, profile.procedures[proc.name])
        for proc in program
        if proc.name in profile.procedures
        and profile.procedures[proc.name].total()
    ]


@pytest.mark.usefixtures("no_ambient_chaos")
@pytest.mark.parametrize("backend", BACKENDS)
def test_optimum_matches_the_recorded_dense_search(monkeypatch, backend):
    golden = _golden()
    _use_backend(monkeypatch, backend)
    obs.tracer().reset_counters()
    real = 0
    for name, matrix, kind in _matrices():
        if kind != "real":
            continue
        real += 1
        recorded = golden[name][backend]["bound"]
        assert recorded["optimal"], name
        cover = _cover(matrix)
        assert cover.optimal, name
        assert cover.bound == cover.cost == recorded["cost"], name
        assert sorted(cover.tour) == list(range(matrix.shape[0]))
    assert real == 60
    assert obs.counters()["path_cover.nodes"] == GOLDEN_NODES


@pytest.mark.parametrize("model_name", sorted(STANDARD_MODELS))
def test_optimum_matches_exact_dp_on_small_instances(model_name):
    model = STANDARD_MODELS[model_name]
    checked = 0
    for seed in range(4):
        for cfg, edges in _procedures(seed, min_blocks=4, max_blocks=12):
            instance = build_alignment_instance(cfg, edges, model)
            _, optimum = exact_tour(instance.matrix)
            cover = _cover(instance.matrix)
            assert cover.optimal
            assert cover.cost == pytest.approx(optimum, abs=1e-9)
            checked += 1
    assert checked >= 20


@pytest.mark.usefixtures("no_ambient_chaos")
def test_exhausted_budget_bounds_at_zero_and_keeps_the_ladder():
    model = STANDARD_MODELS["alpha21164"]
    cfg, edges = max(
        _procedures(0, min_blocks=20, max_blocks=30), key=lambda p: len(p[0])
    )
    instance = build_alignment_instance(cfg, edges, model)
    obs.tracer().reset_counters()
    expired = Budget(max_iterations=0)
    assert _cover(instance.matrix, budget=expired.start()) is None
    assert alignment_lower_bound(cfg, edges, model, budget=expired) == 0.0
    assert obs.counters().get("path_cover.nodes", 0) == 0
    degraded = tsp_align(cfg, edges, model, budget=expired)
    assert degraded.degraded == "construction"
    assert sorted(degraded.layout.order) == sorted(cfg.block_ids)
    # With time to search, the bound is the optimum under the tour.
    assert 0.0 < alignment_lower_bound(cfg, edges, model) <= tsp_align(
        cfg, edges, model
    ).cost


def test_successor_dearer_than_default_keeps_a_sound_bound():
    dearer = small = 0
    for seed in range(4):
        for cfg, edges in _procedures(seed, min_blocks=4, max_blocks=20):
            instance = build_alignment_instance(cfg, edges, SKEWED)
            defaults, _ = instance.sparse_form()
            index = instance.index_of()
            dearer += sum(
                instance.matrix[index[block], index[succ]] > defaults[index[block]]
                for block in cfg.block_ids
                for succ in cfg.block(block).successors
                if succ not in (block, cfg.entry)
            )
            bound = alignment_lower_bound(cfg, edges, SKEWED, instance=instance)
            tour = tsp_align(cfg, edges, SKEWED, instance=instance)
            assert bound <= tour.cost + 1e-9
            if instance.n <= 13:
                small += 1
                assert bound <= exact_tour(instance.matrix)[1] + 1e-9
    assert dearer > 0 and small > 0
