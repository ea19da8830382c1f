"""The path-cover search solves alignment instances exactly.

Its sparse matcher finds the optimum SciPy's dense assignment solver
finds on random tie-heavy instances; the search's optimum is the one the
dense branch and bound recorded on every real instance of
``bnb_golden.json`` (the suite, synth-large and serve-cold shapes), with
SciPy importable or hidden and in a pinned number of nodes; it matches
exact DP on random small alignment instances; an exhausted budget leaves
the bound at 0.0 and the aligner on its ladder; the joined tour attains
the floor on every profiled suite procedure under every shipped model and
under random pipeline-shaped ones, whose successor arcs never cost more
than their row's default, so the aligner runs no 3-Opt there; every such
model, and any hand-built one, that is ``fallthrough_monotone`` prices no
successor arc above its default; a hand-built model
whose successor arcs can cost more than their row's default still gets a
bound no tour beats; and a cover whose joined tour misses its floor sends
the aligner to the paper's search.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.budget import Budget
from repro.core.aligners.tsp_aligner import alignment_lower_bound, tsp_align
from repro.core.costmatrix import AlignmentInstance, build_alignment_instance
from repro.errors import SolverBudgetExceeded
from repro.experiments.runner import profiled_run
from repro.machine.models import STANDARD_MODELS, BranchPenalties, PenaltyModel
from repro.profiles.synthesize import synthesize_profile
from repro.tsp.exact import exact_tour
from repro.tsp.path_cover import max_weight_matching, path_cover
from repro.workloads.suite import all_cases, compile_benchmark
from repro.workloads.synthetic import random_biases, random_program

from .test_bnb_golden import BACKENDS, _golden, _matrices, _use_backend

#: Subproblems the search solves over the 60 real golden instances, with
#: or without SciPy.  The dense search took 7 367 (pure) or 25 935 (SciPy).
GOLDEN_NODES = 409

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


def _sparse_instance(rng: random.Random, k: int) -> list[list[tuple[int, float]]]:
    """Each row's arcs to distinct columns, weights from a tiny integer
    range (many co-optimal matchings); about a quarter of the pairs."""
    return [
        [
            (j, float(rng.randint(1, 3)))
            for j in rng.sample(range(k), rng.randint(0, k))
            if rng.random() < 0.5
        ]
        for _ in range(k)
    ]


def test_matcher_matches_dense_assignment_on_tie_heavy_instances():
    """The sparse matcher's weight is SciPy's optimum on the dense k×k
    matrix (−w on each arc, 0 elsewhere), and its matching is one: each
    row and column once, over given arcs only, summing to that weight."""
    scipy_optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(29)
    for trial in range(600):
        k = rng.randint(1, 8)
        out = _sparse_instance(rng, k)
        dense = np.zeros((k, k))
        for i, arcs in enumerate(out):
            for j, w in arcs:
                dense[i, j] = -w
        rows, cols = scipy_optimize.linear_sum_assignment(dense)
        match, weight = max_weight_matching(out)
        assert weight == -dense[rows, cols].sum(), (trial, out)
        taken = [j for j in match if j >= 0]
        assert len(taken) == len(set(taken)), (trial, out)
        arcs = [dict(row) for row in out]
        assert sum(
            arcs[i][j] for i, j in enumerate(match) if j >= 0
        ) == weight, (trial, out)


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


@pytest.mark.parametrize("model_name", sorted(STANDARD_MODELS))
def test_cover_tour_attains_its_floor_on_every_suite_procedure(model_name):
    """The premise of an aligner with no solver knob: on every profiled
    procedure of every suite case (38 of them), the cover's joined tour
    attains its floor, so the paper's 3-Opt never runs."""
    model = STANDARD_MODELS[model_name]
    checked = 0
    for benchmark, dataset in all_cases():
        program = compile_benchmark(benchmark).program
        profile = profiled_run(benchmark, dataset).profile
        for proc in program:
            edges = profile.procedures.get(proc.name)
            if edges is None or not edges.total():
                continue
            instance = build_alignment_instance(proc.cfg, edges, model)
            cover = path_cover(instance.matrix, *instance.sparse_form())
            assert cover.optimal, (benchmark, dataset, proc.name)
            checked += 1
    assert checked == 38


def test_pipeline_models_never_price_a_successor_above_its_default():
    """The premise of the cover's exactness, for any pipeline-shaped
    model: under random non-negative ``from_pipeline`` parameters, no
    CFG-successor arc of a profiled suite procedure costs more than its
    row's default, so ``sparse_form`` drops none and the joined tour
    attains the floor."""
    rng = random.Random(31)
    models = [
        PenaltyModel.from_pipeline(
            f"random{i}",
            misfetch=rng.uniform(0.0, 8.0),
            mispredict=rng.uniform(0.0, 20.0),
            multiway_redirect=rng.uniform(0.0, 12.0),
        )
        for i in range(6)
    ]
    assert all(model.fallthrough_monotone for model in models)
    checked = 0
    for benchmark, dataset in all_cases():
        program = compile_benchmark(benchmark).program
        profile = profiled_run(benchmark, dataset).profile
        for proc in program:
            edges = profile.procedures.get(proc.name)
            if edges is None or not edges.total():
                continue
            for model in models:
                instance = build_alignment_instance(proc.cfg, edges, model)
                defaults, arcs = instance.sparse_form()
                index = instance.index_of()
                for block in proc.cfg.block_ids:
                    row = index[block]
                    for succ in proc.cfg.block(block).successors:
                        assert (
                            instance.matrix[row, index[succ]] <= defaults[row]
                        ), (benchmark, dataset, proc.name, model.name)
                cover = path_cover(instance.matrix, defaults, arcs)
                assert cover.optimal, (benchmark, dataset, proc.name, model)
                checked += 1
    assert checked == 38 * len(models)


_CYCLES = st.floats(0.0, 50.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(misfetch=_CYCLES, mispredict=_CYCLES, redirect=_CYCLES)
def test_pipeline_models_are_fallthrough_monotone(
    misfetch, mispredict, redirect
):
    """The premise the cover's exactness rests on holds for every
    pipeline-shaped model with non-negative parameters, and not for the
    hand-built ``SKEWED``, whose conditional ``p_nt`` (9) exceeds
    ``p_tn + unconditional`` (3)."""
    model = PenaltyModel.from_pipeline(
        "random", misfetch=misfetch, mispredict=mispredict,
        multiway_redirect=redirect,
    )
    assert model.fallthrough_monotone
    assert all(m.fallthrough_monotone for m in STANDARD_MODELS.values())
    assert not SKEWED.fallthrough_monotone


_SMALL_PROCEDURES = _procedures(5, min_blocks=4, max_blocks=14)
#: Whole cycles and dyadic shares keep every charge exact, so the
#: comparison below is the model's, not float rounding's.
_WHOLE = st.integers(0, 50).map(float)
_SHARE = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


@settings(max_examples=40, deadline=None)
@given(
    taken=st.tuples(_WHOLE, _WHOLE, _WHOLE, _WHOLE, _WHOLE),
    shares=st.tuples(_SHARE, _SHARE, _SHARE, _SHARE),
)
def test_monotone_models_never_price_a_successor_above_its_default(
    taken, shares
):
    """``fallthrough_monotone`` is sufficient: under any hand-built model
    that meets it (drawn here with each cheaper charge a share of the
    dearer one it is bounded by), no CFG-successor arc costs more than
    its row's default, so the joined tour attains the floor."""
    c_tt, c_tn, m_tt, m_nt, unconditional = taken
    model = PenaltyModel(
        "drawn",
        conditional=BranchPenalties(
            p_tt=c_tt,
            p_tn=c_tn,
            p_nt=(c_tn + unconditional) * shares[0],
            p_nn=c_tt * shares[1],
        ),
        multiway=BranchPenalties(
            p_tt=m_tt, p_tn=m_nt * shares[2], p_nt=m_nt, p_nn=m_tt * shares[3]
        ),
        unconditional=unconditional,
    )
    assert model.fallthrough_monotone
    for cfg, edges in _SMALL_PROCEDURES:
        instance = build_alignment_instance(cfg, edges, model)
        defaults, arcs = instance.sparse_form()
        index = instance.index_of()
        for block in cfg.block_ids:
            for succ in cfg.block(block).successors:
                if succ == cfg.entry:
                    continue
                row = index[block]
                assert instance.matrix[row, index[succ]] <= defaults[row]
        assert path_cover(instance.matrix, defaults, arcs).optimal


@pytest.mark.usefixtures("no_ambient_chaos")
def test_exhausted_budget_bounds_at_zero_and_keeps_the_ladder():
    model = STANDARD_MODELS["alpha21164"]
    cfg, edges = max(
        _procedures(0, min_blocks=20, max_blocks=30), key=lambda p: len(p[0])
    )
    instance = build_alignment_instance(cfg, edges, model)
    obs.tracer().reset_counters()
    expired = Budget(max_iterations=0)
    with pytest.raises(SolverBudgetExceeded) as raised:
        _cover(instance.matrix, budget=expired.start())
    # No node was solved: the salvage is the empty cover's identity tour.
    assert raised.value.best_so_far == list(range(instance.n))
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


def test_cover_tour_above_its_floor_falls_back_to_the_kernel():
    """A join of the cover's paths made dearer than its row's default (no
    shipped model builds one) leaves the joined tour above the floor: the
    aligner then runs the paper's search and lays out its cheaper tour."""
    model = STANDARD_MODELS["alpha21164"]
    cfg, edges = max(
        _procedures(0, min_blocks=8, max_blocks=12), key=lambda p: len(p[0])
    )
    instance = build_alignment_instance(cfg, edges, model)
    defaults, arcs = instance.sparse_form()
    tour = _cover(instance.matrix).tour
    paths = {tuple(arc) for arc in arcs.tolist()}
    src, dst = next(
        (a, b) for a, b in zip(tour, tour[1:])
        if (a, b) not in paths and b != instance.dummy_index
    )
    matrix = instance.matrix.copy()
    matrix[src, dst] = defaults[src] + 100.0
    instance = dataclasses.replace(instance, matrix=matrix)
    cover = _cover(matrix)
    assert not cover.optimal and cover.cost > cover.floor

    obs.tracer().reset_counters()
    aligned = tsp_align(cfg, edges, model, instance=instance)
    counters = obs.counters()
    assert counters["path_cover.nodes"] > 0
    assert counters["tsp.runs"] > 0  # the kernel ran
    assert aligned.degraded == "none"
    assert cover.floor <= aligned.cost < cover.cost
    assert aligned.cost == instance.layout_cost(aligned.layout)
