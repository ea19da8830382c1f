"""Property-based tests of the staged pipeline's core invariants.

The central one is the paper's reduction itself: the DTSP tour cost of a
layout under the §2.2 instance equals the control penalty the evaluation
stage computes for that layout — for *every* registered method's layout,
and for the cost the tsp aligner reports (``ProcedureResult.cost``).  The
instance and ``evaluate_layout`` are two walks over the same model, and
they must never drift apart.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import evaluate_layout
from repro.core.align import ALIGN_METHODS
from repro.core.costmatrix import build_alignment_instance
from repro.machine import ALPHA_21164
from repro.pipeline.stages import align_one, instance_for
from repro.pipeline.task import ProcedureTask
from repro.profiles import EdgeProfile
from repro.workloads import GeneratorConfig, random_procedure


def make_case(cfg_seed: int, target: int, profile_seed: int):
    rng = random.Random(cfg_seed)
    proc = random_procedure("p", rng, GeneratorConfig(target_blocks=target))
    profile = EdgeProfile()
    profile_rng = random.Random(profile_seed)
    for block in proc.cfg:
        for succ in block.successors:
            if profile_rng.random() < 0.85:
                profile.add(block.block_id, succ, profile_rng.randrange(0, 300))
    return proc, profile


def tasks_for(proc, profile, seed: int = 0):
    return [
        ProcedureTask(
            name=proc.name,
            cfg=proc.cfg,
            profile=profile,
            method=method,
            model=ALPHA_21164,
            seed=seed,
        )
        for method in ALIGN_METHODS
    ]


@settings(max_examples=20, deadline=None)
@given(
    cfg_seed=st.integers(0, 10_000),
    target=st.integers(5, 22),
    profile_seed=st.integers(0, 10_000),
)
def test_tour_cost_equals_evaluated_penalty(cfg_seed, target, profile_seed):
    """§2.2's reduction, end to end: every method's layout, priced as a
    tour under the DTSP instance, costs the evaluation stage's control
    penalty for the same layout — exactly, not approximately — and so
    does the tour cost the tsp aligner reports."""
    proc, profile = make_case(cfg_seed, target, profile_seed)
    instance = build_alignment_instance(proc.cfg, profile, ALPHA_21164)
    for task in tasks_for(proc, profile):
        result = align_one(task)
        result.layout.check_against(proc.cfg)
        evaluated = evaluate_layout(
            proc.cfg, result.layout, profile, ALPHA_21164
        ).total
        priced = instance.layout_cost(result.layout)
        assert priced == evaluated, (
            f"{task.method}: tour cost {priced} != "
            f"evaluated penalty {evaluated}"
        )
        # Only the tsp aligner reports a cost, on every non-trivial task.
        if task.method == "tsp" and profile.total():
            assert result.cost == evaluated, task.method
        else:
            assert result.cost is None, task.method


@settings(max_examples=15, deadline=None)
@given(
    cfg_seed=st.integers(0, 10_000),
    target=st.integers(5, 18),
    profile_seed=st.integers(0, 10_000),
)
def test_every_method_is_priced_both_ways(cfg_seed, target, profile_seed):
    """Dual pricing: every registered aligner's result carries an Ext-TSP
    score alongside the paper penalty, the score recomputes exactly from
    the layout it came with, never exceeds the all-fall-through bound, and
    is deterministic across repeated runs."""
    from repro.core import exttsp_max_score, exttsp_score

    proc, profile = make_case(cfg_seed, target, profile_seed)
    bound = exttsp_max_score(proc.cfg, profile)
    for task in tasks_for(proc, profile):
        result = align_one(task)
        assert result.exttsp_score is not None, task.method
        assert result.exttsp_score == exttsp_score(
            proc.cfg, result.layout, profile
        ), task.method
        assert result.exttsp_score <= bound + 1e-9, task.method
        again = align_one(task)
        assert again.exttsp_score == result.exttsp_score, task.method
        assert again.layout.order == result.layout.order, task.method


@settings(max_examples=15, deadline=None)
@given(
    cfg_seed=st.integers(0, 10_000),
    target=st.integers(5, 18),
    profile_seed=st.integers(0, 10_000),
)
def test_layout_cost_agrees_for_any_instance_client(
    cfg_seed, target, profile_seed
):
    """All instance clients price layouts identically: every method's
    layout costs the same under the cost-matrix stage's instance and a
    freshly built one, and the tsp result's cost is that price (matrix
    construction is a pure function of its fingerprinted inputs)."""
    proc, profile = make_case(cfg_seed, target, profile_seed)
    if profile.total() == 0:
        return
    tasks = tasks_for(proc, profile)
    staged = instance_for(tasks[0])
    fresh = build_alignment_instance(proc.cfg, profile, ALPHA_21164)
    for task in tasks:
        result = align_one(task)
        price = staged.layout_cost(result.layout)
        assert fresh.layout_cost(result.layout) == price, task.method
        if result.cost is not None:
            assert result.cost == price, task.method
