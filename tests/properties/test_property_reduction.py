"""Property-based tests of the DTSP reduction (hypothesis).

The central theorem of §2.2: for *any* layout of *any* CFG under *any*
edge profile, the cost of the corresponding walk through the alignment
matrix equals the control penalty of the materialized layout.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg import Procedure, validate_cfg
from repro.core import build_alignment_instance, evaluate_layout
from repro.core.layout import Layout
from repro.machine import ALPHA_21064, ALPHA_21164, DEEP_PIPE, UNIT_COST
from repro.profiles import EdgeProfile
from repro.workloads import GeneratorConfig, random_procedure

MODELS = [ALPHA_21164, ALPHA_21064, DEEP_PIPE, UNIT_COST]


def build_procedure(seed: int, target_blocks: int) -> Procedure:
    rng = random.Random(seed)
    return random_procedure(
        "p", rng, GeneratorConfig(target_blocks=target_blocks)
    )


def build_profile(proc: Procedure, seed: int) -> EdgeProfile:
    """A random CFG-consistent profile (not necessarily flow-conserving:
    the reduction must not care)."""
    rng = random.Random(seed)
    profile = EdgeProfile()
    for block in proc.cfg:
        for succ in block.successors:
            if rng.random() < 0.8:
                profile.add(block.block_id, succ, rng.randrange(0, 500))
    return profile


def random_layout(proc: Procedure, seed: int) -> Layout:
    rng = random.Random(seed)
    rest = [b for b in proc.cfg.block_ids if b != proc.cfg.entry]
    rng.shuffle(rest)
    return Layout((proc.cfg.entry, *rest))


@settings(max_examples=40, deadline=None)
@given(
    cfg_seed=st.integers(0, 10_000),
    profile_seed=st.integers(0, 10_000),
    layout_seed=st.integers(0, 10_000),
    target=st.integers(5, 30),
    model_index=st.integers(0, len(MODELS) - 1),
)
def test_walk_cost_equals_layout_penalty(
    cfg_seed, profile_seed, layout_seed, target, model_index
):
    model = MODELS[model_index]
    proc = build_procedure(cfg_seed, target)
    validate_cfg(proc.cfg)
    profile = build_profile(proc, profile_seed)
    instance = build_alignment_instance(proc.cfg, profile, model)
    layout = random_layout(proc, layout_seed)
    walk = instance.layout_cost(layout)
    penalty = evaluate_layout(proc.cfg, layout, profile, model).total
    assert abs(walk - penalty) <= 1e-6 * max(1.0, penalty)


@settings(max_examples=25, deadline=None)
@given(
    cfg_seed=st.integers(0, 10_000),
    profile_seed=st.integers(0, 10_000),
    target=st.integers(5, 20),
)
def test_costs_nonnegative_and_finite(cfg_seed, profile_seed, target):
    proc = build_procedure(cfg_seed, target)
    profile = build_profile(proc, profile_seed)
    instance = build_alignment_instance(proc.cfg, profile, ALPHA_21164)
    assert (instance.matrix >= 0).all()
    assert (instance.matrix <= instance.big).all()


@settings(max_examples=20, deadline=None)
@given(
    cfg_seed=st.integers(0, 10_000),
    profile_seed=st.integers(0, 10_000),
    target=st.integers(5, 18),
)
def test_alignment_never_worse_than_original(cfg_seed, profile_seed, target):
    """The TSP aligner includes the identity start, so it can never lose to
    the original layout."""
    from repro.core import original_layout, tsp_align

    proc = build_procedure(cfg_seed, target)
    profile = build_profile(proc, profile_seed)
    alignment = tsp_align(proc.cfg, profile, ALPHA_21164)
    original = evaluate_layout(
        proc.cfg, original_layout(proc.cfg), profile, ALPHA_21164
    ).total
    assert alignment.cost <= original + 1e-6
