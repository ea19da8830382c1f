"""Property-based tests of the aligners on random CFGs and profiles."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    calder_grunwald_layout,
    evaluate_layout,
    original_layout,
    pettis_hansen_layout,
)
from repro.core.hot_cold import split_hot_cold
from repro.machine import ALPHA_21164
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


@settings(max_examples=30, deadline=None)
@given(
    cfg_seed=st.integers(0, 10_000),
    target=st.integers(5, 30),
    profile_seed=st.integers(0, 10_000),
)
def test_greedy_layouts_are_valid_permutations(cfg_seed, target, profile_seed):
    proc, profile = make_case(cfg_seed, target, profile_seed)
    for layout in (
        pettis_hansen_layout(proc.cfg, profile),
        calder_grunwald_layout(proc.cfg, profile, ALPHA_21164),
    ):
        layout.check_against(proc.cfg)


@settings(max_examples=25, deadline=None)
@given(
    cfg_seed=st.integers(0, 10_000),
    target=st.integers(5, 25),
    profile_seed=st.integers(0, 10_000),
)
def test_tsp_never_loses_to_original(cfg_seed, target, profile_seed):
    """The TSP aligner never loses to the original order: the solver's
    start pool and every rung of its degradation ladder include the
    identity tour, so the returned layout costs at most the original's.

    (Greedy chaining carries no such guarantee — `tsp_aligner` documents
    that Pettis–Hansen can lose to the original order, which is why the
    ladder's greedy rung keeps whichever of the two is cheaper.)
    """
    from repro.core import tsp_align

    proc, profile = make_case(cfg_seed, target, profile_seed)
    baseline = evaluate_layout(
        proc.cfg, original_layout(proc.cfg), profile, ALPHA_21164
    ).total
    alignment = tsp_align(proc.cfg, profile, ALPHA_21164)
    aligned = evaluate_layout(
        proc.cfg, alignment.layout, profile, ALPHA_21164
    ).total
    assert aligned <= baseline + 1e-6


@settings(max_examples=25, deadline=None)
@given(
    cfg_seed=st.integers(0, 10_000),
    target=st.integers(5, 25),
    profile_seed=st.integers(0, 10_000),
)
def test_hot_cold_split_preserves_validity_and_hot_penalty(
    cfg_seed, target, profile_seed
):
    proc, profile = make_case(cfg_seed, target, profile_seed)
    layout = pettis_hansen_layout(proc.cfg, profile)
    split = split_hot_cold(proc.cfg, layout, profile)
    split.check_against(proc.cfg)
    # Every cold block sits after every hot block (entry excepted).
    def heat(block_id):
        h = profile.block_exit_count(block_id)
        return h if h else profile.block_entry_count(block_id)
    positions = split.positions
    hot_positions = [
        positions[b] for b in split.order
        if heat(b) > 0 or b == proc.cfg.entry
    ]
    cold_positions = [
        positions[b] for b in split.order
        if heat(b) == 0 and b != proc.cfg.entry
    ]
    if hot_positions and cold_positions:
        assert max(hot_positions) < min(cold_positions)
