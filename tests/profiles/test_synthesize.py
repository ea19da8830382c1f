"""Tests for synthetic (Markov-walk) profile generation."""

import random

import pytest

from repro.cfg import Procedure, Program
from repro.profiles import (
    BiasAssignment,
    expected_profile,
    random_bias_assignment,
    synthesize_profile,
    walk_cfg,
)
from tests.profiles.trace_builder import TraceBuilder


class TestBiasAssignment:
    def test_defaults_to_uniform(self, loop_cfg):
        bias = BiasAssignment()
        body = next(b for b in loop_cfg if b.label == "body")
        dist = bias.distribution(loop_cfg, body.block_id)
        assert len(dist) == 4
        assert all(abs(p - 0.25) < 1e-12 for p in dist)

    def test_normalizes(self, diamond_cfg):
        bias = BiasAssignment({diamond_cfg.entry: (3.0, 1.0)})
        dist = bias.distribution(diamond_cfg, diamond_cfg.entry)
        assert dist == (0.75, 0.25)

    def test_wrong_arity_rejected(self, diamond_cfg):
        bias = BiasAssignment({diamond_cfg.entry: (1.0,)})
        with pytest.raises(ValueError, match="probabilities"):
            bias.distribution(diamond_cfg, diamond_cfg.entry)

    def test_zero_distribution_rejected(self, diamond_cfg):
        bias = BiasAssignment({diamond_cfg.entry: (0.0, 0.0)})
        with pytest.raises(ValueError, match="non-positive"):
            bias.distribution(diamond_cfg, diamond_cfg.entry)


class TestRandomBias:
    def test_conditionals_biased(self, loop_cfg):
        bias = random_bias_assignment(loop_cfg, random.Random(0))
        head = next(b for b in loop_cfg if b.label == "head")
        dist = bias.distribution(loop_cfg, head.block_id)
        assert max(dist) >= 0.5

    def test_deterministic_for_seed(self, loop_cfg):
        a = random_bias_assignment(loop_cfg, random.Random(7))
        b = random_bias_assignment(loop_cfg, random.Random(7))
        assert a.probabilities == b.probabilities


class TestWalks:
    def test_walk_follows_cfg_edges(self, loop_cfg):
        bias = random_bias_assignment(loop_cfg, random.Random(1))
        path = walk_cfg(loop_cfg, bias, random.Random(2), max_steps=500)
        assert path[0] == loop_cfg.entry
        for src, dst in zip(path, path[1:]):
            assert dst in loop_cfg.successors(src)

    def test_walk_reaches_return(self, loop_cfg):
        bias = random_bias_assignment(loop_cfg, random.Random(1))
        path = walk_cfg(loop_cfg, bias, random.Random(3), max_steps=100_000)
        assert loop_cfg.block(path[-1]).kind.value == "return"

    def test_synthesize_profile_is_cfg_consistent(self, loop_program):
        cfg = loop_program["main"].cfg
        biases = {"main": random_bias_assignment(cfg, random.Random(5))}
        profile = synthesize_profile(
            loop_program, biases, seed=6, walks_per_procedure=10
        )
        profile.check_against(loop_program)
        assert profile.call_counts["main"] == 10

    def test_synthesize_with_trace_builder(self, loop_program):
        cfg = loop_program["main"].cfg
        biases = {"main": random_bias_assignment(cfg, random.Random(5))}
        profile = synthesize_profile(
            loop_program, biases, seed=6, walks_per_procedure=5,
        )
        # Replay the same walks (same seed, same draws) through a trace
        # builder: its edge counts must agree exactly with the profile.
        rng = random.Random(6)
        builder = TraceBuilder()
        for _ in range(5):
            builder.enter("main")
            for block_id in walk_cfg(cfg, biases["main"], rng, max_steps=20_000):
                builder.visit(block_id)
            builder.leave()
        assert builder.edge_counts["main"] == profile["main"].counts


class TestExpectedProfile:
    def test_diamond_splits_flow(self, diamond_cfg):
        proc = Procedure("p", diamond_cfg)
        bias = BiasAssignment({diamond_cfg.entry: (0.8, 0.2)})
        flow = expected_profile(proc, bias, entries=1000.0)
        left = next(b for b in diamond_cfg if b.label == "left").block_id
        right = next(b for b in diamond_cfg if b.label == "right").block_id
        assert flow[(diamond_cfg.entry, left)] == pytest.approx(800.0)
        assert flow[(diamond_cfg.entry, right)] == pytest.approx(200.0)

    def test_loop_flow_converges_to_geometric_sum(self):
        from repro.cfg import CFGBuilder
        b = CFGBuilder()
        b.block("entry").jump("head")
        b.block("head").cond("body", "exit")
        b.block("body").jump("head")
        b.block("exit").ret()
        cfg = b.build(entry="entry")
        proc = Procedure("p", cfg)
        bias = BiasAssignment({b.id_of("head"): (0.5, 0.5)})
        flow = expected_profile(proc, bias, entries=1.0)
        # Expected visits to head: 1/(1-0.5) = 2; body->head flow: 1.
        assert flow[(b.id_of("body"), b.id_of("head"))] == pytest.approx(1.0, abs=1e-6)
        assert flow[(b.id_of("head"), b.id_of("exit"))] == pytest.approx(1.0, abs=1e-6)

    def test_empirical_matches_expected(self, loop_program):
        """Monte-Carlo counts converge to the closed-form flow."""
        cfg = loop_program["main"].cfg
        bias = random_bias_assignment(cfg, random.Random(11))
        walks = 4000
        profile = synthesize_profile(
            loop_program, {"main": bias}, seed=12,
            walks_per_procedure=walks, max_steps=5000,
        )
        expected = expected_profile(
            loop_program["main"], bias, entries=float(walks)
        )
        for key, expected_flow in expected.items():
            if expected_flow < 50:
                continue
            observed = profile["main"].count(*key)
            assert observed == pytest.approx(expected_flow, rel=0.25)
