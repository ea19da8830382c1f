"""The Ext-TSP objective and the chain-merging aligners built on it."""

import json
import pathlib
import random
from fractions import Fraction

import pytest

from repro.cfg import Terminator, TerminatorKind
from repro.core import (
    DEFAULT_PARAMS,
    ExtTSPParams,
    chain_merge_layout,
    evaluate_layout,
    exttsp_layout,
    exttsp_max_score,
    exttsp_program_score,
    exttsp_score,
    original_layout,
)
from repro.core.aligners import MergeStats, exttsp_merge
from repro.core.exttsp import block_addresses, block_size_words, edge_weight
from repro.core.layout import Layout
from repro.machine import ALPHA_21164
from repro.profiles import EdgeProfile, synthesize_profile
from repro.workloads.synthetic import random_biases, random_program


class TestEdgeWeight:
    def test_fallthrough_scores_full_weight(self):
        assert edge_weight(100, 100) == DEFAULT_PARAMS.fallthrough_weight

    def test_forward_window_is_inclusive(self):
        w = DEFAULT_PARAMS.forward_window
        assert edge_weight(0, w) == DEFAULT_PARAMS.forward_weight
        assert edge_weight(0, w + 1) == 0.0

    def test_backward_window_is_inclusive_and_tighter(self):
        w = DEFAULT_PARAMS.backward_window
        assert w < DEFAULT_PARAMS.forward_window
        assert edge_weight(w, 0) == DEFAULT_PARAMS.backward_weight
        assert edge_weight(w + 1, 0) == 0.0

    def test_custom_params(self):
        params = ExtTSPParams(
            fallthrough_weight=2.0, forward_weight=0.5,
            backward_weight=0.25, forward_window=10, backward_window=4,
        )
        assert edge_weight(7, 7, params) == 2.0
        assert edge_weight(0, 10, params) == 0.5
        assert edge_weight(0, 11, params) == 0.0
        assert edge_weight(4, 0, params) == 0.25
        assert edge_weight(5, 0, params) == 0.0

    def test_fingerprint_covers_every_knob(self):
        fingerprints = {
            DEFAULT_PARAMS.fingerprint(),
            ExtTSPParams(fallthrough_weight=2.0).fingerprint(),
            ExtTSPParams(forward_weight=0.2).fingerprint(),
            ExtTSPParams(backward_weight=0.2).fingerprint(),
            ExtTSPParams(forward_window=512).fingerprint(),
            ExtTSPParams(backward_window=128).fingerprint(),
        }
        assert len(fingerprints) == 6


class TestBlockAddresses:
    def test_consecutive_from_zero(self, diamond_cfg):
        order = original_layout(diamond_cfg).order
        addresses = block_addresses(diamond_cfg, order)
        at = 0
        for block_id in order:
            start, end = addresses[block_id]
            assert start == at
            assert end - start == block_size_words(diamond_cfg.block(block_id))
            at = end


def diamond_ids_and_profile(cfg):
    ids = {blk.label: blk.block_id for blk in cfg}
    profile = EdgeProfile({
        (ids["entry"], ids["right"]): 90,
        (ids["entry"], ids["left"]): 10,
        (ids["right"], ids["exit"]): 90,
        (ids["left"], ids["exit"]): 10,
    })
    return ids, profile


class TestExtTSPScore:
    def test_hand_computed_diamond(self, diamond_cfg):
        """entry·right·exit·left: the hot path falls through (full weight),
        the cold arm pays short-jump weight both ways.  The whole procedure
        is a handful of words, so every non-fall-through stays in window."""
        ids, profile = diamond_ids_and_profile(diamond_cfg)
        layout = Layout(order=(
            ids["entry"], ids["right"], ids["exit"], ids["left"],
        ))
        expected = 90 * 1.0 + 90 * 1.0 + 10 * 0.1 + 10 * 0.1
        assert exttsp_score(diamond_cfg, layout, profile) == pytest.approx(
            expected
        )

    def test_max_score_is_total_counts(self, diamond_cfg):
        _ids, profile = diamond_ids_and_profile(diamond_cfg)
        assert exttsp_max_score(diamond_cfg, profile) == 200.0

    def test_no_layout_beats_the_bound(self, diamond_cfg):
        import itertools

        ids, profile = diamond_ids_and_profile(diamond_cfg)
        bound = exttsp_max_score(diamond_cfg, profile)
        rest = [i for i in ids.values() if i != ids["entry"]]
        for perm in itertools.permutations(rest):
            layout = Layout(order=(ids["entry"], *perm))
            assert exttsp_score(diamond_cfg, layout, profile) <= bound

    def test_out_of_window_edges_score_nothing(self, diamond_cfg):
        ids, profile = diamond_ids_and_profile(diamond_cfg)
        layout = Layout(order=(
            ids["entry"], ids["right"], ids["exit"], ids["left"],
        ))
        tight = ExtTSPParams(forward_window=0, backward_window=0)
        # Only the two fall-throughs survive windows of width zero.
        assert exttsp_score(diamond_cfg, layout, profile, tight) == 180.0

    def test_phantom_and_unexecuted_edges_are_ignored(self, diamond_cfg):
        ids, profile = diamond_ids_and_profile(diamond_cfg)
        layout = Layout(order=(
            ids["entry"], ids["right"], ids["exit"], ids["left"],
        ))
        baseline = exttsp_score(diamond_cfg, layout, profile)
        # Not a CFG edge; a zero count; a block id outside the CFG.
        profile.counts[(ids["exit"], ids["entry"])] = 500
        profile.counts[(ids["right"], ids["exit"])] += 0
        profile.counts[(9999, ids["exit"])] = 500
        profile.counts[(ids["left"], ids["exit"])] = 10  # unchanged
        assert exttsp_score(diamond_cfg, layout, profile) == baseline

    def test_empty_profile_scores_zero(self, diamond_cfg):
        layout = original_layout(diamond_cfg)
        assert exttsp_score(diamond_cfg, layout, EdgeProfile()) == 0.0
        assert exttsp_max_score(diamond_cfg, EdgeProfile()) == 0.0

    def test_program_score_sums_procedures(self, loop_program, loop_profile):
        from repro.core.layout import ProgramLayout

        cfg = loop_program["main"].cfg
        layouts = ProgramLayout(layouts={"main": original_layout(cfg)})
        total = exttsp_program_score(loop_program, layouts, loop_profile)
        assert total == pytest.approx(
            exttsp_score(cfg, layouts["main"], loop_profile["main"])
        )


class TestChainMergeAligners:
    def test_layouts_are_valid_permutations(self, loop_cfg, loop_profile):
        profile = loop_profile["main"]
        chain_merge_layout(loop_cfg, profile).check_against(loop_cfg)
        exttsp_layout(loop_cfg, profile).check_against(loop_cfg)

    def test_entry_block_leads(self, loop_cfg, loop_profile):
        profile = loop_profile["main"]
        assert chain_merge_layout(loop_cfg, profile).order[0] == loop_cfg.entry
        assert exttsp_layout(loop_cfg, profile).order[0] == loop_cfg.entry

    def test_hot_edge_becomes_fallthrough(self, diamond_cfg):
        ids, profile = diamond_ids_and_profile(diamond_cfg)
        layout = chain_merge_layout(diamond_cfg, profile)
        position = layout.positions
        assert position[ids["right"]] == position[ids["entry"]] + 1
        assert position[ids["exit"]] == position[ids["right"]] + 1

    def test_deterministic(self, loop_cfg, loop_profile):
        profile = loop_profile["main"]
        assert (
            exttsp_layout(loop_cfg, profile).order
            == exttsp_layout(loop_cfg, profile).order
        )
        assert (
            chain_merge_layout(loop_cfg, profile).order
            == chain_merge_layout(loop_cfg, profile).order
        )

    def test_refinement_never_loses_score(self, loop_cfg, loop_profile):
        profile = loop_profile["main"]
        merged = exttsp_score(
            loop_cfg, chain_merge_layout(loop_cfg, profile), profile
        )
        refined = exttsp_score(
            loop_cfg, exttsp_layout(loop_cfg, profile), profile
        )
        assert refined >= merged - 1e-9

    def test_beats_original_layout_on_the_objective(
        self, loop_cfg, loop_profile
    ):
        profile = loop_profile["main"]
        original = exttsp_score(
            loop_cfg, original_layout(loop_cfg), profile
        )
        aligned = exttsp_score(
            loop_cfg, exttsp_layout(loop_cfg, profile), profile
        )
        assert aligned >= original - 1e-9
        assert aligned <= exttsp_max_score(loop_cfg, profile) + 1e-9

    def test_stats_are_populated(self, loop_cfg, loop_profile):
        profile = loop_profile["main"]
        stats = MergeStats()
        layout = exttsp_layout(loop_cfg, profile, stats=stats)
        assert stats.merges > 0
        assert stats.score == pytest.approx(
            exttsp_score(loop_cfg, layout, profile)
        )

    def test_empty_profile_degrades_gracefully(self, loop_cfg):
        layout = exttsp_layout(loop_cfg, EdgeProfile())
        layout.check_against(loop_cfg)
        assert layout.order[0] == loop_cfg.entry

    def test_penalty_no_worse_than_original(self, loop_cfg, loop_profile):
        """The Ext-TSP objective is not the paper's penalty, but a layout
        chasing fall-throughs should still beat the source-order layout
        under the 1997 model."""
        profile = loop_profile["main"]
        exttsp_pen = evaluate_layout(
            loop_cfg, exttsp_layout(loop_cfg, profile), profile, ALPHA_21164
        ).total
        original_pen = evaluate_layout(
            loop_cfg, original_layout(loop_cfg), profile, ALPHA_21164
        ).total
        assert exttsp_pen <= original_pen + 1e-9


def _exact_score(cfg, order, profile, params):
    """Exact (rational) Ext-TSP score of ``order``: the float class
    weights taken at their exact binary values, so no rounding at all."""
    addresses = block_addresses(cfg, order)
    return sum(
        (
            Fraction(count)
            * Fraction(edge_weight(addresses[src][1], addresses[dst][0], params))
            for (src, dst), count in profile.counts.items()
            if count > 0 and src in cfg and dst in cfg.successors(src)
        ),
        Fraction(0),
    )


def _brute_force_climb(cfg, order, profile, params):
    """Test oracle: the best-improvement climb re-scoring every candidate
    order from scratch with exact gains, under the aligner's selection
    rule (scan removed block then target; accept a gain above 1e-12,
    replace the best only when beaten by more than 1e-12).  Returns the
    accepted (exact gain, order) steps."""
    tolerance = Fraction(1e-12)
    current = list(order)
    steps = []
    for _pass in range(exttsp_merge.MAX_REFINE_PASSES):
        score = _exact_score(cfg, current, profile, params)
        best = None
        for at in range(1, len(current)):
            rest = current[:at] + current[at + 1:]
            for to in range(1, len(current)):
                if to == at:
                    continue
                candidate = rest[:to] + [current[at]] + rest[to:]
                gain = _exact_score(cfg, candidate, profile, params) - score
                if gain > tolerance and (
                    best is None or gain > best[0] + tolerance
                ):
                    best = (gain, candidate)
        if best is None:
            break
        steps.append(best)
        current = best[1]
    return steps


def _random_procedures(seed, min_blocks=4, max_blocks=64):
    program = random_program(
        procedures=10, seed=seed, min_blocks=min_blocks, max_blocks=max_blocks
    )
    profile = synthesize_profile(
        program, random_biases(program, seed + 1), seed=seed + 2,
        walks_per_procedure=12, max_steps=4000,
    )
    return [
        (proc.name, proc.cfg, profile.procedures[proc.name])
        for proc in program
        if proc.name in profile.procedures
    ]


#: Parameter sets with windows of a few blocks, so every weight class
#: (window edges included) occurs on small random procedures.
PARAMS = {
    "default": DEFAULT_PARAMS,
    "tight": ExtTSPParams(forward_window=12, backward_window=16),
    "weighted": ExtTSPParams(forward_weight=0.25, backward_weight=0.5,
                             forward_window=20, backward_window=12),
}


class TestRefinement:
    def test_zero_gain_move_is_not_taken(self):
        """Regression: the float-gain climb re-summed each candidate's
        score in a new block order, and on this procedure rounding made
        one move of exact gain zero clear the 1e-12 threshold (4 moves).
        Exact class-count gains reach the same score in 3."""
        (cfg, profile), = [
            (cfg, profile)
            for name, cfg, profile in _random_procedures(4)
            if name == "proc4"
        ]
        stats = MergeStats()
        layout = exttsp_layout(cfg, profile, stats=stats)
        assert stats.refine_moves == 3
        assert exttsp_score(cfg, layout, profile) == 28713.100000000013
        n = len(cfg)
        # Three improving passes plus the one that finds nothing.
        assert stats.refine_candidates == 4 * (n - 1) * (n - 2)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("params", PARAMS.values(), ids=PARAMS.keys())
    def test_climb_matches_exact_brute_force(self, seed, params, monkeypatch):
        """Every move the climb takes has an exact gain > 0, and pass by
        pass it is the move a from-scratch exact re-scoring would pick —
        from the merge order and from the source order alike."""
        moves = 0
        for _name, cfg, profile in _random_procedures(
            seed, min_blocks=4, max_blocks=12
        ):
            inst = exttsp_merge._build(cfg, profile, params)
            merged = exttsp_merge.chain_merge_order(inst)
            for start in (merged, list(original_layout(cfg).order)):
                steps = _brute_force_climb(cfg, start, profile, params)
                assert all(gain > 0 for gain, _order in steps)
                for passes, (_gain, expected) in enumerate(steps, 1):
                    monkeypatch.setattr(
                        exttsp_merge, "MAX_REFINE_PASSES", passes
                    )
                    assert exttsp_merge.refine_order(inst, start) == expected
                monkeypatch.undo()
                stats = MergeStats()
                final = exttsp_merge.refine_order(inst, start, stats=stats)
                assert final == (steps[-1][1] if steps else start)
                assert stats.refine_moves == len(steps)
                n = len(start)
                passes = min(len(steps) + 1, exttsp_merge.MAX_REFINE_PASSES)
                assert stats.refine_candidates == passes * (n - 1) * (n - 2)
                moves += len(steps)
        assert moves > 0  # the grid exercises real moves, not just no-ops


def _self_loop_procedures(seed):
    """``_random_procedures(seed)`` with every third conditional block
    turned into a self-loop: its taken arm now targets itself, and the
    profile counts that edge (the old arm's count stays behind as a
    phantom edge the scorer must ignore)."""
    procedures = _random_procedures(seed)
    for _name, cfg, profile in procedures:
        conditionals = [
            block for block in cfg
            if block.terminator.kind is TerminatorKind.CONDITIONAL
        ]
        for block in conditionals[::3]:
            taken, fallthrough = block.terminator.targets
            cfg.replace_terminator(block.block_id, Terminator(
                TerminatorKind.CONDITIONAL, (block.block_id, fallthrough)
            ))
            profile.counts[(block.block_id, block.block_id)] = (
                profile.counts.get((block.block_id, taken), 0) + 7
            )
    return procedures


def _reference_score(inst, sequence):
    """Test oracle: the scalar merge scorer the batch replaced.  Terms
    are added one at a time in block order, within a block in the order
    its edges were listed, each edge at its first-visited endpoint."""
    edges_of = {}
    for src, dst, count in inst.edges:
        edge = (src, dst, float(count))
        edges_of.setdefault(src, []).append(edge)
        if dst != src:
            edges_of.setdefault(dst, []).append(edge)
    start, end, at = {}, {}, 0
    for block_id in sequence:
        start[block_id] = at
        at += inst.sizes[block_id]
        end[block_id] = at
    total, seen = 0.0, set()
    for block_id in sequence:
        for src, dst, count in edges_of.get(block_id, ()):
            if (src, dst) in seen or src not in end or dst not in start:
                continue
            seen.add((src, dst))
            weight = edge_weight(end[src], start[dst], inst.params)
            if weight:
                total += count * weight
    return total


def _edge_class(inst, sequence, src, dst):
    addresses = {}
    at = 0
    for block_id in sequence:
        addresses[block_id] = (at, at + inst.sizes[block_id])
        at += inst.sizes[block_id]
    if src == dst:
        return "self-loop"
    gap = addresses[dst][0] - addresses[src][1]
    if gap == 0:
        return "fall-through"
    weight = edge_weight(addresses[src][1], addresses[dst][0], inst.params)
    if weight == 0.0:
        return "out-of-window"
    return "forward" if gap > 0 else "backward"


#: Parent-commit chain-merge orders: ``seed-params -> proc -> [order,
#: merges, splits]`` on ``_self_loop_procedures``.
MERGE_GOLDEN = pathlib.Path(__file__).with_name("merge_orders_golden.json")


class TestMergeScoring:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("params", PARAMS.values(), ids=PARAMS.keys())
    def test_batch_matches_scalar_scorer_exactly(
        self, seed, params, monkeypatch
    ):
        """The batched scorer keeps the scalar loop's summation order, so
        every score is the same float, not merely a close one — in one
        batch of mixed lengths and one row at a time alike."""
        rng = random.Random(seed)
        classes = set()
        for _name, cfg, profile in _self_loop_procedures(seed):
            inst = exttsp_merge._build(cfg, profile, params)
            sequences = []
            for _ in range(40):
                blocks = rng.sample(inst.blocks, rng.randint(1, len(inst.blocks)))
                sequences.append(blocks)
                members = set(blocks)
                classes.update(
                    _edge_class(inst, blocks, src, dst)
                    for src, dst, _count in inst.edges
                    if src in members and dst in members
                )
            expected = [_reference_score(inst, seq) for seq in sequences]
            dense = [[inst.index[b] for b in seq] for seq in sequences]
            assert exttsp_merge._sequence_scores(inst, dense) == expected
            monkeypatch.setattr(exttsp_merge, "BATCH_CELLS", 1)
            assert exttsp_merge._sequence_scores(inst, dense) == expected
            monkeypatch.undo()
        assert classes >= {
            "fall-through", "forward", "backward", "self-loop",
        }
        if params is not DEFAULT_PARAMS:
            assert "out-of-window" in classes

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("params_name", PARAMS)
    def test_merge_orders_match_recorded(self, seed, params_name):
        """Orders and merge/split counts recorded from the scalar scorer
        before the batch replaced it."""
        recorded = json.loads(MERGE_GOLDEN.read_text())[
            f"{seed}-{params_name}"
        ]
        for name, cfg, profile in _self_loop_procedures(seed):
            stats = MergeStats()
            inst = exttsp_merge._build(cfg, profile, PARAMS[params_name])
            order = exttsp_merge.chain_merge_order(inst, stats=stats)
            assert [order, stats.merges, stats.splits] == recorded[name], name
            assert stats.merge_candidates >= stats.merges
        assert len(recorded) == 10

    def test_supplied_merge_order_is_used(
        self, loop_cfg, loop_profile, monkeypatch
    ):
        """``exttsp_layout(merged=...)`` starts from the given merge
        without re-running it and reports its counts; layout and stats
        equal a self-contained run's."""
        profile = loop_profile["main"]
        merged = exttsp_merge.merge_phase(loop_cfg, profile)
        for refine in (False, True):
            own, given = MergeStats(), MergeStats()
            expected = exttsp_layout(
                loop_cfg, profile, refine=refine, stats=own
            )
            with monkeypatch.context() as patch:
                patch.setattr(exttsp_merge, "chain_merge_order", None)
                layout = exttsp_layout(
                    loop_cfg, profile, refine=refine, stats=given,
                    merged=merged,
                )
            assert layout == expected
            assert given == own
            assert given.merges == merged.merges > 0
            assert given.merge_candidates == merged.candidates > 0
