"""The Ext-TSP objective and the chain-merging aligners built on it."""

import itertools
import json
import pathlib
import random
from fractions import Fraction

import numpy as np
import pytest

from repro import obs
from repro.budget import Budget
from repro.cfg import Program, Terminator, TerminatorKind
from repro.core import (
    DEFAULT_PARAMS,
    AlignmentReport,
    ExtTSPParams,
    align_program,
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
from repro.pipeline.artifacts import reset_artifact_cache
from repro.experiments.runner import profiled_run
from repro.profiles import EdgeProfile, synthesize_profile
from repro.tsp.path_cover import path_cover
from repro.workloads.suite import all_cases, compile_benchmark
from repro.workloads.synthetic import (
    GeneratorConfig,
    random_biases,
    random_procedure,
    random_program,
)


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


def _brute_force_best(cfg, profile, params):
    """Test oracle: the highest exact score over every order that starts
    at the entry."""
    rest = sorted(set(cfg.block_ids) - {cfg.entry})
    return max(
        _exact_score(cfg, [cfg.entry, *perm], profile, params)
        for perm in itertools.permutations(rest)
    )


def _padded_procedures(seed):
    """Random procedures padded to blocks of up to 120 words: most
    outgrow the 640-word backward window, where the cover is no longer
    exact."""
    rng = random.Random(seed)
    program = Program(main="proc0")
    for index in range(6):
        config = GeneratorConfig(
            target_blocks=rng.randrange(8, 40), max_padding=120
        )
        program.add(random_procedure(f"proc{index}", rng, config))
    profile = synthesize_profile(
        program, random_biases(program, seed + 1), seed=seed + 2,
        walks_per_procedure=12, max_steps=4000,
    )
    return [
        (proc.cfg, profile.procedures[proc.name])
        for proc in program
        if proc.name in profile.procedures
    ]


def _small_procedures(seed):
    return [
        (cfg, profile)
        for _name, cfg, profile in _random_procedures(
            seed, min_blocks=4, max_blocks=12
        )
    ]


def _cover_weight(cfg, profile):
    """The maximum weight of a path cover over the edges that can fall
    through (no self-loop, none into the entry), weighted by count."""
    blocks = [cfg.entry, *sorted(set(cfg.block_ids) - {cfg.entry})]
    index = {block_id: i for i, block_id in enumerate(blocks)}
    matrix = np.zeros((len(blocks), len(blocks)))
    for (src, dst), count in profile.counts.items():
        if (
            count > 0 and src in cfg and dst in cfg.successors(src)
            and src != dst and dst != cfg.entry
        ):
            matrix[index[src], index[dst]] = -count
    arcs = np.argwhere(matrix < 0)
    return -path_cover(matrix, np.zeros(len(blocks)), arcs).floor


class TestCoverLayout:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_exact_brute_force(self, seed):
        """Under the default weights, on procedures far inside both
        windows, the layout scores the exact maximum over all orders."""
        checked = 0
        for _name, cfg, profile in _random_procedures(
            seed, min_blocks=4, max_blocks=6
        ):
            if len(cfg) > 8:
                continue
            layout = exttsp_layout(cfg, profile)
            assert _exact_score(
                cfg, layout.order, profile, DEFAULT_PARAMS
            ) == _brute_force_best(cfg, profile, DEFAULT_PARAMS)
            checked += 1
        assert checked >= 9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("params", PARAMS.values(), ids=PARAMS.keys())
    def test_never_below_chain_merge(self, seed, params):
        """Under every parameter set, on small procedures and on padded
        ones that outgrow the windows, exttsp scores at least the merge
        order, up to the float rounding of a tie."""
        padded = _padded_procedures(seed)
        assert any(
            sum(block_size_words(block) for block in cfg)
            > params.backward_window
            for cfg, _profile in padded
        )
        for cfg, profile in padded + _small_procedures(seed):
            stats = MergeStats()
            layout = exttsp_layout(cfg, profile, params, stats=stats)
            merge = chain_merge_layout(cfg, profile, params)
            score = exttsp_score(cfg, layout, profile, params)
            merged = exttsp_score(cfg, merge, profile, params)
            assert score >= merged or score == pytest.approx(merged, rel=1e-9)
            assert stats.score == score
            assert layout == merge or not stats.merge_kept

    def test_merge_order_is_kept_where_it_scores_higher(self):
        """Where the jump weights differ or the windows are tight, the
        cover is no longer exact, and on some procedures the merge order
        outscores it and is kept."""
        kept = 0
        for params in (PARAMS["tight"], PARAMS["weighted"]):
            for seed in range(3):
                for cfg, profile in _small_procedures(seed):
                    stats = MergeStats()
                    layout = exttsp_layout(cfg, profile, params, stats=stats)
                    if stats.merge_kept:
                        assert layout == chain_merge_layout(cfg, profile, params)
                    kept += stats.merge_kept
        assert kept > 0

    @pytest.mark.usefixtures("no_ambient_chaos", "no_ambient_store")
    def test_expired_budget_keeps_the_better_of_salvage_and_merge(self):
        """An exhausted budget stops the cover's search before its first
        node: the salvaged cover (no arcs yet, the merge order itself)
        competes with the merge order, the layout stays valid and never
        below chain-merge, and the aligner flags it degraded."""
        expired = Budget(max_iterations=0)
        for _name, cfg, profile in _random_procedures(0, max_blocks=20):
            stats = MergeStats()
            layout = exttsp_layout(cfg, profile, stats=stats, budget=expired)
            layout.check_against(cfg)
            assert "budget" in stats.warning
            merge = chain_merge_layout(cfg, profile)
            assert exttsp_score(cfg, layout, profile) >= exttsp_score(
                cfg, merge, profile
            )
        program = random_program(procedures=3, seed=5, max_blocks=20)
        profile = synthesize_profile(program, random_biases(program, 6), seed=7)
        reset_artifact_cache()
        report = AlignmentReport()
        align_program(
            program, profile, method="exttsp", budget=expired, jobs=1,
            report=report,
        )
        assert set(report.degraded.values()) == {"construction"}


def _suite_and_synth_large():
    """``(label, program, profile)`` of the 12 suite cases and of the
    synth-large program (seed 1997)."""
    for benchmark, dataset in all_cases():
        yield (
            f"{benchmark}.{dataset}",
            compile_benchmark(benchmark).program,
            profiled_run(benchmark, dataset).profile,
        )
    program = random_program(
        procedures=12, seed=1997, min_blocks=16, max_blocks=64
    )
    profile = synthesize_profile(
        program, random_biases(program, 1998), seed=1999,
        walks_per_procedure=12, max_steps=4000,
    )
    yield "synth-large", program, profile


@pytest.mark.usefixtures("no_ambient_chaos", "no_ambient_store")
def test_every_workload_procedure_attains_the_cover_bound():
    """Every suite and synth-large procedure fits both windows, so under
    the default weights its exttsp layout scores 0.1·Σw + 0.9·(the
    cover's weight) — no layout scores more — and no merge order is
    kept."""
    checked = 0
    for label, program, profile in _suite_and_synth_large():
        reset_artifact_cache()  # every procedure aligned, none served
        obs.tracer().reset_counters()
        layouts = align_program(program, profile, method="exttsp", jobs=1)
        assert obs.counters()["exttsp.merge_kept"] == 0, label
        for proc in program:
            edges = profile.procedures.get(proc.name)
            if edges is None or not edges.total():
                continue
            total = exttsp_max_score(proc.cfg, edges)
            bound = 0.1 * total + 0.9 * _cover_weight(proc.cfg, edges)
            score = exttsp_score(proc.cfg, layouts[proc.name], edges)
            assert score == pytest.approx(bound, rel=1e-12), (label, proc.name)
            checked += 1
    assert checked == 38 + 12


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
        for layout_of in (chain_merge_layout, exttsp_layout):
            own, given = MergeStats(), MergeStats()
            expected = layout_of(loop_cfg, profile, stats=own)
            with monkeypatch.context() as patch:
                patch.setattr(exttsp_merge, "chain_merge_order", None)
                layout = layout_of(
                    loop_cfg, profile, stats=given, merged=merged
                )
            assert layout == expected
            assert given == own
            assert given.merges == merged.merges > 0
            assert given.merge_candidates == merged.candidates > 0
