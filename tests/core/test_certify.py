"""The tsp aligner lays out the path cover's own tour, and the bound stage
returns that tour's cost.

The contract: the same tour *cost* as the paper's full-effort search (a
different co-optimal tour is allowed) with no 3-Opt run at all, valid
entry-first layouts, the degradation ladder intact when the budget runs
out inside the search (with the best cover found so far salvaged), and a
certified bound that is the optimum however it is reached.
"""

import importlib

import pytest

import repro.core.aligners.tsp_aligner as tsp_aligner
from repro import obs
from repro.budget import Budget
from repro.core import build_alignment_instance
from repro.core.aligners.tsp_aligner import alignment_lower_bound, tsp_align
from repro.lang import compile_source
from repro.machine import ALPHA_21164
from repro.machine.models import STANDARD_MODELS
from repro.profiles import EdgeProfile, synthesize_profile
from repro.tsp import branch_and_bound, exact_tour, solve_dtsp, tour_cost
from repro.workloads.suite import SUITE
from repro.workloads.synthetic import random_biases, random_program

PROGRAM_SEEDS = (0, 1, 2, 3)

#: serve-cold's profile shapes: shape p profiles SUITE source p % 6 with
#: biases and walks seeded 7000 + p, 8 walks of at most 2000 steps.
SERVE_SHAPES = 120
SERVE_SHAPE_SEED = 7000

#: The module, not the function ``repro.tsp`` re-exports under its name.
path_cover_module = importlib.import_module("repro.tsp.path_cover")


def procedures(seed):
    """(cfg, edge profile) for the executed procedures of one small
    synthetic program (14-30 blocks: above the exact-DP size)."""
    program = random_program(
        procedures=6, seed=seed, min_blocks=14, max_blocks=30
    )
    profile = synthesize_profile(
        program, random_biases(program, seed + 1), seed=seed + 2,
        walks_per_procedure=8, max_steps=2000,
    )
    return [
        (proc.cfg, profile.procedures[proc.name])
        for proc in program
        if proc.name in profile.procedures
        and profile.procedures[proc.name].total()
    ]


def serve_cold_shapes():
    """``(program, profile)`` of each of serve-cold's 120 profile shapes."""
    sources = tuple(SUITE)
    programs = {
        abbr: compile_source(SUITE[abbr].source).program for abbr in sources
    }
    for position in range(SERVE_SHAPES):
        program = programs[sources[position % len(sources)]]
        seed = SERVE_SHAPE_SEED + position
        yield program, synthesize_profile(
            program, random_biases(program, seed), seed=seed,
            walks_per_procedure=8, max_steps=2000,
        )


class TestCertifiedSolve:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_certified_cost_equals_full_effort_cost_on_grid(self, seed):
        for cfg, edges in procedures(seed):
            instance = build_alignment_instance(cfg, edges, ALPHA_21164)
            full = solve_dtsp(instance.matrix, seed=seed)
            aligned = tsp_align(cfg, edges, ALPHA_21164, instance=instance)
            assert aligned.cost == pytest.approx(full.cost, rel=1e-12)
            assert aligned.cost == instance.layout_cost(aligned.layout)

    def test_aligner_matches_full_effort_with_less_work(self):
        """Every tour costs what the paper's full-effort 3-Opt finds, and
        the aligner reaches it with one path-cover search per procedure
        and no 3-Opt run or kick."""
        obs.tracer().reset_counters()
        cases = [
            (cfg, edges, tsp_align(cfg, edges, ALPHA_21164, seed=3))
            for seed in PROGRAM_SEEDS
            for cfg, edges in procedures(seed)
        ]
        counters = obs.counters()
        obs.tracer().reset_counters()
        full = [
            solve_dtsp(result.instance.matrix, seed=3) for _, _, result in cases
        ]
        full_counters = obs.counters()

        for (cfg, _, result), ref in zip(cases, full):
            assert result.cost == ref.cost  # integral penalties: exact
            assert result.degraded == "none"
            assert sorted(result.layout.order) == sorted(cfg.block_ids)
            assert result.layout.order[0] == cfg.entry
            assert result.cost == result.instance.layout_cost(result.layout)
        assert "tsp.runs" not in counters and "tsp.kicks" not in counters
        assert "bnb.nodes" not in counters
        assert len(cases) <= counters["path_cover.nodes"] < full_counters[
            "tsp.kicks"
        ]

    def test_budget_expiring_inside_the_certificate_degrades(
        self, monkeypatch
    ):
        """The search polls the budget at every node; once it has expired
        inside the search, the ladder takes over with the best cover
        found so far, as a joined tour, among the construction
        candidates."""

        class Clock:
            now = 0.0

            def __call__(self):
                return self.now

        clock = Clock()
        real_match = path_cover_module.max_weight_matching
        real_rung = tsp_aligner._best_construction_layout
        salvaged = []

        def expire_after_one_node(out):
            clock.now += 10.0  # the budget runs out inside the search
            return real_match(out)

        def record_salvage(instance, seed, tours):
            salvaged.append([list(tour) for tour in tours])
            return real_rung(instance, seed, tours)

        monkeypatch.setattr(
            path_cover_module, "max_weight_matching", expire_after_one_node
        )
        monkeypatch.setattr(
            tsp_aligner, "_best_construction_layout", record_salvage
        )
        degraded = 0
        for cfg, edges in procedures(0):
            clock.now = 0.0
            timer = Budget(wall_ms=1000).start(clock=clock)
            before = len(salvaged)
            instance = build_alignment_instance(cfg, edges, ALPHA_21164)
            result = tsp_align(
                cfg, edges, ALPHA_21164, seed=3, budget=timer,
                instance=instance,
            )
            assert sorted(result.layout.order) == sorted(cfg.block_ids)
            assert result.layout.order[0] == cfg.entry
            if len(salvaged) > before:
                degraded += 1
                assert result.degraded == "construction"
                assert "budget exhausted" in result.warning
                (tour,) = salvaged[-1]
                # The root's cover, not the identity: the rung is never
                # worse than it.
                assert tour != list(range(instance.n))
                assert result.cost <= tour_cost(instance.matrix, tour) + 1e-9
            else:
                assert result.degraded == "none"
        assert degraded > 0

    def test_every_serve_cold_layout_comes_from_the_path_cover(self):
        """On serve-cold's 120 profile shapes under every model, every tsp
        layout comes straight from the path cover: the search runs and no
        3-Opt run is counted."""
        obs.tracer().reset_counters()
        for program, profile in serve_cold_shapes():
            for model in STANDARD_MODELS.values():
                for proc in program:
                    edges = profile.procedures.get(proc.name)
                    if edges is not None:
                        tsp_align(proc.cfg, edges, model, seed=3)
        counters = obs.counters()
        assert counters["path_cover.nodes"] > 0
        assert "tsp.runs" not in counters


@pytest.mark.usefixtures("no_ambient_chaos")
class TestCertifiedBound:
    def test_bound_is_independent_of_the_upper_bound_hint(self):
        """The bound takes no upper-bound hint: it is the same float
        searched cold and on the aligner's instance after the aligner
        ran, it is the aligner's tour cost, and it is the dense search's
        optimum wherever that search closes."""
        for seed in PROGRAM_SEEDS[:2]:
            for cfg, edges in procedures(seed):
                instance = build_alignment_instance(cfg, edges, ALPHA_21164)
                tour_cost = tsp_align(
                    cfg, edges, ALPHA_21164, instance=instance
                ).cost
                plain = alignment_lower_bound(cfg, edges, ALPHA_21164)
                shared = alignment_lower_bound(
                    cfg, edges, ALPHA_21164, instance=instance
                )
                assert shared == plain == tour_cost
                exact = branch_and_bound(instance.matrix, max_nodes=50_000)
                if exact.optimal:
                    assert plain == exact.cost

    def test_single_tour_cycle_cover_certifies_without_branching(
        self, diamond_cfg, monkeypatch
    ):
        """When the root matching holds no cycle of profitable arcs, its
        paths join into an optimal tour: the bound and the aligner take
        one node each and run no tour search."""
        def forbidden(*args, **kwargs):
            raise AssertionError("no search needed")

        monkeypatch.setattr(tsp_aligner, "solve_dtsp", forbidden)
        edges = EdgeProfile()
        ids = {diamond_cfg.block(b).label: b for b in diamond_cfg.block_ids}
        for src, dst, n in (
            ("entry", "left", 70), ("entry", "right", 30),
            ("left", "exit", 70), ("right", "exit", 30),
        ):
            edges.add(ids[src], ids[dst], n)
        instance = build_alignment_instance(diamond_cfg, edges, ALPHA_21164)
        obs.tracer().reset_counters()
        bound = alignment_lower_bound(diamond_cfg, edges, ALPHA_21164)
        assert obs.counters()["path_cover.nodes"] == 1
        assert bound == exact_tour(instance.matrix)[1] > 0.0
        aligned = tsp_align(diamond_cfg, edges, ALPHA_21164)
        assert obs.counters()["path_cover.nodes"] == 2
        assert aligned.cost == bound
