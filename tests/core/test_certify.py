"""Certify-and-stop: the tsp aligner ends its search at a proven optimum,
and the bound stage returns that optimum.

The contract: the same tour *cost* as the full-effort search (a different
co-optimal tour is allowed), valid entry-first layouts, the degradation
ladder intact when the budget runs out inside the certificate, layouts
that do not depend on the assignment backend, and a certified bound that
is the optimum whatever upper bound is known.
"""

import pytest

import repro.core.aligners.tsp_aligner as tsp_aligner
import repro.tsp.assignment as assignment
from repro import obs
from repro.budget import Budget
from repro.core import build_alignment_instance
from repro.core.aligners.tsp_aligner import alignment_lower_bound, tsp_align
from repro.machine import ALPHA_21164
from repro.profiles import EdgeProfile, synthesize_profile
from repro.tsp import branch_and_bound, exact_tour, get_effort, solve_dtsp
from repro.workloads.synthetic import random_biases, random_program

PROGRAM_SEEDS = (0, 1, 2, 3)


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


def full_effort(monkeypatch):
    """Switch the stop rule off: the search runs every start in full."""
    monkeypatch.setattr(
        tsp_aligner, "_stop_rule", lambda instance, effort, timer: (None, None)
    )


class TestCertifiedSolve:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_certified_cost_equals_full_effort_cost_on_grid(self, seed):
        effort = get_effort("default")
        for cfg, edges in procedures(seed):
            instance = build_alignment_instance(cfg, edges, ALPHA_21164)
            full = solve_dtsp(instance.matrix, seed=seed)
            target, certify = tsp_aligner._stop_rule(instance, effort, None)
            certified = solve_dtsp(
                instance.matrix, seed=seed, target=target, certify=certify
            )
            assert certified.cost == pytest.approx(full.cost, rel=1e-12)
            assert sorted(certified.tour) == list(range(instance.n))

    def test_aligner_matches_full_effort_with_less_work(self, monkeypatch):
        def run():
            obs.tracer().reset_counters()
            results = [
                tsp_align(cfg, edges, ALPHA_21164, seed=3)
                for seed in PROGRAM_SEEDS
                for cfg, edges in procedures(seed)
            ]
            return results, obs.counters()

        certified, counters = run()
        with monkeypatch.context() as patch:
            full_effort(patch)
            full, full_counters = run()

        for cert, ref in zip(certified, full):
            assert cert.cost == ref.cost  # integral penalties: exact
            assert cert.degraded == "none"
            cfg_blocks = sorted(ref.layout.order)
            assert sorted(cert.layout.order) == cfg_blocks
            assert cert.layout.order[0] == ref.layout.order[0]
            assert cert.cost == cert.instance.layout_cost(cert.layout)
        assert counters["tsp.kicks"] < full_counters["tsp.kicks"]
        assert counters["tsp.runs"] < full_counters["tsp.runs"]
        assert counters["tsp.certified_ap"] > 0
        assert counters["tsp.certified_cover"] > 0
        assert counters["path_cover.nodes"] > 0
        assert "bnb.nodes" not in counters
        assert "tsp.certified_ap" not in full_counters

    def test_budget_expiring_inside_the_certificate_degrades(
        self, monkeypatch
    ):
        """The certificate polls the budget; once it has expired, the next
        start raises and the ladder takes over with the first run's tour
        among the construction candidates."""

        class Clock:
            now = 0.0

            def __call__(self):
                return self.now

        real = tsp_aligner._Certificate.__call__
        clock = Clock()
        calls = []

        def expire_then_certify(certificate, tour, cost):
            clock.now += 10.0  # the budget runs out inside the certificate
            calls.append(cost)
            assert real(certificate, tour, cost) is None
            return None

        monkeypatch.setattr(
            tsp_aligner._Certificate, "__call__", expire_then_certify
        )
        degraded = 0
        for cfg, edges in procedures(0):
            clock.now = 0.0
            timer = Budget(wall_ms=1000).start(clock=clock)
            before = len(calls)
            result = tsp_align(cfg, edges, ALPHA_21164, seed=3, budget=timer)
            assert sorted(result.layout.order) == sorted(cfg.block_ids)
            assert result.layout.order[0] == cfg.entry
            if len(calls) > before:
                degraded += 1
                assert result.degraded == "construction"
                assert "budget exhausted" in result.warning
                # The first run's tour was salvaged, so the rung is never
                # worse than it.
                assert result.cost <= calls[-1] + 1e-9
            else:
                assert result.degraded == "none"
        assert degraded > 0

    @pytest.mark.skipif(
        assignment._scipy_assignment is None, reason="needs scipy to compare"
    )
    def test_pure_assignment_backend_gives_the_same_layouts(
        self, monkeypatch
    ):
        def layouts():
            return [
                tsp_align(cfg, edges, ALPHA_21164, seed=3).layout.order
                for seed in PROGRAM_SEEDS
                for cfg, edges in procedures(seed)
            ]

        with_scipy = layouts()
        monkeypatch.setattr(assignment, "_scipy_assignment", None)
        assert assignment.resolve_assignment_backend() == "pure"
        assert layouts() == with_scipy


@pytest.mark.usefixtures("no_ambient_chaos")
class TestCertifiedBound:
    def test_bound_is_independent_of_the_upper_bound_hint(self):
        """The bound takes no upper-bound hint: it is the same float
        searched cold, on the aligner's instance after the aligner ran,
        and by the aligner's certificate whatever tour cost that is
        handed; it is never above the tour's cost, and it is the dense
        search's optimum wherever that search closes."""
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
                certify = tsp_aligner._Certificate(instance, None)
                tour = list(range(instance.n))
                assert certify(tour, tour_cost) == certify(
                    tour, float("inf")
                ) == shared == plain <= tour_cost
                exact = branch_and_bound(instance.matrix, max_nodes=50_000)
                if exact.optimal:
                    assert plain == exact.cost

    def test_single_tour_cycle_cover_certifies_without_branching(
        self, diamond_cfg, monkeypatch
    ):
        """When the root matching holds no cycle of profitable arcs, its
        paths join into an optimal tour: the bound takes one node and
        runs no tour search."""
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
