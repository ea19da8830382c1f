"""Tests for the top-level align/lower-bound API and the TSP aligner."""

import pytest

from repro.core import (
    align_program,
    evaluate_program,
    lower_bound_program,
    tsp_align,
)
from repro.core.align import ALIGN_METHODS, AlignmentReport
from repro.core.aligners.tsp_aligner import alignment_lower_bound
from repro.machine import ALPHA_21164, UNIT_COST
from repro.profiles import EdgeProfile


class TestTspAlign:
    def test_layout_valid_and_cost_consistent(self, loop_cfg, loop_profile):
        alignment = tsp_align(loop_cfg, loop_profile["main"], ALPHA_21164)
        alignment.layout.check_against(loop_cfg)
        assert alignment.cost == pytest.approx(
            alignment.instance.layout_cost(alignment.layout)
        )

    def test_empty_profile_returns_original(self, loop_cfg):
        alignment = tsp_align(loop_cfg, EdgeProfile(), ALPHA_21164)
        assert alignment.cost == 0

    def test_bound_below_alignment(self, loop_cfg, loop_profile):
        alignment = tsp_align(loop_cfg, loop_profile["main"], ALPHA_21164)
        bound = alignment_lower_bound(
            loop_cfg, loop_profile["main"], ALPHA_21164,
            instance=alignment.instance,
        )
        assert bound <= alignment.cost + 1e-6


class TestAlignProgram:
    def test_unknown_method_rejected(self, mini_module, mini_profile):
        with pytest.raises(ValueError, match="unknown method"):
            align_program(mini_module.program, mini_profile, method="magic")

    @pytest.mark.parametrize("method", ALIGN_METHODS)
    def test_all_methods_produce_valid_layouts(
        self, mini_module, mini_profile, method
    ):
        layouts = align_program(mini_module.program, mini_profile, method=method)
        layouts.check_against(mini_module.program)

    def test_method_ordering(self, mini_module, mini_profile):
        """tsp <= greedy <= original, and the bound is below tsp."""
        program = mini_module.program
        penalties = {}
        for method in ("original", "greedy", "tsp"):
            layouts = align_program(program, mini_profile, method=method)
            penalties[method] = evaluate_program(
                program, layouts, mini_profile, ALPHA_21164
            ).total
        bound = lower_bound_program(program, mini_profile).total
        assert penalties["tsp"] <= penalties["greedy"] + 1e-6
        assert penalties["greedy"] <= penalties["original"] + 1e-6
        assert bound <= penalties["tsp"] + 1e-6

    def test_report_populated(self, mini_module, mini_profile):
        report = AlignmentReport()
        align_program(
            mini_module.program, mini_profile, method="tsp", report=report
        )
        executed = [
            name for name, profile in mini_profile.procedures.items()
            if profile.total() > 0
        ]
        for name in executed:
            assert report.cities[name] >= 2

    def test_unit_cost_model_accepted(self, mini_module, mini_profile):
        layouts = align_program(
            mini_module.program, mini_profile, method="tsp", model=UNIT_COST
        )
        layouts.check_against(mini_module.program)

    def test_deterministic_for_seed(self, mini_module, mini_profile):
        a = align_program(mini_module.program, mini_profile, method="tsp", seed=3)
        b = align_program(mini_module.program, mini_profile, method="tsp", seed=3)
        assert {k: v.order for k, v in a.items()} == {
            k: v.order for k, v in b.items()
        }
