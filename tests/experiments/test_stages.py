"""Tests for the stage timer (Table 2 machinery)."""

import pytest

from repro import obs
from repro.experiments import time_stages, worst_dataset
from repro.faults import inject_faults
from repro.experiments.stages import STAGE_NAMES


class TestStages:
    def test_all_stages_timed(self):
        times = time_stages("su2", "sh")
        for name in STAGE_NAMES:
            assert getattr(times, name) >= 0.0
        # The stages that do real work must take measurable time.
        assert times.ir > 0
        assert times.instrumented > 0
        assert times.profiling_run > 0
        assert times.tsp_solver > 0

    def test_as_row_shape(self):
        times = time_stages("xli", "ne")
        row = times.as_row()
        assert row[0] == "xli"
        assert row[1] == "ne"
        # benchmark, dataset, the stage columns, and the degraded count.
        assert len(row) == 2 + len(STAGE_NAMES) + 1
        assert len(row) == len(times.HEADERS)
        assert row[-1] == len(times.degraded_procs)

    @pytest.mark.usefixtures("no_ambient_chaos")
    def test_tsp_solver_column_runs_the_aligner(self):
        """The column times the tsp aligner the pipeline ships: a clean
        run degrades nothing and runs no 3-Opt, and a faulted solver
        sends procedures down the aligner's ladder."""
        obs.tracer().reset_counters()
        assert time_stages("com", "st").degraded_procs == []
        counters = obs.counters()
        assert counters["path_cover.nodes"] > 0
        assert "tsp.runs" not in counters
        with inject_faults(solver_timeout=True):
            assert time_stages("com", "st").degraded_procs

    def test_worst_dataset_picks_longer_run(self):
        assert worst_dataset("su2") == "re"
        assert worst_dataset("xli") == "q7"
        assert worst_dataset("dod") == "re"
