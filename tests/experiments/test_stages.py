"""Tests for the stage timer (Table 2 machinery)."""

import pytest

from repro.experiments import time_stages, worst_dataset
from repro.experiments.stages import STAGE_NAMES


class TestStages:
    def test_all_stages_timed(self):
        times = time_stages("su2", "sh", effort="quick")
        for name in STAGE_NAMES:
            assert getattr(times, name) >= 0.0
        # The stages that do real work must take measurable time.
        assert times.ir > 0
        assert times.instrumented > 0
        assert times.profiling_run > 0
        assert times.tsp_solver > 0

    def test_as_row_shape(self):
        times = time_stages("xli", "ne", effort="quick")
        row = times.as_row()
        assert row[0] == "xli"
        assert row[1] == "ne"
        # benchmark, dataset, the stage columns, and the degraded count.
        assert len(row) == 2 + len(STAGE_NAMES) + 1
        assert len(row) == len(times.HEADERS)
        assert row[-1] == len(times.degraded_procs)

    def test_worst_dataset_picks_longer_run(self):
        assert worst_dataset("su2") == "re"
        assert worst_dataset("xli") == "q7"
        assert worst_dataset("dod") == "re"
