"""Tests for the appendix statistics machinery."""

import numpy as np
import pytest

from repro.experiments import analyze_instances, esp_scale_instances
from repro.experiments.appendix import InstanceQuality


def random_instances(count, n, seed):
    rng = np.random.default_rng(seed)
    instances = []
    for i in range(count):
        m = rng.uniform(1, 100, size=(n, n))
        np.fill_diagonal(m, 0)
        instances.append((f"inst{i}", m))
    return instances


class TestInstanceQuality:
    def test_gap_properties(self):
        quality = InstanceQuality(
            name="x", cities=10, tour_cost=110.0, hk_bound=100.0,
            ap_bound=55.0, ap_is_tour=False, runs_finding_best=3,
            runs_total=4,
        )
        assert quality.hk_gap == pytest.approx(0.10)
        assert quality.ap_gap == pytest.approx(1.0)
        assert not quality.ap_tight

    def test_zero_bound_cases(self):
        quality = InstanceQuality(
            name="z", cities=3, tour_cost=0.0, hk_bound=0.0, ap_bound=0.0,
            ap_is_tour=True, runs_finding_best=1, runs_total=1,
        )
        assert quality.hk_gap == 0.0
        assert quality.ap_tight


class TestAnalyze:
    def test_statistics_computed(self):
        stats = analyze_instances(
            random_instances(5, 8, 0), effort="quick", seed=0
        )
        assert stats.n == 5
        assert 0 <= stats.ap_tight_count <= 5
        assert 0 <= stats.stable_count <= 5
        assert stats.mean_hk_gap >= 0
        assert stats.max_hk_gap >= stats.mean_hk_gap

    def test_esp_scale_instances_generated(self):
        instances = esp_scale_instances(procedures=8, seed=1)
        assert len(instances) >= 6
        for name, matrix in instances:
            assert matrix.shape[0] >= 3
            assert matrix.shape[0] == matrix.shape[1]

    def test_paper_effort_statistics_are_pinned(self):
        """The appendix study solves at full effort (no target), so its
        per-run statistics — 10 runs, how many found the best tour — and
        its certified optima stay exactly what they were."""
        instances = [
            (name, matrix)
            for name, matrix in esp_scale_instances(procedures=16, seed=7)
            if name in ("proc2", "proc5", "proc6")
        ]
        stats = analyze_instances(
            instances, effort="paper", seed=0, certify_nodes=2000
        )
        assert [
            (q.name, q.cities, q.tour_cost, q.runs_finding_best,
             q.runs_total, q.optimum)
            for q in stats.instances
        ] == [
            ("proc2", 56, 1454.0, 5, 10, 1454.0),
            ("proc5", 25, 31.0, 10, 10, 31.0),
            ("proc6", 29, 42.0, 10, 10, 42.0),
        ]
