"""Tests of the benchmark's own machinery (not of the program).

    python -m pytest bench -q
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import measure  # noqa: E402
import spec  # noqa: E402
from harness import Phase, latency_metrics  # noqa: E402
from serving_workloads import QUALITY_SEED, PayloadGenerator, Traffic  # noqa: E402
from spans import Span, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- nearest-rank percentile --------------------------------------------------


def test_percentile_of_empty_sample_raises():
    with pytest.raises(ValueError):
        measure.percentile([], 0.5)


@pytest.mark.parametrize("fraction", [0.01, 0.5, 0.99, 1.0])
def test_percentile_of_singleton_is_its_element(fraction):
    assert measure.percentile([7.25], fraction) == 7.25


def test_p99_of_1000_samples_is_the_990th_smallest():
    values = list(range(1000, 0, -1))
    assert measure.percentile(values, 0.99) == 990
    assert measure.percentile(values, 0.50) == 500


def test_pass_latencies_are_the_median_of_per_pass_percentiles():
    phase = Phase(latency_groups=[
        [1.0, 2.0, 30.0], [1.0, 3.0, 40.0], [2.0, 4.0, 50.0], [9.0, 9.0, 99.0],
    ])
    metrics = latency_metrics(phase, "cases")
    assert metrics["latency_p50_ms"][0] == 3.5
    assert metrics["latency_p90_ms"][0] == 45.0
    assert "n=12 cases in 4 passes" in metrics["latency_p50_ms"][1]


# -- client records -----------------------------------------------------------


def test_traffic_counts_failures_and_inconsistent_duplicates():
    traffic = Traffic()
    ok = {"status": "ok", "verified": True, "layouts": {"f": [0, 1]}}
    traffic.record({"seed": 1}, 10.0, 12.0, ok, None)
    traffic.record({"seed": 1}, 12.0, 13.0, dict(ok), None)
    traffic.record({"seed": 1}, 13.0, 14.0, {**ok, "layouts": {"f": [1, 0]}}, None)
    traffic.record({"seed": 2}, 14.0, 19.0, {"status": "shed"}, None)
    traffic.record({"seed": 3}, 19.0, 24.0, None, "TimeoutError: late")
    wall = measure.Timeline([], [], [])
    assert traffic.latencies_ms(wall) == [2000.0, 1000.0]
    assert traffic.attempted == 5
    assert len(traffic.errors) == 3
    assert traffic.first[1][1] is ok


# -- calibrated time ----------------------------------------------------------


def test_timeline_counts_time_at_the_sampled_speed_and_skips_pauses():
    # Samples pause [1, 2] at speed 2 and [5, 6] at speed 4: between them
    # (2..5) time runs at 3, before the first at 2 and after the last at 4.
    timeline = measure.Timeline([1.0, 5.0], [2.0, 6.0], [2.0, 4.0])
    assert timeline.seconds(2.0, 5.0) == pytest.approx(9.0)
    assert timeline.seconds(0.0, 1.0) == pytest.approx(2.0)
    assert timeline.seconds(1.0, 2.0) == pytest.approx(0.0)
    assert timeline.seconds(6.0, 7.5) == pytest.approx(6.0)
    assert timeline.seconds(0.5, 6.5) == pytest.approx(1.0 + 9.0 + 2.0)


def test_timeline_without_samples_is_wall_time():
    assert measure.Timeline([], [], []).seconds(3.0, 4.5) == 1.5


def test_speed_sampler_samples_while_active():
    with measure.SpeedSampler() as sampler:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            measure.reference_kernel()
    count = len(sampler.speeds())
    assert count >= 3
    time.sleep(0.05)
    assert len(sampler.speeds()) == count
    assert all(speed > 0 for speed in sampler.speeds())


# -- seeded inputs ------------------------------------------------------------


def test_zipf_draws_repeat_for_a_seed():
    def draws(seed):
        sampler = measure.ZipfSampler(60, 1.1, seed)
        return [sampler.draw() for _ in range(2000)]

    assert draws("zipf/1/0") == draws("zipf/1/0")
    assert draws("zipf/1/0") != draws("zipf/2/0")
    first = draws("zipf/1/0")
    assert min(first) >= 0 and max(first) < 60
    # Rank 0 is the most popular.
    assert first.count(0) == max(first.count(rank) for rank in range(60))


def test_payload_generator_is_byte_identical_for_a_seed():
    one, two = PayloadGenerator(3), PayloadGenerator(3)
    for index in (0, 1, 119, 120, 50_007):
        assert json.dumps(one.payload(index), sort_keys=True) == json.dumps(
            two.payload(index), sort_keys=True
        )
    assert one.payload(5) != PayloadGenerator(4).payload(5)
    # The requests the quality ratios come from do not depend on the seed.
    assert one.payload(5, QUALITY_SEED) == PayloadGenerator(4).payload(
        5, QUALITY_SEED
    )


def test_serve_cold_idempotency_keys_are_distinct():
    from repro.service import request_key

    generator = PayloadGenerator(1)
    keys = {request_key(generator.payload(index)) for index in range(1000)}
    assert len(keys) == 1000


# -- self time ----------------------------------------------------------------


def _span(name, start, end, parent=None):
    return Span(name=name, start=start, end=end, parent=parent)


def test_self_time_of_nested_and_overlapping_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),    # overlaps a (another thread)
        _span("a.inner", 2.0, 3.0, parent=1),
        _span("late", 9.0, 12.0, parent=0),  # runs past its parent
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_self_time_without_children_is_the_duration():
    assert self_times([_span("x", 1.5, 4.0)]) == [2.5]


# -- BENCHMARK.json -----------------------------------------------------------


def _benchmark():
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_is_rendered_from_spec():
    assert (BENCH_DIR.parent / "BENCHMARK.json").read_text() == spec.render()


def test_benchmark_json_names_units_and_limits():
    doc = _benchmark()
    assert list(doc) == [
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    ]
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert 1 <= doc["run_seconds"] <= 60
    names = [w["name"] for w in doc["workloads"]]
    metrics = doc["end_to_end"] + doc["per_layer"]
    for name in names + [m["name"] for m in metrics]:
        assert NAME.fullmatch(name), name
    assert len(set(names)) == len(names)
    assert len({m["name"] for m in metrics}) == len(metrics)
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in metrics:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for path in doc["paths"]:
        assert re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", path)
        assert not path.startswith("/") and ".." not in path.split("/")
    assert len(json.dumps(doc)) <= 64 * 1024
