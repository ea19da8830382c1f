"""The Tracer: spans, counters, sinks, and the worker merge protocol."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs import Tracer


@pytest.fixture(autouse=True)
def _fresh_tracer(monkeypatch):
    monkeypatch.delenv(obs.TRACE_ENV, raising=False)
    obs.reset_tracer()
    yield
    obs.reset_tracer()


class TestSpans:
    def test_span_times_without_a_sink(self):
        tracer = Tracer()
        with tracer.span("work", proc="p") as sp:
            pass
        assert sp.dur_ms >= 0.0
        assert sp["proc"] == "p"
        assert not tracer.active

    def test_attrs_mutable_until_close(self):
        tracer = Tracer()
        with tracer.collect() as events:
            with tracer.span("work") as sp:
                sp["cities"] = 12
        assert events[0]["attrs"] == {"cities": 12}

    def test_nesting_links_parent_ids(self):
        tracer = Tracer()
        with tracer.collect() as events:
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
        # Close order: inner is emitted first.
        inner, outer = events[0], events[1]
        assert inner["name"] == "inner"
        assert inner["parent_id"] == outer["span_id"]
        assert outer["parent_id"] is None

    def test_span_events_are_schema_valid(self):
        tracer = Tracer()
        with tracer.collect() as events:
            with tracer.span("work", mode="exact", cities=3):
                pass
        assert obs.validate_event(events[0]) == []


class TestCounters:
    def test_count_accumulates_and_gauge_overwrites(self):
        tracer = Tracer()
        tracer.count("hits")
        tracer.count("hits", 2)
        tracer.gauge("depth", 7)
        tracer.gauge("depth", 3)
        assert tracer.counters() == {"depth": 3, "hits": 3}

    def test_once_unstable_always_unstable(self):
        tracer = Tracer()
        tracer.count("mixed", stable=False)
        tracer.count("mixed", stable=True)
        assert tracer.counters(stable_only=True) == {}
        assert tracer.counters() == {"mixed": 2}

    def test_counter_events_are_schema_valid(self):
        tracer = Tracer()
        tracer.count("a.b", 4, stable=False)
        (event,) = tracer.counter_events()
        assert obs.validate_event(event) == []
        assert event["stable"] is False


class TestCollectAbsorb:
    def test_collect_captures_spans_and_counter_deltas(self):
        tracer = Tracer()
        tracer.count("pre", 10)  # pre-existing total: not a delta
        with tracer.collect() as events:
            with tracer.span("work"):
                tracer.count("pre", 2)
                tracer.count("fresh", 1)
        kinds = [e["type"] for e in events]
        assert kinds.count("span") == 1
        deltas = {e["name"]: e["value"] for e in events
                  if e["type"] == "counter"}
        assert deltas == {"pre": 2, "fresh": 1}

    def test_collect_ships_touched_counters_with_zero_deltas(self):
        """A counter touched with 0 exists after serial work, so it must
        ship from a worker too — even when an earlier task in the same
        worker already created it — while untouched counters stay home."""
        worker = Tracer()
        worker.count("exttsp.splits", 0)  # an earlier task in this worker
        worker.count("untouched", 4)
        with worker.collect() as shipped:
            worker.count("exttsp.splits", 0)
            worker.count("exttsp.merge_kept", 0)
        deltas = {e["name"]: e["value"] for e in shipped
                  if e["type"] == "counter"}
        assert deltas == {"exttsp.merge_kept": 0, "exttsp.splits": 0}

        serial = Tracer()
        serial.count("exttsp.splits", 0)
        serial.count("exttsp.merge_kept", 0)
        parent = Tracer()
        parent.absorb(shipped)
        assert parent.counters() == serial.counters()

    def test_nested_collect_reports_inner_touches_outward(self):
        tracer = Tracer()
        with tracer.collect() as outer:
            with tracer.collect() as inner:
                tracer.count("tsp.kicks", 0)
        for events in (inner, outer):
            assert [e["name"] for e in events if e["type"] == "counter"] == [
                "tsp.kicks"
            ]

    def test_absorb_merges_stable_and_drops_unstable_counters(self):
        worker = Tracer()
        with worker.collect() as shipped:
            worker.count("tsp.runs", 3)
            worker.count("cache.align.hits", 5, stable=False)
        parent = Tracer()
        parent.absorb(shipped)
        assert parent.counters() == {"tsp.runs": 3}

    def test_absorb_reanchors_orphan_parents(self):
        """A worker's root span carries whatever parent link the worker
        process inherited at fork time; absorb re-points it at the span
        open in the parent right now (the executor's batch span)."""
        worker = Tracer()
        with worker.span("stale-ancestor"):  # inherited pre-fork stack
            with worker.collect() as shipped:
                with worker.span("root"):
                    with worker.span("child"):
                        pass
        parent = Tracer()
        with parent.collect() as merged:
            with parent.span("executor:batch") as batch:
                parent.absorb(shipped)
        by_name = {e["name"]: e for e in merged if e["type"] == "span"}
        assert by_name["root"]["parent_id"] == batch.span_id
        # Intra-batch links survive untouched.
        assert by_name["child"]["parent_id"] == by_name["root"]["span_id"]

    def test_absorb_without_trace_still_merges_counters(self):
        worker = Tracer()
        with worker.collect() as shipped:
            with worker.span("work"):
                worker.count("tsp.kicks", 9)
        parent = Tracer()  # inactive: no sink, no collect
        parent.absorb(shipped)
        assert parent.counters() == {"tsp.kicks": 9}

    def test_absorb_none_is_a_no_op(self):
        parent = Tracer()
        parent.absorb(None)
        parent.absorb([])
        assert parent.counters() == {}


class TestSink:
    def test_trace_file_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer()
        tracer.open_sink(path, label="unit test")
        with tracer.span("work", proc="p"):
            tracer.count("tsp.runs")
        tracer.close_sink()
        events = obs.load_trace(path)
        assert obs.validate_trace_lines(
            path.read_text().splitlines()) == []
        types = [e["type"] for e in events]
        assert types[0] == "meta" and events[0]["label"] == "unit test"
        assert "span" in types and "counter" in types

    def test_open_sink_scopes_counters_to_the_trace(self, tmp_path):
        tracer = Tracer()
        tracer.count("tsp.runs", 99)  # pre-trace activity
        tracer.open_sink(tmp_path / "t.jsonl")
        tracer.count("tsp.runs", 1)
        tracer.close_sink()
        counters = [e for e in obs.load_trace(tmp_path / "t.jsonl")
                    if e["type"] == "counter"]
        assert counters == [
            {"v": obs.SCHEMA_VERSION, "type": "counter",
             "name": "tsp.runs", "value": 1, "stable": True}
        ]

    def test_write_failure_silently_disables_tracing(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer()
        tracer.open_sink(path)
        tracer._sink._fd = -1  # simulate the fd going bad (EBADF)
        with tracer.span("work"):
            pass
        tracer.close_sink()  # must not raise

    def test_start_trace_reads_environment(self, tmp_path, monkeypatch):
        assert obs.start_trace(None) is False
        monkeypatch.setenv(obs.TRACE_ENV, "off")
        assert obs.start_trace(None) is False
        target = tmp_path / "env.jsonl"
        monkeypatch.setenv(obs.TRACE_ENV, str(target))
        assert obs.start_trace(None, label="from env") is True
        obs.finish_trace()
        assert obs.load_trace(target)[0]["label"] == "from env"

    def test_explicit_path_beats_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(obs.TRACE_ENV, str(tmp_path / "env.jsonl"))
        explicit = tmp_path / "explicit.jsonl"
        assert obs.start_trace(explicit) is True
        obs.finish_trace()
        assert explicit.exists()
        assert not (tmp_path / "env.jsonl").exists()


class TestSummarize:
    def test_summary_sections_from_raw_events(self):
        tracer = Tracer()
        with tracer.collect() as events:
            with tracer.span("case", benchmark="com"):
                with tracer.span("tsp_run", start="greedy"):
                    tracer.count("tsp.kicks", 4)
                with tracer.span("tsp_run", start="random"):
                    tracer.count("cache.align.hits", 1, stable=False)
        text = obs.summarize_events(events)
        assert "Per-stage timing (span rollup)" in text
        assert "Span tree" in text
        assert "tsp_run" in text and "case" in text
        assert "tsp.kicks" in text and "stable" in text
        assert "per-process" in text

    def test_summarize_trace_rejects_schema_violations(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"v": 1, "type": "span"}) + "\n")
        with pytest.raises(ValueError, match="schema problem"):
            obs.summarize_trace(path)

    def test_tree_rollup_handles_missing_parents(self):
        rows = obs.span_tree_rollup([
            {"name": "b", "span_id": "x-2", "parent_id": "gone",
             "dur_ms": 1.0},
        ])
        assert rows == [("b", 1, 1.0)]
