"""Tests for traces and the trace builder."""

import pytest

from repro.profiles import CompactTrace
from tests.profiles.trace_builder import ExecutionTrace, TraceBuilder


class TestExecutionTrace:
    def test_append_and_iterate(self):
        trace = ExecutionTrace()
        trace.append("f", 0)
        trace.extend([("f", 1), ("g", 0)])
        assert list(trace) == [("f", 0), ("f", 1), ("g", 0)]
        assert len(trace) == 3
        assert trace.procedures() == {"f", "g"}

    def test_per_procedure_transitions_no_calls(self):
        trace = ExecutionTrace([("f", 0), ("f", 1), ("f", 0), ("f", 1)])
        counts = trace.per_procedure_transitions()
        assert counts["f"][(0, 1)] == 2
        assert counts["f"][(1, 0)] == 1


class TestTraceBuilder:
    def test_nested_activations_attribute_edges_correctly(self):
        builder = TraceBuilder()
        builder.enter("main")
        builder.visit(0)
        builder.enter("callee")
        builder.visit(10)
        builder.visit(11)
        builder.leave()
        builder.visit(1)  # main block 0 -> 1, across the call
        builder.leave()
        assert builder.edge_counts["main"] == {(0, 1): 1}
        assert builder.edge_counts["callee"] == {(10, 11): 1}

    def test_recursive_activations_do_not_cross_talk(self):
        builder = TraceBuilder()
        builder.enter("f")
        builder.visit(0)
        builder.enter("f")   # recursive call
        builder.visit(0)
        builder.visit(2)
        builder.leave()
        builder.visit(1)
        builder.leave()
        assert builder.edge_counts["f"] == {(0, 2): 1, (0, 1): 1}

    def test_activation_counts(self):
        builder = TraceBuilder()
        for _ in range(3):
            builder.enter("g")
            builder.visit(0)
            builder.leave()
        assert builder.activation_counts["g"] == 3

    def test_visit_without_enter_raises(self):
        with pytest.raises(RuntimeError):
            TraceBuilder().visit(0)

    def test_leave_without_enter_raises(self):
        with pytest.raises(RuntimeError):
            TraceBuilder().leave()

    def test_max_events_caps_trace_but_not_counts(self):
        builder = TraceBuilder(max_events=2)
        builder.enter("f")
        for block in (0, 1, 2, 3):
            builder.visit(block)
        assert len(builder.trace) == 2
        assert builder.dropped_events == 2
        assert sum(builder.edge_counts["f"].values()) == 3

    def test_keep_events_false(self):
        builder = TraceBuilder(keep_events=False)
        builder.enter("f")
        builder.visit(0)
        builder.visit(1)
        assert len(builder.trace) == 0
        assert builder.edge_counts["f"] == {(0, 1): 1}

    def test_transition_log(self):
        builder = TraceBuilder(keep_transitions=True)
        builder.enter("f")
        builder.visit(0)
        builder.visit(1)
        builder.visit(0)
        assert builder.transition_log["f"] == [(0, 1), (1, 0)]


class TestCompactTrace:
    def test_roundtrip(self):
        trace = ExecutionTrace([("f", 0), ("g", 5), ("f", 1)])
        compact = CompactTrace.from_events(trace)
        assert list(compact) == list(trace)
        assert len(compact) == 3
        assert compact.procedures() == {"f", "g"}

    def test_empty(self):
        compact = CompactTrace.from_events(ExecutionTrace())
        assert list(compact) == []
