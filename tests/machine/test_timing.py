"""Tests for the trace-driven timing simulator."""

import pytest

from repro.core import align_program, evaluate_program, original_program_layout, train_predictors
from repro.machine import ALPHA_21164, DirectMappedICache
from repro.core.materialize import materialize_program
from repro.machine.timing import (
    TimingBreakdown,
    _fetch_stream,
    simulate_timing,
)
from repro.profiles.trace import CompactTrace
from tests.profiles.trace_builder import ExecutionTrace


@pytest.fixture(scope="module")
def timed(mini_module, mini_run):
    result, profile = mini_run
    program = mini_module.program
    outcomes = {}
    for method in ("original", "greedy", "tsp"):
        layouts = align_program(program, profile, method=method)
        outcomes[method] = (
            layouts,
            simulate_timing(
                program, layouts, profile, result.trace.trace, ALPHA_21164
            ),
        )
    return outcomes


class TestTiming:
    def test_breakdown_sums(self, timed):
        for _, timing in timed.values():
            assert timing.total_cycles == pytest.approx(
                timing.instruction_cycles
                + timing.control_stall_cycles
                + timing.icache_stall_cycles
            )

    def test_instruction_cycles_close_to_vm_count(self, mini_run, timed):
        """Base cycles track the VM's executed-instruction count: every body
        word issues, plus CTIs and fixups that the VM does not execute."""
        result, _ = mini_run
        _, timing = timed["original"]
        assert timing.instruction_cycles >= result.instructions_executed
        # CTI overhead is bounded by one word per executed block.
        assert timing.instruction_cycles <= (
            result.instructions_executed + 2 * result.blocks_executed
        )

    def test_alignment_reduces_cycles(self, timed):
        original = timed["original"][1].total_cycles
        greedy = timed["greedy"][1].total_cycles
        tsp = timed["tsp"][1].total_cycles
        assert tsp <= greedy <= original

    def test_stalls_less_than_full_penalties(
        self, mini_module, mini_run, timed
    ):
        """Control stalls exclude jump issue cycles, so they are bounded by
        the full §2.2 penalty."""
        result, profile = mini_run
        program = mini_module.program
        layouts, timing = timed["original"]
        penalty = evaluate_program(program, layouts, profile, ALPHA_21164)
        assert timing.control_stall_cycles <= penalty.total + 1e-9

    def test_icache_stats_populated(self, timed):
        _, timing = timed["original"]
        assert timing.icache_accesses > 0
        assert timing.icache_misses >= 1  # at least the cold misses

    def test_small_cache_misses_more(self, mini_module, mini_run):
        result, profile = mini_run
        program = mini_module.program
        layouts = original_program_layout(program)
        predictors = train_predictors(program, profile)
        big = simulate_timing(
            program, layouts, profile, result.trace.trace, ALPHA_21164,
            predictors=predictors, icache=DirectMappedICache(8192, 32),
        )
        small = simulate_timing(
            program, layouts, profile, result.trace.trace, ALPHA_21164,
            predictors=predictors, icache=DirectMappedICache(256, 32),
        )
        assert small.icache_misses >= big.icache_misses


class TestFetchStreamFastPath:
    """The vectorized CompactTrace icache replay must match the scalar
    event loop exactly — same breakdown, same cache state."""

    @pytest.mark.parametrize("method", ["original", "greedy", "tsp"])
    def test_compact_trace_matches_event_loop(
        self, mini_module, mini_run, method
    ):
        result, profile = mini_run
        program = mini_module.program
        layouts = align_program(program, profile, method=method)
        predictors = train_predictors(program, profile)
        # The VM's trace is already a CompactTrace; unpack it so the scalar
        # side really runs the event loop.
        trace = ExecutionTrace(list(result.trace.trace))
        compact = CompactTrace.from_events(trace)
        scalar_cache = DirectMappedICache(8192, 32)
        fast_cache = DirectMappedICache(8192, 32)
        scalar = simulate_timing(
            program, layouts, profile, trace, ALPHA_21164,
            predictors=predictors, icache=scalar_cache,
        )
        fast = simulate_timing(
            program, layouts, profile, compact, ALPHA_21164,
            predictors=predictors, icache=fast_cache,
        )
        assert fast == scalar
        assert fast_cache._tags == scalar_cache._tags

    def test_fetch_stream_matches_scalar_order(self, mini_module, mini_run):
        """_fetch_stream splices inline fixup fetches exactly where the
        scalar loop issues them."""
        result, profile = mini_run
        program = mini_module.program
        layouts = align_program(program, profile, method="original")
        predictors = train_predictors(program, profile)
        materialized = materialize_program(program, layouts, predictors)
        trace = result.trace.trace
        expected = []
        last = None
        for proc_name, block_id in trace:
            physical = materialized[proc_name]
            if last is not None and last[0] == proc_name:
                previous = physical.block_for(last[1])
                if previous.fixup_target == block_id:
                    fixup = physical.fixup_after(last[1])
                    if fixup is not None:
                        expected.append((fixup.address, fixup.words))
            physical_block = physical.block_for(block_id)
            expected.append((physical_block.address, physical_block.words))
            last = (proc_name, block_id)
        stream = _fetch_stream(materialized, CompactTrace.from_events(trace))
        assert stream is not None
        addresses, words = stream
        assert list(zip(addresses.tolist(), words.tolist())) == expected

    def test_unknown_block_falls_back_to_scalar(self, mini_module, mini_run):
        result, profile = mini_run
        program = mini_module.program
        layouts = align_program(program, profile, method="original")
        predictors = train_predictors(program, profile)
        materialized = materialize_program(program, layouts, predictors)
        trace = ExecutionTrace()
        for event in mini_run[0].trace.trace:
            trace.append(*event)
        trace.append(next(iter(trace))[0], 10_000)  # block id out of range
        assert _fetch_stream(materialized, CompactTrace.from_events(trace)) is None
