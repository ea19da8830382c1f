"""Tests for the trace-driven timing simulator."""

import copy
import random

import pytest

from repro import obs
from repro.core import align_program, evaluate_program, original_program_layout, train_predictors
from repro.experiments.runner import DEFAULT_METHODS, profiled_run, run_case
from repro.machine import ALPHA_21164, DirectMappedICache
from repro.core.materialize import materialize_program
from repro.machine import timing as timing_mod
from repro.machine.timing import (
    TimingBreakdown,
    _closed_form,
    _fetch_stream,
    simulate_timing,
)
from repro.profiles.edge_profile import ProgramProfile
from repro.profiles.synthesize import walk_cfg
from repro.profiles.trace import CompactTrace
from repro.workloads.suite import compile_benchmark
from repro.workloads.synthetic import random_biases, random_program
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

    @pytest.mark.parametrize(
        "method, size",
        [
            pytest.param(method, size, id=method if size == 8192 else f"{method}-{size}B")
            for size in (8192, 256)
            for method in ("original", "greedy", "tsp")
        ],
    )
    def test_compact_trace_matches_event_loop(
        self, mini_module, mini_run, method, size
    ):
        """The scalar loop is the oracle for both compact-trace paths: the
        closed form where the touched lines cannot conflict (8 KiB) and
        the vectorised replay where they can (256 B)."""
        result, profile = mini_run
        program = mini_module.program
        layouts = align_program(program, profile, method=method)
        predictors = train_predictors(program, profile)
        # The VM's trace is already a CompactTrace; unpack it so the scalar
        # side really runs the event loop.
        trace = ExecutionTrace(list(result.trace.trace))
        compact = CompactTrace.from_events(trace)
        scalar_cache = DirectMappedICache(size, 32)
        fast_cache = DirectMappedICache(size, 32)
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


# -- the closed form against the replay -------------------------------------

CACHE_SIZES = (128, 256, 512, 1024, 8192)


def _interleaved_walks(program, seed: int, walks: int = 30):
    """A profile and a trace of random walks over every procedure, the
    walks interleaved a few events at a time the way calls interleave
    activations, so some (block, fixup target) pairs are split by another
    procedure's events and their fixups are never fetched."""
    rng = random.Random(seed)
    biases = random_biases(program, seed + 1)
    profile = ProgramProfile()
    pending = []
    for proc in program:
        profile.call_counts[proc.name] = walks
        edges = profile.profile(proc.name)
        for _ in range(walks):
            path = walk_cfg(proc.cfg, biases[proc.name], rng, max_steps=300)
            for src, dst in zip(path, path[1:]):
                edges.add(src, dst)
            pending.append([proc.name, path])
    events = []
    while pending:
        walk = rng.choice(pending)
        step = rng.randint(1, 6)
        events.extend((walk[0], block_id) for block_id in walk[1][:step])
        walk[1] = walk[1][step:]
        if not walk[1]:
            pending.remove(walk)
    return profile, CompactTrace.from_events(events)


@pytest.fixture(
    scope="module",
    params=[("su2", "sh"), ("xli", "ne"), ("dod", "sm"), 3, 11],
    ids=lambda p: ".".join(p) if isinstance(p, tuple) else f"random{p}",
)
def subject(request):
    """(program, training profile, testing profile and trace, layouts per
    method) for a suite case (train = test) or a random program, trained
    on other walks so that its layouts keep some fixups."""
    if isinstance(request.param, tuple):
        run = profiled_run(*request.param)
        program = compile_benchmark(request.param[0]).program
        train = profile = run.profile
        trace = run.trace
    else:
        program = random_program(
            procedures=5, seed=request.param, max_blocks=40
        )
        train, _ = _interleaved_walks(program, request.param + 100)
        profile, trace = _interleaved_walks(program, request.param)
    layouts = {
        method: align_program(program, train, method=method, jobs=1)
        for method in DEFAULT_METHODS
    }
    return program, train, profile, trace, layouts


def _prewarmed(size: int, materialized, trace) -> DirectMappedICache:
    icache = DirectMappedICache(size, 32)
    icache.replay(*_fetch_stream(materialized, trace))
    icache.stats.accesses = icache.stats.misses = 0
    return icache


class TestClosedForm:
    """The closed-form I-cache count must agree with the vectorised replay
    bit for bit wherever it applies, and apply exactly where no two
    touched lines share a slot."""

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_matches_replay(self, subject, warm, monkeypatch):
        program, train, profile, trace, layouts = subject
        predictors = train_predictors(program, train)
        # A warm cache holds the original layout's lines: a different
        # layout of the same code, so some slots hit and some miss.
        original = materialize_program(
            program, layouts["original"], predictors
        )
        for method, layout in layouts.items():
            materialized = materialize_program(program, layout, predictors)
            addresses, words = _fetch_stream(materialized, trace)
            for size in CACHE_SIZES:
                def cache():
                    if warm:
                        return _prewarmed(size, original, trace)
                    return DirectMappedICache(size, 32)

                where = f"{method} @ {size} B"
                closed_cache, replay_cache = cache(), cache()
                closed = simulate_timing(
                    program, layout, profile, trace, ALPHA_21164,
                    predictors=predictors, icache=closed_cache,
                )
                with monkeypatch.context() as patch:
                    patch.setattr(timing_mod, "_closed_form", lambda *a: False)
                    replayed = simulate_timing(
                        program, layout, profile, trace, ALPHA_21164,
                        predictors=predictors, icache=replay_cache,
                    )
                assert closed == replayed, where
                assert closed_cache._tags == replay_cache._tags, where

                # It applies iff the replayed stream's lines are
                # conflict-free, and a decline leaves the cache untouched.
                probe = cache()
                before = (copy.copy(probe._tags), copy.copy(probe.stats))
                lines = set()
                for address, count in zip(addresses.tolist(), words.tolist()):
                    if count > 0:
                        lines.update(
                            range(address // 32, (address + 4 * count - 1) // 32 + 1)
                        )
                distinct = len({line % probe.num_lines for line in lines})
                taken = _closed_form(materialized, trace, probe)
                assert taken == (distinct == len(lines)), where
                if not taken:
                    assert (probe._tags, probe.stats) == before, where

    def test_declines_on_conflicting_suite_lines(self):
        """At 128 B (four lines) every suite layout's touched lines
        conflict: the closed form declines and the cache stays empty."""
        run = profiled_run("su2", "sh")
        program = compile_benchmark("su2").program
        predictors = train_predictors(program, run.profile)
        for method in DEFAULT_METHODS:
            layout = align_program(program, run.profile, method=method, jobs=1)
            materialized = materialize_program(program, layout, predictors)
            icache = DirectMappedICache(128, 32)
            assert not _closed_form(materialized, run.trace, icache), method
            assert icache._tags == [None] * 4
            assert icache.stats.accesses == icache.stats.misses == 0

    def test_tables_are_memoized_on_the_trace(self, mini_module, mini_run):
        result, profile = mini_run
        program = mini_module.program
        trace = CompactTrace.from_events(result.trace.trace)
        tables = []
        for method in ("original", "tsp"):
            layouts = align_program(program, profile, method=method)
            simulate_timing(program, layouts, profile, trace, ALPHA_21164)
            tables.append(trace._timing_tables)
        assert tables[0] is tables[1]


class TestTimingCounters:
    def test_suite_case_counts_only_closed_forms(self, no_ambient_chaos):
        with obs.tracer().collect() as events:
            run_case("su2", "sh", compute_bound=False)
        counters = {
            e["name"]: e["value"] for e in events if e["type"] == "counter"
        }
        assert counters.get("timing.closed_form") == len(DEFAULT_METHODS)
        assert counters.get("timing.replays", 0) == 0

    def test_small_cache_counts_a_replay(self, mini_module, mini_run):
        result, profile = mini_run
        program = mini_module.program
        layouts = original_program_layout(program)
        with obs.tracer().collect() as events:
            simulate_timing(
                program, layouts, profile, result.trace.trace, ALPHA_21164,
                icache=DirectMappedICache(128, 32),
            )
        counters = {
            e["name"]: e["value"] for e in events if e["type"] == "counter"
        }
        assert counters == {"timing.replays": 1}
