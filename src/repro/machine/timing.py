"""Trace-driven execution-time simulation.

This is the repo's substitute for the paper's AlphaStation wall-clock runs
(§3, §4).  Simulated time decomposes as:

    cycles = instruction issue cycles            (1 per executed word,
                                                  including CTIs and fixups)
           + control stall cycles                (misfetch / mispredict
                                                  stalls under the penalty
                                                  model — the paper's
                                                  "control penalties" minus
                                                  the jump issue cycles,
                                                  which are already in the
                                                  first term)
           + instruction-cache miss stalls       (direct-mapped I-cache over
                                                  the laid-out fetch stream)

The third term is deliberately *not* part of the alignment cost model —
reproducing the paper's finding that layouts shift cache behaviour in ways
the control-penalty model does not see ("good branch alignments also appear
to be good for caching", §4.1).

The I-cache term is counted in closed form when it can be: for a
:class:`~repro.profiles.trace.CompactTrace` whose touched lines map to
distinct slots of a :class:`DirectMappedICache`, each slot only ever holds
one line, so the misses are the touched lines whose slot held another tag
on entry, and the accesses follow from per-block visit counts and
per-(block, next block) event-pair counts.  Those counts depend only on the
trace, so they are taken once per trace and shared by every layout timed
over it.  When two touched lines share a slot — or the trace is a plain
event iterable, or the cache another type — the fetch stream is replayed
instead: vectorised for a compact trace, event by event otherwise.  Both
paths give the same stats and the same final tags.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro import obs
from repro.cfg.graph import Program
from repro.core.costmodel import successor_counts, terminator_cost
from repro.core.evaluate import train_predictors
from repro.core.layout import ProgramLayout
from repro.core.materialize import MaterializedProgram, materialize_program
from repro.machine.icache import DirectMappedICache
from repro.machine.models import PenaltyModel
from repro.machine.predictors import StaticPredictor
from typing import Iterable

from repro.profiles.edge_profile import ProgramProfile
from repro.profiles.trace import CompactTrace


@dataclass
class TimingBreakdown:
    """Simulated cycles by mechanism."""

    instruction_cycles: float = 0.0
    control_stall_cycles: float = 0.0
    icache_stall_cycles: float = 0.0
    icache_accesses: int = 0
    icache_misses: int = 0

    @property
    def total_cycles(self) -> float:
        return (
            self.instruction_cycles
            + self.control_stall_cycles
            + self.icache_stall_cycles
        )


def _stall_model(model: PenaltyModel) -> PenaltyModel:
    """The penalty model with the unconditional-jump *issue* cycle removed
    (it is counted in instruction cycles during timing simulation)."""
    return replace(model, unconditional=max(model.unconditional - 1.0, 0.0))


def simulate_timing(
    program: Program,
    layouts: ProgramLayout,
    profile: ProgramProfile,
    trace: Iterable[tuple[str, int]],
    model: PenaltyModel,
    *,
    predictors: dict[str, StaticPredictor] | None = None,
    icache: DirectMappedICache | None = None,
    materialized: MaterializedProgram | None = None,
) -> TimingBreakdown:
    """Simulate one run's execution time under a layout.

    ``profile`` and ``trace`` describe the *testing* run being timed;
    ``predictors`` (trained on the *training* profile) define both the
    static predictions and the fixup directions baked into the binary.

    ``icache`` (a fresh 8 KiB direct-mapped cache by default) is updated
    in place and may start warm.  Its fetches are counted in closed form
    (stable counter ``timing.closed_form``) when ``trace`` is a
    :class:`CompactTrace`, ``icache`` a :class:`DirectMappedICache` and no
    two lines the layout's executed code touches share a cache slot; then
    no fetch order can evict anything, so the count is exact for any entry
    state.  Otherwise the fetch stream is replayed (``timing.replays``).
    """
    if predictors is None:
        predictors = train_predictors(program, profile)
    if materialized is None:
        materialized = materialize_program(program, layouts, predictors)
    if icache is None:
        icache = DirectMappedICache()

    breakdown = TimingBreakdown()
    stall_model = _stall_model(model)

    for proc in program:
        edge_profile = profile.procedures.get(proc.name)
        if edge_profile is None:
            continue
        physical = materialized[proc.name]
        blocks = proc.cfg
        # Instruction issue cycles: executed words per block visit, plus
        # one word per execution of each fixup jump.
        visits: dict[int, int] = {}
        for (src, dst), count in edge_profile.counts.items():
            visits[dst] = visits.get(dst, 0) + count
        entry_visits = profile.call_counts.get(proc.name, 0)
        visits[blocks.entry] = visits.get(blocks.entry, 0) + entry_visits
        for block_id, count in visits.items():
            breakdown.instruction_cycles += count * physical.block_for(block_id).words
        for block_id in blocks.block_ids:
            physical_block = physical.block_for(block_id)
            if physical_block.fixup_target is not None:
                breakdown.instruction_cycles += edge_profile.count(
                    block_id, physical_block.fixup_target
                )
        # Control stalls (analytic — exact for static prediction).
        successor_map = layouts[proc.name].successor_map()
        predictor = predictors[proc.name]
        for block in blocks:
            counts = successor_counts(edge_profile.counts, block)
            if not counts:
                continue
            breakdown.control_stall_cycles += terminator_cost(
                block,
                counts,
                predictor.predict(block.block_id),
                successor_map[block.block_id],
                stall_model,
            ).total

    # Instruction-cache accounting over the laid-out fetch stream.  Fixup
    # jumps are fetched inline: when block b1 is followed (same procedure)
    # by its fixup's target, the fall-through ran through the fixup block
    # first.  A compact trace over conflict-free lines is counted in closed
    # form; anything else is replayed fetch by fetch.
    compact = isinstance(trace, CompactTrace) and type(icache) is DirectMappedICache
    if compact and _closed_form(materialized, trace, icache):
        obs.count("timing.closed_form")
    else:
        obs.count("timing.replays")
        stream = _fetch_stream(materialized, trace) if compact else None
        if stream is not None:
            icache.replay(*stream)
        else:
            last: tuple[str, int] | None = None
            for proc_name, block_id in trace:
                physical = materialized[proc_name]
                if last is not None and last[0] == proc_name:
                    previous = physical.block_for(last[1])
                    if previous.fixup_target == block_id:
                        fixup = physical.fixup_after(last[1])
                        if fixup is not None:
                            icache.fetch(fixup.address, fixup.words)
                physical_block = physical.block_for(block_id)
                icache.fetch(physical_block.address, physical_block.words)
                last = (proc_name, block_id)

    breakdown.icache_accesses = icache.stats.accesses
    breakdown.icache_misses = icache.stats.misses
    breakdown.icache_stall_cycles = icache.stats.misses * model.icache_miss_cycles
    return breakdown


@dataclass(frozen=True)
class _TraceTables:
    """What the I-cache accounting needs of a trace, whatever the layout.

    A (procedure index, block id) pair is numbered ``proc * stride + block``.
    """

    stride: int
    #: ``(procedure index, block id, visits)`` per distinct executed block.
    visits: list[tuple[int, int, int]]
    #: ``(procedure index, block id, next block id) -> count`` over pairs of
    #: consecutive trace events in the same procedure.
    pairs: dict[tuple[int, int, int], int]


def _trace_tables(trace: CompactTrace) -> _TraceTables:
    """The trace's :class:`_TraceTables`, counted once and memoized on the
    trace: every method timed over one testing run shares them."""
    tables = getattr(trace, "_timing_tables", None)
    if tables is not None:
        return tables
    procs = trace.proc_indices.astype(np.int64)
    blocks = trace.block_ids.astype(np.int64)
    stride = int(blocks.max()) + 1 if blocks.size else 1
    keys = procs * stride + blocks
    counts = np.bincount(keys)
    visited = np.flatnonzero(counts)
    # Dense ids over the visited blocks keep the pair codes below
    # visited.size ** 2, however sparse the block numbering is.
    dense = np.zeros(counts.size, dtype=np.int64)
    dense[visited] = np.arange(visited.size)
    ids = dense[keys]
    same_proc = procs[1:] == procs[:-1]
    codes, pair_counts = np.unique(
        ids[:-1][same_proc] * visited.size + ids[1:][same_proc],
        return_counts=True,
    )
    src, dst = np.divmod(codes, visited.size)
    tables = _TraceTables(
        stride=stride,
        visits=[
            (key // stride, key % stride, count)
            for key, count in zip(visited.tolist(), counts[visited].tolist())
        ],
        pairs={
            (key // stride, key % stride, next_key % stride): count
            for key, next_key, count in zip(
                visited[src].tolist(), visited[dst].tolist(), pair_counts.tolist()
            )
        },
    )
    trace._timing_tables = tables
    return tables


def _closed_form(
    materialized: MaterializedProgram,
    trace: CompactTrace,
    icache: DirectMappedICache,
) -> bool:
    """Count the trace's I-cache accesses and misses without replaying it.

    Accesses are the visits of each block times the lines it spans, plus,
    for each block with a fixup, the consecutive same-procedure (block,
    fixup target) events times the fixup's lines — the events at which the
    replay fetches that fixup.  The touched lines are the union of those
    ranges, and :meth:`DirectMappedICache.account` counts their misses
    exactly when no two share a slot.  Returns ``False``, with the cache
    untouched, when two do or when a trace event names a block the layout
    lacks; the caller then replays.
    """
    tables = _trace_tables(trace)
    procs = [materialized[name] for name in trace.proc_names]
    shift = icache.line_bytes.bit_length() - 1

    def lines(block) -> range:
        if block.words <= 0:
            return range(0)
        first = block.address >> shift
        return range(first, ((block.end_address - 1) >> shift) + 1)

    accesses = 0
    touched: set[int] = set()
    for proc_index, block_id, visits in tables.visits:
        proc = procs[proc_index]
        block = proc._by_source.get(block_id)
        if block is None:
            return False
        span = lines(block)
        accesses += visits * len(span)
        touched.update(span)
        if block.fixup_target is None:
            continue
        fetches = tables.pairs.get((proc_index, block_id, block.fixup_target))
        fixup = proc.fixup_after(block_id) if fetches else None
        if fixup is not None:
            span = lines(fixup)
            accesses += fetches * len(span)
            touched.update(span)
    return icache.account(touched, accesses) is not None


def _fetch_stream(
    materialized: MaterializedProgram, trace: CompactTrace
) -> tuple[np.ndarray, np.ndarray] | None:
    """The trace's fetch stream as (addresses, words) arrays.

    Builds flat per-(procedure, block) lookup tables — address, words, and
    the inline-fixup triple — numbered as in :class:`_TraceTables`, then
    resolves every trace event with one gather, splicing fixup fetches in
    front of the event that revealed them (same semantics as the scalar
    loop in :func:`simulate_timing`).  Returns ``None`` when a trace event
    falls outside the tables (the scalar path then reports the usual
    ``KeyError``).
    """
    if trace.block_ids.size == 0:
        empty = trace.block_ids.astype(np.int64)
        return empty, empty
    tables = _trace_tables(trace)
    procs = [materialized[name] for name in trace.proc_names]
    if any(
        block_id not in procs[proc_index]._by_source
        for proc_index, block_id, _ in tables.visits
    ):
        return None
    stride = tables.stride
    total = len(procs) * stride
    table_addr = np.zeros(total, dtype=np.int64)
    table_words = np.zeros(total, dtype=np.int64)
    table_fix_target = np.full(total, -1, dtype=np.int64)
    table_fix_addr = np.zeros(total, dtype=np.int64)
    table_fix_words = np.zeros(total, dtype=np.int64)
    for index, proc in enumerate(procs):
        base = index * stride
        for block_id, block in proc._by_source.items():
            if block_id >= stride:
                continue  # never executed
            at = base + block_id
            table_addr[at] = block.address
            table_words[at] = block.words
            if block.fixup_target is not None:
                fixup = proc.fixup_after(block_id)
                if fixup is not None:
                    table_fix_target[at] = block.fixup_target
                    table_fix_addr[at] = fixup.address
                    table_fix_words[at] = fixup.words
    proc_indices = trace.proc_indices
    block_ids = trace.block_ids.astype(np.int64)
    gids = proc_indices.astype(np.int64) * stride + block_ids
    same_proc = proc_indices[1:] == proc_indices[:-1]
    # A fixup is fetched between events i and i+1 when both are in the same
    # procedure and event i's fixup jumps to event i+1's block.
    prev_gids = gids[:-1]
    inline = same_proc & (table_fix_target[prev_gids] == block_ids[1:])
    fixup_count = int(np.count_nonzero(inline))
    if not fixup_count:
        return table_addr[gids], table_words[gids]
    n = gids.size
    event_pos = np.arange(n, dtype=np.int64)
    event_pos[1:] += np.cumsum(inline)
    addresses = np.empty(n + fixup_count, dtype=np.int64)
    words = np.empty(n + fixup_count, dtype=np.int64)
    addresses[event_pos] = table_addr[gids]
    words[event_pos] = table_words[gids]
    fix_pos = event_pos[1:][inline] - 1
    fix_gids = prev_gids[inline]
    addresses[fix_pos] = table_fix_addr[fix_gids]
    words[fix_pos] = table_fix_words[fix_gids]
    return addresses, words
