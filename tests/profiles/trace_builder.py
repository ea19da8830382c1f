"""Test-only event-list traces and the shadow-stack trace builder.

The VM derives its trace products (edge, block, activation and call-pair
counts, transition log) from its block and resume records in
:meth:`repro.lang.vm.Instrumented.derive`, and its trace is a
:class:`~repro.profiles.trace.CompactTrace`.  :class:`TraceBuilder` is the
direct, event-at-a-time statement of the same counting rule, and
:class:`ExecutionTrace` the plain event list it builds: kept to build small
traces by hand, to cross-check profiles, and as the non-compact trace
that drives ``simulate_timing``'s scalar event loop.  Nothing under
``src/`` imports them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator


@dataclass
class ExecutionTrace:
    """Block-granularity execution trace of one program run."""

    events: list[tuple[str, int]] = field(default_factory=list)

    def append(self, proc: str, block_id: int) -> None:
        self.events.append((proc, block_id))

    def extend(self, events: Iterable[tuple[str, int]]) -> None:
        self.events.extend(events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return iter(self.events)

    def procedures(self) -> set[str]:
        return {proc for proc, _ in self.events}

    def per_procedure_transitions(self) -> dict[str, dict[tuple[int, int], int]]:
        """Count consecutive same-procedure event pairs, per procedure.

        A flat trace carries no call or return events, so this is exact only
        for traces without calls (e.g. single-procedure synthetic walks);
        across a call it pairs blocks of different activations.  Exact
        counts in the presence of calls come from the VM's
        :class:`~repro.lang.vm.RunTrace`.
        """
        counts: dict[str, dict[tuple[int, int], int]] = {}
        prev: tuple[str, int] | None = None
        for event in self.events:
            proc, block_id = event
            if prev is not None and prev[0] == proc:
                per_proc = counts.setdefault(proc, {})
                key = (prev[1], block_id)
                per_proc[key] = per_proc.get(key, 0) + 1
            prev = event
        return counts


class TraceBuilder:
    """Builds an :class:`ExecutionTrace` plus *exact* per-procedure edge
    counts in the presence of calls, using a shadow call stack.

    A producer of block events (a test) calls
    :meth:`enter` / :meth:`leave` around procedure activations and
    :meth:`visit` for each executed block.  Intra-procedural transitions
    are recorded between consecutive blocks of the same activation even when
    callee blocks execute in between.
    """

    def __init__(
        self,
        *,
        keep_events: bool = True,
        max_events: int | None = None,
        keep_transitions: bool = False,
    ):
        self.trace = ExecutionTrace()
        self._keep_events = keep_events
        self._max_events = max_events
        self._keep_transitions = keep_transitions
        self._stack: list[tuple[str, int | None]] = []
        #: proc -> (src, dst) -> count
        self.edge_counts: dict[str, dict[tuple[int, int], int]] = {}
        #: proc -> block -> count
        self.block_counts: dict[str, dict[int, int]] = {}
        #: proc -> ordered (src, dst) transitions; only with keep_transitions
        #: (feeds the dynamic branch-predictor replay, paper §6 future work).
        self.transition_log: dict[str, list[tuple[int, int]]] = {}
        #: proc -> number of activations (calls).
        self.activation_counts: dict[str, int] = {}
        #: (caller, callee) -> call count (the dynamic call graph, used by
        #: interprocedural procedure ordering).
        self.call_pair_counts: dict[tuple[str, str], int] = {}
        self.dropped_events = 0

    def enter(self, proc: str) -> None:
        if self._stack:
            caller = self._stack[-1][0]
            key = (caller, proc)
            self.call_pair_counts[key] = self.call_pair_counts.get(key, 0) + 1
        self._stack.append((proc, None))
        self.edge_counts.setdefault(proc, {})
        self.block_counts.setdefault(proc, {})
        self.activation_counts[proc] = self.activation_counts.get(proc, 0) + 1

    def visit(self, block_id: int) -> None:
        if not self._stack:
            raise RuntimeError("visit() outside any procedure activation")
        proc, prev_block = self._stack[-1]
        if prev_block is not None:
            edges = self.edge_counts[proc]
            key = (prev_block, block_id)
            edges[key] = edges.get(key, 0) + 1
            if self._keep_transitions:
                self.transition_log.setdefault(proc, []).append(key)
        blocks = self.block_counts[proc]
        blocks[block_id] = blocks.get(block_id, 0) + 1
        self._stack[-1] = (proc, block_id)
        if self._keep_events:
            if self._max_events is None or len(self.trace) < self._max_events:
                self.trace.append(proc, block_id)
            else:
                self.dropped_events += 1

    def leave(self) -> None:
        if not self._stack:
            raise RuntimeError("leave() without matching enter()")
        self._stack.pop()

    @property
    def depth(self) -> int:
        return len(self._stack)
