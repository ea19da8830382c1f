"""Compiled virtual machine for tiny-language modules.

The VM is the profiling substrate: it executes a
:class:`~repro.lang.lower.CompiledModule` on concrete inputs and records the
block-level execution trace and exact per-procedure edge counts — the moral
equivalent of the paper's HALT-instrumented profiling runs.

The first :func:`execute` of a module translates it into Python source once
(:func:`instrument`, cached on the module).  Each procedure becomes one
generated function: frame slots are Python locals; constants, globals and
arrays are closure cells bound from tables (no value or name from the
source program is spliced into the generated text); and control flow is a
``while True`` loop that dispatches on the block index through a binary
``if b < K`` tree.  That is the instrumented program: each executed block
appends its module-wide block code to a flat list, and each return from a
call appends one resume record.  Every trace product — the
:class:`~repro.profiles.trace.CompactTrace`, edge, activation and
call-pair counts, the transition log and ``instructions_executed`` — is
derived afterwards from those two lists with NumPy and per-block static
tables.

Semantics: integers are unbounded Python ints (``/`` and ``%`` floor like
Python, documented as a dialect choice); floats are IEEE doubles;
conditions treat any non-zero value as true.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import faults
from repro.errors import ReproError
from repro.lang.codegen import translate
from repro.lang.lexer import LangError
from repro.lang.lower import CompiledModule
from repro.profiles.edge_profile import ProgramProfile
from repro.profiles.trace import CompactTrace


class VMError(LangError):
    """Raised for runtime errors (bad index, division by zero, runaway)."""


class VMRunawayError(VMError, ReproError):
    """A run exceeded its block or call-depth limit (a loop that never
    terminates under this input, or injected via :mod:`repro.faults`).

    Part of the :mod:`repro.errors` taxonomy: experiment runners treat a
    runaway case as a per-case failure (retry once, then skip), never as a
    reason to abort a whole figure run.
    """


@dataclass
class RunTrace:
    """The trace products of one run."""

    #: The interleaved ``(proc, block)`` event sequence; empty when the run
    #: did not keep events.
    trace: CompactTrace
    #: proc -> (src, dst) -> count, for every entered procedure (empty when
    #: it never took an intra-procedural edge).
    edge_counts: dict[str, dict[tuple[int, int], int]]
    #: proc -> number of activations (calls).
    activation_counts: dict[str, int]
    #: (caller, callee) -> call count (the dynamic call graph, used by
    #: interprocedural procedure ordering).
    call_pair_counts: dict[tuple[str, str], int]
    #: proc -> ordered (src, dst) transitions; only with keep_transitions
    #: (feeds the dynamic branch-predictor replay, paper §6 future work).
    transition_log: dict[str, list[tuple[int, int]]]


@dataclass
class RunResult:
    """Outcome of one VM run."""

    returned: int
    outputs: list = field(default_factory=list)
    blocks_executed: int = 0
    instructions_executed: int = 0
    trace: RunTrace | None = None


# -- error paths of the generated code -----------------------------------------


def _fail(template: str, value=None, cause: BaseException | None = None):
    raise VMError(template.format(value)) from cause


def _runaway(template: str, limit: int):
    raise VMRunawayError(template.format(limit))


class Instrumented:
    """A module translated to Python once (:mod:`repro.lang.codegen`): the
    factory that binds the generated procedures to one run's state, plus
    the static tables the trace products are derived with."""

    def __init__(self, module: CompiledModule):
        translation = translate(module)
        namespace = {"_fail": _fail, "_runaway": _runaway}
        exec(compile(translation.source, "<instrumented>", "exec"), namespace)
        self._bind = namespace["bind"]
        self._constants = translation.constants
        self._globals = list(module.globals_init.values())
        self._array_sizes = list(module.arrays.values())
        self.proc_names = [proc.name for proc in module.program]
        self.main = self.proc_names.index(module.program.main)
        self.n_sites = translation.n_sites
        self.block_ids = np.array(translation.block_ids, dtype=np.int64)
        self.block_proc = np.array(translation.block_proc, dtype=np.int64)
        self.block_sizes = np.array(translation.block_sizes, dtype=np.int64)
        self.block_calls = np.array(translation.block_calls, dtype=bool)
        self.site_block = np.array(translation.site_block, dtype=np.int64)
        self.site_last = np.array(translation.site_last, dtype=bool)
        # The keys each count can take: procedures, (caller, callee)
        # pairs of the call sites, and (source, target) CFG edges.
        n_procs, n_codes = len(self.proc_names), len(self.block_ids)
        self.proc_keys = np.arange(n_procs)
        self.pair_keys = np.unique(
            self.block_proc[self.site_block] * n_procs
            + np.array(translation.site_callee, dtype=np.int64)
        )
        self.edge_keys = np.unique(
            [s * n_codes + t for s, t in translation.edges]
        ).astype(np.int64)

    def run(self, inputs: list, max_blocks: int, max_depth: int):
        """Run ``main`` once; returns (returned, outputs, block codes,
        resume records)."""
        outputs: list = []
        blocks: list[int] = []
        resumes: list[int] = []
        main = self._bind(
            self._constants, self._globals,
            [[0] * size for size in self._array_sizes],
            inputs, outputs, blocks, resumes, max_blocks, max_depth,
        )
        return main(0), outputs, blocks, resumes

    def derive(
        self,
        codes: np.ndarray,
        resumes: list[int],
        *,
        keep_events: bool,
        keep_transitions: bool,
    ) -> RunTrace:
        """The trace products of a run, from its block codes and resume
        records."""
        names = self.proc_names
        n = len(codes)
        # Each event's predecessor in its own activation.  By default that
        # is the previous event, and the event is an intra-procedural edge
        # unless the previous block made a call, in which case the event
        # enters the callee.  A resume record overrides both: the event
        # follows a return, so its predecessor is the calling block, and it
        # continues that block's activation after the block's last call, or
        # enters the next callee otherwise.  When calls return back to back,
        # the outermost record (the last one at a position) is the one that
        # holds.
        src = np.empty(n, dtype=np.int64)
        src[0] = codes[0]
        src[1:] = codes[:-1]
        entry = np.zeros(n, dtype=bool)
        entry[1:] = self.block_calls[codes[:-1]]
        edge = np.zeros(n, dtype=bool)
        edge[1:] = ~entry[1:]
        if resumes:
            position, site = np.divmod(
                np.fromiter(resumes, dtype=np.int64, count=len(resumes)),
                self.n_sites,
            )
            holds = np.append(position[1:] != position[:-1], True) & (position < n)
            position, site = position[holds], site[holds]
            src[position] = self.site_block[site]
            edge[position] = self.site_last[site]
            entry[position] = ~self.site_last[site]

        entries = np.flatnonzero(entry)
        callee = self.block_proc[codes[entries]]
        caller = self.block_proc[src[entries]]
        activation_counts = {names[self.main]: 1}
        for p, count in _first_seen_counts(callee, self.proc_keys):
            activation_counts[names[p]] = activation_counts.get(names[p], 0) + count
        n_procs = len(names)
        call_pair_counts = {
            (names[key // n_procs], names[key % n_procs]): count
            for key, count in _first_seen_counts(
                caller * n_procs + callee, self.pair_keys
            )
        }

        edges = np.flatnonzero(edge)
        edge_src, edge_dst = src[edges], codes[edges]
        block_ids = self.block_ids.tolist()
        n_codes = len(block_ids)
        edge_counts: dict[str, dict[tuple[int, int], int]] = {
            name: {} for name in activation_counts
        }
        edge_keys = edge_src * n_codes + edge_dst
        for key, count in _first_seen_counts(edge_keys, self.edge_keys):
            s, t = divmod(key, n_codes)
            edge_counts[names[self.block_proc[t]]][(block_ids[s], block_ids[t])] = count

        transition_log: dict[str, list[tuple[int, int]]] = {}
        if keep_transitions:
            edge_proc = self.block_proc[edge_dst]
            for p, _ in _first_seen_counts(edge_proc, self.proc_keys):
                mine = edge_proc == p
                transition_log[names[p]] = list(zip(
                    self.block_ids[edge_src[mine]].tolist(),
                    self.block_ids[edge_dst[mine]].tolist(),
                ))

        if keep_events:
            # Procedures are interned in order of first appearance, which
            # is the order of first activation.
            seen = list(activation_counts)
            rank = np.zeros(n_procs, dtype=np.uint16)
            rank[[names.index(name) for name in seen]] = np.arange(len(seen))
            trace = CompactTrace(
                seen, rank[self.block_proc[codes]], self.block_ids[codes]
            )
        else:
            trace = CompactTrace([], [], [])
        return RunTrace(
            trace=trace,
            edge_counts=edge_counts,
            activation_counts=activation_counts,
            call_pair_counts=call_pair_counts,
            transition_log=transition_log,
        )


def _first_seen_counts(keys: np.ndarray, domain: np.ndarray) -> list[tuple[int, int]]:
    """(key, occurrences) pairs of ``keys``, in order of first occurrence.

    ``domain`` is the sorted array of every key that can occur; counting
    over its indexes spares sorting the keys themselves.
    """
    index = np.searchsorted(domain, keys)
    counts = np.bincount(index, minlength=len(domain))
    first = np.full(len(domain), len(index))
    np.minimum.at(first, index, np.arange(len(index)))
    seen = np.flatnonzero(counts)
    seen = seen[np.argsort(first[seen])]
    return list(zip(domain[seen].tolist(), counts[seen].tolist()))


def instrument(module: CompiledModule) -> Instrumented:
    """The module translated to Python, generated on first use and cached
    on the module (the paper's instrumented build)."""
    if module.instrumented is None:
        module.instrumented = Instrumented(module)
    return module.instrumented


def execute(
    module: CompiledModule,
    inputs: list[int] | None = None,
    *,
    trace: bool = True,
    keep_events: bool = True,
    keep_transitions: bool = False,
    max_blocks: int = 5_000_000,
    max_call_depth: int = 500,
) -> RunResult:
    """Run ``module`` on ``inputs``; returns outputs, counters, and trace."""
    code = instrument(module)
    max_blocks = faults.vm_block_limit(max_blocks)
    returned, outputs, blocks, resumes = code.run(
        list(inputs or []), max_blocks, max_call_depth
    )
    codes = np.fromiter(blocks, dtype=np.int64, count=len(blocks))
    del blocks
    instructions = np.bincount(codes, minlength=len(code.block_ids)) @ code.block_sizes
    return RunResult(
        returned=returned,
        outputs=outputs,
        blocks_executed=len(codes),
        instructions_executed=int(instructions),
        trace=(
            code.derive(
                codes, resumes,
                keep_events=keep_events, keep_transitions=keep_transitions,
            )
            if trace
            else None
        ),
    )


def run_and_profile(
    module: CompiledModule,
    inputs: list[int] | None = None,
    *,
    keep_events: bool = True,
    max_blocks: int = 5_000_000,
) -> tuple[RunResult, ProgramProfile]:
    """Execute and return (result, edge profile) — the common profiling call."""
    result = execute(
        module, inputs, trace=True, keep_events=keep_events, max_blocks=max_blocks
    )
    assert result.trace is not None
    profile = ProgramProfile()
    for proc, edges in result.trace.edge_counts.items():
        edge_profile = profile.profile(proc)
        for (src, dst), count in edges.items():
            edge_profile.add(src, dst, count)
    for proc in module.program:
        profile.call_counts[proc.name] = result.trace.activation_counts.get(
            proc.name, 0
        )
    profile.call_pairs = dict(result.trace.call_pair_counts)
    return result, profile
