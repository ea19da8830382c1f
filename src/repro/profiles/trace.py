"""Execution traces.

A trace is the whole-program, interleaved sequence of basic-block executions:
``(procedure name, block id)`` events in execution order, stored compactly
as a :class:`CompactTrace`.  Traces feed two consumers:

* :class:`~repro.profiles.edge_profile.ProgramProfile` — per-procedure edge
  frequencies (what the aligner trains on), and
* the machine simulators in :mod:`repro.machine` — pipeline penalty replay
  and instruction-cache simulation over the laid-out address stream.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np


class CompactTrace:
    """A memory-efficient, read-only view of an execution trace.

    Stores procedure indices and block ids in numpy arrays (~6 bytes/event
    instead of ~100 for a list of tuples) — the VM derives one per traced
    run, and the experiment runner keeps it for cache replay.
    """

    def __init__(
        self,
        proc_names: list[str],
        proc_indices: np.ndarray,
        block_ids: np.ndarray,
    ):
        self._proc_names = list(proc_names)
        self._proc_indices = np.asarray(proc_indices, dtype=np.uint16)
        self._block_ids = np.asarray(block_ids, dtype=np.uint32)

    @classmethod
    def from_events(cls, events: Iterable[tuple[str, int]]) -> "CompactTrace":
        """Pack ``(proc, block)`` events, interning procedure names in order
        of first appearance."""
        procs: dict[str, int] = {}
        proc_indices = []
        block_ids = []
        for proc, block_id in events:
            proc_indices.append(procs.setdefault(proc, len(procs)))
            block_ids.append(block_id)
        return cls(list(procs), np.array(proc_indices), np.array(block_ids))

    def __len__(self) -> int:
        return len(self._block_ids)

    def __iter__(self) -> Iterator[tuple[str, int]]:
        names = self._proc_names
        for index, block_id in zip(
            self._proc_indices.tolist(), self._block_ids.tolist()
        ):
            yield names[index], block_id

    def procedures(self) -> set[str]:
        return set(self._proc_names)

    # Array views for vectorized consumers (the icache replay fast path).
    # Callers must not mutate them.

    @property
    def proc_names(self) -> list[str]:
        """Interned procedure names; index with :attr:`proc_indices`."""
        return self._proc_names

    @property
    def proc_indices(self) -> np.ndarray:
        """uint16 (events,) index into :attr:`proc_names` per event."""
        return self._proc_indices

    @property
    def block_ids(self) -> np.ndarray:
        """uint32 (events,) executed block id per event."""
        return self._block_ids

