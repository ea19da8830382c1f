"""Instruction-cache simulation.

The paper found (§4.1, via IPROBE) that "good branch alignments also appear
to be good for caching" — layout benefits the penalty model does not see.
Our timing simulator reproduces that mechanism by replaying the laid-out
fetch address stream through a cache model: layouts that keep hot blocks
contiguous touch fewer lines and conflict less.

Addresses are in bytes; every instruction word is ``WORD_BYTES`` long (4, as
on the Alpha).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORD_BYTES = 4


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass
class CacheStats:
    accesses: int = 0
    misses: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class DirectMappedICache:
    """A direct-mapped instruction cache with tag checking.

    One access per cache *line* touched by a fetch range (sequential words
    within a line hit together, as a real fetch unit would)."""

    def __init__(self, size_bytes: int = 8192, line_bytes: int = 32):
        if not _is_power_of_two(size_bytes) or not _is_power_of_two(line_bytes):
            raise ValueError("cache and line sizes must be powers of two")
        if line_bytes > size_bytes:
            raise ValueError("line larger than cache")
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.num_lines = size_bytes // line_bytes
        self._tags: list[int | None] = [None] * self.num_lines
        self.stats = CacheStats()

    def reset(self) -> None:
        self._tags = [None] * self.num_lines
        self.stats = CacheStats()

    def fetch(self, address: int, words: int) -> int:
        """Fetch ``words`` instruction words starting at ``address``; returns
        the number of line misses incurred."""
        if words <= 0:
            return 0
        first_line = address // self.line_bytes
        last_line = (address + words * WORD_BYTES - 1) // self.line_bytes
        misses = 0
        for line in range(first_line, last_line + 1):
            index = line % self.num_lines
            if self._tags[index] != line:
                self._tags[index] = line
                misses += 1
        self.stats.accesses += last_line - first_line + 1
        self.stats.misses += misses
        return misses

    def account(self, lines: set[int], accesses: int) -> int | None:
        """Account a fetch stream of ``accesses`` line accesses that touch
        exactly ``lines``, in any order, without replaying it.

        Exact only when no two of the lines share a slot: each slot then
        sees one line, which misses on its first access iff the slot's tag
        on entry differs, hits ever after, and is the slot's final tag.
        That holds for any entry state, warm or cold.  Returns the misses,
        or ``None`` — with the cache untouched — when two lines share a
        slot and only a replay can tell the order of their evictions.
        """
        mask = self.num_lines - 1
        if len({line & mask for line in lines}) < len(lines):
            return None
        tags = self._tags
        misses = 0
        for line in lines:
            if tags[line & mask] != line:
                tags[line & mask] = line
                misses += 1
        self.stats.accesses += accesses
        self.stats.misses += misses
        return misses

    def replay(self, addresses: np.ndarray, words: np.ndarray) -> int:
        """Batch-:meth:`fetch` a whole address stream, vectorized.

        Exactly equivalent to calling ``fetch(a, w)`` per event (same
        stats, same final tags — pinned by a differential test), but
        computed with array ops:

        * the per-event line ranges are expanded into one flat line
          sequence with repeat/cumsum arithmetic;
        * consecutive duplicate lines are compressed away (a re-access of
          the line just fetched is a guaranteed hit and cannot change any
          tag, so this preserves exactness while shrinking the sequence —
          fall-through fetch streams are mostly such runs);
        * a stable argsort groups the sequence by cache slot, within which
          an access misses iff its line differs from the *previous* access
          to the same slot (the group's first access compares against the
          tag the cache held on entry).
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        words = np.asarray(words, dtype=np.int64)
        live = words > 0
        if not live.all():
            addresses, words = addresses[live], words[live]
        if addresses.size == 0:
            return 0
        # Line sizes are powers of two, so address//line_bytes is a shift.
        shift = self.line_bytes.bit_length() - 1
        first = addresses >> shift
        count = ((addresses + words * WORD_BYTES - 1) >> shift) - first + 1
        total = int(count.sum())
        self.stats.accesses += total
        starts = np.cumsum(count) - count
        # One repeat instead of two: repeat(first) - repeat(starts) is
        # repeat(first - starts); the ramp is added in place.
        lines = np.repeat(first - starts, count)
        lines += np.arange(total, dtype=np.int64)
        if lines.size > 1:
            keep = np.empty(lines.size, dtype=bool)
            keep[0] = True
            np.not_equal(lines[1:], lines[:-1], out=keep[1:])
            lines = lines[keep]
        # Slots fit in uint16 (cache geometry is power-of-two, lines are
        # few), where numpy's stable argsort is an O(n) radix sort instead
        # of a mergesort over int64 keys.
        slots = (lines & (self.num_lines - 1)).astype(np.uint16)
        order = np.argsort(slots, kind="stable")
        slot_seq = slots[order]
        line_seq = lines[order]
        tags = np.array(
            [-1 if t is None else t for t in self._tags], dtype=np.int64
        )
        # There are at most num_lines slot groups, so group boundaries are
        # manipulated as short index arrays, not full-length boolean masks.
        diff = line_seq[1:] != line_seq[:-1]
        starts_idx = np.flatnonzero(slot_seq[1:] != slot_seq[:-1]) + 1
        # Count misses without materializing the "previous access" array:
        # start from the adjacent-difference count, then swap each group's
        # first comparison (meaningless across the boundary) for the real
        # one against the tag the cache held on entry.
        misses = int(np.count_nonzero(diff))
        misses -= int(np.count_nonzero(diff[starts_idx - 1]))
        misses += int(
            np.count_nonzero(line_seq[starts_idx] != tags[slot_seq[starts_idx]])
        )
        misses += int(line_seq[0] != tags[slot_seq[0]])
        self.stats.misses += misses
        ends_idx = np.concatenate((starts_idx - 1, [slot_seq.size - 1]))
        tags[slot_seq[ends_idx]] = line_seq[ends_idx]
        self._tags = [None if t < 0 else int(t) for t in tags.tolist()]
        return misses

