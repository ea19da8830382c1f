"""Tests for the instruction-cache simulators."""

import random

import numpy as np
import pytest

from repro.machine import DirectMappedICache, WORD_BYTES


class TestDirectMapped:
    def test_cold_miss_then_hit(self):
        cache = DirectMappedICache(1024, 32)
        assert cache.fetch(0, 4) == 1
        assert cache.fetch(0, 4) == 0

    def test_fetch_spanning_lines(self):
        cache = DirectMappedICache(1024, 32)
        # 12 words * 4 bytes = 48 bytes: spans two 32-byte lines.
        assert cache.fetch(0, 12) == 2

    def test_conflict_eviction(self):
        cache = DirectMappedICache(64, 32)  # 2 lines
        cache.fetch(0, 1)
        cache.fetch(64, 1)   # maps to the same line as address 0
        assert cache.fetch(0, 1) == 1  # evicted

    def test_non_conflicting_addresses_coexist(self):
        cache = DirectMappedICache(64, 32)
        cache.fetch(0, 1)
        cache.fetch(32, 1)
        assert cache.fetch(0, 1) == 0
        assert cache.fetch(32, 1) == 0

    def test_stats_accumulate(self):
        cache = DirectMappedICache(1024, 32)
        cache.fetch(0, 8)
        cache.fetch(0, 8)
        assert cache.stats.accesses == 2
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert 0 < cache.stats.miss_rate < 1

    def test_zero_words_noop(self):
        cache = DirectMappedICache(1024, 32)
        assert cache.fetch(0, 0) == 0
        assert cache.stats.accesses == 0

    def test_reset(self):
        cache = DirectMappedICache(1024, 32)
        cache.fetch(0, 1)
        cache.reset()
        assert cache.stats.accesses == 0
        assert cache.fetch(0, 1) == 1

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            DirectMappedICache(1000, 32)
        with pytest.raises(ValueError):
            DirectMappedICache(32, 64)

    def test_word_bytes_constant(self):
        assert WORD_BYTES == 4


class TestReplayEquivalence:
    """``replay`` must be bit-equivalent to event-by-event ``fetch``."""

    @staticmethod
    def _random_stream(seed, events=400):
        rng = random.Random(seed)
        addresses, words = [], []
        addr = 0
        for _ in range(events):
            if rng.random() < 0.25:  # branch away
                addr = rng.randrange(0, 4096) * WORD_BYTES
            count = rng.choice([0, 1, 1, 2, 3, 5, 12])
            addresses.append(addr)
            words.append(count)
            addr += count * WORD_BYTES  # fall through
        return np.array(addresses), np.array(words)

    @pytest.mark.parametrize("size,line", [(8192, 32), (256, 32), (64, 32)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_replay_matches_fetch(self, size, line, seed):
        addresses, words = self._random_stream(seed)
        scalar = DirectMappedICache(size, line)
        fast = DirectMappedICache(size, line)
        for addr, count in zip(addresses.tolist(), words.tolist()):
            scalar.fetch(addr, count)
        fast.replay(addresses, words)
        assert fast.stats.accesses == scalar.stats.accesses
        assert fast.stats.misses == scalar.stats.misses
        assert fast._tags == scalar._tags

    def test_replay_on_warm_cache(self):
        """Group-first accesses must compare against pre-existing tags."""
        warm_a, warm_w = self._random_stream(7)
        addresses, words = self._random_stream(8)
        scalar = DirectMappedICache(256, 32)
        fast = DirectMappedICache(256, 32)
        for cache in (scalar, fast):
            for addr, count in zip(warm_a.tolist(), warm_w.tolist()):
                cache.fetch(addr, count)
        for addr, count in zip(addresses.tolist(), words.tolist()):
            scalar.fetch(addr, count)
        fast.replay(addresses, words)
        assert fast.stats.accesses == scalar.stats.accesses
        assert fast.stats.misses == scalar.stats.misses
        assert fast._tags == scalar._tags

    def test_replay_empty_and_zero_word_streams(self):
        cache = DirectMappedICache(256, 32)
        assert cache.replay(np.array([], dtype=int), np.array([], dtype=int)) == 0
        assert cache.replay(np.array([0, 64]), np.array([0, 0])) == 0
        assert cache.stats.accesses == 0

    def test_replay_accumulates_like_fetch(self):
        cache = DirectMappedICache(1024, 32)
        first = cache.replay(np.array([0]), np.array([8]))
        second = cache.replay(np.array([0]), np.array([8]))
        assert (first, second) == (1, 0)
        assert cache.stats.accesses == 2
        assert cache.stats.misses == 1
