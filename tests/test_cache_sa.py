"""SetAssociativeCache: LRU behaviour, stats, trace execution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.sa_cache import SetAssociativeCache
from repro.errors import ValidationError


def make_cache(size=256, assoc=2, line=32) -> SetAssociativeCache:
    return SetAssociativeCache(CacheGeometry(size, assoc, line))


class TestBasicBehaviour:
    def test_first_access_misses_second_hits(self):
        cache = make_cache()
        assert not cache.access(0)
        assert cache.access(0)
        assert cache.access(31)  # same line
        assert not cache.access(32)  # next line

    def test_lru_eviction_within_set(self):
        cache = make_cache(size=128, assoc=2, line=32)  # 2 sets
        # Lines 0, 2, 4 all map to set 0; capacity 2 ways.
        cache.access_line(0)
        cache.access_line(2)
        cache.access_line(4)  # evicts line 0 (LRU)
        assert not cache.contains_line(0)
        assert cache.contains_line(2)
        assert cache.contains_line(4)

    def test_hit_refreshes_lru(self):
        cache = make_cache(size=128, assoc=2, line=32)
        cache.access_line(0)
        cache.access_line(2)
        cache.access_line(0)  # refresh 0 -> 2 becomes LRU
        cache.access_line(4)  # evicts 2
        assert cache.contains_line(0)
        assert not cache.contains_line(2)

    def test_different_sets_do_not_interfere(self):
        cache = make_cache(size=128, assoc=2, line=32)  # 2 sets
        cache.access_line(0)  # set 0
        cache.access_line(1)  # set 1
        cache.access_line(2)  # set 0
        cache.access_line(3)  # set 1
        assert cache.contains_line(0) and cache.contains_line(1)

    def test_occupancy_bounded_by_associativity(self):
        cache = make_cache(size=128, assoc=2, line=32)
        for line in range(0, 20, 2):  # all set 0
            cache.access_line(line)
        assert cache.set_occupancy(0) == 2

    def test_negative_line_rejected(self):
        with pytest.raises(ValidationError):
            make_cache().access_line(-1)

    def test_set_occupancy_range_checked(self):
        with pytest.raises(ValidationError):
            make_cache().set_occupancy(9999)


class TestStats:
    def test_hit_miss_counters(self):
        cache = make_cache()
        cache.access_line(0)
        cache.access_line(0)
        cache.access_line(1)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2
        assert cache.stats.accesses == 3
        assert cache.stats.miss_rate == pytest.approx(2 / 3)

    def test_write_counters_and_dirty_eviction(self):
        cache = make_cache(size=128, assoc=2, line=32)
        cache.access_line(0, is_write=True)  # write miss, dirty
        cache.access_line(2)
        cache.access_line(4)  # evicts dirty line 0
        assert cache.stats.write_misses == 1
        assert cache.stats.dirty_evictions == 1

    def test_write_hit_marks_dirty(self):
        cache = make_cache(size=128, assoc=2, line=32)
        cache.access_line(0)
        cache.access_line(0, is_write=True)
        cache.access_line(2)
        cache.access_line(4)  # evicts line 0, now dirty
        assert cache.stats.write_hits == 1
        assert cache.stats.dirty_evictions == 1

    def test_reset_clears_everything(self):
        cache = make_cache()
        cache.access_line(0)
        cache.reset()
        assert cache.stats.accesses == 0
        assert not cache.contains_line(0)

    def test_flush_keeps_stats(self):
        cache = make_cache()
        cache.access_line(0)
        cache.flush()
        assert cache.stats.misses == 1
        assert not cache.contains_line(0)
        assert not cache.access_line(0)  # misses again after flush


class TestRunTrace:
    def test_matches_single_access_loop(self):
        lines = np.array([0, 1, 0, 2, 1, 0, 5, 5, 0], dtype=np.int64)
        reference = make_cache()
        expected_hits = sum(reference.access_line(int(l)) for l in lines)
        cache = make_cache()
        hits, misses = cache.run_trace(lines)
        assert hits == expected_hits
        assert hits + misses == len(lines)

    def test_with_writes_matches_loop(self):
        lines = np.array([0, 2, 0, 4, 2, 0], dtype=np.int64)
        writes = np.array([True, False, True, False, False, True])
        reference = make_cache(size=128)
        for line, w in zip(lines, writes):
            reference.access_line(int(line), bool(w))
        cache = make_cache(size=128)
        cache.run_trace(lines, writes)
        assert cache.stats == reference.stats

    def test_accumulates_into_stats(self):
        cache = make_cache()
        cache.run_trace(np.array([0, 0, 1]))
        assert cache.stats.accesses == 3

    def test_state_persists_across_traces(self):
        cache = make_cache()
        cache.run_trace(np.array([0, 1, 2]))
        hits, _ = cache.run_trace(np.array([0, 1, 2]))
        assert hits == 3  # everything cached from the first trace


class TestRunBudgetRows:
    def test_stops_when_budget_exhausted(self):
        cache = make_cache()
        lines = np.arange(100, dtype=np.int64)  # all misses: cost 77 each
        index, used, hits, misses = cache.run_budget_rows(
            lines, None, None, 0, 2, 75, budget=200
        )
        assert index == 3  # 77*2 < 200 <= 77*3
        assert used == 231
        assert misses == 3 and hits == 0

    def test_resumes_from_cursor(self):
        cache = make_cache()
        lines = np.arange(10, dtype=np.int64)
        index, _, _, _ = cache.run_budget_rows(lines, None, None, 0, 2, 75, 155)
        index2, _, _, misses2 = cache.run_budget_rows(
            lines, None, None, index, 2, 75, 10**9
        )
        assert index2 == len(lines)
        assert misses2 == len(lines) - index

    def test_extra_cycles_charged(self):
        cache = make_cache()
        lines = np.zeros(5, dtype=np.int64)
        extra = np.full(5, 10, dtype=np.int64)
        _, used, hits, misses = cache.run_budget_rows(
            lines, None, extra, 0, 2, 75, budget=10**9
        )
        assert used == 77 + 4 * 2 + 5 * 10

    def test_completion_returns_trace_length(self):
        cache = make_cache()
        lines = np.array([0, 0], dtype=np.int64)
        index, _, hits, _ = cache.run_budget_rows(lines, None, None, 0, 2, 75, 10**9)
        assert index == 2 and hits == 1

    def test_invalid_start_rejected(self):
        cache = make_cache()
        with pytest.raises(ValidationError):
            cache.run_budget_rows(np.array([0]), None, None, 5, 2, 75, 100)

    def test_nonpositive_budget_rejected(self):
        cache = make_cache()
        with pytest.raises(ValidationError):
            cache.run_budget_rows(np.array([0]), None, None, 0, 2, 75, 0)
