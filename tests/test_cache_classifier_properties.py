"""Miss classification and hypothesis properties of the cache model."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cache.geometry import CacheGeometry
from repro.cache.miss_classifier import MissClass, MissClassifier
from repro.cache.sa_cache import SetAssociativeCache
from repro.cache.stats import CacheStats


def observe_trace(lines, size=128, assoc=2):
    geometry = CacheGeometry(size, assoc, 32)
    cache = SetAssociativeCache(geometry)
    classifier = MissClassifier(geometry)
    for line in lines:
        hit = cache.access_line(line)
        classifier.observe(line, hit)
    return cache, classifier


class TestMissClassifier:
    def test_first_touch_is_compulsory(self):
        _, classifier = observe_trace([0, 1, 2])
        assert classifier.counts.compulsory == 3
        assert classifier.counts.conflict == 0
        assert classifier.counts.capacity == 0

    def test_conflict_miss_detected(self):
        # 3 lines in one set of a 2-way cache, cycled: fully-associative
        # shadow (4 lines) would hold them all, so re-misses are conflicts.
        _, classifier = observe_trace([0, 2, 4, 0, 2, 4])
        assert classifier.counts.compulsory == 3
        assert classifier.counts.conflict == 3
        assert classifier.counts.capacity == 0

    def test_capacity_miss_detected(self):
        # Cycle more distinct lines than the whole cache holds (4 lines):
        # the shadow misses too, so re-misses are capacity.
        lines = [0, 1, 2, 3, 4, 5] * 2
        _, classifier = observe_trace(lines)
        assert classifier.counts.capacity > 0

    def test_hits_not_classified(self):
        geometry = CacheGeometry(128, 2, 32)
        cache = SetAssociativeCache(geometry)
        classifier = MissClassifier(geometry)
        cache.access_line(0)
        classifier.observe(0, False)
        hit = cache.access_line(0)
        assert classifier.observe(0, hit) is None

    def test_total_matches_cache_misses(self):
        lines = [0, 2, 4, 0, 2, 4, 1, 3, 5, 1]
        cache, classifier = observe_trace(lines)
        assert classifier.counts.total == cache.stats.misses

    def test_reset(self):
        _, classifier = observe_trace([0, 1])
        classifier.reset()
        assert classifier.counts.total == 0

    def test_returns_class_enum(self):
        geometry = CacheGeometry(128, 2, 32)
        cache = SetAssociativeCache(geometry)
        classifier = MissClassifier(geometry)
        hit = cache.access_line(7)
        assert classifier.observe(7, hit) is MissClass.COMPULSORY


class TestCacheStats:
    def test_merge(self):
        a = CacheStats(hits=1, misses=2, dirty_evictions=1)
        b = CacheStats(hits=3, misses=4, write_hits=1)
        merged = a.merged_with(b)
        assert merged.hits == 4 and merged.misses == 6
        assert merged.dirty_evictions == 1 and merged.write_hits == 1

    def test_snapshot_and_delta(self):
        stats = CacheStats(hits=5, misses=5)
        snap = stats.snapshot()
        stats.hits += 3
        delta = stats.delta_since(snap)
        assert delta.hits == 3 and delta.misses == 0

    def test_rates_on_empty(self):
        assert CacheStats().miss_rate == 0.0
        assert CacheStats().hit_rate == 0.0


line_traces = st.lists(st.integers(0, 30), min_size=1, max_size=200)


class TestCacheProperties:
    @given(line_traces)
    def test_hits_plus_misses_equals_accesses(self, lines):
        cache = SetAssociativeCache(CacheGeometry(128, 2, 32))
        hits, misses = cache.run_trace(np.array(lines, dtype=np.int64))
        assert hits + misses == len(lines)

    @given(line_traces)
    def test_occupancy_never_exceeds_associativity(self, lines):
        geometry = CacheGeometry(128, 2, 32)
        cache = SetAssociativeCache(geometry)
        cache.run_trace(np.array(lines, dtype=np.int64))
        for set_index in range(geometry.num_sets):
            assert cache.set_occupancy(set_index) <= geometry.associativity

    @given(line_traces)
    def test_resident_lines_map_to_their_sets(self, lines):
        geometry = CacheGeometry(128, 2, 32)
        cache = SetAssociativeCache(geometry)
        cache.run_trace(np.array(lines, dtype=np.int64))
        for line in cache.resident_lines():
            assert cache.contains_line(line)

    @given(line_traces)
    def test_lru_inclusion_for_fully_associative(self, lines):
        """A larger fully-associative LRU cache never misses more than a
        smaller one (the classical stack-inclusion property).  Note the
        analogous claim across *associativities* is false — hypothesis
        found counterexamples — so only the sound form is asserted."""
        trace = np.array(lines, dtype=np.int64)
        small = SetAssociativeCache(CacheGeometry(128, 4, 32))  # 4 lines, 1 set
        large = SetAssociativeCache(CacheGeometry(256, 8, 32))  # 8 lines, 1 set
        _, small_misses = small.run_trace(trace)
        _, large_misses = large.run_trace(trace)
        assert large_misses <= small_misses

    @given(line_traces)
    def test_repeating_trace_is_all_hits_if_it_fits(self, lines):
        distinct = sorted(set(lines))
        if len(distinct) > 2:  # keep within one set's worth across sets
            distinct = distinct[:2]
        geometry = CacheGeometry(128, 2, 32)
        cache = SetAssociativeCache(geometry)
        trace = np.array(distinct, dtype=np.int64)
        cache.run_trace(trace)
        hits, misses = cache.run_trace(trace)
        # Two lines always fit (worst case both in one 2-way set).
        assert misses == 0
        assert hits == len(distinct)

    @given(line_traces, st.integers(1, 500))
    @settings(max_examples=30)
    def test_budgeted_run_equals_unbudgeted_run(self, lines, budget):
        """Chaining budgeted slices produces the same cache state and
        stats as one uninterrupted run (on the same core)."""
        trace = np.array(lines, dtype=np.int64)
        whole = SetAssociativeCache(CacheGeometry(128, 2, 32))
        whole.run_trace(trace)
        sliced = SetAssociativeCache(CacheGeometry(128, 2, 32))
        index = 0
        while index < len(trace):
            index, _, _, _ = sliced.run_budget_rows(
                trace, None, None, index, 2, 75, budget
            )
        assert sliced.stats == whole.stats
        assert sliced.resident_lines() == whole.resident_lines()
