"""Throughput of the vectorized cache engine and the trace memo.

Complements ``bench_components.py`` (which tracks the scalar reference
loops): these benchmarks pin the three fast-path tiers — the vectorized
whole-trace kernel, the analyze-once/adjust-many memo path, and the
budgeted preemptive loop on the compiled LRU kernel and its scalar
oracle — so a regression in any tier is caught independently of
figure-level timings.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.fast_engine import analyze_trace, simulate_trace, warm_adjust
from repro.cache.geometry import CacheGeometry
from repro.cache.lru_kernel import LRUState, load_kernel, run_budget
from repro.cache.memo import TraceMemo, execute_trace, trace_fingerprint
from repro.cache.sa_cache import SetAssociativeCache

GEOMETRY = CacheGeometry(8192, 2, 32)


def _trace(n: int = 100_000, spread: int = 2048):
    rng = np.random.default_rng(7)
    lines = rng.integers(0, spread, size=n, dtype=np.int64)
    writes = rng.random(n) < 0.2
    return lines, writes


def test_vectorized_kernel_throughput(benchmark):
    lines, writes = _trace()

    def run():
        return simulate_trace(
            lines, writes, GEOMETRY.num_sets, GEOMETRY.associativity
        )

    run_result = benchmark(run)
    assert run_result.hits + run_result.misses == len(lines)


def test_warm_adjust_throughput(benchmark):
    lines, writes = _trace()
    analysis = analyze_trace(
        lines, writes, GEOMETRY.num_sets, GEOMETRY.associativity
    )
    warm = SetAssociativeCache(GEOMETRY)
    warm.run_trace(np.arange(512, dtype=np.int64))
    warm_sets, warm_dirty = warm.state_view()

    counters, _ = benchmark(warm_adjust, analysis, warm_sets, warm_dirty)
    assert counters[0] + counters[1] == len(lines)


def test_memoized_execute_trace_throughput(benchmark):
    lines, writes = _trace()
    fingerprint = trace_fingerprint(lines, writes)
    memo = TraceMemo()
    seed_cache = SetAssociativeCache(GEOMETRY)
    execute_trace(seed_cache, lines, writes, fingerprint, memo)  # warm the memo

    def run():
        cache = SetAssociativeCache(GEOMETRY)
        return execute_trace(cache, lines, writes, fingerprint, memo)

    hits, misses = benchmark(run)
    assert hits + misses == len(lines)


def test_budget_oracle_throughput(benchmark):
    lines, writes = _trace(50_000)
    extra = np.ones(len(lines), dtype=np.int64)

    def run():
        cache = SetAssociativeCache(GEOMETRY)
        index = 0
        while index < len(lines):
            index, _, _, _ = cache.run_budget_rows(
                lines, writes, extra, index, 2, 75, 8000
            )
        return index

    assert benchmark(run) == len(lines)


def test_budget_kernel_throughput(benchmark):
    if load_kernel() is None:
        pytest.skip("no C compiler: the kernel cannot be built")
    lines, writes = _trace(50_000)
    extra = np.ones(len(lines), dtype=np.int64)

    def run():
        state = LRUState(GEOMETRY)
        index = 0
        while index < len(lines):
            index = run_budget(state, lines, writes, extra, index, 2, 75, 8000)[0]
        return index

    assert benchmark(run) == len(lines)
