"""Throughput of the compiled LRU kernel.

Complements ``bench_components.py`` (which tracks the scalar whole-trace
loop): these benchmarks pin the kernel's two uses — whole traces for the
static and dynamic drivers, and the budgeted preemptive loop beside its
scalar oracle — so a regression in either is caught independently of
figure-level timings.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.lru_kernel import LRUState, load_kernel, run_budget, run_trace
from repro.cache.sa_cache import SetAssociativeCache

GEOMETRY = CacheGeometry(8192, 2, 32)


def _trace(n: int = 100_000, spread: int = 2048):
    rng = np.random.default_rng(7)
    lines = rng.integers(0, spread, size=n, dtype=np.int64)
    writes = rng.random(n) < 0.2
    return lines, writes


def test_trace_kernel_throughput(benchmark):
    if load_kernel() is None:
        pytest.skip("no C compiler: the kernel cannot be built")
    lines, writes = _trace()
    extra = np.zeros(len(lines), dtype=np.int64)

    def run():
        return run_trace(LRUState(GEOMETRY), lines, writes, extra)

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
