"""Component micro-benchmarks: the primitives the experiments lean on.

These track throughput of the hot paths (cache trace execution, sharing
matrix construction, the Figure-3 planner, trace generation) so that
performance regressions in the substrate are caught independently of the
figure-level results.
"""

from __future__ import annotations

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cache.sa_cache import SetAssociativeCache
from repro.procgraph.graph import ExtendedProcessGraph
from repro.sched.base import default_layout
from repro.sched.locality import figure3_schedule
from repro.sharing.matrix import compute_sharing_matrix
from repro.sim.config import MachineConfig
from repro.sim.trace import build_trace
from repro.workloads.suite import build_task

GEOMETRY = CacheGeometry(8192, 2, 32)


def test_cache_trace_throughput(benchmark):
    rng = np.random.default_rng(7)
    lines = rng.integers(0, 2048, size=100_000, dtype=np.int64)

    def run():
        cache = SetAssociativeCache(GEOMETRY)
        return cache.run_trace(lines)

    hits, misses = benchmark(run)
    assert hits + misses == len(lines)


def test_sharing_matrix_construction(benchmark):
    epg = ExtendedProcessGraph.from_tasks([build_task("Med-Im04")])
    processes = epg.processes()
    matrix = benchmark(compute_sharing_matrix, processes)
    assert len(matrix.pids) == len(processes)


def test_figure3_planner(benchmark):
    epg = ExtendedProcessGraph.from_tasks([build_task("Radar")])
    sharing = compute_sharing_matrix(epg.processes())
    queues = benchmark(figure3_schedule, epg, sharing, 8)
    assert sum(len(q) for q in queues) == len(epg)


def test_trace_generation(benchmark):
    machine = MachineConfig.paper_default()
    epg = ExtendedProcessGraph.from_tasks([build_task("Shape")])
    layout = default_layout(epg, machine)
    process = epg.processes()[5]

    trace = benchmark(build_trace, process, layout, machine.geometry())
    assert trace.num_accesses > 0
