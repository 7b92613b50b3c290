"""Cross-module integration tests: full pipeline at reduced scale, and
hypothesis property tests over randomly generated dependence DAGs."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.presburger.terms import var
from repro.procgraph.graph import ExtendedProcessGraph
from repro.procgraph.process import Process
from repro.procgraph.task import Task
from repro.programs.accesses import AffineAccess
from repro.programs.arrays import ArraySpec
from repro.programs.fragments import ProgramFragment
from repro.programs.loops import LoopNest
from repro.sched.locality import LocalityScheduler, StaticLocalityScheduler
from repro.sched.locality_mapping import LocalityMappingScheduler
from repro.sched.random_sched import RandomScheduler
from repro.sched.round_robin import RoundRobinScheduler
from repro.sim.config import MachineConfig
from repro.sim.simulator import MPSoCSimulator
from repro.workloads.suite import build_task, build_workload_mix

MACHINE = MachineConfig(
    num_cores=4,
    cache_size_bytes=2048,
    cache_associativity=2,
    cache_line_size=32,
    quantum_cycles=1000,
    context_switch_cycles=50,
)
SCALE = 0.25


class TestFullWorkloadRuns:
    @pytest.mark.parametrize(
        "scheduler",
        [
            RandomScheduler(seed=2),
            RoundRobinScheduler(),
            LocalityScheduler(),
            StaticLocalityScheduler(),
            LocalityMappingScheduler(),
        ],
        ids=lambda s: s.name,
    )
    def test_every_scheduler_completes_every_task(self, scheduler):
        simulator = MPSoCSimulator(MACHINE)
        for name in ("Med-Im04", "Usonic"):  # largest and smallest
            epg = ExtendedProcessGraph.from_tasks([build_task(name, scale=SCALE)])
            result = simulator.run(epg, scheduler)
            result.validate_against(epg)
            assert result.makespan_cycles > 0

    def test_mix_runs_under_all_schedulers(self):
        epg = build_workload_mix(2, scale=SCALE)
        simulator = MPSoCSimulator(MACHINE)
        for scheduler in (
            RandomScheduler(seed=0),
            RoundRobinScheduler(),
            LocalityScheduler(),
            LocalityMappingScheduler(),
        ):
            result = simulator.run(epg, scheduler)
            result.validate_against(epg)

    def test_locality_reduces_misses_on_pipeline_task(self):
        """The core paper claim at the miss level, end to end."""
        epg = ExtendedProcessGraph.from_tasks([build_task("Shape", scale=0.5)])
        simulator = MPSoCSimulator(MACHINE)
        rs = simulator.run(epg, RandomScheduler(seed=5))
        ls = simulator.run(epg, LocalityScheduler())
        assert ls.total_cache.misses < rs.total_cache.misses

    def test_lsm_stays_within_band_of_ls_in_mix(self):
        """On this suite the re-layout is roughly neutral at system level
        (ROADMAP.md open item 6 records LSM ≈ LS at |T|=4 and 5): LSM
        must stay within a narrow band of LS."""
        epg = build_workload_mix(2, scale=SCALE)
        simulator = MPSoCSimulator(MACHINE)
        ls = simulator.run(epg, LocalityScheduler())
        lsm = simulator.run(epg, LocalityMappingScheduler())
        assert lsm.makespan_cycles <= ls.makespan_cycles * 1.25

    def test_remap_wins_in_pathological_conflict_scenario(self):
        """The paper's Figure-4 case: processes cycling through three
        page-aligned arrays with equal subscripts thrash a 2-way cache
        every iteration; the half-page remap removes the conflicts."""
        import numpy as np

        from repro.cache.geometry import CacheGeometry
        from repro.cache.sa_cache import SetAssociativeCache
        from repro.memory.layout import DataLayout
        from repro.memory.remap import RemappedLayout

        geometry = CacheGeometry(8192, 2, 32)
        arrays = [ArraySpec(name, (2048,)) for name in ("K1", "K2", "K3")]
        base = DataLayout.allocate(arrays, alignment=geometry.cache_page, stagger=0)
        # Equal-index sweep over all three arrays, twice (second pass would
        # hit if the lines survived).
        idx = np.arange(2048)
        def run(layout):
            cache = SetAssociativeCache(geometry)
            lines = np.empty(3 * len(idx), dtype=np.int64)
            for j, spec in enumerate(arrays):
                lines[j::3] = geometry.lines_of(layout.addrs(spec.name, idx))
            cache.run_trace(lines)
            return cache.run_trace(lines)  # (hits, misses) of second pass

        _, cold_misses = run(base)
        remapped = RemappedLayout(
            base, geometry, {"K1": 0, "K2": geometry.cache_page // 2}
        )
        _, remap_misses = run(remapped)
        # Base layout: all three arrays fight over the same sets -> the
        # second pass still misses heavily.  After remapping K1/K2 away
        # from K3, every line survives.
        assert cold_misses > 0
        assert remap_misses < cold_misses / 4


def random_dag_tasks(draw):
    """Build a random small task with arbitrary forward edges."""
    num_processes = draw(st.integers(2, 8))
    rows = 4
    processes = []
    for index in range(num_processes):
        array = ArraySpec(f"R.A{draw(st.integers(0, 3))}", (rows, 8))
        frag = ProgramFragment(
            f"f{index}",
            LoopNest([("x", 0, rows), ("y", 0, 8)]),
            [AffineAccess(array, [var("x"), var("y")])],
        )
        processes.append(Process(f"R.p{index}", "R", [frag.whole()]))
    edges = []
    for i in range(num_processes):
        for j in range(i + 1, num_processes):
            if draw(st.booleans()):
                edges.append((f"R.p{i}", f"R.p{j}"))
    return Task("R", processes, edges)


random_tasks = st.builds(lambda d: d, st.data())


class TestRandomDagProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_all_drivers_valid_on_random_dags(self, data):
        task = random_dag_tasks(data.draw)
        epg = ExtendedProcessGraph.from_tasks([task])
        simulator = MPSoCSimulator(
            MachineConfig(
                num_cores=2,
                cache_size_bytes=1024,
                cache_associativity=2,
                cache_line_size=32,
                quantum_cycles=300,
                context_switch_cycles=10,
            )
        )
        for scheduler in (
            RandomScheduler(seed=1),
            RoundRobinScheduler(),
            LocalityScheduler(),
            StaticLocalityScheduler(),
        ):
            result = simulator.run(epg, scheduler)
            result.validate_against(epg)

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_makespan_at_least_critical_path_work(self, data):
        """Any schedule's makespan is bounded below by the longest
        dependence chain's intrinsic compute (a weak but exact bound)."""
        task = random_dag_tasks(data.draw)
        epg = ExtendedProcessGraph.from_tasks([task])
        simulator = MPSoCSimulator(
            MachineConfig(
                num_cores=2,
                cache_size_bytes=1024,
                cache_associativity=2,
                cache_line_size=32,
                context_switch_cycles=0,
            )
        )
        result = simulator.run(epg, LocalityScheduler())
        compute_weights = {p.pid: p.compute_cycles for p in epg}
        assert result.makespan_cycles >= epg.critical_path_length(compute_weights)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_random_scheduler_reproducible_by_seed(self, seed):
        epg = ExtendedProcessGraph.from_tasks([build_task("Usonic", scale=SCALE)])
        simulator = MPSoCSimulator(MACHINE)
        a = simulator.run(epg, RandomScheduler(seed=seed))
        b = simulator.run(epg, RandomScheduler(seed=seed))
        assert a.makespan_cycles == b.makespan_cycles
        assert a.schedule == b.schedule
