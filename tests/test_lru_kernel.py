"""Conformance of the compiled LRU kernel against the scalar oracle.

Every driver runs on the compiled kernel (:mod:`repro.cache.lru_kernel`):
the preemptive (RRS) driver quantum by quantum through ``run_budget``,
the static and dynamic drivers whole trace by whole trace through
``run_trace``.  They fall back to the scalar oracles,
:meth:`SetAssociativeCache.run_budget_rows` and
:meth:`SetAssociativeCache.run_trace`, when the fast cache is off or the
kernel cannot be built.  Both sides must agree bit for bit: same stop
index, cycle accounting, counters, statistics and end tag state (dirty
lines included), per call and through whole closed and open runs of
every driver.  The reference side of every full-run comparison is
``set_fast_cache(False)``, the pure oracle.
"""

from __future__ import annotations

import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
import repro.sim.simulator as simulator_module
from repro.cache import lru_kernel
from repro.cache.geometry import CacheGeometry
from repro.cache.lru_kernel import LRUState, load_kernel, run_budget, run_trace
from repro.cache.memo import set_fast_cache
from repro.cache.sa_cache import CacheState, SetAssociativeCache
from repro.errors import ValidationError
from repro.procgraph.graph import ExtendedProcessGraph
from repro.sched.locality import LocalityScheduler, StaticLocalityScheduler
from repro.sched.locality_mapping import LocalityMappingScheduler
from repro.sched.random_sched import RandomScheduler
from repro.sched.round_robin import RoundRobinScheduler
from repro.sim.arrivals import AppArrival, ArrivalSchedule
from repro.sim.config import MachineConfig
from repro.sim.simulator import MPSoCSimulator

from conftest import make_two_phase_task

SRC = Path(repro.__file__).resolve().parents[1]


@pytest.fixture
def kernel():
    """The compiled entry point; tests of the kernel itself need a compiler."""
    function = load_kernel()
    if function is None:
        pytest.skip("no C compiler: the kernel cannot be built")
    return function


def _geometry(num_sets: int, assoc: int) -> CacheGeometry:
    return CacheGeometry(num_sets * assoc * 32, assoc, 32)


def _random_trace(rng, length: int, line_span: int):
    lines = rng.integers(0, line_span, size=length).astype(np.int64)
    writes = rng.random(length) < 0.3
    extra = rng.integers(0, 6, size=length).astype(np.int64)
    return lines, writes, extra


def _oracle_call(cache, lines, writes, extra, start, hit_cost, miss_extra, budget):
    """The oracle's result in the kernel's seven-counter form."""
    before = cache.stats.snapshot()
    index, used, hits, misses = cache.run_budget_rows(
        lines, writes, extra, start, hit_cost, miss_extra, budget
    )
    delta = cache.stats.delta_since(before)
    return (
        index,
        used,
        hits,
        misses,
        delta.write_hits,
        delta.write_misses,
        delta.dirty_evictions,
    )


def _assert_lockstep(state, oracle, trace, start, hit_cost, miss_extra, budget):
    got = run_budget(state, *trace, start, hit_cost, miss_extra, budget)
    want = _oracle_call(oracle, *trace, start, hit_cost, miss_extra, budget)
    assert got == want
    assert state.stats == oracle.stats
    assert state.export_state() == oracle.export_state()
    return got


class TestKernelMatchesOracle:
    """Randomized interleaved quanta, kernel and oracle in lock-step.

    Each seed builds a few traces and replays a full interleaving of
    budgeted quanta on one kernel state and one oracle cache, comparing
    the counters, statistics and complete tag state after every quantum.
    """

    @pytest.mark.parametrize("assoc", [1, 2, 4, 8])
    @pytest.mark.parametrize("seed", range(12))
    def test_interleaved_quanta_match_oracle(self, kernel, assoc, seed):
        rng = np.random.default_rng(1000 * assoc + seed)
        num_sets = int(rng.choice([8, 16, 32]))
        geometry = _geometry(num_sets, assoc)
        hit_cost = int(rng.integers(1, 4))
        miss_extra = int(rng.integers(5, 80))
        traces = [
            _random_trace(
                rng,
                int(rng.integers(40, 600)),
                num_sets * assoc * int(rng.integers(1, 4)),
            )
            for _ in range(int(rng.integers(2, 5)))
        ]
        cursors = [0] * len(traces)
        state = LRUState(geometry)
        oracle = SetAssociativeCache(geometry)
        executed = 0
        while any(c < len(t[0]) for c, t in zip(cursors, traces)):
            k = int(rng.integers(0, len(traces)))
            if cursors[k] >= len(traces[k][0]):
                continue
            budget = int(rng.integers(20, 2000))
            got = _assert_lockstep(
                state, oracle, traces[k], cursors[k], hit_cost, miss_extra, budget
            )
            cursors[k] = got[0]
            executed += 1
        assert executed > 0

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        num_sets=st.sampled_from([1, 2, 4, 8, 16]),
        assoc=st.sampled_from([1, 2, 4, 8]),
        hit_cost=st.integers(1, 4),
        miss_extra=st.integers(0, 90),
        data=st.data(),
    )
    def test_chained_calls_match_oracle(
        self, kernel, num_sets, assoc, hit_cost, miss_extra, data
    ):
        span = num_sets * assoc * 3
        traces = []
        for _ in range(data.draw(st.integers(1, 3))):
            length = data.draw(st.integers(0, 120))
            lines = data.draw(
                st.lists(st.integers(0, span), min_size=length, max_size=length)
            )
            writes = data.draw(
                st.lists(st.booleans(), min_size=length, max_size=length)
            )
            extra = data.draw(
                st.lists(st.integers(0, 20), min_size=length, max_size=length)
            )
            traces.append(
                (
                    np.array(lines, dtype=np.int64),
                    np.array(writes, dtype=bool),
                    np.array(extra, dtype=np.int64),
                )
            )
        geometry = _geometry(num_sets, assoc)
        state = LRUState(geometry)
        oracle = SetAssociativeCache(geometry)
        for _ in range(data.draw(st.integers(1, 8))):
            trace = traces[data.draw(st.integers(0, len(traces) - 1))]
            start = data.draw(st.integers(0, len(trace[0])))
            budget = data.draw(st.integers(1, 600))
            _assert_lockstep(state, oracle, trace, start, hit_cost, miss_extra, budget)

    def test_state_round_trips_through_the_oracle_snapshot(self, kernel):
        rng = np.random.default_rng(5)
        geometry = _geometry(16, 4)
        oracle = SetAssociativeCache(geometry)
        oracle.run_trace(*_random_trace(rng, 400, 200)[:2])
        state = LRUState(geometry)
        state.load_state(oracle.export_state())
        assert state.export_state() == oracle.export_state()
        state.stats = oracle.stats.snapshot()
        trace = _random_trace(rng, 300, 200)
        cursor = 0
        while cursor < len(trace[0]):
            cursor = _assert_lockstep(state, oracle, trace, cursor, 2, 75, 500)[0]

    def test_load_state_rejects_wrong_shape(self):
        state = LRUState(_geometry(16, 2))
        with pytest.raises(ValidationError):
            state.load_state(SetAssociativeCache(_geometry(8, 2)).export_state())

    def test_finished_trace_is_a_no_op(self, kernel):
        rng = np.random.default_rng(7)
        trace = _random_trace(rng, 64, 64)
        state = LRUState(_geometry(16, 2))
        assert run_budget(state, *trace, 64, 2, 75, 100) == (64, 0, 0, 0, 0, 0, 0)

    def test_empty_trace(self, kernel):
        empty = (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=bool),
            np.empty(0, dtype=np.int64),
        )
        state = LRUState(_geometry(16, 2))
        assert run_budget(state, *empty, 0, 2, 75, 100) == (0, 0, 0, 0, 0, 0, 0)

    def test_bad_arguments_rejected(self, kernel):
        trace = _random_trace(np.random.default_rng(3), 32, 32)
        state = LRUState(_geometry(16, 2))
        with pytest.raises(ValidationError):
            run_budget(state, *trace, -1, 2, 75, 100)
        with pytest.raises(ValidationError):
            run_budget(state, *trace, 33, 2, 75, 100)
        with pytest.raises(ValidationError):
            run_budget(state, *trace, 0, 2, 75, 0)
        with pytest.raises(ValidationError):
            run_budget(state, trace[0], trace[1][:-1], trace[2], 0, 2, 75, 100)


def _assert_whole_trace(state, oracle, lines, writes):
    extra = np.zeros(len(lines), dtype=np.int64)
    got = run_trace(state, lines, writes, extra)
    want = oracle.run_trace(lines, writes)
    assert got == want
    assert state.stats == oracle.stats
    assert state.export_state() == oracle.export_state()


class TestWholeTraceMatchesOracle:
    """``run_trace`` against :meth:`SetAssociativeCache.run_trace`.

    Traces are chained on one kernel state and one oracle cache, so every
    call after the first starts warm: resident lines, LRU order and dirty
    flags all carry over from the previous trace.
    """

    @pytest.mark.parametrize("assoc", [1, 2, 4, 8])
    @pytest.mark.parametrize("seed", range(10))
    def test_chained_warm_starts_match_oracle(self, kernel, assoc, seed):
        rng = np.random.default_rng(5000 * assoc + seed)
        num_sets = int(rng.choice([1, 4, 16, 64]))
        geometry = _geometry(num_sets, assoc)
        span = num_sets * assoc * int(rng.integers(1, 4)) + 1
        state = LRUState(geometry)
        oracle = SetAssociativeCache(geometry)
        for _ in range(int(rng.integers(3, 7))):
            length = int(rng.integers(0, 1500))
            lines = rng.integers(0, span, size=length).astype(np.int64)
            writes = rng.random(length) < float(rng.choice([0.0, 0.3, 1.0]))
            _assert_whole_trace(state, oracle, lines, writes)

    def test_dirty_evictions_are_counted(self, kernel):
        # One 2-way set: lines 0 and 1 are written, then 2 and 3 evict
        # both dirty lines; 4 then evicts the clean line 2.
        lines = np.array([0, 1, 2, 3, 4], dtype=np.int64)
        writes = np.array([True, True, False, False, False])
        state = LRUState(_geometry(1, 2))
        oracle = SetAssociativeCache(_geometry(1, 2))
        _assert_whole_trace(state, oracle, lines, writes)
        assert state.stats.dirty_evictions == 2
        assert state.stats.write_misses == 2

    def test_empty_trace_keeps_state(self, kernel):
        rng = np.random.default_rng(3)
        geometry = _geometry(8, 2)
        state = LRUState(geometry)
        run_trace(state, *_random_trace(rng, 100, 40))
        before = state.export_state()
        stats = state.stats.snapshot()
        empty = np.empty(0, dtype=np.int64)
        assert run_trace(state, empty, np.empty(0, dtype=bool), empty) == (0, 0)
        assert state.export_state() == before
        assert state.stats == stats

    def test_exported_state_continues_on_the_oracle(self, kernel):
        """A kernel snapshot loaded into the oracle runs on identically."""
        rng = np.random.default_rng(11)
        geometry = _geometry(16, 4)
        state = LRUState(geometry)
        run_trace(state, *_random_trace(rng, 800, 150))
        snapshot = state.export_state()
        assert isinstance(snapshot, CacheState)
        assert snapshot.dirty
        assert sum(map(len, snapshot.sets)) == int(state.fill.sum())
        oracle = SetAssociativeCache(geometry)
        oracle.load_state(snapshot)
        oracle.stats = state.stats.snapshot()
        lines, writes, _ = _random_trace(rng, 800, 150)
        _assert_whole_trace(state, oracle, lines, writes)

    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        num_sets=st.sampled_from([1, 2, 4, 8, 16]),
        assoc=st.sampled_from([1, 2, 4, 8]),
        data=st.data(),
    )
    def test_random_trace_sequences_match_oracle(
        self, kernel, num_sets, assoc, data
    ):
        span = num_sets * assoc * 3
        geometry = _geometry(num_sets, assoc)
        state = LRUState(geometry)
        oracle = SetAssociativeCache(geometry)
        for _ in range(data.draw(st.integers(1, 4))):
            length = data.draw(st.integers(0, 150))
            lines = data.draw(
                st.lists(st.integers(0, span), min_size=length, max_size=length)
            )
            writes = data.draw(
                st.lists(st.booleans(), min_size=length, max_size=length)
            )
            _assert_whole_trace(
                state,
                oracle,
                np.array(lines, dtype=np.int64),
                np.array(writes, dtype=bool),
            )


def _canon(result):
    return (
        result.makespan_cycles,
        {
            pid: (
                rec.start_cycle,
                rec.end_cycle,
                tuple(rec.cores),
                rec.hits,
                rec.misses,
                rec.preemptions,
            )
            for pid, rec in result.processes.items()
        },
        [
            (
                core.core_id,
                core.busy_cycles,
                tuple(core.executed_pids),
                core.queue_delay_cycles,
                core.bus_transfers,
                core.cache.hits,
                core.cache.misses,
                core.cache.write_hits,
                core.cache.write_misses,
                core.cache.dirty_evictions,
            )
            for core in result.cores
        ],
    )


def _epg(seed: int) -> ExtendedProcessGraph:
    rng = np.random.default_rng(seed)
    tasks = [
        make_two_phase_task(
            f"T{k}",
            rows=int(rng.integers(4, 10)),
            cols=int(rng.integers(8, 24)),
            pieces=int(rng.integers(2, 5)),
        )
        for k in range(int(rng.integers(1, 4)))
    ]
    return ExtendedProcessGraph.from_tasks(tasks)


def kernel_and_oracle(run):
    """``run()`` on the fast path, then on the pure scalar oracle."""
    previous = set_fast_cache(True)
    try:
        fast = run()
        set_fast_cache(False)
        oracle = run()
    finally:
        set_fast_cache(previous)
    return fast, oracle


def _random_schedule(epg, seed: int) -> ArrivalSchedule:
    rng = np.random.default_rng(seed)
    return ArrivalSchedule(
        tuple(
            AppArrival(task, int(rng.integers(0, 40_000)))
            for task in epg.task_names
        )
    )


def _machine(**overrides) -> MachineConfig:
    fields = dict(
        num_cores=2,
        cache_size_bytes=1024,
        cache_associativity=2,
        cache_line_size=32,
        quantum_cycles=500,
        context_switch_cycles=10,
    )
    fields.update(overrides)
    return MachineConfig(**fields)


class TestSharedQueueConformance:
    """Full RRS runs on the kernel equal the pure oracle's, bit for bit."""

    @pytest.mark.parametrize("seed", range(8))
    def test_closed_runs_match(self, seed, small_machine):
        epg = _epg(seed)
        simulator = MPSoCSimulator(small_machine)
        fast, oracle = kernel_and_oracle(
            lambda: simulator.run(epg, RoundRobinScheduler())
        )
        assert _canon(fast) == _canon(oracle)

    @pytest.mark.parametrize("seed", range(4))
    def test_open_runs_match(self, seed, small_machine):
        epg = _epg(seed + 100)
        schedule = _random_schedule(epg, seed)
        simulator = MPSoCSimulator(small_machine)
        fast, oracle = kernel_and_oracle(
            lambda: simulator.run_open(epg, RoundRobinScheduler(), schedule)
        )
        assert _canon(fast) == _canon(oracle)

    def test_charge_writebacks_match(self):
        simulator = MPSoCSimulator(_machine(charge_writebacks=True))
        epg = _epg(42)
        fast, oracle = kernel_and_oracle(
            lambda: simulator.run(epg, RoundRobinScheduler())
        )
        assert _canon(fast) == _canon(oracle)

    def test_heterogeneous_machine_matches(self):
        machine = _machine(
            core_speeds=(1.0, 0.5),
            core_cache_sizes=(1024, 2048),
            core_cache_assocs=(2, 4),
        )
        simulator = MPSoCSimulator(machine)
        epg = _epg(7)
        fast, oracle = kernel_and_oracle(
            lambda: simulator.run(epg, RoundRobinScheduler())
        )
        assert _canon(fast) == _canon(oracle)

    @pytest.mark.parametrize("assoc", [1, 2, 4, 8])
    def test_every_associativity_matches(self, assoc):
        simulator = MPSoCSimulator(_machine(cache_associativity=assoc))
        epg = _epg(assoc + 60)
        fast, oracle = kernel_and_oracle(
            lambda: simulator.run(epg, RoundRobinScheduler())
        )
        assert _canon(fast) == _canon(oracle)

    @pytest.mark.parametrize("seed", range(3))
    def test_every_registered_contention_model_matches(self, seed, small_machine):
        """Kernel-vs-oracle equality holds for every model in the
        CONTENTION registry at its default parameters — a plugin that
        breaks it fails here, not in production.
        """
        from repro.api.registries import list_contentions

        epg = _epg(seed + 500)
        for name, _, _ in list_contentions():
            simulator = MPSoCSimulator(small_machine.with_overrides(contention=name))
            fast, oracle = kernel_and_oracle(
                lambda: simulator.run(epg, RoundRobinScheduler())
            )
            assert _canon(fast) == _canon(oracle), name

    def test_fast_path_runs_the_kernel(self, kernel, monkeypatch, small_machine):
        calls = []

        def counting(*args):
            calls.append(args[4])  # the dispatch's start index
            return run_budget(*args)

        monkeypatch.setattr(simulator_module, "run_budget", counting)
        previous = set_fast_cache(True)
        try:
            MPSoCSimulator(small_machine).run(_epg(3), RoundRobinScheduler())
        finally:
            set_fast_cache(previous)
        assert calls

    def test_fast_cache_off_bypasses_the_kernel(self, monkeypatch, small_machine):
        def forbidden(*args):
            raise AssertionError("the kernel ran with the fast cache off")

        monkeypatch.setattr(simulator_module, "run_budget", forbidden)
        previous = set_fast_cache(False)
        try:
            MPSoCSimulator(small_machine).run(_epg(3), RoundRobinScheduler())
        finally:
            set_fast_cache(previous)


#: One scheduler per whole-trace driver and policy: LS-static runs the
#: static driver; LS (the dispatch-time LSD policy), LSM and RS the
#: dynamic one.
WHOLE_TRACE_SCHEDULERS = {
    "LS-static": StaticLocalityScheduler,
    "LS": LocalityScheduler,
    "LSM": LocalityMappingScheduler,
    "RS": lambda: RandomScheduler(seed=3),
}
DYNAMIC_SCHEDULERS = ("LS", "LSM", "RS")


def _classified(result):
    return [
        None if core.classified is None else vars(core.classified)
        for core in result.cores
    ]


class TestWholeTraceDriverConformance:
    """Full static and dynamic runs on the kernel equal the pure oracle's."""

    @pytest.mark.parametrize("name", WHOLE_TRACE_SCHEDULERS)
    @pytest.mark.parametrize("seed", range(3))
    def test_closed_runs_match(self, name, seed, small_machine):
        epg = _epg(seed + 200)
        simulator = MPSoCSimulator(small_machine)
        fast, oracle = kernel_and_oracle(
            lambda: simulator.run(epg, WHOLE_TRACE_SCHEDULERS[name]())
        )
        assert _canon(fast) == _canon(oracle)

    @pytest.mark.parametrize("name", DYNAMIC_SCHEDULERS)
    @pytest.mark.parametrize("seed", range(2))
    def test_open_runs_match(self, name, seed, small_machine):
        epg = _epg(seed + 300)
        schedule = _random_schedule(epg, seed)
        simulator = MPSoCSimulator(small_machine)
        fast, oracle = kernel_and_oracle(
            lambda: simulator.run_open(
                epg, WHOLE_TRACE_SCHEDULERS[name](), schedule
            )
        )
        assert _canon(fast) == _canon(oracle)

    @pytest.mark.parametrize("name", WHOLE_TRACE_SCHEDULERS)
    def test_charge_writebacks_match(self, name):
        simulator = MPSoCSimulator(_machine(charge_writebacks=True))
        epg = _epg(43)
        fast, oracle = kernel_and_oracle(
            lambda: simulator.run(epg, WHOLE_TRACE_SCHEDULERS[name]())
        )
        assert _canon(fast) == _canon(oracle)

    @pytest.mark.parametrize("name", WHOLE_TRACE_SCHEDULERS)
    def test_heterogeneous_machine_matches(self, name):
        machine = _machine(
            core_speeds=(1.0, 0.5),
            core_cache_sizes=(1024, 2048),
            core_cache_assocs=(2, 4),
        )
        simulator = MPSoCSimulator(machine)
        epg = _epg(8)
        fast, oracle = kernel_and_oracle(
            lambda: simulator.run(epg, WHOLE_TRACE_SCHEDULERS[name]())
        )
        assert _canon(fast) == _canon(oracle)

    @pytest.mark.parametrize("assoc", [1, 2, 4, 8])
    def test_every_associativity_matches(self, assoc):
        simulator = MPSoCSimulator(_machine(cache_associativity=assoc))
        epg = _epg(assoc + 70)
        for name in ("LS-static", "RS"):
            fast, oracle = kernel_and_oracle(
                lambda: simulator.run(epg, WHOLE_TRACE_SCHEDULERS[name]())
            )
            assert _canon(fast) == _canon(oracle), name

    @pytest.mark.parametrize(
        "contention, params",
        [
            ("bus", (("lines_per_quantum", 2),)),
            ("noc", (("hop_cycles", 9), ("cluster_size", 1))),
        ],
    )
    @pytest.mark.parametrize("name", WHOLE_TRACE_SCHEDULERS)
    def test_contention_models_match(self, contention, params, name, small_machine):
        machine = small_machine.with_overrides(
            contention=contention, contention_params=params
        )
        simulator = MPSoCSimulator(machine)
        epg = _epg(501)
        fast, oracle = kernel_and_oracle(
            lambda: simulator.run(epg, WHOLE_TRACE_SCHEDULERS[name]())
        )
        assert _canon(fast) == _canon(oracle)
        assert any(core.queue_delay_cycles for core in fast.cores)

    @pytest.mark.parametrize("name", ["LS-static", "LS"])
    def test_fast_path_runs_the_kernel(self, kernel, monkeypatch, name, small_machine):
        calls = []

        def counting(state, *arrays):
            calls.append(len(arrays[0]))
            return run_trace(state, *arrays)

        monkeypatch.setattr(simulator_module, "run_trace", counting)
        epg = _epg(4)
        previous = set_fast_cache(True)
        try:
            result = MPSoCSimulator(small_machine).run(
                epg, WHOLE_TRACE_SCHEDULERS[name]()
            )
        finally:
            set_fast_cache(previous)
        assert len(calls) == len(epg)
        assert sum(calls) == sum(
            rec.hits + rec.misses for rec in result.processes.values()
        )

    def test_fast_cache_off_bypasses_the_kernel(self, monkeypatch, small_machine):
        def forbidden(*args):
            raise AssertionError("the kernel ran with the fast cache off")

        monkeypatch.setattr(simulator_module, "run_trace", forbidden)
        previous = set_fast_cache(False)
        try:
            for name in ("LS-static", "LS"):
                MPSoCSimulator(small_machine).run(
                    _epg(4), WHOLE_TRACE_SCHEDULERS[name]()
                )
        finally:
            set_fast_cache(previous)

    def test_every_whole_trace_goes_through_execute_trace(
        self, monkeypatch, small_machine
    ):
        """Both paths dispatch through the module-level ``execute_trace``,
        the one name a profiler wraps to time whole-trace execution."""
        seen = []
        original = simulator_module.execute_trace

        def recording(cache, trace):
            seen.append(trace.pid)
            return original(cache, trace)

        monkeypatch.setattr(simulator_module, "execute_trace", recording)
        epg = _epg(5)
        for fast in (True, False):
            seen.clear()
            previous = set_fast_cache(fast)
            try:
                MPSoCSimulator(small_machine).run(epg, LocalityScheduler())
            finally:
                set_fast_cache(previous)
            assert sorted(seen) == sorted(epg.pids)

    def test_classify_misses_runs_on_the_oracle(self, monkeypatch, small_machine):
        def forbidden(*args):
            raise AssertionError("miss classification needs the per-access path")

        machine = small_machine.with_overrides(classify_misses=True)
        epg = _epg(6)
        reference = MPSoCSimulator(small_machine)
        fast_plain, _ = kernel_and_oracle(
            lambda: reference.run(epg, LocalityScheduler())
        )
        monkeypatch.setattr(simulator_module, "run_trace", forbidden)
        for name in ("LS-static", "LS"):
            fast, oracle = kernel_and_oracle(
                lambda: MPSoCSimulator(machine).run(
                    epg, WHOLE_TRACE_SCHEDULERS[name]()
                )
            )
            assert _canon(fast) == _canon(oracle)
            assert _classified(fast) == _classified(oracle)
            assert all(counts is not None for counts in _classified(fast))
        # Classifying observes the run without changing it.
        classified = MPSoCSimulator(machine).run(epg, LocalityScheduler())
        assert _canon(classified) == _canon(fast_plain)

    def test_memoized_campaign_equals_cold_run(self):
        """A campaign served by warm memos == the same campaign run cold,
        and both equal the scalar oracle."""
        from repro.campaign.executor import clear_cell_memo, run_campaign
        from repro.campaign.spec import CampaignSpec, MachineVariant

        spec = CampaignSpec(
            workloads=("MxM", "mix:2"),
            machines=(MachineVariant(),),
            seeds=(0, 1),
            scale=0.25,
            name="memo-correctness",
        )

        def snapshot(outcome):
            return [
                (r.key, r.seconds, r.makespan_cycles, r.hits, r.misses)
                for r in outcome.results
            ]

        clear_cell_memo()
        cold = snapshot(run_campaign(spec))
        # Workloads, sharing matrices and seed-invariant cells are now
        # memoized; a re-run must reproduce the cold results exactly.
        assert snapshot(run_campaign(spec)) == cold
        previous = set_fast_cache(False)
        try:
            clear_cell_memo()
            scalar = snapshot(run_campaign(spec))
        finally:
            set_fast_cache(previous)
            clear_cell_memo()
        assert scalar == cold


def _isolate_loader(monkeypatch, tmp_path: Path, pycache: Path) -> Path:
    """Point a fresh loader at ``pycache`` and a private temp directory."""
    temp = tmp_path / "tmp"
    monkeypatch.setattr(lru_kernel, "_kernel", [])
    monkeypatch.setattr(lru_kernel, "_PYCACHE", pycache)
    monkeypatch.setattr(lru_kernel.tempfile, "gettempdir", lambda: str(temp))
    return temp


_PLANTED = b"not a shared library"


def _plant_library(monkeypatch, tmp_path: Path) -> Path:
    """A junk file under the name the loader would build, in its own directory."""
    probe = tmp_path / "probe"
    _isolate_loader(monkeypatch, tmp_path / "probe-tmp", probe)
    assert load_kernel() is not None
    (built,) = probe.glob("_lru-*.so")
    planted = tmp_path / "planted" / built.name
    planted.parent.mkdir(mode=0o700)
    planted.write_bytes(_PLANTED)
    return planted


def _disown(monkeypatch, path: Path) -> None:
    """Make ``path`` owned by another user, or look so to the loader."""
    if os.getuid() == 0:
        os.chown(path, 65534, 65534)
        return
    real_lstat = os.lstat

    def lstat(target, *args, **kwargs):
        info = real_lstat(target, *args, **kwargs)
        if Path(target) != path:
            return info
        fields = list(info)
        fields[stat.ST_UID] = os.getuid() + 1
        return os.stat_result(fields)

    monkeypatch.setattr(lru_kernel.os, "lstat", lstat)


class TestLoader:
    def test_no_compiler_falls_back_to_the_oracle(
        self, monkeypatch, tmp_path, small_machine
    ):
        _isolate_loader(monkeypatch, tmp_path, tmp_path / "pycache")
        empty = tmp_path / "empty-path"
        empty.mkdir()
        monkeypatch.setenv("PATH", str(empty))
        assert load_kernel() is None
        simulator = MPSoCSimulator(small_machine)
        epg = _epg(9)
        fallback, oracle = kernel_and_oracle(
            lambda: simulator.run(epg, RoundRobinScheduler())
        )
        assert _canon(fallback) == _canon(oracle)

    def test_unwritable_pycache_falls_back_to_temp_dir(
        self, kernel, monkeypatch, tmp_path
    ):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where the package directory should be")
        temp = _isolate_loader(monkeypatch, tmp_path, blocked / "__pycache__")
        assert load_kernel() is not None
        built = list(temp.glob("repro-*/_lru-*.so"))
        assert len(built) == 1
        assert stat.S_IMODE(built[0].parent.stat().st_mode) == 0o700

    @pytest.mark.parametrize("flaw", ["group-writable", "foreign-owned", "symlink"])
    def test_untrusted_pycache_is_skipped(self, kernel, monkeypatch, tmp_path, flaw):
        planted = _plant_library(monkeypatch, tmp_path)
        pycache = planted.parent
        if flaw == "group-writable":
            pycache.chmod(0o770)
        elif flaw == "foreign-owned":
            _disown(monkeypatch, pycache)
        else:
            pycache = tmp_path / "link"
            pycache.symlink_to(planted.parent)
        temp = _isolate_loader(monkeypatch, tmp_path, pycache)
        # Loading the planted file would fail, so a kernel means it was skipped.
        assert load_kernel() is not None
        assert planted.read_bytes() == _PLANTED
        assert len(list(temp.glob("repro-*/_lru-*.so"))) == 1

    def test_writable_library_is_not_loaded(self, kernel, monkeypatch, tmp_path):
        planted = _plant_library(monkeypatch, tmp_path)
        planted.chmod(0o666)
        temp = _isolate_loader(monkeypatch, tmp_path, planted.parent)
        assert load_kernel() is not None
        assert planted.read_bytes() == _PLANTED
        assert len(list(temp.glob("repro-*/_lru-*.so"))) == 1

    def test_no_trusted_directory_runs_the_oracle(self, kernel, monkeypatch, tmp_path):
        planted = _plant_library(monkeypatch, tmp_path)
        # A working library this time, so only the checks keep it unloaded.
        shutil.copyfile(tmp_path / "probe" / planted.name, planted)
        planted.parent.chmod(0o777)
        temp = _isolate_loader(monkeypatch, tmp_path, planted.parent)
        temp.mkdir()
        (temp / f"repro-{os.getuid()}").symlink_to(planted.parent)
        assert load_kernel() is None

    def test_concurrent_builds_both_load_a_valid_library(self, kernel, tmp_path):
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "import numpy as np\n"
            "from repro.cache import lru_kernel\n"
            "from repro.cache.geometry import CacheGeometry\n"
            "from repro.cache.sa_cache import SetAssociativeCache\n"
            "lru_kernel._PYCACHE = Path(sys.argv[1])\n"
            "assert lru_kernel.load_kernel() is not None\n"
            "geometry = CacheGeometry(1024, 2, 32)\n"
            "lines = np.arange(200, dtype=np.int64) % 50\n"
            "writes = lines % 3 == 0\n"
            "extra = np.ones(200, dtype=np.int64)\n"
            "state = lru_kernel.LRUState(geometry)\n"
            "got = lru_kernel.run_budget(state, lines, writes, extra, 0, 2, 75, 10**6)\n"
            "want = SetAssociativeCache(geometry).run_budget_rows(\n"
            "    lines, writes, extra, 0, 2, 75, 10**6)\n"
            "assert got[:4] == want, (got, want)\n"
            "print('ok')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        target = tmp_path / "shared"
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(target)],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert out.strip() == "ok"
        assert len(list(target.glob("_lru-*.so"))) == 1
        assert not list(target.glob("*.tmp"))

    def test_importing_the_api_neither_builds_nor_loads(self):
        script = (
            "import repro.api, repro.sim.simulator\n"
            "from repro.cache import lru_kernel\n"
            "assert lru_kernel._kernel == []\n"
            "from pathlib import Path\n"
            "maps = Path('/proc/self/maps')\n"
            "assert not maps.exists() or '_lru-' not in maps.read_text()\n"
            "print('ok')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"
