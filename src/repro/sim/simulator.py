"""The MPSoC simulator: executes a scheduler plan over an EPG.

Three drivers, one per :class:`~repro.sched.base.PlanMode`:

- **static** (LS/LSM): fixed per-core queues, non-preemptive.  Because the
  per-core caches are private and contents persist across processes, each
  process's cache behaviour depends only on the *order* of processes on
  its own core, so traces are resolved core-locally and start times
  computed analytically from dependence completion times (a worklist pass
  replaces a full event loop).
- **dynamic** (RS/LSD): whenever a core goes idle, a picker callback
  chooses among the ready processes; non-preemptive, event-driven.
- **shared_queue** (RRS): one global FIFO, quantum preemption, processes
  resume wherever a core frees up — faithfully migrating (and thereby
  losing) cache state, per the paper's motivating scenario.

Open-system admission (beyond the paper): :meth:`MPSoCSimulator.run_open`
executes the dynamic and shared-queue drivers against an
:class:`~repro.sim.arrivals.ArrivalSchedule` — each application's process
set is *released* only once its arrival event fires, so the ready set
grows mid-run and the result carries per-app response-time records
(:class:`~repro.sim.results.OpenSystemResult`).  A schedule with every
arrival at cycle 0 takes the exact closed-system code path and reproduces
the batch results bit for bit.  Static plans cannot react to admissions
and are rejected in open mode.

Heterogeneous machines: when :class:`~repro.sim.config.MachineConfig`
declares per-core speed factors or cache geometries, each core simulates
its own cache and every charged duration is ceiling-scaled by the core's
speed.  Homogeneous configs (the default) execute the identical integer
arithmetic as before.

Modelling notes (documented substitutions for Simics):

- Caches are tag-only, true-LRU, write-allocate; dirty write-backs are
  counted and optionally charged (`MachineConfig.charge_writebacks`).
- No coherence traffic is modelled: the workloads are read-shared /
  privately-written (as in the paper's examples), where coherence events
  are negligible relative to the conflict/reuse effects under study.
- A hit costs ``cache_hit_cycles``; a miss additionally costs
  ``memory_latency_cycles``; each iteration charges its fragment's
  compute cycles.
- Off-chip contention (``MachineConfig.contention``): after a segment's
  ordinary cost is settled — including heterogeneity scaling — the
  machine's contention model is charged once on the segment's aggregate
  off-chip transfers (misses plus dirty write-backs) and its undelayed
  wall duration, and the returned stall extends the segment.  The stall
  is a pure function of those per-segment aggregates, so the compiled
  kernel and the scalar oracle charge bit-identical delays and hit/miss
  counts are never perturbed (see :mod:`repro.sim.contention`).  The
  default ``none`` model skips the branch entirely.
"""

from __future__ import annotations

import heapq
from collections import deque

from repro.cache.lru_kernel import LRUState, load_kernel, run_budget, run_trace
from repro.cache.memo import fast_cache_enabled
from repro.cache.miss_classifier import MissClassifier
from repro.cache.sa_cache import SetAssociativeCache
from repro.errors import (
    InfeasibleScheduleError,
    SchedulingError,
    SimulationError,
    ValidationError,
)
from repro.procgraph.graph import ProcessGraph
from repro.sched.base import PlanMode, Scheduler, SchedulerPlan, default_layout
from repro.sim.arrivals import ArrivalSchedule
from repro.sim.config import MachineConfig
from repro.sim.contention import contention_model_for
from repro.sim.engine import EventQueue
from repro.sim.results import (
    CoreRecord,
    OpenSystemResult,
    ProcessRecord,
    SimulationResult,
)
from repro.sim.trace import ProcessTrace, build_trace

#: perfbench/tracer.py wraps these names; the compiled LRU kernel
#: replaced quantum plans, so they stay unbound until the benchmark's
#: layer list changes.  Until then its traced runs count kernel time in
#: ``sim.simulator.self_s``.
compile_quantum_plan = run_plan_quantum = None


def execute_trace(
    cache: LRUState | SetAssociativeCache, trace: ProcessTrace
) -> tuple[int, int]:
    """Run a process's whole trace on its core's cache; ``(hits, misses)``.

    The static and dynamic drivers call this once per dispatch: the
    compiled kernel for :class:`LRUState` caches, the scalar oracle
    otherwise.  Both update the cache's statistics and tag state alike.
    """
    if isinstance(cache, LRUState):
        return run_trace(cache, trace.lines, trace.writes, trace.extra_cycles)
    return cache.run_trace(trace.lines, trace.writes)


class MPSoCSimulator:
    """Simulates one machine configuration; reusable across runs."""

    def __init__(self, config: MachineConfig | None = None) -> None:
        self._config = config if config is not None else MachineConfig.paper_default()
        if not isinstance(self._config, MachineConfig):
            raise ValidationError(f"expected MachineConfig, got {config!r}")

    @property
    def config(self) -> MachineConfig:
        """The simulated machine."""
        return self._config

    # -- public entry points -----------------------------------------------------

    def run(
        self,
        epg: ProcessGraph,
        scheduler: Scheduler,
        layout=None,
        validate: bool = True,
    ) -> SimulationResult:
        """Prepare the scheduler's plan and execute it."""
        if not isinstance(scheduler, Scheduler):
            raise ValidationError(f"expected a Scheduler, got {scheduler!r}")
        epg.validate_acyclic()
        base = layout if layout is not None else default_layout(epg, self._config)
        plan = scheduler.prepare(epg, self._config, base)
        return self.run_plan(epg, plan, validate=validate)

    def run_plan(
        self, epg: ProcessGraph, plan: SchedulerPlan, validate: bool = True
    ) -> SimulationResult:
        """Execute an already-prepared plan."""
        geometry = self._config.geometry()
        traces = {
            process.pid: build_trace(process, plan.layout, geometry)
            for process in epg
        }
        if plan.mode is PlanMode.STATIC:
            result = self._run_static(epg, plan, traces)
        elif plan.mode is PlanMode.DYNAMIC:
            result = self._run_dynamic(epg, plan, traces)
        else:
            result = self._run_shared_queue(epg, plan, traces)
        result.metadata.update(plan.metadata)
        result.metadata["layout"] = plan.layout
        if validate:
            result.validate_against(epg)
        return result

    # -- open-system entry points ----------------------------------------------------

    def run_open(
        self,
        epg: ProcessGraph,
        scheduler: Scheduler,
        schedule: ArrivalSchedule,
        layout=None,
        validate: bool = True,
    ) -> OpenSystemResult:
        """Run with dynamic admission: apps release at their arrival cycles."""
        if not isinstance(scheduler, Scheduler):
            raise ValidationError(f"expected a Scheduler, got {scheduler!r}")
        epg.validate_acyclic()
        base = layout if layout is not None else default_layout(epg, self._config)
        plan = scheduler.prepare(epg, self._config, base)
        return self.run_plan_open(epg, plan, schedule, validate=validate)

    def run_plan_open(
        self,
        epg: ProcessGraph,
        plan: SchedulerPlan,
        schedule: ArrivalSchedule,
        validate: bool = True,
    ) -> OpenSystemResult:
        """Execute an already-prepared plan against an arrival schedule."""
        if not isinstance(schedule, ArrivalSchedule):
            raise ValidationError(
                f"expected an ArrivalSchedule, got {schedule!r}"
            )
        release = self._release_map(epg, schedule)
        geometry = self._config.geometry()
        traces = {
            process.pid: build_trace(process, plan.layout, geometry)
            for process in epg
        }
        if plan.mode is PlanMode.DYNAMIC:
            result = self._run_dynamic(epg, plan, traces, release=release)
        elif plan.mode is PlanMode.SHARED_QUEUE:
            result = self._run_shared_queue(epg, plan, traces, release=release)
        else:
            raise SimulationError(
                "static plans fix every core queue ahead of time and cannot "
                "admit mid-run arrivals; use a dynamic or shared-queue "
                "scheduler for open-system runs"
            )
        result.metadata.update(plan.metadata)
        result.metadata["layout"] = plan.layout
        open_result = OpenSystemResult.from_simulation(
            result, epg, schedule, machine=self._config
        )
        if validate:
            open_result.validate_against(epg)
        return open_result

    @staticmethod
    def _release_map(epg: ProcessGraph, schedule: ArrivalSchedule) -> dict[str, int]:
        """Per-pid release cycles from the per-app arrival schedule.

        Every task in the EPG must arrive exactly once; an arriving app
        releases its *whole* process set (interior processes stay gated
        by their dependences as usual).
        """
        tasks = {process.task_name for process in epg}
        scheduled = set(schedule.apps)
        missing = tasks - scheduled
        if missing:
            raise SimulationError(
                f"no arrival scheduled for apps: {sorted(missing)}"
            )
        extra = scheduled - tasks
        if extra:
            raise SimulationError(
                f"arrival schedule names apps not in the EPG: {sorted(extra)}"
            )
        by_app = schedule.as_dict()
        return {process.pid: by_app[process.task_name] for process in epg}

    # -- cost helpers --------------------------------------------------------------

    def _duration(self, trace: ProcessTrace, hits: int, misses: int) -> int:
        config = self._config
        return trace.cost_cycles(
            hits, misses, config.cache_hit_cycles, config.miss_cycles
        )

    def _writeback_cycles(self, dirty_evictions: int) -> int:
        if self._config.charge_writebacks:
            return dirty_evictions * self._config.memory_latency_cycles
        return 0

    def _run_whole_trace(
        self,
        cache: LRUState | SetAssociativeCache,
        classifier: MissClassifier | None,
        trace: ProcessTrace,
    ) -> tuple[int, int]:
        """Run a full trace; slow per-access path only when classifying."""
        if classifier is None:
            return execute_trace(cache, trace)
        hits = 0
        misses = 0
        for line, is_write in zip(trace.lines.tolist(), trace.writes.tolist()):
            hit = cache.access_line(line, is_write)
            classifier.observe(line, hit)
            if hit:
                hits += 1
            else:
                misses += 1
        return hits, misses

    def _make_caches(
        self,
    ) -> tuple[
        list[LRUState] | list[SetAssociativeCache], list[MissClassifier] | None
    ]:
        """Per-core caches, plus classifiers when misses are classified.

        Traces run on the compiled LRU kernel unless the fast cache is
        off, the kernel cannot be built, or misses are classified (that
        needs the per-access path); then the scalar oracle runs instead,
        with identical results.
        """
        config = self._config
        geometries = [config.geometry_for(core) for core in range(config.num_cores)]
        if config.classify_misses:
            caches = [SetAssociativeCache(geometry) for geometry in geometries]
            return caches, [MissClassifier(geometry) for geometry in geometries]
        if fast_cache_enabled() and load_kernel() is not None:
            return [LRUState(geometry) for geometry in geometries], None
        return [SetAssociativeCache(geometry) for geometry in geometries], None

    # -- static driver (LS / LSM) ----------------------------------------------------

    def _run_static(
        self,
        epg: ProcessGraph,
        plan: SchedulerPlan,
        traces: dict[str, ProcessTrace],
    ) -> SimulationResult:
        num_cores = self._config.num_cores
        queues = plan.core_queues
        if len(queues) != num_cores:
            raise SchedulingError(
                f"plan has {len(queues)} queues but machine has {num_cores} cores"
            )
        placed = [pid for queue in queues for pid in queue]
        if sorted(placed) != sorted(epg.pids):
            raise SchedulingError(
                "static plan must place every process exactly once"
            )
        caches, classifiers = self._make_caches()
        contention = contention_model_for(self._config)
        queue_delay = [0] * num_cores
        transfers_of = [0] * num_cores
        completion: dict[str, int] = {}
        records: dict[str, ProcessRecord] = {}
        next_index = [0] * num_cores
        free_at = [0] * num_cores
        busy = [0] * num_cores
        remaining = len(placed)
        while remaining:
            progressed = False
            for core in range(num_cores):
                queue = queues[core]
                while next_index[core] < len(queue):
                    pid = queue[next_index[core]]
                    preds = epg.predecessors(pid)
                    if not all(p in completion for p in preds):
                        break
                    ready_at = max((completion[p] for p in preds), default=0)
                    start = max(free_at[core], ready_at)
                    trace = traces[pid]
                    cache = caches[core]
                    evictions_before = cache.stats.dirty_evictions
                    classifier = classifiers[core] if classifiers else None
                    hits, misses = self._run_whole_trace(cache, classifier, trace)
                    evicted = cache.stats.dirty_evictions - evictions_before
                    duration = self._duration(trace, hits, misses)
                    duration += self._writeback_cycles(evicted)
                    duration += self._config.context_switch_cycles
                    duration = self._config.scaled_cycles(core, duration)
                    if contention is not None:
                        transfers = misses + evicted
                        stall = contention.delay_cycles(core, transfers, duration)
                        duration += stall
                        queue_delay[core] += stall
                        transfers_of[core] += transfers
                    completion[pid] = start + duration
                    records[pid] = ProcessRecord(
                        pid=pid,
                        start_cycle=start,
                        end_cycle=start + duration,
                        cores=[core],
                        hits=hits,
                        misses=misses,
                    )
                    free_at[core] = start + duration
                    busy[core] += duration
                    next_index[core] += 1
                    remaining -= 1
                    progressed = True
            if remaining and not progressed:
                blocked = [
                    queues[c][next_index[c]]
                    for c in range(num_cores)
                    if next_index[c] < len(queues[c])
                ]
                raise InfeasibleScheduleError(
                    f"static schedule deadlocked; blocked heads: {blocked}"
                )
        makespan = max(completion.values(), default=0)
        cores = [
            CoreRecord(
                core_id=core,
                busy_cycles=busy[core],
                executed_pids=list(queues[core]),
                cache=caches[core].stats,
                classified=classifiers[core].counts if classifiers else None,
                queue_delay_cycles=queue_delay[core],
                bus_transfers=transfers_of[core],
            )
            for core in range(num_cores)
        ]
        return SimulationResult(
            scheduler_name=plan.scheduler_name,
            makespan_cycles=makespan,
            clock_hz=self._config.clock_hz,
            processes=records,
            cores=cores,
        )

    # -- dynamic driver (RS / LSD) -----------------------------------------------------

    def _run_dynamic(
        self,
        epg: ProcessGraph,
        plan: SchedulerPlan,
        traces: dict[str, ProcessTrace],
        release: dict[str, int] | None = None,
    ) -> SimulationResult:
        num_cores = self._config.num_cores
        caches, classifiers = self._make_caches()
        contention = contention_model_for(self._config)
        queue_delay = [0] * num_cores
        transfers_of = [0] * num_cores
        events = EventQueue()
        pending = {pid: len(epg.predecessors(pid)) for pid in epg.pids}
        # Open-system admission: a pid participates only once its app has
        # arrived.  ``release`` empty (the closed path) marks everything
        # arrived up front and schedules no events, so the loop below is
        # byte-identical to the historical closed-batch driver.
        release = release or {}
        arrived = {pid for pid in pending if release.get(pid, 0) == 0}
        for pid, cycle in sorted(release.items()):
            if cycle > 0:
                events.push(cycle, ("arrive", -1, pid))
        # ``ready`` is a heap: newly released pids are pushed in O(log n)
        # instead of re-sorting the whole list on every completion event.
        # Pickers still see the identical fully-sorted tuple (built once
        # per dispatch batch), so every dispatch decision — including
        # RS's rng consumption order — is unchanged.
        ready = sorted(
            pid
            for pid, count in pending.items()
            if count == 0 and pid in arrived
        )
        ready_view: tuple[str, ...] | None = tuple(ready)
        completed: set[str] = set()
        idle: set[int] = set(range(num_cores))
        last_pid: list[str | None] = [None] * num_cores
        running: dict[int, str] = {}
        busy = [0] * num_cores
        executed: list[list[str]] = [[] for _ in range(num_cores)]
        records: dict[str, ProcessRecord] = {}

        def dispatch_idle_cores(now: int) -> None:
            nonlocal ready_view
            while ready and idle:
                if ready_view is None:
                    ready_view = tuple(sorted(ready))
                core = min(idle)
                co_running = tuple(
                    running[c] for c in sorted(running) if c != core
                )
                pid = plan.picker(core, ready_view, last_pid[core], co_running)
                if pid not in ready:
                    raise SchedulingError(
                        f"picker returned {pid!r}, not in the ready set"
                    )
                ready.remove(pid)
                heapq.heapify(ready)
                ready_view = tuple(item for item in ready_view if item != pid)
                idle.discard(core)
                running[core] = pid
                trace = traces[pid]
                cache = caches[core]
                classifier = classifiers[core] if classifiers else None
                evictions_before = cache.stats.dirty_evictions
                hits, misses = self._run_whole_trace(cache, classifier, trace)
                evicted = cache.stats.dirty_evictions - evictions_before
                duration = self._duration(trace, hits, misses)
                duration += self._writeback_cycles(evicted)
                duration += self._config.context_switch_cycles
                duration = self._config.scaled_cycles(core, duration)
                if contention is not None:
                    transfers = misses + evicted
                    stall = contention.delay_cycles(core, transfers, duration)
                    duration += stall
                    queue_delay[core] += stall
                    transfers_of[core] += transfers
                records[pid] = ProcessRecord(
                    pid=pid,
                    start_cycle=now,
                    end_cycle=now + duration,
                    cores=[core],
                    hits=hits,
                    misses=misses,
                )
                busy[core] += duration
                executed[core].append(pid)
                last_pid[core] = pid
                events.push(now + duration, ("done", core, pid))

        dispatch_idle_cores(0)
        makespan = 0
        while events:
            now, (kind, core, pid) = events.pop()
            if kind == "arrive":
                arrived.add(pid)
                if pending[pid] == 0:
                    heapq.heappush(ready, pid)
                    ready_view = None
                dispatch_idle_cores(now)
                continue
            if kind != "done":
                raise SimulationError(f"unexpected event {kind!r}")
            completed.add(pid)
            if running.get(core) == pid:
                del running[core]
            makespan = max(makespan, now)
            for successor in sorted(epg.successors(pid)):
                pending[successor] -= 1
                if pending[successor] == 0 and successor in arrived:
                    heapq.heappush(ready, successor)
                    ready_view = None
            idle.add(core)
            dispatch_idle_cores(now)
        if len(completed) != len(epg):
            raise InfeasibleScheduleError(
                f"dynamic run finished with {len(epg) - len(completed)} "
                f"processes never dispatched"
            )
        cores = [
            CoreRecord(
                core_id=core,
                busy_cycles=busy[core],
                executed_pids=executed[core],
                cache=caches[core].stats,
                classified=classifiers[core].counts if classifiers else None,
                queue_delay_cycles=queue_delay[core],
                bus_transfers=transfers_of[core],
            )
            for core in range(num_cores)
        ]
        return SimulationResult(
            scheduler_name=plan.scheduler_name,
            makespan_cycles=makespan,
            clock_hz=self._config.clock_hz,
            processes=records,
            cores=cores,
        )

    # -- shared-queue driver (RRS) --------------------------------------------------------

    def _run_shared_queue(
        self,
        epg: ProcessGraph,
        plan: SchedulerPlan,
        traces: dict[str, ProcessTrace],
        release: dict[str, int] | None = None,
    ) -> SimulationResult:
        if self._config.classify_misses:
            raise SimulationError(
                "miss classification is not supported in shared-queue mode; "
                "use a static or dynamic plan"
            )
        num_cores = self._config.num_cores
        quantum = plan.quantum_cycles
        config = self._config
        caches, _ = self._make_caches()
        contention = contention_model_for(config)
        queue_delay = [0] * num_cores
        transfers_of = [0] * num_cores
        hit_cost = config.cache_hit_cycles
        miss_extra = config.memory_latency_cycles
        # Work budget per quantum, in Table-2-core work cycles: a core at
        # speed s retires s cycles of work per wall cycle.
        budgets = [
            max(1, int(quantum * config.speed_for(core)))
            for core in range(num_cores)
        ]
        events = EventQueue()
        pending = {pid: len(epg.predecessors(pid)) for pid in epg.pids}
        release = release or {}
        arrived = {pid for pid in pending if release.get(pid, 0) == 0}
        for pid, cycle in sorted(release.items()):
            if cycle > 0:
                events.push(cycle, ("arrive", -1, pid))
        queue: deque[str] = deque(
            sorted(
                pid
                for pid, count in pending.items()
                if count == 0 and pid in arrived
            )
        )
        cursor = {pid: 0 for pid in epg.pids}
        hits_acc = {pid: 0 for pid in epg.pids}
        misses_acc = {pid: 0 for pid in epg.pids}
        preemptions = {pid: 0 for pid in epg.pids}
        cores_of: dict[str, list[int]] = {pid: [] for pid in epg.pids}
        first_dispatch: dict[str, int] = {}
        completion: dict[str, int] = {}
        idle: set[int] = set(range(num_cores))
        busy = [0] * num_cores
        executed: list[list[str]] = [[] for _ in range(num_cores)]

        def dispatch(core: int, now: int) -> None:
            if not queue:
                idle.add(core)
                return
            pid = queue.popleft()
            idle.discard(core)
            if pid not in first_dispatch:
                first_dispatch[pid] = now
            trace = traces[pid]
            cache = caches[core]
            evictions_before = cache.stats.dirty_evictions
            if isinstance(cache, LRUState):
                next_index, used, hits, misses, _, _, _ = run_budget(
                    cache,
                    trace.lines,
                    trace.writes,
                    trace.extra_cycles,
                    cursor[pid],
                    hit_cost,
                    miss_extra,
                    budgets[core],
                )
            else:
                next_index, used, hits, misses = cache.run_budget_rows(
                    trace.lines,
                    trace.writes,
                    trace.extra_cycles,
                    cursor[pid],
                    hit_cost,
                    miss_extra,
                    budgets[core],
                )
            evicted = cache.stats.dirty_evictions - evictions_before
            used += self._writeback_cycles(evicted)
            used += config.context_switch_cycles
            used = config.scaled_cycles(core, used)
            if contention is not None:
                transfers = misses + evicted
                stall = contention.delay_cycles(core, transfers, used)
                used += stall
                queue_delay[core] += stall
                transfers_of[core] += transfers
            cursor[pid] = next_index
            hits_acc[pid] += hits
            misses_acc[pid] += misses
            cores_of[pid].append(core)
            executed[core].append(pid)
            busy[core] += used
            finished = next_index >= trace.num_accesses
            kind = "done" if finished else "preempt"
            events.push(now + used, (kind, core, pid))

        def wake_idle(now: int) -> None:
            while queue and idle:
                dispatch(min(idle), now)

        wake_idle(0)
        makespan = 0
        while events:
            now, (kind, core, pid) = events.pop()
            if kind == "arrive":
                arrived.add(pid)
                if pending[pid] == 0:
                    queue.append(pid)
                wake_idle(now)
                continue
            makespan = max(makespan, now)
            if kind == "preempt":
                preemptions[pid] += 1
                queue.append(pid)
                dispatch(core, now)
                wake_idle(now)
            elif kind == "done":
                completion[pid] = now
                for successor in sorted(epg.successors(pid)):
                    pending[successor] -= 1
                    if pending[successor] == 0 and successor in arrived:
                        queue.append(successor)
                dispatch(core, now)
                wake_idle(now)
            else:
                raise SimulationError(f"unexpected event {kind!r}")
        if len(completion) != len(epg):
            raise InfeasibleScheduleError(
                f"shared-queue run finished with "
                f"{len(epg) - len(completion)} processes incomplete"
            )
        records = {
            pid: ProcessRecord(
                pid=pid,
                start_cycle=first_dispatch[pid],
                end_cycle=completion[pid],
                cores=cores_of[pid],
                hits=hits_acc[pid],
                misses=misses_acc[pid],
                preemptions=preemptions[pid],
            )
            for pid in epg.pids
        }
        cores = [
            CoreRecord(
                core_id=core,
                busy_cycles=busy[core],
                executed_pids=executed[core],
                cache=caches[core].stats,
                queue_delay_cycles=queue_delay[core],
                bus_transfers=transfers_of[core],
            )
            for core in range(num_cores)
        ]
        return SimulationResult(
            scheduler_name=plan.scheduler_name,
            makespan_cycles=makespan,
            clock_hz=self._config.clock_hz,
            processes=records,
            cores=cores,
        )
