"""The MPSoC simulator: executes a scheduler plan over an EPG.

One event loop runs every plan.  Events sit on a deterministic
``(time, sequence)`` heap (:class:`~repro.sim.engine.EventQueue`): an
application arrives, or a core ends a segment.  After each event the
plan's dispatch policy, one per :class:`~repro.sched.base.PlanMode`,
fills the idle cores:

- **static** (LS-static): fixed per-core queues, non-preemptive.  A core
  whose queue head is not ready yet waits for it, so every process
  starts at ``max(core free, dependences complete)``.  Per-core caches
  are private and keep their contents across processes, so a process's
  cache behaviour depends only on the order of its own core's queue.
- **dynamic** (RS, LS, LSM, the online zoo): the lowest idle core asks
  the plan's picker to choose among the ready processes; non-preemptive.
- **shared_queue** (RRS): one global FIFO, quantum preemption, processes
  resume wherever a core frees up — faithfully migrating (and thereby
  losing) cache state, per the paper's motivating scenario.

Every dispatch charges one *segment* the same way: the whole trace
(static, dynamic) or one quantum's work budget (shared queue) on the
core's cache, then write-backs, the context switch, the core's speed and
off-chip contention.

Open-system admission (beyond the paper): :meth:`MPSoCSimulator.run_open`
executes dynamic and shared-queue plans against an
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

import bisect
from collections import deque
from collections.abc import Iterable

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

    The event loop calls this once per whole-trace dispatch: the
    compiled kernel for :class:`LRUState` caches, the scalar oracle
    otherwise.  Both update the cache's statistics and tag state alike.
    """
    if isinstance(cache, LRUState):
        return run_trace(cache, trace.lines, trace.writes, trace.extra_cycles)
    return cache.run_trace(trace.lines, trace.writes)


# -- dispatch policies -------------------------------------------------------------


class _Policy:
    """Which process an idle core runs next; one subclass per PlanMode.

    Subclasses implement ``release(pids)``, taking processes that became
    ready or were preempted, and ``pick(idle, running, freed)``, returning
    the next ``(core, pid)`` dispatch or None.  ``budget(core)`` is a
    core's work budget per dispatch; None runs the whole trace.
    """

    def budget(self, core: int) -> int | None:
        return None

    def blocked(self) -> str:
        """Why a run ended with processes left."""
        return "no process left ready to dispatch"


class _StaticQueues(_Policy):
    """Fixed per-core queues: an idle core starts its head once it is ready."""

    def __init__(self, plan: SchedulerPlan, epg: ProcessGraph, config: MachineConfig):
        queues = plan.core_queues
        if len(queues) != config.num_cores:
            raise SchedulingError(
                f"plan has {len(queues)} queues but machine has "
                f"{config.num_cores} cores"
            )
        placed = [pid for queue in queues for pid in queue]
        if sorted(placed) != sorted(epg.pids):
            raise SchedulingError(
                "static plan must place every process exactly once"
            )
        self._queues = queues
        self._next = [0] * len(queues)
        self._ready: set[str] = set()

    def release(self, pids: Iterable[str]) -> None:
        self._ready.update(pids)

    def pick(
        self, idle: set[int], running: dict[int, str], freed: int | None
    ) -> tuple[int, str] | None:
        for core in sorted(idle):
            queue, index = self._queues[core], self._next[core]
            if index < len(queue) and queue[index] in self._ready:
                self._next[core] = index + 1
                return core, queue[index]
        return None

    def blocked(self) -> str:
        heads = [
            queue[index]
            for queue, index in zip(self._queues, self._next)
            if index < len(queue)
        ]
        return f"static schedule deadlocked; blocked heads: {heads}"


class _Picker(_Policy):
    """Dispatch-time choice: the lowest idle core asks the plan's picker.

    The picker sees the ready pids sorted, the pid that last ran on the
    core, and the pids running on the other cores in core order.
    """

    def __init__(self, plan: SchedulerPlan, epg: ProcessGraph, config: MachineConfig):
        self._picker = plan.picker
        self._ready: list[str] = []
        self._last: list[str | None] = [None] * config.num_cores

    def release(self, pids: Iterable[str]) -> None:
        for pid in pids:
            bisect.insort(self._ready, pid)

    def pick(
        self, idle: set[int], running: dict[int, str], freed: int | None
    ) -> tuple[int, str] | None:
        if not self._ready or not idle:
            return None
        core = min(idle)
        co_running = tuple(running[c] for c in sorted(running))
        pid = self._picker(core, tuple(self._ready), self._last[core], co_running)
        if pid not in self._ready:
            raise SchedulingError(f"picker returned {pid!r}, not in the ready set")
        self._ready.remove(pid)
        self._last[core] = pid
        return core, pid


class _SharedFifo(_Policy):
    """One FIFO over all cores, one quantum per dispatch.

    The core that just freed takes the head first; only then do the
    lowest idle cores take work.  That order decides where preempted
    processes resume, and so which of them migrate.
    """

    def __init__(self, plan: SchedulerPlan, epg: ProcessGraph, config: MachineConfig):
        if config.classify_misses:
            raise SimulationError(
                "miss classification is not supported in shared-queue mode; "
                "use a static or dynamic plan"
            )
        self._queue: deque[str] = deque()
        # Work budget per quantum, in Table-2-core work cycles: a core at
        # speed s retires s cycles of work per wall cycle.
        self._budgets = [
            max(1, int(plan.quantum_cycles * config.speed_for(core)))
            for core in range(config.num_cores)
        ]

    def release(self, pids: Iterable[str]) -> None:
        self._queue.extend(pids)

    def pick(
        self, idle: set[int], running: dict[int, str], freed: int | None
    ) -> tuple[int, str] | None:
        if not self._queue or not idle:
            return None
        core = freed if freed in idle else min(idle)
        return core, self._queue.popleft()

    def budget(self, core: int) -> int:
        return self._budgets[core]


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
        plan = self._prepare(epg, scheduler, layout)
        return self.run_plan(epg, plan, validate=validate)

    def run_plan(
        self, epg: ProcessGraph, plan: SchedulerPlan, validate: bool = True
    ) -> SimulationResult:
        """Execute an already-prepared plan."""
        result = self._execute(epg, plan)
        if validate:
            result.validate_against(epg)
        return result

    def run_open(
        self,
        epg: ProcessGraph,
        scheduler: Scheduler,
        schedule: ArrivalSchedule,
        layout=None,
        validate: bool = True,
    ) -> OpenSystemResult:
        """Run with dynamic admission: apps release at their arrival cycles."""
        plan = self._prepare(epg, scheduler, layout)
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
        if plan.mode is PlanMode.STATIC:
            raise SimulationError(
                "static plans fix every core queue ahead of time and cannot "
                "admit mid-run arrivals; use a dynamic or shared-queue "
                "scheduler for open-system runs"
            )
        open_result = OpenSystemResult.from_simulation(
            self._execute(epg, plan, release), epg, schedule, machine=self._config
        )
        if validate:
            open_result.validate_against(epg)
        return open_result

    def _prepare(
        self, epg: ProcessGraph, scheduler: Scheduler, layout
    ) -> SchedulerPlan:
        if not isinstance(scheduler, Scheduler):
            raise ValidationError(f"expected a Scheduler, got {scheduler!r}")
        epg.validate_acyclic()
        base = layout if layout is not None else default_layout(epg, self._config)
        return scheduler.prepare(epg, self._config, base)

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

    # -- caches ------------------------------------------------------------------------

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

    # -- the event loop ----------------------------------------------------------------

    def _execute(
        self,
        epg: ProcessGraph,
        plan: SchedulerPlan,
        release: dict[str, int] | None = None,
    ) -> SimulationResult:
        """Run ``plan`` to completion; ``release`` maps pids to arrival cycles."""
        config = self._config
        policy = {
            PlanMode.STATIC: _StaticQueues,
            PlanMode.DYNAMIC: _Picker,
            PlanMode.SHARED_QUEUE: _SharedFifo,
        }[plan.mode](plan, epg, config)
        geometry = config.geometry()
        traces = {
            process.pid: build_trace(process, plan.layout, geometry)
            for process in epg
        }
        caches, classifiers = self._make_caches()
        contention = contention_model_for(config)
        num_cores = config.num_cores
        idle = set(range(num_cores))
        running: dict[int, str] = {}
        busy = [0] * num_cores
        executed: list[list[str]] = [[] for _ in range(num_cores)]
        queue_delay = [0] * num_cores
        transfers_of = [0] * num_cores
        cursor = dict.fromkeys(epg.pids, 0)
        hits_of = dict.fromkeys(epg.pids, 0)
        misses_of = dict.fromkeys(epg.pids, 0)
        preemptions = dict.fromkeys(epg.pids, 0)
        cores_of: dict[str, list[int]] = {pid: [] for pid in epg.pids}
        first_dispatch: dict[str, int] = {}
        completion: dict[str, int] = {}

        events = EventQueue()
        pending = {pid: len(epg.predecessors(pid)) for pid in epg.pids}
        # Open-system admission: a pid participates only once its app has
        # arrived.  ``release`` empty (the closed path) marks everything
        # arrived up front and schedules no arrival events.
        release = release or {}
        arrived = {pid for pid in pending if release.get(pid, 0) == 0}
        for pid, cycle in sorted(release.items()):
            if cycle > 0:
                events.push(cycle, ("arrive", -1, pid))
        policy.release(
            sorted(pid for pid, count in pending.items() if count == 0 and pid in arrived)
        )

        hit_cost = config.cache_hit_cycles
        miss_extra = config.memory_latency_cycles
        writeback_cost = miss_extra if config.charge_writebacks else 0
        pick = policy.pick
        budgets = [policy.budget(core) for core in range(num_cores)]

        # Fill the idle cores, then advance to the next event.  ``freed`` is
        # the core whose segment just ended (None after an arrival).
        now, freed = 0, None
        while True:
            while (choice := pick(idle, running, freed)) is not None:
                core, pid = choice
                idle.discard(core)
                running[core] = pid
                first_dispatch.setdefault(pid, now)
                trace = traces[pid]
                cache = caches[core]
                evictions_before = cache.stats.dirty_evictions
                budget = budgets[core]
                if budget is None:
                    classifier = classifiers[core] if classifiers else None
                    hits, misses = self._run_whole_trace(cache, classifier, trace)
                    used = trace.cost_cycles(hits, misses, hit_cost, config.miss_cycles)
                    finished = True
                else:
                    start = cursor[pid]
                    if isinstance(cache, LRUState):
                        cursor[pid], used, hits, misses, _, _, _ = run_budget(
                            cache, trace.lines, trace.writes, trace.extra_cycles,
                            start, hit_cost, miss_extra, budget,
                        )
                    else:
                        cursor[pid], used, hits, misses = cache.run_budget_rows(
                            trace.lines, trace.writes, trace.extra_cycles,
                            start, hit_cost, miss_extra, budget,
                        )
                    finished = cursor[pid] >= trace.num_accesses
                evicted = cache.stats.dirty_evictions - evictions_before
                used += evicted * writeback_cost + config.context_switch_cycles
                used = config.scaled_cycles(core, used)
                if contention is not None:
                    transfers = misses + evicted
                    stall = contention.delay_cycles(core, transfers, used)
                    used += stall
                    queue_delay[core] += stall
                    transfers_of[core] += transfers
                hits_of[pid] += hits
                misses_of[pid] += misses
                cores_of[pid].append(core)
                executed[core].append(pid)
                busy[core] += used
                kind = "done" if finished else "preempt"
                events.push(now + used, (kind, core, pid))
            if not events:
                break
            now, (kind, core, pid) = events.pop()
            if kind == "arrive":
                arrived.add(pid)
                if pending[pid] == 0:
                    policy.release([pid])
                freed = None
                continue
            del running[core]
            idle.add(core)
            freed = core
            if kind == "preempt":
                preemptions[pid] += 1
                policy.release([pid])
                continue
            completion[pid] = now
            ready = []
            for successor in sorted(epg.successors(pid)):
                pending[successor] -= 1
                if pending[successor] == 0 and successor in arrived:
                    ready.append(successor)
            policy.release(ready)

        if len(completion) != len(epg):
            raise InfeasibleScheduleError(
                f"{policy.blocked()} ({len(epg) - len(completion)} of "
                f"{len(epg)} processes incomplete)"
            )
        records = {
            pid: ProcessRecord(
                pid=pid,
                start_cycle=first_dispatch[pid],
                end_cycle=completion[pid],
                cores=cores_of[pid],
                hits=hits_of[pid],
                misses=misses_of[pid],
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
                classified=classifiers[core].counts if classifiers else None,
                queue_delay_cycles=queue_delay[core],
                bus_transfers=transfers_of[core],
            )
            for core in range(num_cores)
        ]
        return SimulationResult(
            scheduler_name=plan.scheduler_name,
            makespan_cycles=max(completion.values(), default=0),
            clock_hz=config.clock_hz,
            processes=records,
            cores=cores,
            metadata={**plan.metadata, "layout": plan.layout},
        )
