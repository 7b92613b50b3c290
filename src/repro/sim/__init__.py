"""The MPSoC simulation substrate (the paper used Simics; we build our own).

- :class:`MachineConfig` — the Table-2 machine description;
- :class:`ProcessTrace` / :func:`build_trace` — deterministic memory traces
  from a process's affine accesses under a concrete layout;
- :class:`MPSoCSimulator` — executes a :class:`~repro.sched.base.SchedulerPlan`
  over an EPG on one event loop, modelling per-core LRU caches,
  dependence-driven release, and (for RRS) quantum preemption with a
  shared ready queue;
- :class:`SimulationResult` — makespan, per-core and per-process records,
  aggregate cache statistics.
"""

from repro.sim.arrivals import (
    AppArrival,
    ArrivalSchedule,
    ArrivalSpec,
    batch_arrivals,
    bursty_arrivals,
    poisson_arrivals,
    trace_arrivals,
)
from repro.sim.config import MachineConfig
from repro.sim.trace import ProcessTrace, build_trace
from repro.sim.energy import EnergyBreakdown, EnergyModel, energy_of
from repro.sim.results import (
    AppRecord,
    CoreRecord,
    OpenSystemResult,
    ProcessRecord,
    SimulationResult,
)
from repro.sim.simulator import MPSoCSimulator

__all__ = [
    "AppArrival",
    "AppRecord",
    "ArrivalSchedule",
    "ArrivalSpec",
    "CoreRecord",
    "EnergyBreakdown",
    "EnergyModel",
    "energy_of",
    "MPSoCSimulator",
    "MachineConfig",
    "OpenSystemResult",
    "ProcessRecord",
    "ProcessTrace",
    "SimulationResult",
    "batch_arrivals",
    "build_trace",
    "bursty_arrivals",
    "poisson_arrivals",
    "trace_arrivals",
]
