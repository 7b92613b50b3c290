"""Golden results: the simulator's full records, pinned cell by cell.

Each cell of the grid below runs one scheduler on one workload and
machine, closed or against an arrival schedule, and is reduced to the
sha256 of a canonical JSON of everything the run recorded: makespan; per
process start, end, cores, hits, misses and preemptions; per core busy
cycles, executed pids, cache counters, classified misses, queue delay
and off-chip transfers; per app the open-system records.  A run that
raises is pinned by its exception type and message instead.

The grid covers every dispatch mode (static, dynamic, shared queue),
closed and open runs, both contention models, charged write-backs and
context switches, miss classification, heterogeneous core speeds and
caches, and small quanta that make the shared queue preempt and migrate.
The digests do not depend on which cache path runs (compiled kernel or
scalar oracle), so the test holds under ``REPRO_FAST_CACHE=0`` and ``=1``.

Regenerate the fixture (only when a change is *meant* to alter results)::

    PYTHONPATH=src python tests/test_simulator_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from repro.api.registries import SCHEDULERS, WORKLOADS
from repro.errors import ReproError
from repro.sim import ArrivalSpec, MachineConfig, MPSoCSimulator
from repro.util.units import KIB

FIXTURE = Path(__file__).parent / "fixtures" / "sim_golden.json"

SCALE = 0.125
WORKLOADS_UNDER_TEST = (("mix", 3), ("random-mix", 4))
SEEDS = (0, 1)


def _machines() -> dict[str, MachineConfig]:
    paper = MachineConfig.paper_default()
    # Small quanta wherever the axis matters for preemption, so the
    # shared queue preempts and migrates under every cost variant.
    quick = paper.with_overrides(quantum_cycles=2_000)
    return {
        "paper": paper,
        "cores-4": paper.with_overrides(num_cores=4, quantum_cycles=500),
        "assoc-1": quick.with_overrides(cache_associativity=1),
        "bus": quick.with_overrides(
            contention="bus", contention_params={"lines_per_quantum": 8}
        ),
        "noc": quick.with_overrides(
            contention="noc", contention_params={"hop_cycles": 9}
        ),
        "writebacks": quick.with_overrides(
            charge_writebacks=True, context_switch_cycles=300
        ),
        "classified": paper.with_overrides(classify_misses=True),
        "big-little": quick.with_overrides(
            core_speeds=(1.0,) * 4 + (0.5,) * 4,
            core_cache_sizes=(8 * KIB,) * 4 + (4 * KIB,) * 4,
        ),
    }


#: Open runs: a subset of machines, both bursty and Poisson arrivals
#: dense enough that applications arrive while others still run.
OPEN_MACHINES = ("paper", "bus", "big-little")
ARRIVALS = (
    ArrivalSpec.of("poisson", rate=20_000.0),
    ArrivalSpec.of("bursty", rate=20_000.0, burst=2),
)


def canonical(result) -> dict:
    """Every recorded field of a run, as plain JSON-able data."""
    data = {
        "makespan": result.makespan_cycles,
        "processes": {
            pid: [
                record.start_cycle,
                record.end_cycle,
                record.cores,
                record.hits,
                record.misses,
                record.preemptions,
            ]
            for pid, record in sorted(result.processes.items())
        },
        "cores": [
            [
                core.busy_cycles,
                core.executed_pids,
                dataclasses.asdict(core.cache),
                dataclasses.asdict(core.classified) if core.classified else None,
                core.queue_delay_cycles,
                core.bus_transfers,
            ]
            for core in result.cores
        ],
    }
    apps = getattr(result, "apps", None)
    if apps is not None:
        data["apps"] = {
            name: dataclasses.asdict(record) for name, record in sorted(apps.items())
        }
    return data


def _digest(run) -> str:
    try:
        data = canonical(run())
    except ReproError as exc:
        data = {"error": type(exc).__name__, "message": str(exc)}
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def golden_digests() -> dict[str, str]:
    """``cell id -> sha256`` over the whole grid."""
    machines = _machines()
    digests: dict[str, str] = {}
    for name, count in WORKLOADS_UNDER_TEST:
        for seed in SEEDS:
            epg = WORKLOADS.get(name).build(count, scale=SCALE, seed=seed)
            for machine_name, machine in machines.items():
                sim = MPSoCSimulator(machine)
                for sched in SCHEDULERS.names():
                    cell = f"closed/{name}:{count}/seed{seed}/{machine_name}/{sched}"
                    digests[cell] = _digest(
                        lambda: sim.run(epg, SCHEDULERS.get(sched)(seed))
                    )
                if machine_name not in OPEN_MACHINES:
                    continue
                for spec in ARRIVALS:
                    schedule = spec.build(epg.task_names, seed, machine)
                    for sched in SCHEDULERS.names():
                        cell = (
                            f"open/{spec.process}/{name}:{count}/seed{seed}/"
                            f"{machine_name}/{sched}"
                        )
                        digests[cell] = _digest(
                            lambda: sim.run_open(
                                epg, SCHEDULERS.get(sched)(seed), schedule
                            )
                        )
    return digests


def test_every_cell_matches_the_golden_fixture():
    expected = json.loads(FIXTURE.read_text())["cells"]
    actual = golden_digests()
    assert sorted(actual) == sorted(expected), "the golden grid changed shape"
    differing = sorted(cell for cell in expected if actual[cell] != expected[cell])
    assert not differing, (
        f"{len(differing)} of {len(expected)} cells differ from "
        f"{FIXTURE.name}: {differing}"
    )


if __name__ == "__main__":
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(
        json.dumps({"scale": SCALE, "cells": golden_digests()}, indent=1, sort_keys=True)
        + "\n"
    )
