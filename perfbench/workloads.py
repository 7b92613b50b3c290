"""The benchmark's workloads, as campaign-spec dicts made from ``--seed``.

The program receives only these specs (through ``Engine.run_campaign``
or the ``repro serve`` socket).  This module imports nothing from the
program, so ``run.py`` can build every input before the program loads.
See ``perfbench/README.md`` for why each workload exists and which
layers it is predicted to move.
"""

from __future__ import annotations

import hashlib

#: The paper's Table-1 applications, in table order.
APPS = ("Med-Im04", "MxM", "Radar", "Shape", "Track", "Usonic")

SERIAL_WORKLOADS = ("figure7-cold", "preempt-grid")
SERVE_WORKLOAD = "serve-clients"
WORKLOADS = SERIAL_WORKLOADS + (SERVE_WORKLOAD,)

#: ``full`` is what the benchmark measures; ``tiny`` is the same shape at
#: a size the benchmark's own tests can afford.
SIZES = ("full", "tiny")

#: Machines of the preemptive grid: the paper's 8k quantum (scalar rows),
#: 2k and 32k quanta (batched quantum plans where the window is long
#: enough), 4-way sets (the per-set backend) and a shared bus.
PREEMPT_MACHINES = (
    "paper",
    "quantum-2k",
    "quantum-32k",
    "assoc-4",
    {"name": "bus", "overrides": {"contention": "bus"}},
)

#: Distinct campaigns per ``serve-clients`` repetition: 102 sends each of
#: the six apps 17 times, and leaves ten latency samples beyond the p90.
SERVE_REQUESTS = {"full": 102, "tiny": 6}
SERVE_CLIENTS = 2
SERVE_JOBS = 2


def derive_seed(seed: int, *labels: object) -> int:
    """A 31-bit child seed of the benchmark seed; stable across runs."""
    text = ":".join(str(part) for part in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


def figure7_spec(seed: int, size: str) -> dict:
    """The Figure-7 grid: cumulative mixes x the four schedulers."""
    mixes = 6 if size == "full" else 2
    return {
        "name": "figure7",
        "workloads": [f"mix:{count}" for count in range(1, mixes + 1)],
        "schedulers": ["RS", "RRS", "LS", "LSM"],
        "seeds": [seed],
        "scale": 1.0 if size == "full" else 0.25,
    }


def preempt_spec(seed: int, size: str) -> dict:
    """RRS over every Table-1 app in a seed-chosen order, per machine.

    ``random-mix:6`` rather than a 4-app sample: every seed then
    simulates the same applications, so host time does not swing with
    which apps a seed happens to draw.
    """
    replicas = 3 if size == "full" else 1
    return {
        "name": "preempt-grid",
        "workloads": ["random-mix:6"],
        "machines": list(PREEMPT_MACHINES),
        "schedulers": ["RRS"],
        "seeds": [derive_seed(seed, "preempt", index) for index in range(replicas)],
        "scale": 1.0 if size == "full" else 0.25,
    }


def serve_request_spec(seed: int, index: int, size: str) -> dict:
    """Request ``index`` of a run: one app x RS,LS with its own seed.

    Apps cycle, so after the first six requests every LS cell (seed
    invariant) is read back from the memo store while every RS cell
    computes fresh.
    """
    return {
        "name": "serve-clients",
        "workloads": [APPS[(seed + index) % len(APPS)]],
        "schedulers": ["RS", "LS"],
        "seeds": [derive_seed(seed, "request", index)],
        "scale": 0.5 if size == "full" else 0.25,
    }


def serial_spec(workload: str, seed: int, size: str) -> dict:
    if workload == "figure7-cold":
        return figure7_spec(seed, size)
    if workload == "preempt-grid":
        return preempt_spec(seed, size)
    raise ValueError(f"{workload!r} is not a serial workload")


def oracle_spec(workload: str, seed: int, size: str) -> dict:
    """A few cells of the timed grid that exercise its fast paths.

    Run once per invocation under ``REPRO_FAST_CACHE=0
    REPRO_QUANTUM_BATCH=0`` and compared cell by cell with the timed
    results: the memoized analysis with warm adjustment and re-layout
    (figure 7), batched quantum plans and the 4-way backend (preemptive
    grid), and one whole request (serve).
    """
    if workload == SERVE_WORKLOAD:
        return serve_request_spec(seed, 0, size)
    spec = serial_spec(workload, seed, size)
    if workload == "figure7-cold":
        return {**spec, "workloads": ["mix:2"], "schedulers": ["LSM"]}
    return {
        **spec,
        "machines": ["quantum-32k", "assoc-4"],
        "seeds": spec["seeds"][:1],
    }
