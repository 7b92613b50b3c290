"""Golden results: the sharing front end, pinned entry by entry.

Each entry is the sha256 of one product of the sharing analysis at full
scale:

* ``matrix/<workload>``: the :class:`SharingMatrix` (pid tuple and the
  raw int64 matrix bytes) of ``mix:1`` .. ``mix:6`` and of each Table-1
  application;
* ``figure3/<workload>/<trim>/cores<n>``: the Figure-3 per-core queues
  of the same workloads for both trim policies on 2 and 4 cores;
* ``lsm/<mix>``: the ``b_offsets`` that LSM's re-layout picks for each
  mix on the paper's default machine.

The digests fix the Presburger counting, the Figure-3 trim and pairing
and the re-layout selection that consumes both, so a speed-up of any of
them must leave every entry unchanged.

Regenerate the fixture (only when a change is *meant* to alter results)::

    PYTHONPATH=src python tests/test_sharing_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.api.registries import WORKLOADS
from repro.procgraph.graph import ExtendedProcessGraph
from repro.sched.base import default_layout
from repro.sched.locality import figure3_schedule
from repro.sched.locality_mapping import LocalityMappingScheduler
from repro.sharing.matrix import compute_sharing_matrix
from repro.sim import MachineConfig
from repro.workloads.suite import workload_names

FIXTURE = Path(__file__).parent / "fixtures" / "sharing_golden.json"

MIX_COUNTS = range(1, 7)
TRIMS = ("max-sharing", "min-sharing")
CORE_COUNTS = (2, 4)


def _sha(data) -> str:
    if isinstance(data, bytes):
        blob = data
    else:
        blob = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _workloads():
    for count in MIX_COUNTS:
        yield f"mix:{count}", WORKLOADS.get("mix").build(count, scale=1.0)
    for name in workload_names():
        task = WORKLOADS.get(name).build(scale=1.0)
        yield name, ExtendedProcessGraph.from_tasks([task])


def golden_digests() -> dict[str, str]:
    """``entry id -> sha256`` over every pinned sharing product."""
    machine = MachineConfig.paper_default()
    digests: dict[str, str] = {}
    for label, epg in _workloads():
        # A fresh computation, not the per-graph memo: the entry pins
        # the arithmetic, whatever another test left cached.
        sharing = compute_sharing_matrix(epg.processes())
        digests[f"matrix/{label}"] = _sha(
            json.dumps(list(sharing.pids)).encode()
            + sharing.matrix.astype("<i8").tobytes()
        )
        for trim in TRIMS:
            for cores in CORE_COUNTS:
                queues = figure3_schedule(epg, sharing, cores, trim=trim)
                digests[f"figure3/{label}/{trim}/cores{cores}"] = _sha(queues)
        if label.startswith("mix:"):
            plan = LocalityMappingScheduler().prepare(
                epg, machine, default_layout(epg, machine)
            )
            digests[f"lsm/{label}"] = _sha(plan.metadata["relayout"].b_offsets)
    return digests


def test_every_entry_matches_the_golden_fixture():
    expected = json.loads(FIXTURE.read_text())["entries"]
    actual = golden_digests()
    assert sorted(actual) == sorted(expected), "the golden set changed shape"
    differing = sorted(key for key in expected if actual[key] != expected[key])
    assert not differing, (
        f"{len(differing)} of {len(expected)} entries differ from "
        f"{FIXTURE.name}: {differing}"
    )


if __name__ == "__main__":
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(
        json.dumps({"entries": golden_digests()}, indent=1, sort_keys=True) + "\n"
    )
