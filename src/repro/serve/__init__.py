"""The campaign service: a fault-first network front door for the engine.

``python -m repro serve`` exposes the spec-hash-keyed campaign machinery
(:mod:`repro.campaign`) over a local socket: clients submit Scenario /
CampaignSpec grids as JSON, and the server streams per-cell progress and
the final rollup back as JSON lines.  Every design choice is
failure-shaped:

- **Idempotent submission** — submissions are keyed by
  :meth:`~repro.campaign.spec.CampaignSpec.spec_hash`, so two clients
  asking the same question share one running campaign and completed
  cells replay straight from the JSONL result store.
- **Leases** — workers beat while they run a cell
  (:class:`repro.api.engine.Engine` ``lease_seconds``); a silent
  worker is killed and its cell retried.
- **Crash recovery** — the server rebuilds campaign state from the
  result stores and their spec sidecars on restart, and clients
  reattach by spec hash.
- **Backpressure** — a bounded admission queue answers saturation with
  a structured ``rejected`` event carrying ``retry_after``, never with
  unbounded queueing; SIGTERM drains in-flight work before exit.
- **Chaos coverage** — the ``serve`` fault site
  (:mod:`repro.util.faults`) injects delays, disconnects, errors, and
  crashes into the request and event paths, and
  :func:`repro.serve.client.submit_converged` is the retrying client
  that must converge through all of them.
"""

from repro.serve.client import ServeClient, submit_converged
from repro.serve.server import CampaignServer, ServerHandle, run_server, start_in_thread
from repro.serve.service import CampaignService, ServeConfig, result_fingerprint

__all__ = [
    "CampaignServer",
    "CampaignService",
    "ServeClient",
    "ServeConfig",
    "ServerHandle",
    "result_fingerprint",
    "run_server",
    "start_in_thread",
    "submit_converged",
]
