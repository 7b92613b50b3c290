"""Campaign jobs and their admission policy (the server's brain).

The service owns every admitted campaign as a :class:`CampaignJob` keyed
by spec hash.  All job bookkeeping — subscriber lists, event history,
state transitions — happens on the server's event-loop thread, so it
needs no locks; the engine runs each campaign on a worker thread from a
bounded pool (concurrent engines never share a worker process, so
recovering one campaign's hung cell cannot touch a sibling campaign's
workers) and posts events back with ``call_soon_threadsafe``.
Filesystem work on the admission path (spec sidecars, the status glob)
runs via ``asyncio.to_thread`` so a slow disk never stalls connected
clients.

Fault-first invariants, in one place:

- A second submission of the same spec *attaches* to the running job
  (in-flight dedup), and a finished spec replays from its history and
  JSONL store — submission is idempotent.
- Jobs always resume from their store and never clear it, so a crashed
  or drained server loses at most the cells that were in flight.
- Every admitted spec writes a ``<hash>.spec.json`` sidecar next to its
  store; restart recovery and attach-by-hash rebuild jobs from it.
- Admission is bounded (``queue_limit``): past it, clients get a
  structured ``rejected`` event with ``retry_after`` — the queue can
  never grow without bound.
- A job that ended incomplete (quarantined cells, drain suspension,
  runner error) is *revived* by the next submit/attach, which makes the
  retrying client's loop a repair loop: it converges exactly when the
  faults stop firing.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.campaign.executor import RunResult
from repro.campaign.failures import CellFailure
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.errors import CampaignError, ServeError
from repro.serve.protocol import JOB_TERMINAL_EVENTS, event

#: Result fields that are wall-clock artefacts of one execution, not
#: properties of the simulated system; the convergence fingerprint
#: strips them (the same fields the chaos harness's ``comparable()``
#: strips) so a faulted run can be byte-compared to a fault-free one.
TIMING_FIELDS = ("seconds", "downgraded")


def result_fingerprint(results: Sequence[RunResult]) -> str:
    """Digest of the timing-independent result set, order-insensitive.

    Two campaign executions of one spec — fault-free or riddled with
    injected crashes, in any completion order — produce the same
    fingerprint exactly when they computed the same simulated results,
    which is the chaos invariant the service is tested against.
    """
    stripped = sorted(
        json.dumps(
            {
                key: value
                for key, value in result.to_dict().items()
                if key not in TIMING_FIELDS
            },
            sort_keys=True,
        )
        for result in results
    )
    return hashlib.sha256("\n".join(stripped).encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class ServeConfig:
    """Server-side execution and admission policy (clients send specs only)."""

    store_root: Path = Path(".repro-campaign")
    #: Worker processes per running campaign.
    jobs: int = 2
    #: Campaigns executing concurrently (runner-thread pool size).
    max_active: int = 2
    #: Bounded admission queue: campaigns admitted but not finished.
    queue_limit: int = 8
    #: Retry budget per cell (the serve default is not zero: a service
    #: exists to absorb transient failure, not to report it).
    max_retries: int = 2
    #: Hard per-attempt wall-clock budget; catches live-but-stuck cells.
    cell_timeout: float | None = 120.0
    #: Worker-liveness lease; catches dead-but-undetected workers.
    lease_seconds: float | None = 15.0
    #: Cells per engine batch — the granularity at which a draining
    #: server stops (everything already batched flushes to the store).
    batch_cells: int = 8
    #: Execution policy override (None = engine default for ``jobs``).
    policy: str | None = None
    #: Seconds a rejected client is told to wait before retrying.
    retry_after: float = 0.5

    def store_path(self, spec_hash: str) -> Path:
        return ResultStore.default_path(spec_hash, root=self.store_root)

    def sidecar_path(self, spec_hash: str) -> Path:
        return self.store_root / f"{spec_hash}.spec.json"


class CampaignJob:
    """One admitted campaign: spec, store, subscribers, event history.

    Everything except :meth:`run` executes on the event-loop thread.
    ``history`` is the full ordered event stream so far; a late attacher
    replays it and then follows live, which makes every client of one
    job see the identical byte stream regardless of when it connected.
    """

    def __init__(
        self, service: "CampaignService", spec: CampaignSpec, spec_hash: str,
        recovered: bool,
    ) -> None:
        self.service = service
        self.spec = spec
        self.spec_hash = spec_hash
        self.recovered = recovered
        self.state = "queued"  # queued | running | done | suspended | error
        self.total = spec.num_cells
        self.done = 0
        self.failed = 0
        self.history: list[dict[str, object]] = []
        self.subscribers: list["asyncio.Queue[dict[str, object]]"] = []
        self.runner: "Future[None] | None" = None

    @property
    def complete(self) -> bool:
        """Every cell succeeded — nothing left for a repair pass."""
        return self.state == "done" and self.failed == 0 and self.done == self.total

    @property
    def admitted(self) -> bool:
        """Counts against the bounded admission queue."""
        return self.state in ("queued", "running")

    def subscribe(
        self,
    ) -> "tuple[list[dict[str, object]], asyncio.Queue[dict[str, object]]]":
        """Atomically snapshot the history and join the live stream."""
        queue: "asyncio.Queue[dict[str, object]]" = asyncio.Queue()
        self.subscribers.append(queue)
        return list(self.history), queue

    def unsubscribe(self, queue: "asyncio.Queue[dict[str, object]]") -> None:
        try:
            self.subscribers.remove(queue)
        except ValueError:
            pass

    def publish(self, evt: dict[str, object]) -> None:
        """Record one event and fan it out (event-loop thread only)."""
        kind = evt.get("event")
        if kind == "running":
            self.state = "running"
            return  # lifecycle marker, not part of the client stream
        self.history.append(evt)
        if kind == "cell":
            self.done = int(evt.get("done", self.done))
        elif kind == "done":
            self.state = "done"
            self.done = int(evt.get("completed", self.done))
            self.failed = int(evt.get("failures", 0))
        elif kind == "suspended":
            self.state = "suspended"
        elif kind == "job-error":
            self.state = "error"
        for queue in self.subscribers:
            queue.put_nowait(evt)

    def reset_for_revival(self) -> None:
        """Re-arm a terminal job for a repair pass (history restarts).

        The store is untouched: completed cells replay as ``cached``
        events and only the missing or quarantined cells execute.
        """
        self.state = "queued"
        self.history = []
        self.done = 0
        self.failed = 0

    def post(self, evt: dict[str, object]) -> None:
        """Publish from the runner thread via the event loop."""
        self.service.loop.call_soon_threadsafe(self.publish, evt)

    # -- runner (engine thread) ----------------------------------------------

    def run(self) -> None:
        """Execute the campaign, resuming from the store, in drain-sized
        batches; posts the event stream and never raises."""
        try:
            self._run()
        except Exception as exc:  # the stream must always terminate
            self.post(
                event(
                    "job-error",
                    spec_hash=self.spec_hash,
                    message=f"{type(exc).__name__}: {exc}",
                )
            )

    def _run(self) -> None:
        from repro.api.engine import Engine
        from repro.campaign.rollup import render_rollup

        config = self.service.config
        self.post(event("running"))
        store = ResultStore(config.store_path(self.spec_hash))
        runs = self.spec.expand()
        results: dict[str, RunResult] = store.load() if store.exists() else {}
        done = 0
        for run in runs:
            cached = results.get(run.cell_key())
            if cached is None:
                continue
            done += 1
            self.post(
                event(
                    "cell",
                    spec_hash=self.spec_hash,
                    key=cached.key,
                    done=done,
                    total=len(runs),
                    cached=True,
                    result=cached.to_dict(),
                )
            )
        todo = [run for run in runs if run.cell_key() not in results]
        failures: dict[str, CellFailure] = {}

        def on_result(result: RunResult) -> None:
            nonlocal done
            store.append(result)
            results[result.key] = result
            failures.pop(result.key, None)
            done += 1
            self.post(
                event(
                    "cell",
                    spec_hash=self.spec_hash,
                    key=result.key,
                    done=done,
                    total=len(runs),
                    cached=False,
                    result=result.to_dict(),
                )
            )

        def on_failure(failure: CellFailure) -> None:
            store.append_failure(failure)
            failures[failure.key] = failure
            self.post(
                event(
                    "failure",
                    spec_hash=self.spec_hash,
                    key=failure.key,
                    record=failure.to_dict(),
                )
            )

        engine = Engine(
            jobs=config.jobs,
            policy=config.policy,
            max_retries=config.max_retries,
            cell_timeout=config.cell_timeout,
            keep_going=True,
            lease_seconds=config.lease_seconds,
        )
        batch = max(1, config.batch_cells)
        for start in range(0, len(todo), batch):
            if self.service.draining:
                self.post(
                    event(
                        "suspended",
                        spec_hash=self.spec_hash,
                        done=done,
                        total=len(runs),
                        reason="draining",
                        hint=(
                            "completed cells are in the store; reattach "
                            "by spec hash to finish the rest"
                        ),
                    )
                )
                return
            engine.run_many(
                todo[start : start + batch],
                on_result=on_result,
                on_failure=on_failure,
            )
        ordered = [
            results[run.cell_key()]
            for run in runs
            if run.cell_key() in results
        ]
        rollup = (
            render_rollup(ordered, title=f"Campaign rollup: {self.spec.name}")
            if ordered
            else ""
        )
        self.post(
            event(
                "done",
                spec_hash=self.spec_hash,
                completed=done,
                total=len(runs),
                failures=len(failures),
                fingerprint=result_fingerprint(ordered),
                rollup=rollup,
            )
        )


class CampaignService:
    """Admission control and the job registry (event-loop thread only)."""

    def __init__(
        self, config: ServeConfig, loop: asyncio.AbstractEventLoop
    ) -> None:
        self.config = config
        self.loop = loop
        self.jobs: dict[str, CampaignJob] = {}
        self.draining = False
        self.executor = ThreadPoolExecutor(
            max_workers=max(1, config.max_active),
            thread_name_prefix="repro-serve-job",
        )

    # -- admission -----------------------------------------------------------

    async def submit(
        self, spec_data: dict[str, object]
    ) -> "CampaignJob | dict[str, object]":
        """Admit (or dedup onto) the campaign a spec describes.

        Returns the job, or a structured ``rejected`` event when the
        bounded queue is full or the server is draining.  Raises
        :class:`~repro.errors.CampaignError` for an invalid spec and
        :class:`~repro.errors.ServeError` when the sidecar cannot be
        persisted (a transient disk problem — retryable).
        """
        spec = CampaignSpec.from_dict(spec_data)
        spec_hash = spec.spec_hash()
        existing = self.jobs.get(spec_hash)
        if existing is not None:
            return self._revive(existing)
        reject = self._admission_reject()
        if reject is not None:
            return reject
        # Register before the awaited sidecar write: the suspension
        # point must not let a concurrent submit of the same spec
        # double-admit (two runners racing on one store).
        job = CampaignJob(self, spec, spec_hash, recovered=False)
        self.jobs[spec_hash] = job
        try:
            # Sidecar I/O off the loop thread — and off the runner
            # executor, whose threads long-running campaigns occupy.
            await asyncio.to_thread(self._write_sidecar, spec_hash, spec)
        except OSError as exc:
            self.jobs.pop(spec_hash, None)
            raise ServeError(
                f"cannot persist campaign sidecar for {spec_hash}: {exc}"
            ) from exc
        job.runner = self.executor.submit(job.run)
        return job

    async def attach(
        self, spec_hash: str
    ) -> "CampaignJob | dict[str, object] | None":
        """Rejoin a campaign by hash; rebuilds from the sidecar if needed.

        Returns None for a hash this server has never seen (no job, no
        sidecar) — the client should fall back to a full submit.
        """
        existing = self.jobs.get(spec_hash)
        if existing is not None:
            return self._revive(existing)
        spec = await asyncio.to_thread(self._load_sidecar, spec_hash)
        if spec is None:
            return None
        # Re-check after the suspension point: a submit of the same
        # spec may have registered the job while the sidecar loaded.
        existing = self.jobs.get(spec_hash)
        if existing is not None:
            return self._revive(existing)
        reject = self._admission_reject()
        if reject is not None:
            return reject
        return self._start_job(spec, spec_hash, recovered=True)

    def _start_job(
        self, spec: CampaignSpec, spec_hash: str, recovered: bool
    ) -> CampaignJob:
        job = CampaignJob(self, spec, spec_hash, recovered=recovered)
        self.jobs[spec_hash] = job
        job.runner = self.executor.submit(job.run)
        return job

    def _revive(self, job: CampaignJob) -> "CampaignJob | dict[str, object]":
        """Re-run an incomplete terminal job (the repair pass)."""
        if job.admitted or job.complete:
            return job
        reject = self._admission_reject()
        if reject is not None:
            return reject
        job.reset_for_revival()
        job.runner = self.executor.submit(job.run)
        return job

    def _admission_reject(self) -> dict[str, object] | None:
        active = sum(1 for job in self.jobs.values() if job.state == "running")
        pending = sum(1 for job in self.jobs.values() if job.state == "queued")
        if self.draining:
            return event(
                "rejected",
                reason="draining",
                retry_after=self.config.retry_after,
                active=active,
                pending=pending,
            )
        if active + pending >= self.config.queue_limit:
            return event(
                "rejected",
                reason="saturated",
                retry_after=self.config.retry_after,
                active=active,
                pending=pending,
            )
        return None

    # -- crash recovery ------------------------------------------------------

    def _write_sidecar(self, spec_hash: str, spec: CampaignSpec) -> None:
        path = self.config.sidecar_path(spec_hash)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(spec.to_dict(), sort_keys=True) + "\n")

    def _load_sidecar(self, spec_hash: str) -> CampaignSpec | None:
        path = self.config.sidecar_path(spec_hash)
        if not path.exists():
            return None
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(data, dict):
            return None
        try:
            return CampaignSpec.from_dict(data)
        except CampaignError:
            return None

    def recoverable_hashes(self) -> list[str]:
        """Spec hashes with sidecars on disk (restart inventory)."""
        if not self.config.store_root.exists():
            return []
        return sorted(
            path.name[: -len(".spec.json")]
            for path in self.config.store_root.glob("*.spec.json")
        )

    # -- control plane -------------------------------------------------------

    async def status(self) -> dict[str, object]:
        """The ``status`` control event: every known job, plus recovery."""
        jobs = [
            {
                "spec_hash": job.spec_hash,
                "name": job.spec.name,
                "state": job.state,
                "done": job.done,
                "total": job.total,
                "failures": job.failed,
                "clients": len(job.subscribers),
            }
            for job in self.jobs.values()
        ]
        # The sidecar glob walks the store directory — keep that disk
        # scan off the loop thread like every other admission-path I/O.
        recoverable = await asyncio.to_thread(self.recoverable_hashes)
        return event(
            "status",
            draining=self.draining,
            jobs=jobs,
            recoverable=recoverable,
        )

    def begin_drain(self) -> None:
        """Stop admitting work; runners suspend at the next batch edge."""
        self.draining = True

    def drained(self) -> bool:
        return not any(job.admitted for job in self.jobs.values())

    def close(self) -> None:
        self.executor.shutdown(wait=False)
