"""The :class:`Engine` — one execution surface behind every entry point.

The engine owns the cell loop that used to live in three places (the
example scripts' inline ``MPSoCSimulator.run`` loops, the experiment
harnesses' ``run_comparison``, and the campaign executor): it takes
anything that normalizes to :class:`~repro.campaign.spec.RunSpec` cells
and runs them under one of three policies —

- ``"serial"`` — in declaration order, in-process (deterministic, no
  pool overhead; what the figure harnesses use);
- ``"threads"`` — a thread pool; worthwhile because the cache kernels
  release the GIL inside numpy, and required when plugin schedulers or
  workloads were registered at runtime (thread workers see them);
- ``"processes"`` — the multiprocessing fan-out campaigns always used.
  Worker processes re-import :mod:`repro`, so runtime-registered
  plugins are only visible where the start method is ``fork`` (the
  Linux default) or the plugin module is imported on worker start.

Results are the existing typed records (:class:`RunResult`,
:class:`CampaignOutcome`, :class:`SchedulerComparison`), so everything
downstream — rollups, CSV export, figure renderers, resume — is
unchanged.
"""

from __future__ import annotations

import atexit
import contextlib
import math
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.api.scenario import Scenario
from repro.campaign.spec import CampaignSpec, RunSpec
from repro.errors import (
    CampaignError,
    CellTimeoutError,
    LeaseExpiredError,
    WorkerCrashError,
)
from repro.util.invalidation import register_worker_state, worker_state_epoch

if TYPE_CHECKING:
    from repro.campaign.executor import CampaignOutcome, ProgressFn, RunResult
    from repro.campaign.failures import CellFailure
    from repro.campaign.store import ResultStore
    from repro.experiments.runner import SchedulerComparison

#: The supported execution policies, in cheapest-first order.
EXECUTION_POLICIES = ("serial", "threads", "processes")

#: Per-result callback invoked as cells complete (completion order).
ResultFn = Callable[["RunResult"], None]

#: Per-quarantine callback invoked when a cell fails for good.
FailureFn = Callable[["CellFailure"], None]

#: Exponential-backoff schedule between attempts of one cell: the n-th
#: retry waits ``min(BACKOFF_CAP, BACKOFF_BASE * 2**(n-1))`` seconds.
#: Deterministic (no jitter): cells of one campaign are independent, so
#: thundering-herd decorrelation buys nothing and reproducibility does.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0


def _backoff_delay(failures_so_far: int) -> float:
    """Capped exponential backoff before the next attempt of a cell."""
    return min(BACKOFF_CAP, BACKOFF_BASE * (2 ** max(0, failures_so_far - 1)))


def _pool_worker_init(
    memo_dir: str | None,
    memo_mode: str,
    fast_cache: bool,
    fault_plan: str | None,
) -> None:
    """Align a fresh pool worker with the parent's tuning state.

    Fork workers inherit it anyway; with the spawn start method (or
    after the parent reconfigured mid-session) this keeps the persistent
    memo store (directory *and* access mode), the fast-cache toggle, and
    the active fault-injection plan consistent across the fleet.
    """
    import os as _os
    import signal as _signal

    from repro.cache.memo import set_fast_cache
    from repro.cache.store import active_memo_store, configure_memo_store
    from repro.util.faults import PLAN_ENV

    # Shed fork-inherited asyncio signal plumbing.  A parent running an
    # event loop (the campaign service) holds SIGTERM/SIGINT handlers
    # and a signal wakeup fd whose pipe the forked worker shares; left
    # in place, terminating a worker (a) does not kill it — the
    # inherited Python-level handler just returns — and (b) writes the
    # signal byte into the *parent's* wakeup pipe, which the parent
    # loop dispatches as its own SIGTERM and begins draining.
    with contextlib.suppress(ValueError, OSError, RuntimeError):
        _signal.set_wakeup_fd(-1)
        _signal.signal(_signal.SIGTERM, _signal.SIG_DFL)
        _signal.signal(_signal.SIGINT, _signal.SIG_DFL)

    set_fast_cache(fast_cache)
    if fault_plan:
        _os.environ[PLAN_ENV] = fault_plan
    else:
        _os.environ.pop(PLAN_ENV, None)
    current = active_memo_store()
    current_dir = str(current.root) if current is not None else None
    current_mode = current.mode if current is not None else "rw"
    if (current_dir, current_mode) != (memo_dir, memo_mode):
        configure_memo_store(memo_dir, mode=memo_mode)


def _pool_init_args() -> tuple[object, ...]:
    import os as _os

    from repro.cache.memo import fast_cache_enabled
    from repro.cache.store import active_memo_store
    from repro.util.faults import PLAN_ENV

    store = active_memo_store()
    return (
        str(store.root) if store is not None else None,
        store.mode if store is not None else "rw",
        fast_cache_enabled(),
        _os.environ.get(PLAN_ENV),
    )


#: One long-lived worker pool per ``jobs`` count, reused across
#: ``run_many`` calls: worker start-up (an interpreter plus the NumPy
#: import) dwarfs a typical cell, and campaigns composed of several
#: rollup passes (sensitivity, the figure harnesses, benches) otherwise
#: pay it once per pass.  A pool is retired whenever fork-inherited
#: state changed since it started (plugin registrations, engine
#: toggles, memo-store reconfiguration — see repro.util.invalidation).
_SHARED_POOLS: dict[int, tuple[int, ProcessPoolExecutor]] = {}
register_worker_state(
    __name__, "_SHARED_POOLS",
    note="pool cache keyed by jobs; entries retired on epoch mismatch",
)

#: Serializes every read-modify-write of :data:`_SHARED_POOLS`.  The
#: cache is reached from arbitrary threads (the campaign service runs
#: engines on runner threads); without the lock two concurrent misses
#: can create duplicate pools (one leaks resident workers for the
#: process lifetime) or discard a pool a sibling is about to submit to.
_SHARED_POOLS_LOCK = threading.Lock()


def _new_process_pool(jobs: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(
        max_workers=jobs,
        initializer=_pool_worker_init,
        initargs=_pool_init_args(),
    )


def _kill_pool_processes(pool: ProcessPoolExecutor) -> None:
    """Forcibly kill a pool's workers (hung-cell recovery).

    ``shutdown`` only refuses new work — a worker stuck in an infinite
    loop (or an injected hang) never returns, so the processes themselves
    must be terminated before a fresh pool can make progress.
    """
    for process in list((getattr(pool, "_processes", None) or {}).values()):
        try:
            process.terminate()
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def _shared_process_pool(jobs: int) -> ProcessPoolExecutor:
    with _SHARED_POOLS_LOCK:
        epoch = worker_state_epoch()
        cached = _SHARED_POOLS.get(jobs)
        if cached is not None:
            pool_epoch, pool = cached
            if pool_epoch == epoch:
                return pool
        # One pool at a time: a differently-sized (or stale) pool's idle
        # workers would otherwise stay resident for the process lifetime.
        for other in list(_SHARED_POOLS):
            stale = _SHARED_POOLS.pop(other)
            stale[1].shutdown(wait=False, cancel_futures=True)
        pool = _new_process_pool(jobs)
        _SHARED_POOLS[jobs] = (epoch, pool)
        return pool


def _discard_shared_pool(jobs: int) -> None:
    with _SHARED_POOLS_LOCK:
        cached = _SHARED_POOLS.pop(jobs, None)
    if cached is not None:
        cached[1].shutdown(wait=False, cancel_futures=True)


def _terminate_shared_pool(jobs: int) -> None:
    """Kill the shared pool's workers (see :func:`_kill_pool_processes`)."""
    with _SHARED_POOLS_LOCK:
        cached = _SHARED_POOLS.pop(jobs, None)
    if cached is not None:
        _kill_pool_processes(cached[1])


@atexit.register
def _shutdown_shared_pools() -> None:
    with _SHARED_POOLS_LOCK:
        pools = [pool for _, pool in _SHARED_POOLS.values()]
        _SHARED_POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=False, cancel_futures=True)


class _PoolHost:
    """Hands worker pools to :class:`_FanOut` and retires them.

    The default host wraps the module-wide shared cache.  A *private*
    host owns a dedicated pool for one engine: engines that run
    concurrently in a single process (the campaign service executes
    several campaigns at once) must not share — recovering one
    campaign's hung cell by terminating the pool would also kill every
    sibling campaign's in-flight workers and misattribute their crashes.
    """

    def __init__(self, jobs: int, private: bool = False) -> None:
        self.jobs = jobs
        self.private = private
        self._pool: ProcessPoolExecutor | None = None
        self._epoch: int | None = None

    def acquire(self) -> ProcessPoolExecutor:
        if not self.private:
            return _shared_process_pool(self.jobs)
        epoch = worker_state_epoch()
        if self._pool is not None and self._epoch != epoch:
            self.discard()
        if self._pool is None:
            self._pool = _new_process_pool(self.jobs)
            self._epoch = epoch
        return self._pool

    def discard(self) -> None:
        """Retire the pool handle (its workers already died or drained)."""
        if not self.private:
            _discard_shared_pool(self.jobs)
            return
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def terminate(self) -> None:
        """Kill the pool's worker processes (hung-cell recovery)."""
        if not self.private:
            _terminate_shared_pool(self.jobs)
            return
        pool, self._pool = self._pool, None
        if pool is not None:
            _kill_pool_processes(pool)

    def close(self) -> None:
        """Release a private pool; the shared cache persists by design."""
        if self.private:
            self.discard()


def _workload_weight(ref: str) -> int:
    """Crude relative cost of one cell of a workload reference."""
    _, _, arg = ref.partition(":")
    try:
        return max(1, int(arg))
    except ValueError:
        return 1


def _chunk_runs(
    runs: "Sequence[RunSpec]", jobs: int
) -> "list[list[int]]":
    """Group cell indices into worker-sized chunks, heaviest first.

    Cells sharing a workload and machine reuse each other's memoized
    EPGs, traces, and analyses, so they belong in the same worker; a
    cap keeps single-workload grids (open-system sweeps) from
    collapsing into one serial task.  Chunks are ordered by descending
    estimated cost so the pool's greedy assignment balances naturally.
    """
    groups: dict[tuple[object, ...], list[int]] = {}
    for index, run in enumerate(runs):
        groups.setdefault((run.workload, run.machine, run.scale), []).append(index)
    cap = max(4, math.ceil(len(runs) / (jobs * 4)))
    chunks: list[tuple[int, list[int]]] = []
    for (ref, _machine, _scale), indices in groups.items():
        weight = _workload_weight(ref)
        for start in range(0, len(indices), cap):
            part = indices[start : start + cap]
            chunks.append((weight * len(part), part))
    chunks.sort(key=lambda item: item[0], reverse=True)
    return [part for _, part in chunks]


class _SerialWatchdog:
    """Enforces per-cell timeouts for the serial policy.

    A cell cannot be preempted in-process, so serial timeouts run the
    cell on a single-lane thread and bound the wait.  A timed-out cell's
    thread is abandoned (its eventual result discarded) and the next
    cell gets a fresh lane — the serial contract (declaration order, one
    cell at a time) is preserved.
    """

    def __init__(self) -> None:
        self._pool: ThreadPoolExecutor | None = None

    def call(
        self,
        fn: "Callable[[RunSpec], RunResult]",
        run: "RunSpec",
        timeout: float,
    ) -> "RunResult":
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=1)
        future = self._pool.submit(fn, run)
        try:
            return future.result(timeout=timeout)
        except FuturesTimeoutError:
            stale, self._pool = self._pool, None
            stale.shutdown(wait=False, cancel_futures=True)
            raise CellTimeoutError(run.cell_key(), timeout) from None

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None


@dataclass
class _FanOut:
    """The retry/timeout/quarantine loop shared by the pooled policies.

    Cells are dispatched as *units* (one future each): workload-grouped
    chunks on the process pool when nothing needs per-cell attribution,
    single cells otherwise (a per-cell timeout is in force, a cell is
    being retried, or a pool crash forced attribution).  Worker-side
    per-cell errors come back as data (see ``execute_chunk_outcomes``),
    so a future-level exception always means the transport died — a
    crashed worker breaking the process pool — and only *incomplete*
    units are ever resubmitted.

    At most ``jobs`` units are in flight on the process pool at once;
    the rest wait in :attr:`pending`.  ``ProcessPoolExecutor`` marks a
    future RUNNING as soon as it enters the call queue (which holds
    ``max_workers + 1`` items), so without the cap a unit stuck behind
    a full pool would look running, anchor its wall-clock deadline, and
    age its lease with no worker heartbeating it — long cells would
    spuriously expire queued neighbors and charge them crashes.
    """

    runs: "Sequence[RunSpec]"
    jobs: int
    policy: str
    attempts_allowed: int
    cell_timeout: float | None
    keep_going: bool
    on_result: ResultFn | None
    on_failure: FailureFn | None
    #: Lease length for dispatched units (processes policy only): a unit
    #: whose worker stops heartbeating for this long is presumed dead
    #: and resubmitted.  None disables leasing (the historical behavior).
    lease_seconds: float | None = None
    #: Where process pools come from (shared cache or engine-private).
    pool_host: "_PoolHost | None" = None

    #: Poll interval while waiting for a future to enter the running
    #: state (needed to anchor its wall-clock deadline).
    poll: float = 0.05

    def __post_init__(self) -> None:
        count = len(self.runs)
        self.pools: _PoolHost = (
            self.pool_host if self.pool_host is not None
            else _PoolHost(self.jobs)
        )
        self.results: "list[RunResult | None]" = [None] * count
        self.failures: "list[CellFailure]" = []
        self.outstanding: set[int] = set(range(count))
        self.attempts_used = [0] * count
        self.first_submit: dict[int, float] = {}
        self.pending: "list[list[int]]" = []  # units awaiting pool capacity
        self.active: "dict[Future[object], list[int]]" = {}
        self.run_started: "dict[Future[object], float]" = {}  # monotonic stamps
        self.delayed: list[tuple[float, int]] = []  # (due, index)
        self.single_mode = (
            self.cell_timeout is not None or self.lease_seconds is not None
        )
        self.lease_dir: Path | None = None
        self.lease_files: "dict[Future[object], Path]" = {}
        self.lease_counter = 0
        self.abort_exc: BaseException | None = None
        self.pool_breaks = 0
        self.thread_pool: ThreadPoolExecutor | None = None
        #: Cells implicated in a pool break.  A suspect is re-run *solo*
        #: (one suspect in flight at a time) so the next break attributes
        #: the crash to exactly one cell instead of charging every unit
        #: that happened to be running when a sibling's worker died.
        self.suspects: set[int] = set()
        self.probe_queue: list[int] = []
        self.probe: int | None = None

    # -- dispatch ------------------------------------------------------------

    def execute(self) -> "tuple[list[RunResult | None], list[CellFailure]]":
        try:
            if self.policy == "threads":
                self.thread_pool = ThreadPoolExecutor(max_workers=self.jobs)
            self._submit_initial()
            while self.outstanding and self.abort_exc is None:
                self._step()
        finally:
            self._shutdown()
        if self.abort_exc is not None:
            raise self.abort_exc
        return self.results, self.failures

    def _submit_initial(self) -> None:
        if self.policy == "processes" and not self.single_mode:
            for chunk in _chunk_runs(self.runs, self.jobs):
                self._enqueue(chunk)
        else:
            for index in range(len(self.runs)):
                self._enqueue([index])
        self._pump()

    def _enqueue(self, indices: list[int]) -> None:
        self.pending.append(indices)

    def _pump(self) -> None:
        """Submit queued units while the pool has capacity.

        Thread futures report RUNNING accurately (the worker flips the
        state right before the call), so the threads policy needs no
        cap; process units are capped at ``jobs`` in flight — see the
        class docstring.
        """
        while self.pending and (
            self.policy == "threads" or len(self.active) < self.jobs
        ):
            self._submit(self.pending.pop(0))

    def _submit(self, indices: list[int]) -> None:
        from repro.campaign.executor import execute_chunk_outcomes, execute_run

        now = time.monotonic()
        for index in indices:
            self.first_submit.setdefault(index, now)
        if self.policy == "threads":
            future = self.thread_pool.submit(execute_run, self.runs[indices[0]])
        elif self.lease_seconds is not None:
            from repro.campaign.leases import (
                execute_leased_outcomes,
                grant_lease,
                heartbeat_interval,
            )

            if self.lease_dir is None:
                import tempfile

                self.lease_dir = Path(tempfile.mkdtemp(prefix="repro-leases-"))
            self.lease_counter += 1
            lease = self.lease_dir / f"unit-{self.lease_counter}.hb"
            grant_lease(lease)
            future = self.pools.acquire().submit(
                execute_leased_outcomes,
                [self.runs[i] for i in indices],
                str(lease),
                heartbeat_interval(self.lease_seconds),
            )
            self.lease_files[future] = lease
        else:
            future = self.pools.acquire().submit(
                execute_chunk_outcomes, [self.runs[i] for i in indices]
            )
        self.active[future] = indices

    def _drop_lease(self, future: "Future[object]") -> None:
        lease = self.lease_files.pop(future, None)
        if lease is not None:
            try:
                lease.unlink()
            except OSError:
                pass

    # -- one scheduler turn --------------------------------------------------

    def _step(self) -> None:
        now = time.monotonic()
        for item in [d for d in self.delayed if d[0] <= now]:
            self.delayed.remove(item)
            self._dispatch(item[1])
        self._pump()
        if self.probe is None and not self.active:
            while self.probe_queue:
                index = self.probe_queue.pop(0)
                if index in self.outstanding:
                    self.probe = index
                    self._submit([index])
                    break
        if not self.active:
            if self.delayed:
                time.sleep(max(0.0, min(d for d, _ in self.delayed) - now))
            return
        for future in self.active:
            if future not in self.run_started and future.running():
                self.run_started[future] = now
                lease = self.lease_files.get(future)
                if lease is not None:
                    # Re-anchor the lease clock: time spent queued behind
                    # a full pool must not count against the worker.
                    from repro.campaign.leases import grant_lease

                    grant_lease(lease)
        done, _ = wait(
            set(self.active),
            timeout=self._wait_timeout(now),
            return_when=FIRST_COMPLETED,
        )
        for future in done:
            self._complete(future)
        if self.cell_timeout is not None and self.abort_exc is None:
            self._expire(time.monotonic())
        if self.lease_seconds is not None and self.abort_exc is None:
            self._reap_leases()

    def _wait_timeout(self, now: float) -> float | None:
        candidates = []
        if self.delayed:
            candidates.append(min(due for due, _ in self.delayed) - now)
        if self.cell_timeout is not None:
            running = [
                started
                for future, started in self.run_started.items()
                if future in self.active
            ]
            if running:
                candidates.append(min(running) + self.cell_timeout - now)
            if any(f not in self.run_started for f in self.active):
                candidates.append(self.poll)
        if self.lease_seconds is not None and self.active:
            from repro.campaign.leases import heartbeat_interval

            # Wake at the heartbeat cadence so stale leases are noticed
            # within one renewal interval of going stale.
            candidates.append(heartbeat_interval(self.lease_seconds))
            if any(f not in self.run_started for f in self.active):
                candidates.append(self.poll)
        if not candidates:
            return None  # block until a future completes
        return max(0.0, min(candidates))

    # -- completion paths ----------------------------------------------------

    def _complete(self, future: "Future[object]") -> None:
        # A pool break drains *all* in-flight units at once, so sibling
        # futures from the same wait() batch may already be gone.
        indices = self.active.pop(future, None)
        if indices is None:
            return
        self.run_started.pop(future, None)
        self._drop_lease(future)
        try:
            payload = future.result()
        except BrokenProcessPool as exc:
            self._pool_break(future, indices, exc)
            return
        except CancelledError:
            if self.probe in indices:
                self.probe = None
            self._resubmit(indices)
            return
        except Exception as exc:
            # The unit ran and raised in-band, so its worker is alive:
            # whatever broke the pool earlier, these cells are cleared.
            self._clear_suspects(indices)
            if self.policy == "threads" or len(indices) == 1:
                self._cell_failed(indices[0], exc)
            else:
                # Transport-level failure of a chunk (unpicklable result,
                # executor teardown): split for exact attribution.
                self.single_mode = True
                self._resubmit(indices)
            return
        self._clear_suspects(indices)
        if self.policy == "threads":
            self._cell_done(indices[0], payload)
            return
        for index, (status, value) in zip(indices, payload):
            if status == "ok":
                self._cell_done(index, value)
            else:
                self._cell_failed(index, value)

    def _dispatch(self, index: int) -> None:
        if index in self.suspects:
            if index not in self.probe_queue:
                self.probe_queue.append(index)
        else:
            self._enqueue([index])

    def _resubmit(self, indices: list[int]) -> None:
        for index in indices:
            if index in self.outstanding:
                self._dispatch(index)

    def _clear_suspects(self, indices: list[int]) -> None:
        for index in indices:
            self.suspects.discard(index)
        if self.probe in indices:
            self.probe = None

    def _cell_done(self, index: int, result: "RunResult") -> None:
        if index not in self.outstanding:
            return
        self.outstanding.discard(index)
        self.results[index] = result
        if self.on_result is not None:
            self.on_result(result)

    def _cell_failed(self, index: int, exc: BaseException) -> None:
        from repro.campaign.failures import failure_from_exception

        if index not in self.outstanding:
            return
        self.attempts_used[index] += 1
        if self.attempts_used[index] < self.attempts_allowed:
            due = time.monotonic() + _backoff_delay(self.attempts_used[index])
            self.delayed.append((due, index))
            return
        elapsed = time.monotonic() - self.first_submit.get(index, time.monotonic())
        failure = failure_from_exception(
            self.runs[index], exc, self.attempts_used[index], elapsed
        )
        self.outstanding.discard(index)
        if self.keep_going:
            self.failures.append(failure)
            if self.on_failure is not None:
                self.on_failure(failure)
        else:
            # Re-raise the *original* exception so callers that never
            # opted into quarantine see exactly the historical error.
            self.abort_exc = exc

    def _pool_break(
        self, future: "Future[object]", indices: list[int], exc: BaseException
    ) -> None:
        """A worker died: retire the pool, resubmit only incomplete work.

        Every in-flight future dies with the pool, so the break alone
        cannot say *which* cell crashed its worker.  Units that were
        observed running become suspects and re-run solo (see
        :attr:`suspects`): a break during a solo probe is charged to that
        probe exactly, and every innocent suspect clears itself with one
        clean run.  Queued units were never running and resubmit as
        ordinary single cells.
        """
        self.pool_breaks += 1
        self.pools.discard()
        self.single_mode = True
        broken = [(future, indices)] + list(self.active.items())
        self.active.clear()
        probe_index, self.probe = self.probe, None
        if self.pool_breaks > max(4, self.attempts_allowed * len(self.runs)):
            self.abort_exc = CampaignError(
                f"worker pool died {self.pool_breaks} times; giving up "
                f"(last error: {exc})"
            )
            return
        for dead, dead_indices in broken:
            was_running = dead is future or dead in self.run_started
            self.run_started.pop(dead, None)
            self._drop_lease(dead)
            if dead_indices == [probe_index]:
                self._cell_failed(
                    probe_index,
                    WorkerCrashError(self.runs[probe_index].cell_key()),
                )
                if self.abort_exc is not None:
                    return
                # A surviving retry stays a suspect: it re-probes after
                # its backoff, so repeat offenders exhaust their budget.
            else:
                if was_running:
                    self.suspects.update(
                        i for i in dead_indices if i in self.outstanding
                    )
                self._resubmit(dead_indices)

    def _expire(self, now: float) -> None:
        expired = [
            future
            for future, started in self.run_started.items()
            if future in self.active and now - started >= self.cell_timeout
        ]
        if not expired:
            return
        if self.policy == "threads":
            # A running thread cannot be killed: abandon its future (the
            # eventual result is discarded) and charge the timeout.
            for future in expired:
                indices = self.active.pop(future)
                self.run_started.pop(future, None)
                future.cancel()
                self._timeout_cell(indices[0])
                if self.abort_exc is not None:
                    return
            return
        # Processes: the only way to stop a hung worker is to kill the
        # pool, so every in-flight unit dies; the hung cells are charged
        # and the innocent bystanders resubmit uncharged on a fresh pool.
        self.pools.terminate()
        victims = set(expired)
        units = list(self.active.items())
        self.active.clear()
        self.run_started.clear()
        self.probe = None  # every in-flight future died with the pool
        for future, indices in units:
            self._drop_lease(future)
            if future in victims:
                self._timeout_cell(indices[0])
                if self.abort_exc is not None:
                    return
            else:
                self._resubmit(indices)

    def _reap_leases(self) -> None:
        """Expire leased units whose workers stopped heartbeating.

        Unlike a pool break — where every in-flight future dies at once
        and attribution needs the suspect/solo-probe dance — a stale
        heartbeat names its cell exactly, so the expired cell is charged
        a :class:`LeaseExpiredError` (kind ``crash``) directly and the
        innocent bystanders resubmit uncharged on a fresh pool.
        """
        from repro.campaign.leases import heartbeat_age

        expired = [
            future
            for future in self.active
            if future in self.run_started
            and future in self.lease_files
            and heartbeat_age(self.lease_files[future]) >= self.lease_seconds
        ]
        if not expired:
            return
        # The presumed-dead worker may be merely stopped; kill the pool
        # so it cannot come back and double-report its cell.
        self.pools.terminate()
        victims = set(expired)
        units = list(self.active.items())
        self.active.clear()
        self.run_started.clear()
        self.probe = None
        for future, indices in units:
            self._drop_lease(future)
            if future in victims:
                self._cell_failed(
                    indices[0],
                    LeaseExpiredError(
                        self.runs[indices[0]].cell_key(), self.lease_seconds
                    ),
                )
                if self.abort_exc is not None:
                    return
            else:
                self._resubmit(indices)

    def _timeout_cell(self, index: int) -> None:
        self._cell_failed(
            index,
            CellTimeoutError(self.runs[index].cell_key(), self.cell_timeout),
        )

    def _shutdown(self) -> None:
        self.pending.clear()
        for future in list(self.active):
            future.cancel()
        self.active.clear()
        if self.thread_pool is not None:
            self.thread_pool.shutdown(wait=False, cancel_futures=True)
            self.thread_pool = None
        if self.lease_dir is not None:
            import shutil

            shutil.rmtree(self.lease_dir, ignore_errors=True)
            self.lease_dir = None
            self.lease_files.clear()


def _as_run_specs(runnable: object) -> list[RunSpec]:
    """Normalize any facade input to a flat list of grid cells."""
    if isinstance(runnable, RunSpec):
        return [runnable]
    if isinstance(runnable, (Scenario, CampaignSpec)):
        return runnable.expand()
    if isinstance(runnable, Iterable) and not isinstance(runnable, (str, bytes)):
        runs: list[RunSpec] = []
        for item in runnable:
            runs.extend(_as_run_specs(item))
        return runs
    raise CampaignError(
        f"cannot run {runnable!r}: expected a Scenario, CampaignSpec, "
        f"RunSpec, or an iterable of those"
    )


@dataclass
class Engine:
    """Runs scenarios; construction is cheap and carries only policy.

    ``jobs`` is the worker count for the pooled policies; ``policy=None``
    picks ``"serial"`` for ``jobs=1`` and ``"processes"`` otherwise
    (the campaign executor's historical behavior).  ``store``/``resume``
    apply to :meth:`run_campaign` only, mirroring
    :func:`repro.campaign.executor.run_campaign`.

    The fault-tolerance knobs apply to every execution method:
    ``max_retries`` re-attempts a failing cell with capped exponential
    backoff before giving up on it; ``cell_timeout`` bounds one attempt's
    wall clock (hung process workers are killed via pool retirement);
    ``keep_going`` converts terminal cell failures into structured
    :class:`~repro.campaign.failures.CellFailure` quarantine records
    instead of aborting the batch.  All three default off, which is
    byte-for-byte the historical behavior.

    ``lease_seconds`` adds a liveness check on top: each dispatched unit
    carries a lease renewed by worker heartbeats, and a worker silent
    for a full lease is presumed dead — its cell is charged a ``crash``
    and resubmitted (see :mod:`repro.campaign.leases`).  Leases need
    real worker processes, so the knob applies to the ``processes``
    policy only and is silently ignored elsewhere; it bounds *silence*,
    not runtime — pair it with ``cell_timeout`` to also bound a worker
    that is alive but stuck.

    ``private_pool`` gives this engine its own worker pool instead of
    the process-wide shared cache.  Engines running *concurrently* in
    one process (the campaign service runs several campaigns at once)
    must set it: recovering one engine's hung cell terminates its pool,
    and a shared pool would take every sibling engine's in-flight
    workers down with it.  A private pool is reused across this
    engine's ``run_many`` calls; call :meth:`close` (or use the engine
    as a context manager) to release its workers.
    """

    jobs: int = 1
    policy: str | None = None
    store: "ResultStore | str | Path | None" = None
    resume: bool = False
    progress: "ProgressFn | None" = None
    max_retries: int = 0
    cell_timeout: float | None = None
    keep_going: bool = False
    lease_seconds: float | None = None
    private_pool: bool = False

    def __post_init__(self) -> None:
        self._pool_host: _PoolHost | None = None
        if self.jobs < 1:
            raise CampaignError(f"jobs must be >= 1, got {self.jobs}")
        if self.policy is not None and self.policy not in EXECUTION_POLICIES:
            raise CampaignError(
                f"unknown execution policy {self.policy!r}; expected one "
                f"of {', '.join(EXECUTION_POLICIES)}"
            )
        if self.max_retries < 0:
            raise CampaignError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise CampaignError(
                f"cell_timeout must be positive, got {self.cell_timeout}"
            )
        if self.lease_seconds is not None and self.lease_seconds <= 0:
            raise CampaignError(
                f"lease_seconds must be positive, got {self.lease_seconds}"
            )

    # -- worker-pool ownership -----------------------------------------------

    def _pools_for(self, jobs: int) -> _PoolHost:
        if not self.private_pool:
            return _PoolHost(jobs)
        if self._pool_host is None or self._pool_host.jobs != jobs:
            if self._pool_host is not None:
                self._pool_host.close()
            self._pool_host = _PoolHost(jobs, private=True)
        return self._pool_host

    def close(self) -> None:
        """Release this engine's dedicated worker pool, if it has one.

        Only meaningful with ``private_pool`` (the shared cache is
        process-wide and persists by design); safe to call repeatedly.
        """
        if self._pool_host is not None:
            self._pool_host.close()
            self._pool_host = None

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- single cell ---------------------------------------------------------

    def run(self, runnable: object) -> "RunResult":
        """Run exactly one cell and return its :class:`RunResult`."""
        runs = _as_run_specs(runnable)
        if len(runs) != 1:
            raise CampaignError(
                f"Engine.run() executes exactly one cell, got {len(runs)}; "
                f"use run_many() or run_campaign() for grids"
            )
        from repro.campaign.executor import execute_run

        return execute_run(runs[0])

    # -- flat fan-out --------------------------------------------------------

    def run_many(
        self,
        runnables: object,
        policy: str | None = None,
        jobs: int | None = None,
        on_result: ResultFn | None = None,
        max_retries: int | None = None,
        cell_timeout: float | None = None,
        keep_going: bool | None = None,
        on_failure: FailureFn | None = None,
        lease_seconds: float | None = None,
    ) -> "list[RunResult]":
        """Run every cell; returns completed results in declaration order.

        ``on_result`` fires as cells complete (completion order under the
        pooled policies).  This is *the* cell loop — the campaign
        executor and the figure harnesses all funnel through here.

        A failing cell is retried up to ``max_retries`` times with capped
        exponential backoff; one that fails for good either aborts the
        batch by re-raising its original error (the default) or — with
        ``keep_going`` — is quarantined: ``on_failure`` receives the
        structured :class:`~repro.campaign.failures.CellFailure` and the
        returned list simply omits that cell.
        """
        runs = _as_run_specs(runnables)
        jobs = self.jobs if jobs is None else jobs
        if jobs < 1:
            raise CampaignError(f"jobs must be >= 1, got {jobs}")
        policy = policy if policy is not None else self.policy
        if policy is None:
            policy = "serial" if jobs == 1 else "processes"
        if policy not in EXECUTION_POLICIES:
            raise CampaignError(
                f"unknown execution policy {policy!r}; expected one of "
                f"{', '.join(EXECUTION_POLICIES)}"
            )
        if jobs == 1 or len(runs) <= 1:
            policy = "serial"
        max_retries = self.max_retries if max_retries is None else max_retries
        if max_retries < 0:
            raise CampaignError(f"max_retries must be >= 0, got {max_retries}")
        cell_timeout = self.cell_timeout if cell_timeout is None else cell_timeout
        if cell_timeout is not None and cell_timeout <= 0:
            raise CampaignError(
                f"cell_timeout must be positive, got {cell_timeout}"
            )
        keep_going = self.keep_going if keep_going is None else keep_going
        lease_seconds = (
            self.lease_seconds if lease_seconds is None else lease_seconds
        )
        if lease_seconds is not None and lease_seconds <= 0:
            raise CampaignError(
                f"lease_seconds must be positive, got {lease_seconds}"
            )
        if policy != "processes":
            # Leases require real worker processes whose silence is
            # observable; in-process policies cannot lose a worker.
            lease_seconds = None
        attempts_allowed = max_retries + 1

        if policy == "serial":
            return self._run_serial(
                runs, attempts_allowed, cell_timeout, keep_going,
                on_result, on_failure,
            )
        ordered, _ = _FanOut(
            runs=runs,
            jobs=jobs,
            policy=policy,
            attempts_allowed=attempts_allowed,
            cell_timeout=cell_timeout,
            keep_going=keep_going,
            on_result=on_result,
            on_failure=on_failure,
            lease_seconds=lease_seconds,
            pool_host=self._pools_for(jobs),
        ).execute()
        return [result for result in ordered if result is not None]

    @staticmethod
    def _run_serial(
        runs: "Sequence[RunSpec]",
        attempts_allowed: int,
        cell_timeout: float | None,
        keep_going: bool,
        on_result: ResultFn | None,
        on_failure: FailureFn | None,
    ) -> "list[RunResult]":
        from repro.campaign.executor import execute_run
        from repro.campaign.failures import failure_from_exception

        results: "list[RunResult]" = []
        watchdog = _SerialWatchdog() if cell_timeout is not None else None
        try:
            for run in runs:
                started = time.monotonic()
                last_error: Exception | None = None
                for attempt in range(1, attempts_allowed + 1):
                    try:
                        if watchdog is not None:
                            result = watchdog.call(execute_run, run, cell_timeout)
                        else:
                            result = execute_run(run)
                    except Exception as exc:
                        last_error = exc
                        if attempt < attempts_allowed:
                            time.sleep(_backoff_delay(attempt))
                        continue
                    results.append(result)
                    if on_result is not None:
                        on_result(result)
                    break
                else:
                    if not keep_going:
                        raise last_error
                    failure = failure_from_exception(
                        run,
                        last_error,
                        attempts_allowed,
                        time.monotonic() - started,
                    )
                    if on_failure is not None:
                        on_failure(failure)
        finally:
            if watchdog is not None:
                watchdog.close()
        return results

    # -- full campaigns (store, resume, rollup-ready outcome) ----------------

    def run_campaign(
        self,
        campaign: "Scenario | CampaignSpec",
        jobs: int | None = None,
        policy: str | None = None,
    ) -> "CampaignOutcome":
        """Run a whole grid with store/resume handling.

        Thin front door over :func:`repro.campaign.executor.run_campaign`
        (which itself loops through :meth:`run_many`), so CLI campaigns
        and facade campaigns share one code path.
        """
        from repro.campaign.executor import run_campaign

        spec = campaign.to_campaign() if isinstance(campaign, Scenario) else campaign
        if not isinstance(spec, CampaignSpec):
            raise CampaignError(
                f"run_campaign() needs a Scenario or CampaignSpec, "
                f"got {campaign!r}"
            )
        return run_campaign(
            spec,
            jobs=self.jobs if jobs is None else jobs,
            store=self.store,
            resume=self.resume,
            progress=self.progress,
            policy=policy if policy is not None else self.policy,
            max_retries=self.max_retries,
            cell_timeout=self.cell_timeout,
            keep_going=self.keep_going,
            lease_seconds=self.lease_seconds,
        )

    # -- scheduler comparisons (the run_comparison shape) --------------------

    def compare(
        self,
        runnable: "Scenario | CampaignSpec | Sequence[RunSpec]",
        policy: str | None = None,
    ) -> "SchedulerComparison":
        """Run one workload/machine/seed under several schedulers.

        Returns the same :class:`SchedulerComparison` record the figure
        renderers and CSV exporters consume — the facade replacement for
        calling :func:`repro.experiments.runner.run_comparison` by hand.
        """
        from repro.campaign.compat import group_comparisons

        runs = _as_run_specs(runnable)
        # group on the full frozen MachineVariant, not just its name, so
        # same-named variants with different overrides cannot merge
        groups = {(r.workload, r.machine, r.seed, r.scale, r.arrival) for r in runs}
        if len(groups) != 1:
            raise CampaignError(
                f"compare() wants one workload/machine/seed under several "
                f"schedulers; got {len(groups)} distinct cells — use "
                f"run_many() and group_comparisons() instead"
            )
        results = self.run_many(runs, policy=policy)
        return group_comparisons(results)[0]
