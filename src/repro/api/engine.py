"""The :class:`Engine` — one execution surface behind every entry point.

The engine owns the cell loop that used to live in three places (the
example scripts' inline ``MPSoCSimulator.run`` loops, the experiment
harnesses' ``run_comparison``, and the campaign executor): it takes
anything that normalizes to :class:`~repro.campaign.spec.RunSpec` cells
and runs them under one of three policies —

- ``"serial"`` — in declaration order, in-process (deterministic, no
  worker overhead; what the figure harnesses use);
- ``"threads"`` — worker threads; worthwhile because the compiled cache
  kernel is called through ``ctypes.CDLL``, which releases the GIL, and
  required when plugin schedulers or workloads were registered at
  runtime (thread workers see them);
- ``"processes"`` — worker processes, what campaigns always used.
  They re-import :mod:`repro`, so runtime-registered plugins are only
  visible where the start method is ``fork`` (the Linux default) or the
  plugin module is imported on worker start.

Both pooled policies run the same supervisor (:class:`_FanOut`) over
*lanes*: one worker each, on one end of a duplex pipe, holding at most
one unit of cells at a time, so every failure is charged to the one
cell that caused it.

Results are the existing typed records (:class:`RunResult`,
:class:`CampaignOutcome`, :class:`SchedulerComparison`), so everything
downstream — rollups, CSV export, figure renderers, resume — is
unchanged.
"""

from __future__ import annotations

import atexit
import contextlib
import math
import pickle
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from multiprocessing import Pipe, Process
from multiprocessing.connection import Connection, wait
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

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
    """Align a fresh worker process with the parent's tuning state.

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


def _pool_init_args() -> tuple[str | None, str, bool, str | None]:
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


def _beat_interval(lease_seconds: float) -> float:
    """How often a lane renews a lease: four beats per lease, so one
    late beat cannot expire a healthy lane, floored so a tiny lease
    cannot spin the beat thread."""
    return max(0.01, lease_seconds / 4)


def _beat(
    send: "Callable[[tuple[object, ...]], None]",
    interval: float,
    stop: threading.Event,
) -> None:
    """Send ``("beat",)`` every ``interval`` seconds until ``stop`` is set."""
    while not stop.wait(interval):
        try:
            send(("beat",))
        except OSError:
            return  # the parent dropped this lane; it is about to be killed


def _portable(exc: Exception) -> Exception:
    """``exc`` if it survives a pickle round trip, else a plain error.

    Full round trip: an exception whose custom ``__init__`` signature
    pickles but fails to *unpickle* would kill the parent's end of the
    pipe.
    """
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return CampaignError(f"{type(exc).__name__}: {exc}")
    return exc


def _lane_loop(conn: Connection) -> None:
    """Serve units from the parent until it hangs up.

    A unit arrives as ``(runs, beat_interval)``.  Each cell is bracketed
    by ``("start", i)`` and ``("ok" | "err", i, value)``, so the parent
    always knows which cell this lane holds; per-cell errors travel as
    data.  With a ``beat_interval`` (a lease is in force) a daemon
    thread sends ``("beat",)`` while the unit runs, sharing one send
    lock with this loop.
    """
    from repro.campaign.executor import execute_run

    lock = threading.Lock()

    def send(message: tuple[object, ...]) -> None:
        with lock:
            conn.send(message)

    with conn:
        while True:
            try:
                runs, beat_interval = conn.recv()
            except (EOFError, OSError):
                return
            stop = threading.Event()
            if beat_interval is not None:
                threading.Thread(
                    target=_beat,
                    args=(send, beat_interval, stop),
                    name="repro-lane-beat",
                    daemon=True,
                ).start()
            try:
                for i, run in enumerate(runs):
                    send(("start", i))
                    outcome: tuple[str, int, object]
                    try:
                        outcome = ("ok", i, execute_run(run))
                    except Exception as exc:
                        outcome = ("err", i, _portable(exc))
                    send(outcome)
            except OSError:
                return  # the parent abandoned this lane
            finally:
                stop.set()


def _process_lane(
    conn: Connection, init_args: tuple[str | None, str, bool, str | None]
) -> None:
    _pool_worker_init(*init_args)
    _lane_loop(conn)


class _Lane:
    """One worker on one end of a duplex pipe, holding at most one unit.

    The worker is a process (``processes`` policy) or a daemon thread
    (``threads``) running :func:`_lane_loop`.  The parent-side state is
    explicit: idle (``unit`` empty); running ``unit``, with the
    ``started`` cell (an index into the grid, or None between cells),
    its ``since`` stamp and the ``beat`` stamp of the last message; or
    dead (:meth:`alive` is false).
    """

    def __init__(self, threaded: bool) -> None:
        self.threaded = threaded
        self._spawn()

    def _spawn(self) -> None:
        self.conn, child = Pipe()
        if self.threaded:
            self.worker: "Process | threading.Thread" = threading.Thread(
                target=_lane_loop, args=(child,), name="repro-lane", daemon=True
            )
            self.worker.start()
        else:
            self.worker = Process(
                target=_process_lane, args=(child, _pool_init_args()), daemon=True
            )
            self.worker.start()
            child.close()
        self.epoch = worker_state_epoch()
        self.unit: list[int] = []
        self.finished = 0
        self.started: int | None = None
        self.since = self.beat = 0.0

    @property
    def sentinel(self) -> int | None:
        """The process sentinel (death is not seen through pipe EOF:
        forked siblings inherit pipe ends)."""
        return self.worker.sentinel if isinstance(self.worker, Process) else None

    def alive(self) -> bool:
        return self.worker.is_alive()

    def dispatch(
        self, unit: list[int], runs: "Sequence[RunSpec]",
        beat_interval: float | None,
    ) -> None:
        self.unit, self.finished, self.started = unit, 0, None
        self.since = self.beat = time.monotonic()
        self.conn.send(([runs[i] for i in unit], beat_interval))

    def receive(self, message: tuple[Any, ...]) -> tuple[int, str, Any] | None:
        """Apply one lane message; returns ``(cell, status, value)`` for
        an outcome, None for ``start`` and ``beat``."""
        self.beat = time.monotonic()
        if message[0] == "beat":
            return None
        cell = self.unit[message[1]]
        if message[0] == "start":
            self.started, self.since = cell, self.beat
            return None
        self.started, self.finished = None, message[1] + 1
        if self.finished == len(self.unit):
            self.unit = []
        return cell, message[0], message[2]

    def unstarted(self) -> list[int]:
        """The unit's cells that never sent ``start``."""
        return self.unit[self.finished + (self.started is not None):]

    def stop(self) -> None:
        """Kill a process lane (a thread lane is abandoned) and hang up."""
        if isinstance(self.worker, Process):
            self.worker.kill()
            self.worker.join()
        self.conn.close()

    def respawn(self) -> None:
        self.stop()
        self._spawn()


#: Idle process lanes, reused across ``run_many`` calls: worker start-up
#: dwarfs a typical cell, and campaigns composed of several passes
#: (sensitivity, the figure harnesses, every ``repro serve`` batch)
#: otherwise pay it once per pass.  ``run_many`` checks lanes out, so
#: concurrent engines never share one, and checks the live ones back
#: in.  A lane is retired when fork-inherited state changed since it
#: started (plugin registrations, engine toggles, memo-store
#: reconfiguration — see repro.util.invalidation).
_IDLE_LANES: list[_Lane] = []
register_worker_state(
    __name__, "_IDLE_LANES",
    note="idle worker lanes; a lane is retired on epoch mismatch",
)
_IDLE_LANES_LOCK = threading.Lock()


def _checkout_lanes(count: int) -> list[_Lane]:
    """Take ``count`` current idle process lanes, spawning any missing."""
    epoch = worker_state_epoch()
    with _IDLE_LANES_LOCK:
        current = [lane for lane in _IDLE_LANES if lane.epoch == epoch]
        retired = [lane for lane in _IDLE_LANES if lane.epoch != epoch]
        taken, _IDLE_LANES[:] = current[:count], current[count:]
    lanes: list[_Lane] = []
    for lane in taken:
        (lanes if lane.alive() else retired).append(lane)
    for lane in retired:
        lane.stop()
    return lanes + [_Lane(threaded=False) for _ in range(count - len(lanes))]


def _checkin_lanes(lanes: list[_Lane]) -> None:
    """Park idle, live, current process lanes; stop every other lane."""
    epoch = worker_state_epoch()
    parked: list[_Lane] = []
    for lane in lanes:
        if (
            not lane.threaded and not lane.unit
            and lane.epoch == epoch and lane.alive()
        ):
            parked.append(lane)
        else:
            lane.stop()
    with _IDLE_LANES_LOCK:
        _IDLE_LANES.extend(parked)


@atexit.register
def _stop_idle_lanes() -> None:
    with _IDLE_LANES_LOCK:
        lanes = list(_IDLE_LANES)
        _IDLE_LANES.clear()
    for lane in lanes:
        lane.stop()


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
    EPGs and traces, so they belong in the same worker; a cap keeps
    single-workload grids (open-system sweeps) from collapsing into one
    serial task.  Chunks are ordered by descending estimated cost so
    handing each free lane the next chunk balances naturally.
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

    Cells are dispatched as *units*, one per lane (see :class:`_Lane`):
    workload-grouped chunks on process lanes when nothing bounds a cell
    (neither a timeout nor a lease), single cells otherwise.  Because
    every lane reports ``start`` before each cell, a death (seen through
    the process sentinel), a timeout or a silence longer than the lease
    charges exactly the cell its lane had started; that lane alone is
    replaced, and its unstarted cells are requeued uncharged.  No
    sibling lane is touched and no cell ever re-runs for a neighbor.
    """

    runs: "Sequence[RunSpec]"
    jobs: int
    policy: str
    attempts_allowed: int
    cell_timeout: float | None
    keep_going: bool
    on_result: ResultFn | None
    on_failure: FailureFn | None
    #: Lease length (processes policy only): a lane silent this long is
    #: presumed dead and its cell charged a crash.  None disables it.
    lease_seconds: float | None = None

    def __post_init__(self) -> None:
        count = len(self.runs)
        self.results: "list[RunResult | None]" = [None] * count
        self.failures: "list[CellFailure]" = []
        self.outstanding: set[int] = set(range(count))
        self.attempts_used = [0] * count
        self.first_submit: dict[int, float] = {}
        self.queue: deque[list[int]] = deque()
        self.delayed: list[tuple[float, int]] = []  # (due, index)
        self.lanes: list[_Lane] = []
        self.abort_exc: BaseException | None = None
        #: Lanes that died (or went silent) while holding no started cell.
        self.idle_deaths = 0
        self.beat_interval = (
            _beat_interval(self.lease_seconds)
            if self.lease_seconds is not None else None
        )

    def execute(self) -> "tuple[list[RunResult | None], list[CellFailure]]":
        if (
            self.policy == "processes"
            and self.cell_timeout is None and self.lease_seconds is None
        ):
            self.queue.extend(_chunk_runs(self.runs, self.jobs))
        else:
            self.queue.extend([index] for index in range(len(self.runs)))
        count = min(self.jobs, len(self.queue))
        try:
            if self.policy == "threads":
                self.lanes = [_Lane(threaded=True) for _ in range(count)]
            else:
                self.lanes = _checkout_lanes(count)
            while self.outstanding and self.abort_exc is None:
                self._step()
        finally:
            _checkin_lanes(self.lanes)
        if self.abort_exc is not None:
            raise self.abort_exc
        return self.results, self.failures

    # -- one supervisor turn -------------------------------------------------

    def _step(self) -> None:
        now = time.monotonic()
        for item in [d for d in self.delayed if d[0] <= now]:
            self.delayed.remove(item)
            self.queue.append([item[1]])
        for lane in self.lanes:
            if not lane.unit and self.queue:
                self._dispatch(lane, self.queue.popleft())
        busy = [lane for lane in self.lanes if lane.unit]
        if not busy:
            if self.delayed:
                time.sleep(max(0.0, min(due for due, _ in self.delayed) - now))
            return
        handles: list[Connection | int] = [lane.conn for lane in busy]
        handles += [lane.sentinel for lane in busy if lane.sentinel is not None]
        wait(handles, timeout=self._wait_timeout(busy, now))
        for lane in busy:
            self._poll(lane)
            if self.abort_exc is not None:
                return

    def _wait_timeout(self, busy: list[_Lane], now: float) -> float | None:
        """Until the next retry is due, a cell's deadline, or a lease lapses."""
        times = [due for due, _ in self.delayed]
        for lane in busy:
            if self.cell_timeout is not None and lane.started is not None:
                times.append(lane.since + self.cell_timeout)
            if self.lease_seconds is not None:
                times.append(lane.beat + self.lease_seconds)
        return max(0.0, min(times) - now) if times else None

    def _dispatch(self, lane: _Lane, unit: list[int]) -> None:
        now = time.monotonic()
        for index in unit:
            self.first_submit.setdefault(index, now)
        try:
            lane.dispatch(unit, self.runs, self.beat_interval)
        except OSError:
            self._replace(lane, WorkerCrashError)  # it died while idle

    def _poll(self, lane: _Lane) -> None:
        """Drain one busy lane's messages, then check its health."""
        # Liveness first: whatever a dead worker sent is already in the
        # pipe, so draining afterwards cannot miss its last outcome.
        alive = lane.alive()
        try:
            while lane.unit and lane.conn.poll():
                outcome = lane.receive(lane.conn.recv())
                if outcome is None:
                    continue
                index, status, value = outcome
                if status == "ok":
                    self._cell_done(index, value)
                else:
                    self._cell_failed(index, value)
        except (EOFError, OSError):
            alive = False
        if not lane.unit or self.abort_exc is not None:
            return
        now = time.monotonic()
        timeout, lease = self.cell_timeout, self.lease_seconds
        if not alive:
            self._replace(lane, WorkerCrashError)
        elif (
            timeout is not None and lane.started is not None
            and now - lane.since >= timeout
        ):
            self._replace(lane, lambda key: CellTimeoutError(key, timeout))
        elif lease is not None and now - lane.beat >= lease:
            self._replace(lane, lambda key: LeaseExpiredError(key, lease))

    def _replace(
        self, lane: _Lane, charge: "Callable[[str], Exception]"
    ) -> None:
        """Replace a dead, hung or silent lane; charge only its started cell.

        The unit's unstarted cells are requeued uncharged.  A lane lost
        while holding no started cell charges nobody, but such losses
        are bounded so a worker that cannot even start fails the batch.
        """
        cell, rest = lane.started, lane.unstarted()
        lane.respawn()
        if rest:
            self.queue.append(rest)
        if cell is not None:
            self._cell_failed(cell, charge(self.runs[cell].cell_key()))
            return
        self.idle_deaths += 1
        if self.idle_deaths > max(4, self.attempts_allowed * len(self.runs)):
            self.abort_exc = CampaignError(
                f"worker lanes died {self.idle_deaths} times outside any "
                f"cell; giving up"
            )

    # -- cell outcomes -------------------------------------------------------

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


def _check_knobs(
    jobs: int,
    policy: str | None,
    max_retries: int,
    cell_timeout: float | None,
    lease_seconds: float | None,
) -> None:
    """Reject out-of-range execution knobs with a :class:`CampaignError`."""
    if jobs < 1:
        raise CampaignError(f"jobs must be >= 1, got {jobs}")
    if policy is not None and policy not in EXECUTION_POLICIES:
        raise CampaignError(
            f"unknown execution policy {policy!r}; expected one of "
            f"{', '.join(EXECUTION_POLICIES)}"
        )
    if max_retries < 0:
        raise CampaignError(f"max_retries must be >= 0, got {max_retries}")
    if cell_timeout is not None and cell_timeout <= 0:
        raise CampaignError(f"cell_timeout must be positive, got {cell_timeout}")
    if lease_seconds is not None and lease_seconds <= 0:
        raise CampaignError(
            f"lease_seconds must be positive, got {lease_seconds}"
        )


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
    wall clock (a hung worker process is killed and replaced);
    ``keep_going`` converts terminal cell failures into structured
    :class:`~repro.campaign.failures.CellFailure` quarantine records
    instead of aborting the batch.  All three default off, which is
    byte-for-byte the historical behavior.

    ``lease_seconds`` adds a liveness check on top: while a unit runs,
    its worker sends a beat down its pipe every quarter lease, and a
    worker silent for a full lease is presumed dead — it is killed and
    its cell charged a ``crash``.  Leases need real worker processes, so
    the knob applies to the ``processes`` policy only and is silently
    ignored elsewhere; it bounds *silence*, not runtime — pair it with
    ``cell_timeout`` to also bound a worker that is alive but stuck.

    Worker processes are reused across ``run_many`` calls, and engines
    running concurrently in one process (the campaign service runs
    several campaigns at once) never share one, so one engine's hung
    cell is recovered without touching a sibling's workers.
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

    def __post_init__(self) -> None:
        _check_knobs(
            self.jobs, self.policy, self.max_retries,
            self.cell_timeout, self.lease_seconds,
        )

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
        policy = policy if policy is not None else self.policy
        max_retries = self.max_retries if max_retries is None else max_retries
        cell_timeout = self.cell_timeout if cell_timeout is None else cell_timeout
        keep_going = self.keep_going if keep_going is None else keep_going
        lease_seconds = (
            self.lease_seconds if lease_seconds is None else lease_seconds
        )
        _check_knobs(jobs, policy, max_retries, cell_timeout, lease_seconds)
        if policy is None:
            policy = "serial" if jobs == 1 else "processes"
        if jobs == 1 or len(runs) <= 1:
            policy = "serial"
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
