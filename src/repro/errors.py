"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised by this library derive from :class:`ReproError`, so
callers can catch a single base class.  Subclasses are grouped by the
subsystem that raises them; each carries a human-readable message and, where
useful, structured attributes that tests and tooling can inspect.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (wrong range, wrong shape, wrong type)."""


class PresburgerError(ReproError):
    """Base class for errors from the integer-set library."""


class DimensionMismatchError(PresburgerError):
    """Two sets or maps with incompatible dimensionality were combined."""

    def __init__(self, expected: int, actual: int, context: str = "") -> None:
        self.expected = expected
        self.actual = actual
        self.context = context
        suffix = f" ({context})" if context else ""
        super().__init__(
            f"dimension mismatch: expected {expected}, got {actual}{suffix}"
        )

    def __reduce__(self) -> tuple[type["DimensionMismatchError"], tuple[int, int, str]]:
        # Custom __init__ signature: pickle must replay the constructor
        # arguments, not the rendered message, or the worker's result
        # pipe breaks (same pattern as CellTimeoutError below).
        return (type(self), (self.expected, self.actual, self.context))


class UnboundedSetError(PresburgerError):
    """An operation requiring a bounded set was applied to an unbounded one."""


class ProgramModelError(ReproError):
    """The program model (arrays, accesses, loop nests) was misused."""


class UnknownArrayError(ProgramModelError, KeyError):
    """An access or layout query referenced an array that was never declared."""

    def __init__(self, name: str) -> None:
        self.array_name = name
        super().__init__(f"unknown array: {name!r}")

    def __reduce__(self) -> tuple[type["UnknownArrayError"], tuple[str]]:
        return (type(self), (self.array_name,))


class GraphError(ReproError):
    """Base class for process-graph structural errors."""


class CyclicDependenceError(GraphError):
    """A process graph contains a dependence cycle and cannot be scheduled."""

    def __init__(self, cycle: list[str]) -> None:
        self.cycle = list(cycle)
        super().__init__(f"dependence cycle detected: {' -> '.join(self.cycle)}")

    def __reduce__(self) -> tuple[type["CyclicDependenceError"], tuple[list[str]]]:
        return (type(self), (self.cycle,))


class DuplicateProcessError(GraphError):
    """Two processes with the same id were added to one graph."""

    def __init__(self, pid: str) -> None:
        self.pid = pid
        super().__init__(f"duplicate process id: {pid!r}")

    def __reduce__(self) -> tuple[type["DuplicateProcessError"], tuple[str]]:
        return (type(self), (self.pid,))


class UnknownProcessError(GraphError, KeyError):
    """A graph operation referenced a process id that is not in the graph."""

    def __init__(self, pid: str) -> None:
        self.pid = pid
        super().__init__(f"unknown process id: {pid!r}")

    def __reduce__(self) -> tuple[type["UnknownProcessError"], tuple[str]]:
        return (type(self), (self.pid,))


class LayoutError(ReproError):
    """Base class for memory-layout errors."""


class OverlappingAllocationError(LayoutError):
    """Two arrays were allocated overlapping address ranges."""


class AddressRangeError(LayoutError, IndexError):
    """An address or element index fell outside its array's range."""


class SchedulingError(ReproError):
    """Base class for scheduler failures."""


class InfeasibleScheduleError(SchedulingError):
    """No valid schedule exists (e.g. unsatisfiable dependences)."""


class SimulationError(ReproError):
    """Base class for simulator failures."""


class EventOrderingError(SimulationError):
    """The discrete-event engine observed time running backwards."""

    def __init__(self, now: int, event_time: int) -> None:
        self.now = now
        self.event_time = event_time
        super().__init__(
            f"event scheduled in the past: now={now}, event time={event_time}"
        )

    def __reduce__(self) -> tuple[type["EventOrderingError"], tuple[int, int]]:
        return (type(self), (self.now, self.event_time))


class WorkloadError(ReproError):
    """A workload generator was configured inconsistently."""


def suggest_name(name: str, known: list[str]) -> str | None:
    """The closest registered name to a misspelt one, if any is close.

    Shared by every unknown-name error in the library so a typo
    (``"LMS"``, ``"mxm"``) always comes back with a concrete fix rather
    than just an enumeration of the valid names.
    """
    import difflib

    if not isinstance(name, str):
        return None
    # An exact match up to case beats any edit-distance candidate
    # ("mxm" must suggest "MxM", not a shorter near-anagram).
    folded = {k.lower(): k for k in known}
    if name.lower() in folded:
        return folded[name.lower()]
    matches = difflib.get_close_matches(name, known, n=1, cutoff=0.5)
    if not matches:
        matches = [
            folded[m]
            for m in difflib.get_close_matches(
                name.lower(), list(folded), n=1, cutoff=0.5
            )
        ]
    return matches[0] if matches else None


class UnknownWorkloadError(WorkloadError, KeyError):
    """A workload name was not found in the suite registry."""

    def __init__(self, name: str, known: list[str]) -> None:
        self.name = name
        self.known = list(known)
        hint = suggest_name(name, self.known)
        suffix = f" (did you mean {hint!r}?)" if hint else ""
        super().__init__(
            f"unknown workload {name!r}; known workloads: "
            f"{', '.join(known)}{suffix}"
        )

    def __reduce__(self) -> tuple[type["UnknownWorkloadError"], tuple[str, list[str]]]:
        return (type(self), (self.name, self.known))


class ExperimentError(ReproError):
    """An experiment harness was configured inconsistently."""


class CampaignError(ExperimentError):
    """A campaign spec, store, or executor was configured inconsistently."""


class CellTimeoutError(CampaignError):
    """One cell exceeded its per-cell wall-clock budget.

    Raised by the engine's fan-out loops when ``cell_timeout`` fires;
    carries the cell key and the budget so quarantine records (and the
    abort path without ``keep_going``) can report exactly what timed out.
    """

    def __init__(self, key: str, timeout: float) -> None:
        self.key = key
        self.timeout = timeout
        super().__init__(
            f"cell {key!r} exceeded its {timeout:g}s wall-clock budget"
        )

    def __reduce__(self):
        # Custom __init__ signature: pickle must replay (key, timeout),
        # not the rendered message, or the worker's result pipe breaks.
        return (type(self), (self.key, self.timeout))


class WorkerCrashError(CampaignError):
    """A worker process died (crash, OOM-kill) while executing a cell.

    The engine's supervisor knows which cell each worker had started, so
    the charge names exactly that cell; the worker's other cells are
    requeued uncharged.
    """

    def __init__(self, key: str) -> None:
        self.key = key
        super().__init__(f"worker process died while executing cell {key!r}")

    def __reduce__(self):
        return (type(self), (self.key,))


class LeaseExpiredError(WorkerCrashError):
    """A leased cell's worker stopped heartbeating before completion.

    Subclasses :class:`WorkerCrashError` because a worker silent for a
    whole lease is presumed dead (stopped, or wedged beyond even its
    beat thread) and is killed; quarantine records therefore classify
    lease expiries as ``crash``, and the engine retries the cell through
    the ordinary retry machinery.
    """

    def __init__(self, key: str, lease_seconds: float) -> None:
        self.key = key
        self.lease_seconds = lease_seconds
        # Skip WorkerCrashError.__init__ (it would overwrite the message).
        Exception.__init__(
            self,
            f"lease on cell {key!r} expired: no worker heartbeat for "
            f"{lease_seconds:g}s (worker presumed dead)",
        )

    def __reduce__(self):
        return (type(self), (self.key, self.lease_seconds))


class InjectedFaultError(ReproError):
    """A fault deliberately raised by the fault-injection harness.

    Distinct from every organic error class so tests can assert that a
    quarantined failure was the injected one and not a real bug.
    """

    def __init__(self, site: str, key: str) -> None:
        self.site = site
        self.key = key
        super().__init__(f"injected fault at {site}:{key}")

    def __reduce__(self):
        # Injected errors cross the worker/parent pickle boundary; the
        # args tuple holds the rendered message, not (site, key).
        return (type(self), (self.site, self.key))


class InjectedDisconnectError(InjectedFaultError):
    """An injected connection drop (the ``disconnect`` fault kind).

    Raised at ``serve``-site fault points to simulate a client or
    transport vanishing mid-stream; the server maps it to an abrupt
    connection abort rather than a structured error reply, so retrying
    clients exercise the reattach path.  Inherits the ``(site, key)``
    constructor and ``__reduce__`` from :class:`InjectedFaultError`.
    """


class FaultPlanError(ReproError):
    """A fault-injection plan (``REPRO_FAULT_PLAN``) failed to parse."""


class ServeError(ReproError):
    """The campaign service was misconfigured or a request failed for good.

    Raised client-side when a retrying client exhausts its convergence
    budget, and server-side for configuration errors; transient faults
    (disconnects, rejects) are retried, never raised.
    """


class MemoStoreError(ReproError):
    """The persistent memo store was misconfigured or misused."""


class AnalysisError(ReproError):
    """The static-analysis engine (``repro check``) was misconfigured."""


class RegistryError(ReproError):
    """A :mod:`repro.api` registry was misused (bad name, duplicate entry)."""


class UnknownEntryError(RegistryError, KeyError):
    """A registry lookup named an entry that was never registered.

    Carries the registry kind, the offending name, and the registered
    names; the message enumerates the valid names and, when the input
    looks like a typo, suggests the nearest match.
    """

    def __init__(self, kind: str, name: object, known: list[str]) -> None:
        self.kind = kind
        self.name = name
        self.known = list(known)
        if not self.known:
            detail = f"no {kind}s are registered"
        else:
            detail = f"registered {kind}s: {', '.join(self.known)}"
        hint = suggest_name(name, self.known) if isinstance(name, str) else None
        suffix = f" (did you mean {hint!r}?)" if hint else ""
        super().__init__(f"unknown {kind} {name!r}; {detail}{suffix}")

    def __reduce__(
        self,
    ) -> tuple[type["UnknownEntryError"], tuple[str, object, list[str]]]:
        return (type(self), (self.kind, self.name, self.known))

    def __str__(self) -> str:
        # KeyError.__str__ reprs its argument, which would double-quote
        # the message when the error is wrapped or printed.
        return self.args[0]
