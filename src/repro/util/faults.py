"""Deterministic, seeded fault injection for robustness testing.

The fault-tolerance layer (retries, timeouts, quarantine, store
self-healing) is only trustworthy if its failure paths are *executed*,
and worker crashes, hung cells, and corrupt databases do not happen on
demand.  This module makes them happen on demand — deterministically, so
a chaos test is as reproducible as any other simulation in this repo.

A **fault plan** is a semicolon-separated list of settings and rules::

    seed=42; crash@cell:MxM*,times=1; hang@cell:*LS*,seconds=30,times=1

Settings:

- ``seed=<int>`` — seeds the per-(rule, site, key) probability decisions
  (default 0).
- ``ledger=<dir>`` — directory where ``times``-capped rules record their
  firings, making the cap hold across worker *processes* (default: a
  per-plan directory under the system temp dir).

Rules are ``<action>@<site>[:<glob>][,param=value]*``:

- actions — ``crash`` (``os._exit``, simulating an OOM-kill),
  ``error`` (raise :class:`~repro.errors.InjectedFaultError`),
  ``hang`` (sleep ``seconds``, default 30), ``delay`` (sleep
  ``seconds`` too, but named for latency injection: pair it with a
  small ``seconds=`` to slow a path down without tripping timeouts),
  ``disconnect`` (raise :class:`~repro.errors.InjectedDisconnectError`
  — the campaign service maps it to an abrupt connection abort), and
  ``corrupt`` (scribble over the file named by the injection key — the
  store site passes its database path);
- sites — where :func:`fault_point` calls are compiled into the
  production code: ``cell`` (entry of every campaign-cell execution,
  keyed by the cell key), ``kernel`` (entry of every compiled-LRU
  kernel call — each RRS quantum and each whole trace of the static
  and dynamic drivers — key ``"run"``), ``store`` (memo-store connection setup, keyed by
  the database path), and ``serve`` (the campaign service's request
  and event paths, keyed ``request:<op>`` / ``event:<kind>`` —
  awaited via :func:`async_fault_point` so sleeps never block the
  event loop);
- params — ``p=<float>`` fire probability (default 1, decided by a hash
  of the plan seed, rule, site, and key — the same key always gets the
  same verdict, in every process), ``times=<int>`` total firing cap
  across all processes (default unlimited), ``seconds=<float>`` hang
  duration.

Plans activate through the ``REPRO_FAULT_PLAN`` environment variable
(which worker processes inherit) or :func:`configure_fault_plan`; with no
plan active, :func:`fault_point` is a dictionary lookup and a string
compare — cheap enough to leave compiled into hot paths.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import time
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path

from repro.errors import FaultPlanError, InjectedDisconnectError, InjectedFaultError
from repro.util.invalidation import register_worker_state

#: Environment variable holding the active plan text.
PLAN_ENV = "REPRO_FAULT_PLAN"

#: The supported rule actions.
ACTIONS = ("crash", "error", "hang", "delay", "disconnect", "corrupt")

#: The compiled-in injection sites.
SITES = ("cell", "kernel", "store", "serve")

#: Exit status of an injected worker crash (distinctive in core dumps
#: and CI logs; any death is charged to the worker's cell identically).
CRASH_EXIT_STATUS = 177


@dataclass(frozen=True)
class FaultRule:
    """One parsed rule of a fault plan."""

    action: str
    site: str
    match: str = "*"
    p: float = 1.0
    times: int | None = None
    seconds: float = 30.0
    #: Position in the plan — distinguishes otherwise-identical rules in
    #: both the decision hash and the ledger.
    index: int = 0

    def rule_id(self) -> str:
        """Stable ledger identity of this rule."""
        text = f"{self.index}:{self.action}@{self.site}:{self.match}"
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class FaultPlan:
    """A parsed plan: decision seed, ledger directory, and rules."""

    seed: int = 0
    ledger: Path | None = None
    rules: list[FaultRule] = field(default_factory=list)
    text: str = ""

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the plan grammar; raises :class:`FaultPlanError`."""
        plan = cls(text=text)
        for clause in text.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            if "@" not in clause.split(",", 1)[0]:
                key, _, value = clause.partition("=")
                key = key.strip()
                if key == "seed":
                    try:
                        plan.seed = int(value)
                    except ValueError:
                        raise FaultPlanError(
                            f"fault-plan seed must be an integer, got {value!r}"
                        ) from None
                elif key == "ledger":
                    plan.ledger = Path(value.strip())
                else:
                    raise FaultPlanError(
                        f"unknown fault-plan setting {key!r} in {clause!r} "
                        f"(expected 'seed=' or 'ledger=')"
                    )
                continue
            plan.rules.append(cls._parse_rule(clause, len(plan.rules)))
        if plan.ledger is None:
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
            plan.ledger = Path(tempfile.gettempdir()) / f"repro-faults-{digest}"
        return plan

    @staticmethod
    def _parse_rule(clause: str, index: int) -> FaultRule:
        head, *params = [part.strip() for part in clause.split(",")]
        action, _, target = head.partition("@")
        action = action.strip()
        if action not in ACTIONS:
            raise FaultPlanError(
                f"unknown fault action {action!r} in {clause!r}; expected "
                f"one of {', '.join(ACTIONS)}"
            )
        site, _, match = target.partition(":")
        site = site.strip()
        if site not in SITES:
            raise FaultPlanError(
                f"unknown fault site {site!r} in {clause!r}; expected one "
                f"of {', '.join(SITES)}"
            )
        kwargs: dict[str, object] = {"match": match.strip() or "*"}
        for param in params:
            key, _, value = param.partition("=")
            key = key.strip()
            try:
                if key == "p":
                    kwargs["p"] = float(value)
                elif key == "times":
                    kwargs["times"] = int(value)
                elif key == "seconds":
                    kwargs["seconds"] = float(value)
                else:
                    raise FaultPlanError(
                        f"unknown fault-rule param {key!r} in {clause!r} "
                        f"(expected p=, times=, or seconds=)"
                    )
            except ValueError:
                raise FaultPlanError(
                    f"bad value for {key!r} in fault rule {clause!r}: {value!r}"
                ) from None
        return FaultRule(action=action, site=site, index=index, **kwargs)

    # -- firing ---------------------------------------------------------------

    def _decides_to_fire(self, rule: FaultRule, site: str, key: str) -> bool:
        if rule.p >= 1.0:
            return True
        if rule.p <= 0.0:
            return False
        digest = hashlib.sha256(
            f"{self.seed}:{rule.index}:{site}:{key}".encode("utf-8")
        ).digest()
        draw = int.from_bytes(digest[:8], "big") / 2**64
        return draw < rule.p

    def _claim(self, rule: FaultRule) -> bool:
        """Atomically claim one of the rule's ``times`` firing tokens.

        Token files under the ledger directory are created with
        ``O_EXCL``, so concurrent workers racing for the last token
        cannot both fire — the cap holds across processes.
        """
        if rule.times is None:
            return True
        self.ledger.mkdir(parents=True, exist_ok=True)
        for n in range(rule.times):
            token = self.ledger / f"{rule.rule_id()}.{n}"
            try:
                fd = os.open(str(token), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            except OSError:
                return False
            os.close(fd)
            return True
        return False

    def claimed_rules(self, site: str, key: str) -> list[FaultRule]:
        """The matching rules that decided to fire *and* won a token.

        Claiming is separated from performing so the sync and async
        entry points (:func:`fault_point` / :func:`async_fault_point`)
        share the match/probability/ledger logic exactly and differ only
        in how sleeps are executed.
        """
        fired: list[FaultRule] = []
        for rule in self.rules:
            if rule.site != site or not fnmatchcase(key, rule.match):
                continue
            if not self._decides_to_fire(rule, site, key):
                continue
            if not self._claim(rule):
                continue
            fired.append(rule)
        return fired

    def fire(self, site: str, key: str) -> None:
        """Fire every matching rule for one injection point."""
        for rule in self.claimed_rules(site, key):
            _perform(rule, site, key)


def _perform(rule: FaultRule, site: str, key: str) -> None:
    if rule.action == "crash":
        os._exit(CRASH_EXIT_STATUS)
    if rule.action == "error":
        raise InjectedFaultError(site, key)
    if rule.action == "disconnect":
        raise InjectedDisconnectError(site, key)
    if rule.action in ("hang", "delay"):
        time.sleep(rule.seconds)
        return
    if rule.action == "corrupt":
        _corrupt_file(key)


def _corrupt_file(path_text: str) -> None:
    """Overwrite the head of a file with garbage (creating it if absent).

    Clobbering the first page destroys an SQLite header, which is what
    the store-healing path must detect and quarantine.
    """
    path = Path(path_text)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("r+b" if path.exists() else "wb") as handle:
            handle.write(b"\x00CHAOS\xff" * 128)
    except OSError:
        pass  # an uncorruptible target is just a fault that missed


# -- process-wide activation -------------------------------------------------------

_cached_text: str | None = None
register_worker_state(
    __name__, "_cached_text", note="re-derived from the environment per call"
)
_cached_plan: FaultPlan | None = None
register_worker_state(
    __name__, "_cached_plan", note="re-derived from the environment per call"
)


def active_fault_plan() -> FaultPlan | None:
    """The plan named by ``REPRO_FAULT_PLAN``, or None.

    Re-parses only when the environment text changes, so the per-call
    cost with a stable (or absent) plan is one dict lookup.
    """
    global _cached_text, _cached_plan
    text = os.environ.get(PLAN_ENV, "")
    if text != _cached_text:
        _cached_plan = FaultPlan.parse(text) if text else None
        _cached_text = text
    return _cached_plan


def configure_fault_plan(text: str | None) -> FaultPlan | None:
    """Install (or with ``None``, remove) the process-wide fault plan.

    Routes through the environment so worker processes spawned
    afterwards inherit it, and retires idle workers (forked before the
    plan existed) via the worker-state epoch.
    """
    from repro.util.invalidation import bump_worker_state_epoch

    if text:
        FaultPlan.parse(text)  # validate before activating
        os.environ[PLAN_ENV] = text
    else:
        os.environ.pop(PLAN_ENV, None)
    bump_worker_state_epoch()
    return active_fault_plan()


def fault_point(site: str, key: str) -> None:
    """A compiled-in injection point; no-op unless a plan rule matches."""
    plan = active_fault_plan()
    if plan is not None:
        plan.fire(site, key)


async def async_fault_point(site: str, key: str) -> None:
    """:func:`fault_point` for coroutine code (the ``serve`` site).

    Identical match/probability/ledger semantics, but ``hang`` and
    ``delay`` rules ``await asyncio.sleep`` instead of blocking, so an
    injected stall on one connection never freezes the whole event loop
    (which would turn a targeted fault into a server-wide outage — and
    trip the ``blocking-call-in-async`` check).
    """
    import asyncio

    plan = active_fault_plan()
    if plan is None:
        return
    for rule in plan.claimed_rules(site, key):
        if rule.action in ("hang", "delay"):
            await asyncio.sleep(rule.seconds)
        else:
            _perform(rule, site, key)


def reset_ledger(plan: FaultPlan | None = None) -> None:
    """Drop a plan's firing tokens so ``times=`` caps re-arm (tests)."""
    plan = plan if plan is not None else active_fault_plan()
    if plan is None or plan.ledger is None or not plan.ledger.exists():
        return
    for token in plan.ledger.iterdir():
        try:
            token.unlink()
        except OSError:
            pass
