"""Persistent, cross-process memo store for expensive analysis results.

The in-process memos (the campaign executor's seed-invariant cell memo
and the sharing-matrix memo) die with their process, so ``repro
campaign --jobs N`` pays N cold starts and every fresh ``repro
open-system`` invocation recomputes identical cells.  This module adds
the shared substrate underneath them: an SQLite database holding

- **sharing matrices** — pickled ``(pids, matrix)`` pairs keyed by the
  workload's content fingerprint; and
- **seed-invariant campaign cells** — the JSON payload of a
  :class:`~repro.campaign.executor.RunResult`, keyed by the cell's
  seed-independent identity fingerprint.

Both value kinds are pure functions of their keys (memoized results are
bit-identical to recomputation), which is what makes concurrent writers
safe: every write is ``INSERT OR IGNORE`` inside WAL mode, so two
workers racing to store the same fingerprint both succeed and readers
observe one of two identical rows.  Connections are opened lazily per
``(pid, thread)`` so forked campaign workers never share a handle with
their parent.

Activation is explicit: pass ``--memo-dir`` on the CLI, set the
``REPRO_MEMO_DIR`` environment variable, or call
:func:`configure_memo_store`.  Without it, behaviour (and performance)
is exactly the in-process-memo status quo.  ``repro memo stats`` and
``repro memo clear`` administer the active store.

The database carries a schema/version stamp
(:data:`STORE_VERSION`): a read-write attach to a mismatched store drops
and recreates it, a read-only attach ignores it — stale persisted
results can therefore never leak across incompatible revisions.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sqlite3
import threading
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

from repro.errors import MemoStoreError
from repro.util.faults import fault_point
from repro.util.invalidation import bump_worker_state_epoch, register_worker_state

#: Bump whenever the persisted value layout changes (a value kind added
#: or removed, RunResult schema): mismatched stores are dropped (rw) or
#: ignored (ro) rather than trusted.
STORE_VERSION = "v3"

#: Database file name inside the memo directory.
DB_NAME = "memo.sqlite"

def fingerprint_key(identity: object) -> str:
    """The store key for a deterministic identity tuple.

    One definition for every client (the executor's seed-invariant
    cells, the sharing-matrix memo): keys are a cross-process,
    cross-revision contract, so the derivation must never fork.  The
    identity's ``repr`` must be deterministic — tuples of primitives.
    """
    return hashlib.sha256(repr(identity).encode("utf-8")).hexdigest()


_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS memo (
    kind TEXT NOT NULL,
    key TEXT NOT NULL,
    value BLOB NOT NULL,
    PRIMARY KEY (kind, key)
);
"""


class MemoStore:
    """One persistent memo directory (SQLite-backed, concurrency-safe).

    ``mode`` is ``"rw"`` (default — creates the directory and database
    on demand) or ``"ro"`` (never writes; a missing or version-stale
    database reads as empty).  All operations degrade gracefully: an
    unreadable or contended database yields memo *misses*, never
    simulation failures.
    """

    def __init__(self, root: str | Path, mode: str = "rw") -> None:
        if mode not in ("rw", "ro"):
            raise MemoStoreError(f"mode must be 'rw' or 'ro', got {mode!r}")
        self.root = Path(root)
        self.mode = mode
        self.path = self.root / DB_NAME
        self._local = threading.local()
        self.hits = 0
        self.misses = 0
        #: Self-healing status: ``ok``, ``quarantined`` (a corrupt
        #: database was renamed aside and rebuilt), or ``read-only``
        #: (the directory or database is unwritable; reads continue).
        self.health: dict[str, str] = {"status": "ok", "detail": ""}
        if mode == "rw":
            try:
                self.root.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                self.mode = "ro"
                self.health = {
                    "status": "read-only",
                    "detail": f"memo dir not writable ({exc}); writes disabled",
                }

    # -- connection management (per pid x thread, fork-safe) -----------------

    def _connect(self) -> sqlite3.Connection | None:
        pid = os.getpid()
        cached = getattr(self._local, "conn", None)
        if cached is not None and getattr(self._local, "pid", None) == pid:
            return cached
        fault_point("store", str(self.path))
        if self.mode == "ro" and not self.path.exists():
            return None
        conn = self._open_verified()
        if conn is None:
            return None
        self._local.conn = conn
        self._local.pid = pid
        return conn

    def _open_verified(self) -> sqlite3.Connection | None:
        """Open with integrity checking, quarantine, and ro fallback.

        Every failure mode degrades to memo *misses*, never simulation
        failures: a corrupt database is quarantined (renamed aside) and
        rebuilt fresh; a locked or unwritable one falls back to
        read-only; anything else reads as empty.
        """
        try:
            return self._open()
        except sqlite3.OperationalError:
            # Locked or unwritable rather than corrupt: serve reads.
            return self._open_readonly_fallback()
        except sqlite3.DatabaseError as exc:
            if self.mode == "rw" and self._quarantine(exc):
                try:
                    return self._open()
                except sqlite3.Error:
                    return None
            if self.health["status"] == "ok":
                # Read-only attach (or unmovable corpse): report the
                # corruption instead of silently reading as empty.
                self.health = {"status": "corrupt", "detail": str(exc)}
            return None
        except sqlite3.Error:
            return None

    def _open(self) -> sqlite3.Connection | None:
        """One open attempt: connect, integrity-check, stamp schema."""
        conn = sqlite3.connect(self.path, timeout=10.0)
        try:
            row = conn.execute("PRAGMA quick_check(1)").fetchone()
            if row is None or str(row[0]).lower() != "ok":
                raise sqlite3.DatabaseError(
                    f"quick_check: {row[0] if row else 'no result'}"
                )
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            if self.mode == "rw":
                conn.executescript(_SCHEMA)
                self._check_version(conn)
            elif not self._version_ok(conn):
                conn.close()
                return None
        except sqlite3.Error:
            try:
                conn.close()
            except sqlite3.Error:
                pass
            raise
        return conn

    def _open_readonly_fallback(self) -> sqlite3.Connection | None:
        """Serve reads from a database this process may not write."""
        if not self.path.exists():
            return None
        try:
            conn = sqlite3.connect(
                f"file:{self.path}?mode=ro", uri=True, timeout=10.0
            )
            if not self._version_ok(conn):
                conn.close()
                return None
        except sqlite3.Error:
            return None
        if self.mode == "rw":
            self.mode = "ro"
            self.health = {
                "status": "read-only",
                "detail": "store locked or unwritable; memo writes disabled",
            }
        return conn

    def _quarantine(self, cause: Exception) -> bool:
        """Rename a corrupt database aside so a fresh one can be built.

        The rename is atomic, so concurrent processes race safely: the
        loser's rename finds the file already gone and simply proceeds
        to the rebuild.  Returns False only when the corpse cannot be
        moved at all (unwritable directory).
        """
        self.close()
        target = None
        for n in range(1000):
            candidate = self.path.with_name(f"{self.path.name}.corrupt.{n}")
            if not candidate.exists():
                target = candidate
                break
        if target is None:
            return False
        try:
            self.path.replace(target)
        except FileNotFoundError:
            return True  # another process already quarantined it
        except OSError:
            return False
        for suffix in ("-wal", "-shm"):
            sidecar = self.path.with_name(self.path.name + suffix)
            try:
                sidecar.replace(target.with_name(target.name + suffix))
            except OSError:
                pass
        self.health = {"status": "quarantined", "detail": str(target)}
        warnings.warn(
            f"memo store {self.path} failed its integrity check ({cause}); "
            f"quarantined to {target} and rebuilt fresh",
            RuntimeWarning,
            stacklevel=4,
        )
        return True

    def _check_version(self, conn: sqlite3.Connection) -> None:
        """Stamp a fresh store; drop and restamp a version-stale one."""
        row = conn.execute(
            "SELECT value FROM meta WHERE key='version'"
        ).fetchone()
        if row is None:
            conn.execute(
                "INSERT OR IGNORE INTO meta VALUES ('version', ?)",
                (STORE_VERSION,),
            )
            conn.commit()
        elif row[0] != STORE_VERSION:
            conn.execute("DELETE FROM memo")
            conn.execute("DELETE FROM meta")
            conn.execute("INSERT INTO meta VALUES ('version', ?)", (STORE_VERSION,))
            conn.commit()

    def _version_ok(self, conn: sqlite3.Connection) -> bool:
        try:
            row = conn.execute(
                "SELECT value FROM meta WHERE key='version'"
            ).fetchone()
        except sqlite3.Error:
            return False
        return row is not None and row[0] == STORE_VERSION

    def close(self) -> None:
        """Close this thread's connection (tests and teardown)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            try:
                conn.close()
            except sqlite3.Error:
                pass
            self._local.conn = None

    # -- raw KV -------------------------------------------------------------

    def _get(self, kind: str, key: str) -> bytes | None:
        conn = self._connect()
        if conn is None:
            self.misses += 1
            return None
        try:
            row = conn.execute(
                "SELECT value FROM memo WHERE kind=? AND key=?", (kind, key)
            ).fetchone()
        except sqlite3.Error:
            self.misses += 1
            return None
        if row is None:
            self.misses += 1
            return None
        self.hits += 1
        return row[0]

    def _put(self, kind: str, key: str, value: bytes) -> None:
        if self.mode == "ro":
            return
        conn = self._connect()
        if conn is None:
            return
        try:
            conn.execute(
                "INSERT OR IGNORE INTO memo VALUES (?, ?, ?)",
                (kind, key, sqlite3.Binary(value)),
            )
            conn.commit()
        except sqlite3.Error:
            pass  # a contended/failed write is just a future memo miss

    # -- sharing matrices ----------------------------------------------------

    def get_sharing(
        self, key: str
    ) -> "tuple[tuple[str, ...], np.ndarray] | None":
        """Fetch a persisted sharing matrix as ``(pids, int64 matrix)``."""
        blob = self._get("sharing", key)
        if blob is None:
            return None
        try:
            pids, raw = pickle.loads(blob)
            return tuple(pids), raw
        except Exception:  # corrupt row: treat as a miss
            return None

    def put_sharing(
        self, key: str, pids: "Sequence[str]", matrix: "np.ndarray"
    ) -> None:
        """Persist a sharing matrix (idempotent)."""
        self._put(
            "sharing",
            key,
            pickle.dumps(
                (tuple(pids), matrix), protocol=pickle.HIGHEST_PROTOCOL
            ),
        )

    # -- seed-invariant campaign cells ---------------------------------------

    def get_cell(self, key: str) -> dict[str, object] | None:
        """Fetch a persisted seed-invariant cell payload, or None."""
        blob = self._get("cell", key)
        if blob is None:
            return None
        try:
            payload = json.loads(blob.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    def put_cell(self, key: str, payload: dict[str, object]) -> None:
        """Persist a seed-invariant cell payload (idempotent)."""
        self._put("cell", key, json.dumps(payload, sort_keys=True).encode("utf-8"))

    # -- administration ------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Persisted entry counts by kind (empty when unreadable)."""
        conn = self._connect()
        if conn is None:
            return {}
        try:
            rows = conn.execute(
                "SELECT kind, COUNT(*) FROM memo GROUP BY kind"
            ).fetchall()
        except sqlite3.Error:
            return {}
        return {kind: int(count) for kind, count in rows}

    def stats(self) -> dict[str, object]:
        """Counters for ``repro memo stats`` and the benchmarks."""
        size = self.path.stat().st_size if self.path.exists() else 0
        return {
            "path": str(self.path),
            "mode": self.mode,
            "version": STORE_VERSION,
            "entries": self.counts(),
            "size_bytes": size,
            "hits": self.hits,
            "misses": self.misses,
            "health": dict(self.health),
        }

    def verify(self) -> dict[str, object]:
        """Integrity report for ``repro memo verify``.

        Runs a direct (non-healing) integrity check against the database
        file so a corrupt store is *reported*, not silently quarantined:
        ``status`` is ``ok``, ``missing`` (no database yet), ``stale``
        (version mismatch — a rw attach would drop it), or ``corrupt``.
        """
        report: dict[str, object] = {
            "path": str(self.path),
            "mode": self.mode,
            "health": dict(self.health),
            "exists": self.path.exists(),
            "integrity": None,
            "version": None,
            "version_ok": False,
            "entries": {},
            "status": "missing",
        }
        if not report["exists"]:
            return report
        try:
            conn = sqlite3.connect(
                f"file:{self.path}?mode=ro", uri=True, timeout=10.0
            )
        except sqlite3.Error as exc:
            report["integrity"] = f"unopenable: {exc}"
            report["status"] = "corrupt"
            return report
        try:
            try:
                row = conn.execute("PRAGMA quick_check(1)").fetchone()
                report["integrity"] = str(row[0]) if row else "no result"
            except sqlite3.DatabaseError as exc:
                report["integrity"] = str(exc)
            if str(report["integrity"]).lower() != "ok":
                report["status"] = "corrupt"
                return report
            try:
                row = conn.execute(
                    "SELECT value FROM meta WHERE key='version'"
                ).fetchone()
                report["version"] = row[0] if row else None
            except sqlite3.Error:
                report["version"] = None
            report["version_ok"] = report["version"] == STORE_VERSION
            try:
                rows = conn.execute(
                    "SELECT kind, COUNT(*) FROM memo GROUP BY kind"
                ).fetchall()
                report["entries"] = {k: int(c) for k, c in rows}
            except sqlite3.Error:
                report["entries"] = {}
            report["status"] = "ok" if report["version_ok"] else "stale"
            return report
        finally:
            try:
                conn.close()
            except sqlite3.Error:
                pass

    def clear(self) -> None:
        """Drop every persisted entry (keeps the version stamp)."""
        if self.mode == "ro":
            raise MemoStoreError("cannot clear a read-only memo store")
        conn = self._connect()
        if conn is None:
            return
        try:
            conn.execute("DELETE FROM memo")
            conn.commit()
        except sqlite3.Error:
            pass
        self.hits = 0
        self.misses = 0


# -- process-wide activation ------------------------------------------------------

_active_store: MemoStore | None = None
register_worker_state(
    __name__, "_active_store", note="configure_memo_store bumps the epoch"
)


def configure_memo_store(
    root: str | Path | None, mode: str = "rw"
) -> MemoStore | None:
    """Install (or with ``None``, remove) the process-wide memo store.

    Returns the newly active store.  A configuration *change* bumps the
    worker-state epoch so a cached campaign worker pool forked under
    the previous configuration is not reused.
    """
    global _active_store
    previous = _active_store
    _active_store = MemoStore(root, mode=mode) if root is not None else None
    changed = (
        (previous is None) != (_active_store is None)
        or previous is not None
        and (previous.root, previous.mode)
        != (_active_store.root, _active_store.mode)
    )
    if changed:
        bump_worker_state_epoch()
    return _active_store


def active_memo_store() -> MemoStore | None:
    """The process-wide store, or None when persistence is off."""
    return _active_store


_env_dir = os.environ.get("REPRO_MEMO_DIR")
if _env_dir:
    configure_memo_store(_env_dir)
