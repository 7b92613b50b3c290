"""The compiled true-LRU kernel behind every simulator driver.

Every process's cache behaviour is simulated access by access on its
core's cache.  :func:`run_budget` does that in C (``_lru.c``, about
forty lines) on a per-cache :class:`LRUState` of packed NumPy arrays,
reading a trace's ``lines``, ``writes`` and ``extra_cycles`` arrays in
place.  The preemptive (RRS) driver runs each quantum through it; the
static and dynamic drivers run each whole trace through
:func:`run_trace`, the same entry point with an unbounded budget.
Counters, stop index and end state equal the scalar oracles,
:meth:`SetAssociativeCache.run_budget_rows` and
:meth:`SetAssociativeCache.run_trace`, bit for bit.

The library is compiled with ``cc`` on first use — never at import —
and cached in this package's ``__pycache__`` under a name hashed from
the C source, the compiler and the flags (a per-user temp directory
when ``__pycache__`` is not writable).  Builds land via a temp file and
``os.replace``, so concurrent workers never load a half-written
library.  A directory or library that another user could have written —
a symlink, owned by someone other than the current user or root, or
group- or world-writable — is never built into or loaded; the temp
directory is created private (``0o700``).  When anything fails (no
compiler, a compile error, a ``dlopen`` error, no trusted directory)
:func:`load_kernel` returns None and the driver runs the oracle
instead, with identical results.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import tempfile
from contextlib import suppress
from pathlib import Path
from typing import Callable

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cache.sa_cache import CacheState
from repro.cache.stats import CacheStats
from repro.errors import SimulationError, ValidationError
from repro.util.faults import fault_point
from repro.util.invalidation import register_worker_state

_SOURCE = Path(__file__).with_name("_lru.c")
_FLAGS = ("-O2", "-shared", "-fPIC")
#: First choice for the compiled library; tests point it elsewhere.
_PYCACHE = Path(__file__).with_name("__pycache__")

_P = ctypes.c_void_p
_I = ctypes.c_int64
_ARGTYPES = (_P, _P, _P, _I, _I, _P, _P, _P, _I, _I, _I, _I, _I, _P)
#: A budget no trace can spend: :func:`run_trace` runs to the end.
_UNBOUNDED = 2**63 - 1

#: Empty until the first :func:`load_kernel`, then holds its result.
_kernel: list[Callable[..., None] | None] = []
register_worker_state(
    __name__, "_kernel", note="filled once on first use from the C source"
)


def load_kernel() -> Callable[..., None] | None:
    """The compiled entry point, building it on first use; None if unavailable."""
    if not _kernel:
        _kernel.append(_load())
    return _kernel[0]


def _load() -> Callable[..., None] | None:
    import subprocess

    compiler = shutil.which("cc")
    if compiler is None:
        return None
    try:
        compiler = os.path.realpath(compiler)
        info = os.stat(compiler)
        digest = hashlib.blake2b(_SOURCE.read_bytes(), digest_size=8)
        digest.update(f"{compiler}:{info.st_size}:{info.st_mtime_ns}".encode())
        digest.update(" ".join(_FLAGS).encode())
        name = f"_lru-{digest.hexdigest()}.so"
        private = Path(tempfile.gettempdir()) / f"repro-{_uid()}"
        for directory in (_PYCACHE, private):
            with suppress(OSError):
                directory.mkdir(mode=0o700, parents=True, exist_ok=True)
            if not _trusted(directory, stat.S_ISDIR):
                continue
            path = directory / name
            if not os.path.lexists(path):
                try:
                    _build(compiler, path)
                except OSError:
                    continue
            if not _trusted(path, stat.S_ISREG):
                continue
            function = ctypes.CDLL(str(path)).lru_run_budget
            function.argtypes = _ARGTYPES
            function.restype = None
            return function
    except (OSError, AttributeError, subprocess.SubprocessError):
        pass
    return None


def _uid() -> int:
    return os.getuid() if hasattr(os, "getuid") else 0


def _trusted(path: Path, kind: Callable[[int], bool]) -> bool:
    """Whether no user but this one (or root) can have written ``path``.

    ``path`` must be of ``kind`` itself, not a symlink to it, owned by
    the current user or root, and writable by neither group nor others.
    """
    try:
        info = os.lstat(path)
    except OSError:
        return False
    return (
        kind(info.st_mode)
        and info.st_uid in (_uid(), 0)
        and not info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    )


def _build(compiler: str, path: Path) -> None:
    """Compile into a temp file beside ``path``, then rename it into place."""
    import subprocess

    fd, temp = tempfile.mkstemp(prefix=path.name, suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *_FLAGS, "-o", temp, str(_SOURCE)],
            check=True,
            capture_output=True,
            timeout=120,
        )
        # The linker creates its output under the umask; pin the mode so
        # a group-writable umask cannot make the library untrusted.
        os.chmod(temp, 0o755)
        os.replace(temp, path)
    finally:
        with suppress(FileNotFoundError):
            os.unlink(temp)


class LRUState:
    """One cache's tag state, packed for the kernel.

    ``ways[s]`` holds set ``s``'s resident lines most recently used
    first, ``dirty[s]`` their write-back flags and ``fill[s]`` how many
    ways are valid.  The kernel writes them in place through addresses
    taken here, so they are never rebound.  ``stats`` accumulates like
    the oracle's.
    """

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        num_sets, assoc = geometry.num_sets, geometry.associativity
        self.ways = np.zeros((num_sets, assoc), dtype=np.int64)
        self.dirty = np.zeros((num_sets, assoc), dtype=np.uint8)
        self.fill = np.zeros(num_sets, dtype=np.int32)
        self.stats = CacheStats()
        self._out = np.zeros(7, dtype=np.int64)
        self._head = (
            self.ways.ctypes.data,
            self.dirty.ctypes.data,
            self.fill.ctypes.data,
            num_sets - 1,
            assoc,
        )
        self._out_address = self._out.ctypes.data

    def export_state(self) -> CacheState:
        """The tag state as the oracle's :class:`CacheState` snapshot."""
        valid = np.arange(self.geometry.associativity) < self.fill[:, None]
        sets = tuple(
            tuple(row[:count])
            for row, count in zip(self.ways.tolist(), self.fill.tolist())
        )
        dirty = frozenset(self.ways[valid & (self.dirty != 0)].tolist())
        return CacheState(sets=sets, dirty=dirty)

    def load_state(self, state: CacheState) -> None:
        """Install a snapshot, replacing the tag state (statistics kept)."""
        if state.num_sets != self.geometry.num_sets:
            raise ValidationError(
                f"state has {state.num_sets} sets, "
                f"cache has {self.geometry.num_sets}"
            )
        self.ways[:] = 0
        self.dirty[:] = 0
        self.fill[:] = 0
        for index, lines in enumerate(state.sets):
            if len(lines) > self.geometry.associativity:
                raise ValidationError(f"set {index} holds more lines than ways")
            self.fill[index] = len(lines)
            for way, line in enumerate(lines):
                self.ways[index, way] = line
                self.dirty[index, way] = line in state.dirty


def run_budget(
    state: LRUState,
    lines: np.ndarray,
    writes: np.ndarray,
    extra_cycles: np.ndarray,
    start: int,
    hit_cost: int,
    miss_extra: int,
    budget: int,
) -> tuple[int, int, int, int, int, int, int]:
    """Run a trace from ``start`` on ``state`` until ``budget`` is spent.

    A hit costs ``hit_cost``, a miss ``hit_cost + miss_extra``, and each
    access adds its ``extra_cycles``; the slice stops after the access
    whose completion meets or exceeds the budget.  Returns ``(next,
    used, hits, misses, write_hits, write_misses, dirty_evictions)`` and
    adds the counters to ``state.stats``.
    """
    fault_point("kernel", "run")
    kernel = load_kernel()
    if kernel is None:
        raise SimulationError("the compiled LRU kernel is unavailable")
    end = len(lines)
    if start < 0 or start > end:
        raise ValidationError(f"start index {start} out of range")
    if budget <= 0:
        raise ValidationError(f"budget must be positive, got {budget}")
    if not (len(writes) == len(extra_cycles) == end):
        raise ValidationError("trace arrays have mismatched lengths")
    if start == end:
        return (start, 0, 0, 0, 0, 0, 0)
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    writes = np.ascontiguousarray(writes, dtype=np.bool_).view(np.uint8)
    extra_cycles = np.ascontiguousarray(extra_cycles, dtype=np.int64)
    kernel(
        *state._head,
        _address(lines),
        _address(writes),
        _address(extra_cycles),
        end,
        start,
        hit_cost,
        miss_extra,
        budget,
        state._out_address,
    )
    next_index, used, hits, misses, write_hits, write_misses, evictions = (
        state._out.tolist()
    )
    stats = state.stats
    stats.hits += hits
    stats.misses += misses
    stats.write_hits += write_hits
    stats.write_misses += write_misses
    stats.dirty_evictions += evictions
    return next_index, used, hits, misses, write_hits, write_misses, evictions


def run_trace(
    state: LRUState,
    lines: np.ndarray,
    writes: np.ndarray,
    extra_cycles: np.ndarray,
) -> tuple[int, int]:
    """Run a whole trace on ``state``; returns ``(hits, misses)``.

    :func:`run_budget` from index 0 with a budget that never runs out.
    The statistics and end state equal :meth:`SetAssociativeCache.run_trace`.
    """
    result = run_budget(state, lines, writes, extra_cycles, 0, 0, 0, _UNBOUNDED)
    return result[2], result[3]


def _address(array: np.ndarray) -> int:
    """The address of a non-empty contiguous array's first element.

    Taking it through a ctypes buffer is several times cheaper than
    ``array.ctypes.data``, which matters once per quantum.
    """
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    except TypeError:  # read-only arrays refuse a writable buffer
        return int(array.ctypes.data)
