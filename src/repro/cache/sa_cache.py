"""Set-associative LRU cache model.

This is the per-core L1 data cache of the simulated MPSoC.  It models tag
state only (no data), with true-LRU replacement and optional dirty-line
tracking for write-back statistics.  Two trace-execution entry points are
provided: :meth:`run_trace` (run to completion — the non-preemptive
schedulers' path) and :meth:`run_budget_rows` (run until a cycle budget
is exhausted — the round-robin scheduler's preemption path).  Both are
the oracles of the compiled kernel in :mod:`repro.cache.lru_kernel`
(its :func:`~repro.cache.lru_kernel.run_trace` and
:func:`~repro.cache.lru_kernel.run_budget`) and the drivers' fallback
when the kernel is off or cannot be built.  :class:`CacheState` is the
snapshot both sides export, so their tag states compare exactly.

The cache deliberately has **no** flush-on-context-switch: cache contents
surviving from the previously scheduled process on the same core is
exactly the reuse the paper's scheduler exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cache.stats import CacheStats
from repro.errors import ValidationError


@dataclass(frozen=True)
class CacheState:
    """Immutable snapshot of a cache's tag state.

    ``sets[s]`` lists the resident line numbers of set ``s`` in MRU-first
    order; ``dirty`` holds the line numbers with pending write-backs.
    """

    sets: tuple[tuple[int, ...], ...]
    dirty: frozenset[int] = frozenset()

    @property
    def num_sets(self) -> int:
        """Number of cache sets in the snapshot."""
        return len(self.sets)


class SetAssociativeCache:
    """A tag-only set-associative LRU cache with hit/miss accounting."""

    def __init__(self, geometry: CacheGeometry) -> None:
        if not isinstance(geometry, CacheGeometry):
            raise ValidationError(f"expected CacheGeometry, got {geometry!r}")
        self._geometry = geometry
        self._num_sets = geometry.num_sets
        self._assoc = geometry.associativity
        # num_sets is a power of two (CacheGeometry validates all three
        # parameters), so set selection is a mask — measurably cheaper
        # than % in the per-access loops.
        self._set_mask = geometry.num_sets - 1
        # One MRU-first list of resident line numbers per set.
        self._sets: list[list[int]] = [[] for _ in range(self._num_sets)]
        self._dirty: set[int] = set()
        self.stats = CacheStats()

    @property
    def geometry(self) -> CacheGeometry:
        """The cache's geometry."""
        return self._geometry

    def reset(self) -> None:
        """Invalidate all lines and zero the statistics."""
        self._sets = [[] for _ in range(self._num_sets)]
        self._dirty = set()
        self.stats = CacheStats()

    def flush(self) -> None:
        """Invalidate all lines, keeping the statistics."""
        self._sets = [[] for _ in range(self._num_sets)]
        self._dirty = set()

    # -- inspection -----------------------------------------------------------

    def resident_lines(self) -> set[int]:
        """The set of line numbers currently cached."""
        resident: set[int] = set()
        for ways in self._sets:
            resident.update(ways)
        return resident

    def contains_line(self, line: int) -> bool:
        """True if the line is resident (does not touch LRU state)."""
        return line in self._sets[line & self._set_mask]

    def set_occupancy(self, set_index: int) -> int:
        """Number of resident ways in one set."""
        if not 0 <= set_index < self._num_sets:
            raise ValidationError(
                f"set index {set_index} out of range [0, {self._num_sets})"
            )
        return len(self._sets[set_index])

    # -- state snapshots ---------------------------------------------------------

    def export_state(self) -> CacheState:
        """An immutable snapshot of the tag state (statistics excluded)."""
        return CacheState(
            sets=tuple(map(tuple, self._sets)),
            dirty=frozenset(self._dirty),
        )

    def load_state(self, state: CacheState) -> None:
        """Install a snapshot, replacing the tag state (statistics kept)."""
        if state.num_sets != self._num_sets:
            raise ValidationError(
                f"state has {state.num_sets} sets, cache has {self._num_sets}"
            )
        self._sets = [list(ways) for ways in state.sets]
        self._dirty = set(state.dirty)

    # -- single access ---------------------------------------------------------

    def access(self, addr: int, is_write: bool = False) -> bool:
        """Access a byte address; returns True on hit."""
        return self.access_line(self._geometry.line_of(addr), is_write)

    def access_line(self, line: int, is_write: bool = False) -> bool:
        """Access a line number directly; returns True on hit."""
        if line < 0:
            raise ValidationError(f"negative line number {line}")
        ways = self._sets[line & self._set_mask]
        stats = self.stats
        if line in ways:
            if ways[0] != line:
                ways.remove(line)
                ways.insert(0, line)
            stats.hits += 1
            if is_write:
                stats.write_hits += 1
                self._dirty.add(line)
            return True
        stats.misses += 1
        if is_write:
            stats.write_misses += 1
        ways.insert(0, line)
        if is_write:
            self._dirty.add(line)
        if len(ways) > self._assoc:
            victim = ways.pop()
            if victim in self._dirty:
                self._dirty.discard(victim)
                stats.dirty_evictions += 1
        return False

    # -- trace execution ---------------------------------------------------------

    def run_trace(
        self, lines: np.ndarray, writes: np.ndarray | None = None
    ) -> tuple[int, int]:
        """Run a whole line-number trace; returns ``(hits, misses)``.

        ``writes`` is an optional parallel bool array marking stores.  This
        is the whole-trace oracle of the compiled kernel and the
        non-preemptive drivers' fallback, so the loop body is kept
        minimal.
        """
        sets = self._sets
        set_mask = self._set_mask
        assoc = self._assoc
        dirty = self._dirty
        stats = self.stats
        hits = 0
        misses = 0
        dirty_evictions = 0
        write_hits = 0
        write_misses = 0
        if writes is None:
            for line in np.asarray(lines, dtype=np.int64).tolist():
                ways = sets[line & set_mask]
                if line in ways:
                    hits += 1
                    if ways[0] != line:
                        ways.remove(line)
                        ways.insert(0, line)
                else:
                    misses += 1
                    ways.insert(0, line)
                    if len(ways) > assoc:
                        victim = ways.pop()
                        if victim in dirty:
                            dirty.discard(victim)
                            dirty_evictions += 1
        else:
            line_list = np.asarray(lines, dtype=np.int64).tolist()
            write_list = np.asarray(writes, dtype=bool).tolist()
            for line, is_write in zip(line_list, write_list):
                ways = sets[line & set_mask]
                if line in ways:
                    hits += 1
                    if ways[0] != line:
                        ways.remove(line)
                        ways.insert(0, line)
                    if is_write:
                        write_hits += 1
                        dirty.add(line)
                else:
                    misses += 1
                    if is_write:
                        write_misses += 1
                        dirty.add(line)
                    ways.insert(0, line)
                    if len(ways) > assoc:
                        victim = ways.pop()
                        if victim in dirty:
                            dirty.discard(victim)
                            dirty_evictions += 1
        stats.hits += hits
        stats.misses += misses
        stats.write_hits += write_hits
        stats.write_misses += write_misses
        stats.dirty_evictions += dirty_evictions
        return hits, misses

    def run_budget_rows(
        self,
        lines: np.ndarray,
        writes: np.ndarray | None,
        extra_cycles: np.ndarray | None,
        start: int,
        hit_cost: int,
        miss_extra: int,
        budget: int,
    ) -> tuple[int, int, int, int]:
        """Run from ``start`` until the cycle ``budget`` is exhausted.

        A hit costs ``hit_cost`` cycles, a miss ``hit_cost +
        miss_extra``, and every access adds its ``extra_cycles`` entry
        (the compute charged at iteration boundaries).  Execution stops
        *after* the access whose completion meets or exceeds the budget
        (a quantum never splits an access).  This is the reference the
        compiled kernel (:func:`repro.cache.lru_kernel.run_budget`) is
        checked against, and the preemptive driver's fallback.

        Returns ``(next_index, cycles_used, hits, misses)``; ``next_index``
        equals ``len(lines)`` when the trace completed.
        """
        if start < 0 or start > len(lines):
            raise ValidationError(f"start index {start} out of range")
        if budget <= 0:
            raise ValidationError(f"budget must be positive, got {budget}")
        sets = self._sets
        set_mask = self._set_mask
        assoc = self._assoc
        dirty = self._dirty
        end = len(lines)
        miss_cost = hit_cost + miss_extra
        used = 0
        hits = 0
        misses = 0
        write_hits = 0
        write_misses = 0
        dirty_evictions = 0
        index = start
        # Convert the arrays in doubling chunks: a quantum touches a
        # short slice of a long trace, and converting the whole trace on
        # every dispatch would make a run O(trace length x quanta).
        chunk = 256
        while index < end and used < budget:
            stop = min(end, index + chunk)
            chunk *= 2
            line_list = np.asarray(lines[index:stop], dtype=np.int64).tolist()
            count = len(line_list)
            write_list = (
                repeat(False, count)
                if writes is None
                else np.asarray(writes[index:stop], dtype=bool).tolist()
            )
            extra_list = (
                repeat(0, count)
                if extra_cycles is None
                else np.asarray(extra_cycles[index:stop], dtype=np.int64).tolist()
            )
            for line, is_write, extra in zip(line_list, write_list, extra_list):
                index += 1
                ways = sets[line & set_mask]
                if line in ways:
                    hits += 1
                    used += hit_cost + extra
                    if ways[0] != line:
                        ways.remove(line)
                        ways.insert(0, line)
                    if is_write:
                        write_hits += 1
                        dirty.add(line)
                else:
                    misses += 1
                    used += miss_cost + extra
                    if is_write:
                        write_misses += 1
                        dirty.add(line)
                    ways.insert(0, line)
                    if len(ways) > assoc:
                        victim = ways.pop()
                        if victim in dirty:
                            dirty.discard(victim)
                            dirty_evictions += 1
                if used >= budget:
                    break
        stats = self.stats
        stats.hits += hits
        stats.misses += misses
        stats.write_hits += write_hits
        stats.write_misses += write_misses
        stats.dirty_evictions += dirty_evictions
        return index, used, hits, misses

    def __repr__(self) -> str:
        return f"SetAssociativeCache({self._geometry!r})"
