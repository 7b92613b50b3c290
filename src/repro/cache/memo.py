"""The fast-cache toggle shared by every simulator driver.

Each driver runs its traces on the compiled LRU kernel
(:mod:`repro.cache.lru_kernel`) while the fast cache is on and the
kernel loads, and on the scalar reference cache
(:class:`~repro.cache.sa_cache.SetAssociativeCache`) otherwise, with
bit-identical results.

Environment switch (read at import, overridable via
:func:`set_fast_cache`):

- ``REPRO_FAST_CACHE=0`` — bypass the compiled LRU kernel; every trace
  runs through the scalar reference cache.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

from repro.util.invalidation import register_worker_state

_fast_cache_enabled = os.environ.get("REPRO_FAST_CACHE", "1") != "0"
register_worker_state(
    __name__, "_fast_cache_enabled", note="setter bumps the epoch"
)


def fast_cache_enabled() -> bool:
    """Whether the drivers may run on the compiled LRU kernel."""
    return _fast_cache_enabled


def set_fast_cache(enabled: bool) -> bool:
    """Toggle the compiled LRU kernel; returns the previous setting."""
    global _fast_cache_enabled
    previous = _fast_cache_enabled
    _fast_cache_enabled = bool(enabled)
    if previous != _fast_cache_enabled:
        from repro.util.invalidation import bump_worker_state_epoch

        bump_worker_state_epoch()
    return previous


@contextmanager
def scalar_fallback() -> Iterator[None]:
    """Run on the pure scalar oracle for the duration of one cell.

    The degradation path of :func:`repro.campaign.executor.execute_run`:
    when the compiled LRU kernel raises, the cell re-runs with the fast
    cache off.  Unlike :func:`set_fast_cache` it does not bump the
    worker-state epoch: the downgrade is local to one cell and restored
    before any pool-reuse decision can observe it, so it must not retire
    a healthy pool.
    """
    global _fast_cache_enabled
    previous = _fast_cache_enabled
    _fast_cache_enabled = False
    try:
        yield
    finally:
        _fast_cache_enabled = previous


# perfbench/tracer.py wraps ``analyze_trace`` and ``warm_adjust`` and
# perfbench/child.py reads ``TRACE_MEMO.stats()``.  Whole traces run on
# the compiled kernel with no analysis to memoize, so these stay inert
# until the benchmark's layer list changes; its ``cache.analyze_*``,
# ``cache.warm_adjust_*`` and ``cache.analysis_*`` metrics read 0.
analyze_trace = warm_adjust = None


class _NoTraceMemo:
    """A trace memo that never holds an entry."""

    @staticmethod
    def stats() -> dict[str, int]:
        """Zero lookups, in the shape of the removed memo's counters."""
        return {"entries": 0, "hits": 0, "misses": 0}


TRACE_MEMO = _NoTraceMemo()
