"""Cache substrate: geometry, set-associative LRU model, miss classification.

The MPSoC in the paper gives each core a private L1 data cache (Table 2:
8 KB, 2-way).  This package provides:

- :class:`CacheGeometry` — size/associativity/line arithmetic, including
  the paper's *cache page* (``size / associativity``);
- :class:`SetAssociativeCache` — a cycle-cost-free LRU cache model with
  hit/miss statistics: the scalar reference every fast path is checked
  against, and the simulator's fallback;
- :class:`LRUState` / :func:`run_trace` / :func:`run_budget` — the
  compiled true-LRU kernel the simulator runs whole traces and RRS
  quanta on, bit-identical to the scalar model (see
  ``docs/PERFORMANCE.md``); :class:`CacheState` is the tag-state
  snapshot both export;
- :class:`MissClassifier` — compulsory/capacity/conflict classification
  via an infinite-tag set and a fully-associative shadow cache;
- :func:`fast_cache_enabled` / :func:`set_fast_cache` — the
  ``REPRO_FAST_CACHE`` toggle between kernel and scalar model.
"""

from repro.cache.geometry import CacheGeometry
from repro.cache.lru_kernel import LRUState, run_budget, run_trace
from repro.cache.memo import fast_cache_enabled, set_fast_cache
from repro.cache.sa_cache import CacheState, SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.cache.miss_classifier import MissClass, MissClassifier

__all__ = [
    "CacheGeometry",
    "CacheState",
    "CacheStats",
    "LRUState",
    "MissClass",
    "MissClassifier",
    "SetAssociativeCache",
    "fast_cache_enabled",
    "run_budget",
    "run_trace",
    "set_fast_cache",
]
