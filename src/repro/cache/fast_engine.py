"""Vectorized set-associative LRU trace execution.

The scalar :class:`~repro.cache.sa_cache.SetAssociativeCache` walks a
trace one access at a time; this module computes the same result with
NumPy array passes, using the classic LRU *stack property*: an access to
line ``L`` hits in an ``A``-way cache exactly when fewer than ``A``
distinct same-set lines were touched since the previous access to ``L``
(its reuse distance).  Warm starts are handled by prepending one virtual
access per resident line (in LRU→MRU order), which reconstructs the LRU
stack exactly, so traces can be chained per core just like the scalar
cache chains them.

Three per-associativity strategies share one accounting backend:

- ``A = 1`` (direct-mapped): a hit is simply "the previous same-set
  access was the same line" — one vectorized comparison.
- ``A = 2`` (the paper's Table-2 machine): the two most-recently-used
  distinct lines of a set are the previous access's line and the line of
  the run immediately before it, so the hit test is two comparisons over
  run-start indices — still O(n).
- ``A ≥ 3``: exact reuse distances via an offline divide-and-conquer
  count (:func:`_count_left_leq`), applied only to accesses a cheap
  window bound cannot already classify, after provably-removable
  distance-0 accesses are compressed away.

Write/dirty accounting is derived from *residency generations*: each
miss on a line opens a generation that closes at the line's next miss
(the line was evicted in between) or at end of trace; a generation's
eviction is dirty exactly when any access in it (or the warm-start dirty
flag that seeds it) was a write.  This reproduces the scalar cache's
``dirty_evictions`` count exactly.

The module is pure: :func:`simulate_trace` takes and returns immutable
:class:`CacheState` snapshots and never touches a live cache.  The
glue that runs a live :class:`SetAssociativeCache` through this engine
(plus cross-run memoization) lives in :mod:`repro.cache.memo`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import ValidationError

_U16_MAX = np.iinfo(np.uint16).max
_EMPTY_MASK = np.zeros(0, dtype=bool)
_EMPTY_MASK.setflags(write=False)


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

    def resident_count(self) -> int:
        """Total resident lines across all sets."""
        return sum(len(ways) for ways in self.sets)


def empty_state(num_sets: int) -> CacheState:
    """The cold-cache state for a ``num_sets``-set cache."""
    if num_sets <= 0:
        raise ValidationError(f"num_sets must be positive, got {num_sets}")
    return CacheState(sets=((),) * num_sets)


@dataclass(frozen=True)
class TraceRun:
    """Everything one vectorized trace execution produced."""

    hits: int
    misses: int
    write_hits: int
    write_misses: int
    dirty_evictions: int
    end_state: CacheState
    hit_mask: np.ndarray = field(repr=False)  # bool, per real access

    def counters(self) -> tuple[int, int, int, int, int]:
        """The five statistics counters as a tuple."""
        return (
            self.hits,
            self.misses,
            self.write_hits,
            self.write_misses,
            self.dirty_evictions,
        )


def _stable_argsort(values: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort, through the fast uint16 radix path when possible.

    NumPy's stable sort is a radix sort only for 8/16-bit integers; for
    wider types it falls back to a comparison sort several times slower.
    ``bound`` is an inclusive upper bound on the values.
    """
    if 0 <= bound <= _U16_MAX:
        return np.argsort(values.astype(np.uint16), kind="stable")
    return np.argsort(values, kind="stable")


def _count_left_leq(values: np.ndarray) -> np.ndarray:
    """For each ``i``: ``#{j < i : values[j] <= values[i]}``.

    Offline divide-and-conquer (CDQ): at each doubling level, elements in
    the right half of a block count their left-half partners with one
    global :func:`np.searchsorted`, blocks kept disjoint by offsetting
    values with the block index.  O(n log²n) array work, no Python loop
    over elements.
    """
    m = len(values)
    if m <= 1:
        return np.zeros(m, dtype=np.int64)
    levels = (m - 1).bit_length()
    size = 1 << levels
    sentinel = int(values.max()) + 1
    span = sentinel - int(values.min()) + 2
    padded = np.full(size, sentinel, dtype=np.int64)
    padded[:m] = values
    counts = np.zeros(size, dtype=np.int64)
    for level in range(levels):
        half = 1 << level
        block = half * 2
        num_blocks = size // block
        blocks = padded.reshape(num_blocks, block)
        left = np.sort(blocks[:, :half], axis=1)
        offsets = np.arange(num_blocks, dtype=np.int64) * span
        flat_left = (left + offsets[:, None]).ravel()
        queries = (blocks[:, half:] + offsets[:, None]).ravel()
        found = np.searchsorted(flat_left, queries, side="right")
        found -= np.repeat(np.arange(num_blocks, dtype=np.int64) * half, half)
        counts.reshape(num_blocks, block)[:, half:] += found.reshape(
            num_blocks, half
        )
    return counts[:m]


def _hits_direct_mapped(prev: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """A = 1: hit iff the previous access to this set was the same line."""
    return (prev >= 0) & (prev == pos - 1)


def _hits_two_way(
    g: np.ndarray,
    prev: np.ndarray,
    pos: np.ndarray,
    new_group: np.ndarray,
) -> np.ndarray:
    """A = 2: hit iff the line is the set's MRU or second-MRU distinct line.

    Within a set group the MRU line is ``g[r-1]`` and the second distinct
    line is the one of the run immediately preceding ``r-1``'s run (runs
    are maximal blocks of consecutive equal lines), whose position is
    ``run_start[r-1] - 1``.
    """
    m = len(g)
    new_run = new_group.copy()
    new_run[1:] |= g[1:] != g[:-1]
    run_starts = pos[new_run]
    run_start = run_starts[np.cumsum(new_run) - 1]
    group_starts = pos[new_group]
    group_start = group_starts[np.cumsum(new_group) - 1]
    top_hit = (prev >= 0) & (prev == pos - 1)
    second_pos = np.empty(m, dtype=np.int64)
    second_pos[0] = -1
    second_pos[1:] = run_start[:-1] - 1
    in_group = ~new_group & (second_pos >= group_start)
    second_hit = in_group & (g[np.maximum(second_pos, 0)] == g)
    return top_hit | second_hit


def _hits_general(
    g: np.ndarray,
    prev: np.ndarray,
    pos: np.ndarray,
    assoc: int,
    max_line: int,
) -> np.ndarray:
    """A >= 3: exact reuse distances, on a distance-0-compressed stream.

    Accesses whose previous same-line access is immediately adjacent
    (reuse distance 0) are always hits and — because such an access is
    never the first occurrence of its line inside any other access's
    reuse window — removing them changes nobody else's distinct count.
    The remaining accesses get exact distances: guaranteed hits when the
    whole window holds fewer than ``assoc`` accesses, the
    divide-and-conquer count otherwise.
    """
    hit_g = np.zeros(len(g), dtype=bool)
    adjacent = (prev >= 0) & (prev == pos - 1)
    hit_g[adjacent] = True
    keep = ~adjacent
    gk = g[keep]
    mk = len(gk)
    if mk == 0:
        return hit_g
    posk = np.arange(mk, dtype=np.int64)
    # Same-line entries are consecutive under a stable sort by line value.
    occk = _stable_argsort(gk, max_line)
    prevk = np.full(mk, -1, dtype=np.int64)
    same = gk[occk[1:]] == gk[occk[:-1]]
    prevk[occk[1:][same]] = occk[:-1][same]
    window = posk - prevk - 1
    has_prev = prevk >= 0
    sure = has_prev & (window < assoc)
    hitk = sure.copy()
    ambiguous = has_prev & ~sure
    if ambiguous.any():
        distance = _count_left_leq(prevk) - (prevk + 1)
        hitk[ambiguous] = distance[ambiguous] < assoc
    hit_g[keep] = hitk
    return hit_g


def simulate_trace(
    lines: np.ndarray,
    writes: np.ndarray | None,
    num_sets: int,
    assoc: int,
    state: CacheState | None = None,
    collect: dict | None = None,
) -> TraceRun:
    """Execute a whole line trace against an (optionally warm) cache.

    Produces counters identical to running the trace through
    :meth:`SetAssociativeCache.run_trace` from the same state, plus the
    end state for chaining.  ``writes`` is an optional parallel bool
    array marking stores.  ``collect``, valid only for cold starts, is
    filled with the warm-start metadata :func:`analyze_trace` packages.
    """
    if collect is not None and state is not None and state.resident_count():
        raise ValidationError("metadata collection requires a cold start")
    if num_sets <= 0 or assoc <= 0:
        raise ValidationError(
            f"num_sets and assoc must be positive, got {num_sets}/{assoc}"
        )
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    n_real = len(lines)
    if n_real and int(lines.min()) < 0:
        raise ValidationError(
            f"negative line number {int(lines.min())}"
        )
    if state is None:
        state = empty_state(num_sets)
    elif state.num_sets != num_sets:
        raise ValidationError(
            f"warm state has {state.num_sets} sets, expected {num_sets}"
        )
    if n_real == 0:
        return TraceRun(0, 0, 0, 0, 0, state, np.zeros(0, dtype=bool))

    # Virtual warm-start accesses: LRU-first per set rebuilds the stack.
    prefix_lines: list[int] = []
    prefix_writes: list[bool] = []
    for ways in state.sets:
        for line in reversed(ways):
            prefix_lines.append(line)
            prefix_writes.append(line in state.dirty)
    n_prefix = len(prefix_lines)
    m = n_prefix + n_real
    if m == 0:
        return TraceRun(0, 0, 0, 0, 0, state, np.zeros(0, dtype=bool))

    full = np.empty(m, dtype=np.int64)
    full[:n_prefix] = prefix_lines
    full[n_prefix:] = lines
    w_full = np.zeros(m, dtype=bool)
    if prefix_writes:
        w_full[:n_prefix] = prefix_writes
    if writes is not None:
        w_full[n_prefix:] = np.asarray(writes, dtype=bool)

    power_of_two = num_sets & (num_sets - 1) == 0
    if power_of_two:
        set_idx = full & (num_sets - 1)
    else:
        set_idx = full % num_sets
    order = _stable_argsort(set_idx, num_sets - 1)
    g = full[order]
    w_g = w_full[order]
    pos = np.arange(m, dtype=np.int64)
    # Group boundaries straight from the per-set counts (no gathers);
    # duplicate offsets from empty sets are idempotent.
    group_sizes = np.bincount(set_idx, minlength=num_sets)
    starts = np.cumsum(group_sizes[:-1])
    new_group = np.zeros(m, dtype=bool)
    new_group[starts[(starts > 0) & (starts < m)]] = True
    new_group[0] = True

    # Previous same-line occurrence, in grouped coordinates.  Sorting the
    # set-grouped stream by tag keeps same-(set, tag) — i.e. same-line —
    # entries consecutive and in stream order, because each tag block is
    # ordered by grouped position and grouped positions cluster by set.
    max_line = int(full.max())
    max_tag = max_line // num_sets
    tags = (g >> (num_sets.bit_length() - 1)) if power_of_two else g // num_sets
    occ = _stable_argsort(tags, max_tag)
    prev = np.full(m, -1, dtype=np.int64)
    same_line = g[occ[1:]] == g[occ[:-1]]
    prev[occ[1:][same_line]] = occ[:-1][same_line]

    if assoc == 1:
        hit_g = _hits_direct_mapped(prev, pos)
    elif assoc == 2:
        hit_g = _hits_two_way(g, prev, pos, new_group)
    else:
        hit_g = _hits_general(g, prev, pos, assoc, int(full.max()))

    real_g = order >= n_prefix
    hits = int(np.count_nonzero(hit_g & real_g))
    misses = n_real - hits
    real_writes = real_g & w_g
    write_hits = int(np.count_nonzero(hit_g & real_writes))
    write_misses = int(np.count_nonzero(~hit_g & real_writes))

    dirty_evictions, end_state = _account_generations(
        g, w_g, hit_g, occ, num_sets, assoc, collect
    )

    hit_mask = np.zeros(n_real, dtype=bool)
    hit_mask[order[real_g] - n_prefix] = hit_g[real_g]
    return TraceRun(
        hits=hits,
        misses=misses,
        write_hits=write_hits,
        write_misses=write_misses,
        dirty_evictions=dirty_evictions,
        end_state=end_state,
        hit_mask=hit_mask,
    )


def _account_generations(
    g: np.ndarray,
    w_g: np.ndarray,
    hit_g: np.ndarray,
    occ: np.ndarray,
    num_sets: int,
    assoc: int,
    collect: dict | None = None,
) -> tuple[int, CacheState]:
    """Dirty-eviction counting and end-state extraction.

    Works in *occurrence order* (grouped by line, stream-ordered within a
    line): every miss opens a residency generation; a generation followed
    by another generation of the same line was evicted mid-trace; a
    line's final generation survives iff the line ranks among its set's
    ``assoc`` most recently touched lines.
    """
    m = len(g)
    g_o = g[occ]
    line_change = np.empty(m, dtype=bool)
    line_change[0] = True
    line_change[1:] = g_o[1:] != g_o[:-1]
    miss_o = ~hit_g[occ]
    gen_start = line_change | miss_o
    gen_starts = np.flatnonzero(gen_start)
    gen_write = np.logical_or.reduceat(w_g[occ], gen_starts)
    gen_ends = np.empty(len(gen_starts), dtype=np.int64)
    gen_ends[:-1] = gen_starts[1:] - 1
    gen_ends[-1] = m - 1
    gen_is_last = np.empty(len(gen_starts), dtype=bool)
    gen_is_last[:-1] = line_change[gen_starts[1:]]
    gen_is_last[-1] = True

    # One segment per distinct line; its final access decides residency.
    seg_starts = np.flatnonzero(line_change)
    seg_ends = np.empty(len(seg_starts), dtype=np.int64)
    seg_ends[:-1] = seg_starts[1:] - 1
    seg_ends[-1] = m - 1
    seg_line = g_o[seg_starts]
    seg_set = seg_line % num_sets
    seg_last_pos = occ[seg_ends]  # grouped position of the final access

    recency = np.lexsort((-seg_last_pos, seg_set))
    set_sorted = seg_set[recency]
    first_of_set = np.empty(len(recency), dtype=bool)
    first_of_set[0] = True
    first_of_set[1:] = set_sorted[1:] != set_sorted[:-1]
    idx = np.arange(len(recency), dtype=np.int64)
    block_start = idx[first_of_set][np.cumsum(first_of_set) - 1]
    rank = idx - block_start
    resident_sorted = rank < assoc
    resident = np.empty(len(recency), dtype=bool)
    resident[recency] = resident_sorted

    # Map each generation to its line segment; last generations of
    # non-resident lines were evicted after their final access.
    gen_seg = (np.cumsum(line_change) - 1)[gen_starts]
    evicted = np.where(gen_is_last, ~resident[gen_seg], True)
    dirty_evictions = int(np.count_nonzero(evicted & gen_write))

    if collect is not None:
        _collect_warm_meta(
            collect,
            seg_line=seg_line,
            seg_set=seg_set,
            seg_starts=seg_starts,
            occ=occ,
            w_g=w_g,
            gen_starts=gen_starts,
            gen_write=gen_write,
            evicted=evicted,
            num_sets=num_sets,
            assoc=assoc,
        )

    # End state: resident lines in MRU order (rank order per set), dirty
    # iff their final generation saw a write.
    final_gen_write = gen_write[gen_is_last]  # one per segment, seg order
    res_sets = set_sorted[resident_sorted]
    res_lines = seg_line[recency][resident_sorted]
    res_dirty = final_gen_write[recency][resident_sorted]
    sets_out: list[tuple[int, ...]] = [()] * num_sets
    if len(res_sets):
        boundaries = np.flatnonzero(
            np.r_[True, res_sets[1:] != res_sets[:-1]]
        ).tolist()
        bounds = boundaries[1:] + [len(res_sets)]
        line_list = res_lines.tolist()
        for start, stop in zip(boundaries, bounds):
            sets_out[int(res_sets[start])] = tuple(line_list[start:stop])
    dirty_out = frozenset(res_lines[res_dirty].tolist())
    return dirty_evictions, CacheState(sets=tuple(sets_out), dirty=dirty_out)


def _collect_warm_meta(
    collect: dict,
    seg_line: np.ndarray,
    seg_set: np.ndarray,
    seg_starts: np.ndarray,
    occ: np.ndarray,
    w_g: np.ndarray,
    gen_starts: np.ndarray,
    gen_write: np.ndarray,
    evicted: np.ndarray,
    num_sets: int,
    assoc: int,
) -> None:
    """Package the per-line first-touch metadata a warm start can flip.

    See :func:`warm_adjust` for how each piece is used; everything here
    is a function of the trace alone (cold run), never of a state.
    """
    first_pos = occ[seg_starts]  # grouped position of each line's first touch
    order = np.lexsort((first_pos, seg_set))
    set_sorted = seg_set[order]
    first_of_set = np.empty(len(order), dtype=bool)
    first_of_set[0] = True
    first_of_set[1:] = set_sorted[1:] != set_sorted[:-1]
    idx = np.arange(len(order), dtype=np.int64)
    block_start = idx[first_of_set][np.cumsum(first_of_set) - 1]
    rank_sorted = idx - block_start  # distinct-lines-touched-before count
    touch_rank = np.empty(len(order), dtype=np.int64)
    touch_rank[order] = rank_sorted

    # False marks a touched line whose first touch can never flip.
    line_meta: dict[int, tuple | bool] = dict.fromkeys(
        seg_line.tolist(), False
    )

    # The first min(assoc, D_s) distinct lines per set, in touch order
    # (the prefixes candidate entries embed below).
    lead_mask = rank_sorted < assoc
    lead_sets = set_sorted[lead_mask].tolist()
    lead_lines = seg_line[order][lead_mask].tolist()
    first_distinct: dict[int, list[int]] = {}
    for s, line in zip(lead_sets, lead_lines):
        first_distinct.setdefault(s, []).append(line)

    # First generation of each line: starts exactly at the first touch.
    g1 = np.searchsorted(gen_starts, seg_starts)
    candidate = touch_rank < assoc
    for line, s, rank, first_write, g1_write, g1_evicted in zip(
        seg_line[candidate].tolist(),
        seg_set[candidate].tolist(),
        touch_rank[candidate].tolist(),
        w_g[occ[seg_starts[candidate]]].tolist(),
        gen_write[g1[candidate]].tolist(),
        evicted[g1[candidate]].tolist(),
    ):
        line_meta[line] = (
            tuple(first_distinct[s][:rank]),
            first_write,
            g1_write,
            g1_evicted,
        )
    collect["line_meta"] = line_meta

    collect["set_counts"] = tuple(
        np.bincount(seg_set, minlength=num_sets).tolist()
    )


@dataclass(frozen=True)
class TraceAnalysis:
    """A trace's cold execution plus everything a warm start can change.

    The key fact (see ``docs/PERFORMANCE.md``): under true LRU, an
    access's reuse window contains only *trace* accesses, so every
    non-first access to a line has a state-independent verdict.  Only
    first touches of the at most ``assoc`` earliest-touched distinct
    lines per set can flip to hits, and only resident warm lines can add
    dirty evictions — both adjustable in O(num_sets × assoc) from the
    metadata below, without re-simulating.
    """

    num_sets: int
    assoc: int
    cold: TraceRun
    #: touched line → flip metadata: ``False`` when its first touch can
    #: never flip; otherwise ``(prefix, first_is_write, g1_any_write,
    #: g1_evicted)`` where ``prefix`` holds the distinct same-set lines
    #: touched before it.  Untouched lines are absent.
    line_meta: dict[int, tuple | bool]
    #: distinct-line count per set, indexed by set number
    set_counts: tuple[int, ...]

    @property
    def num_accesses(self) -> int:
        """Length of the analyzed trace."""
        return self.cold.hits + self.cold.misses


#: Below this many accesses an instrumented scalar cold run beats the
#: vectorized kernel's fixed setup cost (measured crossover ≈ 1000).
SCALAR_ANALYZE_MAX = 1024


def analyze_trace(
    lines: np.ndarray,
    writes: np.ndarray | None,
    num_sets: int,
    assoc: int,
) -> TraceAnalysis:
    """Cold-run a trace and capture its warm-start adjustment metadata.

    Short traces go through an instrumented scalar walk, long ones
    through the vectorized kernel; both produce identical analyses.
    """
    if len(lines) < SCALAR_ANALYZE_MAX:
        return _analyze_scalar(lines, writes, num_sets, assoc)
    collect: dict = {}
    cold = simulate_trace(lines, writes, num_sets, assoc, None, collect)
    if not collect:  # empty trace: nothing to adjust, nothing collected
        collect = {"line_meta": {}, "set_counts": (0,) * num_sets}
    # The per-access mask is dead weight once the counters are folded
    # in, and analyses live for a long time in the memo.
    cold = replace(cold, hit_mask=_EMPTY_MASK)
    return TraceAnalysis(
        num_sets=num_sets,
        assoc=assoc,
        cold=cold,
        line_meta=collect["line_meta"],
        set_counts=collect["set_counts"],
    )


def _analyze_scalar(
    lines: np.ndarray,
    writes: np.ndarray | None,
    num_sets: int,
    assoc: int,
) -> TraceAnalysis:
    """Cold scalar walk with inline metadata collection (short traces).

    Tracks, per line, the first-touch rank and write flag plus the first
    residency generation's write/eviction status — the exact fields
    :func:`warm_adjust` needs — while reproducing the scalar cache's
    behaviour access by access.
    """
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    if len(lines) and int(lines.min()) < 0:
        raise ValidationError(f"negative line number {int(lines.min())}")
    line_list = lines.tolist()
    write_list = (
        np.asarray(writes, dtype=bool).tolist()
        if writes is not None
        else [False] * len(line_list)
    )
    sets: list[list[int]] = [[] for _ in range(num_sets)]
    dirty: set[int] = set()
    set_seen = [0] * num_sets
    lead: list[list[int]] = [[] for _ in range(num_sets)]
    first_write: dict[int, bool] = {}
    touch_rank: dict[int, int] = {}
    g1_write: dict[int, bool] = {}
    g1_evicted: dict[int, bool] = {}
    miss_count: dict[int, int] = {}
    hits = 0
    misses = 0
    write_hits = 0
    write_misses = 0
    dirty_evictions = 0
    set_mask = num_sets - 1 if num_sets & (num_sets - 1) == 0 else None
    for line, is_write in zip(line_list, write_list):
        set_index = (
            line & set_mask if set_mask is not None else line % num_sets
        )
        ways = sets[set_index]
        if line in ways:
            hits += 1
            if ways[0] != line:
                ways.remove(line)
                ways.insert(0, line)
            if is_write:
                write_hits += 1
                dirty.add(line)
                if miss_count[line] == 1:
                    g1_write[line] = True
        else:
            misses += 1
            seen = miss_count.get(line, 0)
            if seen == 0:
                rank = set_seen[set_index]
                set_seen[set_index] = rank + 1
                if rank < assoc:
                    touch_rank[line] = rank
                    first_write[line] = is_write
                    lead[set_index].append(line)
            elif seen == 1:
                g1_evicted[line] = True
            miss_count[line] = seen + 1
            if is_write:
                write_misses += 1
                dirty.add(line)
                if seen == 0:
                    g1_write[line] = True
            ways.insert(0, line)
            if len(ways) > assoc:
                victim = ways.pop()
                if victim in dirty:
                    dirty.discard(victim)
                    dirty_evictions += 1
    line_meta: dict[int, tuple | bool] = dict.fromkeys(miss_count, False)
    for line, rank in touch_rank.items():
        set_index = line % num_sets
        if line not in g1_evicted:
            # Single-generation line: evicted unless still resident.
            g1_evicted[line] = line not in sets[set_index]
        line_meta[line] = (
            tuple(lead[set_index][:rank]),
            first_write[line],
            g1_write.get(line, False),
            g1_evicted[line],
        )
    cold = TraceRun(
        hits=hits,
        misses=misses,
        write_hits=write_hits,
        write_misses=write_misses,
        dirty_evictions=dirty_evictions,
        end_state=CacheState(
            sets=tuple(map(tuple, sets)), dirty=frozenset(dirty)
        ),
        hit_mask=_EMPTY_MASK,
    )
    return TraceAnalysis(
        num_sets=num_sets,
        assoc=assoc,
        cold=cold,
        line_meta=line_meta,
        set_counts=tuple(set_seen),
    )


def _adjust_touched_set(
    ways,
    count: int,
    assoc: int,
    line_meta: dict,
    warm_dirty,
    deltas: list,
    extra_dirty: list,
) -> list | None:
    """One touched warm set's flip pass (shared by both adjust paths).

    ``deltas`` accumulates ``[hits, misses, write_hits, write_misses,
    dirty_evictions]`` in place; returns the untouched warm survivors
    (MRU order) or None.
    """
    survivors: list[int] | None = None
    touched_above = 0
    depth = 0
    for line in ways:
        entry = line_meta.get(line, None)
        if entry is None:  # untouched line
            if depth + count - touched_above < assoc:
                if survivors is None:
                    survivors = [line]
                else:
                    survivors.append(line)
                if line in warm_dirty:
                    extra_dirty.append(line)
            elif line in warm_dirty:
                deltas[4] += 1
        else:
            if entry is not False:
                prefix, first_write, g1_write, g1_evicted = entry
                if depth and prefix:
                    overlap = 0
                    for x in ways[:depth]:
                        if x in prefix:
                            overlap += 1
                    flipped = depth + len(prefix) - overlap < assoc
                else:
                    flipped = depth + len(prefix) < assoc
                if flipped:
                    deltas[0] += 1
                    deltas[1] -= 1
                    if first_write:
                        deltas[2] += 1
                        deltas[3] -= 1
                    if line in warm_dirty and not g1_write:
                        if g1_evicted:
                            deltas[4] += 1
                        else:
                            # g1 not evicted == single generation,
                            # line resident at end: stays dirty.
                            extra_dirty.append(line)
                elif line in warm_dirty:
                    deltas[4] += 1
            elif line in warm_dirty:
                deltas[4] += 1
            touched_above += 1
        depth += 1
    return survivors


def warm_adjust(
    analysis: TraceAnalysis,
    warm_sets,
    warm_dirty,
) -> tuple[tuple[int, int, int, int, int], CacheState]:
    """Replay an analyzed trace against a warm state, without simulating.

    ``warm_sets`` is the per-set MRU-first line listing (any sequence of
    sequences), ``warm_dirty`` the dirty-line set.  Returns the exact
    counters and end state the scalar cache (or :func:`simulate_trace`)
    would produce from that state — the adjustments and their proofs are
    spelled out in ``docs/PERFORMANCE.md``:

    - a line's *first* touch flips miss→hit iff the line is warm-resident
      at depth ``d`` and ``d + touch_rank - overlap < assoc``;
    - a warm-resident line evicts dirtily iff it was dirty and its warm
      residency ends inside the trace (touched-but-not-flipped, first
      generation evicted after a flip, or never touched and pushed out);
    - surviving untouched warm lines re-enter the end state below the
      trace's own residents, in warm recency order.

    Traces touching few sets (short traces on large caches — the
    open-system regime) take a sparse path that visits only the touched
    sets and persists everything else wholesale, instead of walking all
    ``num_sets`` warm lists.
    """
    assoc = analysis.assoc
    cold = analysis.cold
    line_meta = analysis.line_meta
    set_counts = analysis.set_counts
    cold_sets = cold.end_state.sets
    num_sets = analysis.num_sets
    deltas = list(cold.counters())
    extra_dirty: list[int] = []

    touched = getattr(analysis, "_touched_sets", None)
    if touched is None:
        touched = [s for s, count in enumerate(set_counts) if count]
        object.__setattr__(analysis, "_touched_sets", touched)
    if 4 * len(touched) <= num_sets:
        # Sparse path: persist every warm set in bulk, then rewrite the
        # touched few on top of the trace's cold contents.
        end_sets = [w if type(w) is tuple else tuple(w) for w in warm_sets]
        if warm_dirty:
            power_of_two = num_sets & (num_sets - 1) == 0
            touched_lookup = frozenset(touched)
            for line in warm_dirty:
                s = line & (num_sets - 1) if power_of_two else line % num_sets
                if s not in touched_lookup and line in warm_sets[s]:
                    extra_dirty.append(line)
        for set_index in touched:
            ways = warm_sets[set_index]
            end_sets[set_index] = cold_sets[set_index]
            if not ways:
                continue
            survivors = _adjust_touched_set(
                ways,
                set_counts[set_index],
                assoc,
                line_meta,
                warm_dirty,
                deltas,
                extra_dirty,
            )
            if survivors is not None:
                merged = cold_sets[set_index] + tuple(survivors)
                end_sets[set_index] = merged[:assoc]
        end_state = CacheState(
            sets=tuple(end_sets),
            dirty=cold.end_state.dirty | frozenset(extra_dirty),
        )
        return tuple(deltas), end_state

    end_sets_dense: list[tuple[int, ...]] | None = None
    for set_index, ways in enumerate(warm_sets):
        if not ways:
            continue
        count = set_counts[set_index]
        if count == 0:
            # The trace never touches this set: its warm contents (and
            # their dirty flags) simply persist.
            if end_sets_dense is None:
                end_sets_dense = list(cold_sets)
            end_sets_dense[set_index] = tuple(ways)
            if warm_dirty:
                for x in ways:
                    if x in warm_dirty:
                        extra_dirty.append(x)
            continue
        survivors = _adjust_touched_set(
            ways, count, assoc, line_meta, warm_dirty, deltas, extra_dirty
        )
        if survivors is not None:
            if end_sets_dense is None:
                end_sets_dense = list(cold_sets)
            merged = end_sets_dense[set_index] + tuple(survivors)
            end_sets_dense[set_index] = merged[:assoc]

    if end_sets_dense is None and not extra_dirty:
        end_state = cold.end_state
    else:
        end_state = CacheState(
            sets=tuple(end_sets_dense) if end_sets_dense is not None else cold_sets,
            dirty=cold.end_state.dirty | frozenset(extra_dirty),
        )
    return tuple(deltas), end_state
