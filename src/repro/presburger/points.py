"""Exact enumerated integer point sets with fast set algebra.

A :class:`PointSet` is the grounded form of a symbolic set: an (N, d) array
of distinct integer points in canonical (lexicographically sorted) order.
All sharing-matrix arithmetic in :mod:`repro.sharing` bottoms out in the
numpy-backed intersections and unions implemented here.  One-column sets
(every array footprint, once linearised) are handled as flat int64
vectors throughout; only multi-column sets pay for row-wise (void-view)
sorting and set operations.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import DimensionMismatchError, ValidationError


def _canonicalize(points: np.ndarray) -> np.ndarray:
    """Sort lexicographically and drop duplicate rows.

    One-column input never takes ``np.unique(axis=0)``, whose structured
    row sort costs several times a flat sort: sorted input deduplicates
    with a boundary scan, anything else with a flat ``np.unique``.
    Multi-column input that is already lex-strictly increasing — grid
    enumerations, images of monotonic access maps, merges of disjoint
    ranges — is canonical as it stands; the rest goes through
    ``np.unique(axis=0)``.
    """
    if points.size == 0:
        return points.reshape(0, points.shape[1] if points.ndim == 2 else 0)
    if points.shape[1] == 1:
        flat = points[:, 0]
        if not bool(np.all(flat[1:] >= flat[:-1])):
            return np.unique(flat).reshape(-1, 1)
        keep = np.empty(len(flat), dtype=bool)
        keep[0] = True
        np.not_equal(flat[1:], flat[:-1], out=keep[1:])
        return points[keep]
    if _lex_strictly_increasing(points):
        # Copy: the canonical array gets frozen, the input stays the
        # caller's.
        return points.copy()
    return np.unique(points, axis=0)


def _lex_strictly_increasing(points: np.ndarray) -> bool:
    """Whether consecutive rows are strictly lexicographically increasing."""
    if len(points) <= 1:
        return True
    head, tail = points[:-1], points[1:]
    less = np.zeros(len(head), dtype=bool)
    equal = np.ones(len(head), dtype=bool)
    for column in range(points.shape[1]):
        a = head[:, column]
        b = tail[:, column]
        less |= equal & (a < b)
        equal &= a == b
    return bool(np.all(less))


def _as_void(points: np.ndarray) -> np.ndarray:
    """View rows as opaque scalars so 1-D set ops apply to 2-D row sets."""
    contiguous = np.ascontiguousarray(points)
    return contiguous.view([("", contiguous.dtype)] * contiguous.shape[1]).ravel()


class PointSet:
    """An immutable, canonical set of integer points of fixed dimension."""

    __slots__ = ("_points", "_dim")

    def __init__(self, points: np.ndarray | Iterable[Sequence[int]], dim: int | None = None) -> None:
        array = np.asarray(list(points) if not isinstance(points, np.ndarray) else points)
        if array.size == 0:
            if dim is None:
                raise ValidationError("an empty PointSet needs an explicit dim")
            array = np.empty((0, dim), dtype=np.int64)
        if array.ndim == 1:
            array = array.reshape(-1, 1)
        if array.ndim != 2:
            raise ValidationError(f"points must be a 2-D array, got ndim={array.ndim}")
        if dim is not None and array.shape[1] != dim:
            raise DimensionMismatchError(dim, array.shape[1], "PointSet")
        self._points = _canonicalize(array.astype(np.int64, copy=False))
        self._points.setflags(write=False)
        self._dim = self._points.shape[1]

    @classmethod
    def empty(cls, dim: int) -> "PointSet":
        """The empty set of the given dimension."""
        return cls(np.empty((0, dim), dtype=np.int64), dim=dim)

    @classmethod
    def from_flat(cls, values: np.ndarray | Iterable[int]) -> "PointSet":
        """Build a 1-D point set from a flat iterable of ints."""
        array = np.asarray(
            list(values) if not isinstance(values, np.ndarray) else values,
            dtype=np.int64,
        )
        return cls(array.reshape(-1, 1), dim=1)

    # -- inspection ---------------------------------------------------------

    @property
    def dim(self) -> int:
        """Dimensionality of each point."""
        return self._dim

    @property
    def points(self) -> np.ndarray:
        """The canonical (N, dim) read-only array of points."""
        return self._points

    def flat(self) -> np.ndarray:
        """The values of a 1-D point set as a flat array."""
        if self._dim != 1:
            raise DimensionMismatchError(1, self._dim, "flat() needs a 1-D set")
        return self._points[:, 0]

    def is_empty(self) -> bool:
        """True when the set has no points."""
        return self._points.shape[0] == 0

    def __len__(self) -> int:
        return self._points.shape[0]

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        for row in self._points:
            yield tuple(int(x) for x in row)

    def __contains__(self, point: Sequence[int]) -> bool:
        candidate = np.asarray(point, dtype=np.int64).reshape(1, -1)
        if candidate.shape[1] != self._dim:
            raise DimensionMismatchError(self._dim, candidate.shape[1], "membership")
        if self.is_empty():
            return False
        return bool(np.any(np.all(self._points == candidate, axis=1)))

    # -- algebra ------------------------------------------------------------

    def _check_compatible(self, other: "PointSet") -> None:
        if not isinstance(other, PointSet):
            raise ValidationError(f"expected a PointSet, got {type(other).__name__}")
        if other._dim != self._dim:
            raise DimensionMismatchError(self._dim, other._dim, "set algebra")

    def intersect(self, other: "PointSet") -> "PointSet":
        """Exact set intersection."""
        self._check_compatible(other)
        if self.is_empty() or other.is_empty():
            return PointSet.empty(self._dim)
        if self._dim == 1:
            common = np.intersect1d(self.flat(), other.flat(), assume_unique=True)
            return PointSet.from_flat(common)
        common = np.intersect1d(
            _as_void(self._points), _as_void(other._points), assume_unique=True
        )
        return PointSet(common.view(np.int64).reshape(-1, self._dim), dim=self._dim)

    def union(self, other: "PointSet") -> "PointSet":
        """Exact set union."""
        self._check_compatible(other)
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        return PointSet(np.concatenate([self._points, other._points]), dim=self._dim)

    @classmethod
    def union_all(cls, sets: Sequence["PointSet"]) -> "PointSet":
        """Union of many sets in one concatenate-and-canonicalize pass.

        Equivalent to folding :meth:`union`, but pairwise folding re-sorts
        the accumulated points once per operand; workload-wide footprint
        merges use this instead.
        """
        sets = list(sets)
        if not sets:
            raise ValidationError("union_all needs at least one set")
        dim = sets[0].dim
        for other in sets[1:]:
            sets[0]._check_compatible(other)
        non_empty = [s for s in sets if not s.is_empty()]
        if not non_empty:
            return cls.empty(dim)
        if len(non_empty) == 1:
            return non_empty[0]
        return cls(
            np.concatenate([s._points for s in non_empty]), dim=dim
        )

    def difference(self, other: "PointSet") -> "PointSet":
        """Points in ``self`` but not in ``other``."""
        self._check_compatible(other)
        if self.is_empty() or other.is_empty():
            return self
        if self._dim == 1:
            remaining = np.setdiff1d(self.flat(), other.flat(), assume_unique=True)
            return PointSet.from_flat(remaining)
        remaining = np.setdiff1d(
            _as_void(self._points), _as_void(other._points), assume_unique=True
        )
        return PointSet(remaining.view(np.int64).reshape(-1, self._dim), dim=self._dim)

    def intersection_size(self, other: "PointSet") -> int:
        """``len(self ∩ other)`` without materialising the intermediate set.

        For 1-D sets this is a binary-search count — canonical points are
        already sorted and unique, so probing the larger side with the
        smaller avoids ``intersect1d``'s sort of the concatenation (the
        sharing matrix calls this for every process pair).
        """
        self._check_compatible(other)
        if self.is_empty() or other.is_empty():
            return 0
        if self._dim == 1:
            haystack = self._points[:, 0]
            needles = other._points[:, 0]
            # Partitioned processes mostly touch disjoint index ranges
            # of a shared array, and co-readers often touch identical
            # ones; both resolve without a search.
            if haystack[-1] < needles[0] or needles[-1] < haystack[0]:
                return 0
            if (
                len(haystack) == len(needles)
                and haystack[0] == needles[0]
                and haystack[-1] == needles[-1]
                and np.array_equal(haystack, needles)
            ):
                return len(haystack)
            if len(haystack) < len(needles):
                haystack, needles = needles, haystack
            found = np.searchsorted(haystack, needles)
            found[found == len(haystack)] = 0
            return int(np.count_nonzero(haystack[found] == needles))
        return int(
            np.intersect1d(
                _as_void(self._points), _as_void(other._points), assume_unique=True
            ).size
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return self._dim == other._dim and np.array_equal(self._points, other._points)

    def __hash__(self) -> int:
        return hash((self._dim, self._points.tobytes()))

    def __repr__(self) -> str:
        return f"PointSet(dim={self._dim}, n={len(self)})"
