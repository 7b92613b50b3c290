"""Hypothesis property tests for the integer-set core.

The set algebra must satisfy the standard lattice laws, and symbolic
enumeration must agree with brute-force evaluation of the constraints —
these invariants anchor every sharing-matrix number downstream.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.presburger.builders import box, interval, strided_interval
from repro.presburger.constraints import Constraint
from repro.presburger.maps import AffineMap
from repro.presburger.points import PointSet, _canonicalize
from repro.presburger.terms import LinearExpr, var

point_lists = st.lists(
    st.tuples(st.integers(-50, 50), st.integers(-50, 50)), max_size=40
)


def ps(points) -> PointSet:
    return PointSet(list(points) or np.empty((0, 2), dtype=np.int64), dim=2)


class TestPointSetLaws:
    @given(point_lists, point_lists)
    def test_intersection_commutes(self, a, b):
        assert ps(a).intersect(ps(b)) == ps(b).intersect(ps(a))

    @given(point_lists, point_lists)
    def test_union_commutes(self, a, b):
        assert ps(a).union(ps(b)) == ps(b).union(ps(a))

    @given(point_lists, point_lists, point_lists)
    def test_union_associates(self, a, b, c):
        left = ps(a).union(ps(b)).union(ps(c))
        right = ps(a).union(ps(b).union(ps(c)))
        assert left == right

    @given(point_lists, point_lists)
    def test_intersection_is_subset_of_both(self, a, b):
        inter = ps(a).intersect(ps(b))
        for point in inter:
            assert point in ps(a)
            assert point in ps(b)

    @given(point_lists, point_lists)
    def test_difference_disjoint_from_subtrahend(self, a, b):
        diff = ps(a).difference(ps(b))
        assert diff.intersect(ps(b)).is_empty()

    @given(point_lists, point_lists)
    def test_partition_identity(self, a, b):
        """|A| = |A∩B| + |A\\B|."""
        set_a, set_b = ps(a), ps(b)
        assert len(set_a) == set_a.intersection_size(set_b) + len(
            set_a.difference(set_b)
        )

    @given(point_lists)
    def test_self_intersection_is_identity(self, a):
        assert ps(a).intersect(ps(a)) == ps(a)

    @given(point_lists, point_lists)
    def test_inclusion_exclusion(self, a, b):
        set_a, set_b = ps(a), ps(b)
        assert len(set_a.union(set_b)) == (
            len(set_a) + len(set_b) - set_a.intersection_size(set_b)
        )


class TestEnumerationAgreesWithBruteForce:
    @given(
        st.integers(-10, 10),
        st.integers(0, 12),
        st.integers(1, 5),
        st.integers(0, 4),
    )
    def test_strided_interval_matches_python_range(self, low, width, stride, phase):
        high = low + width + 1  # builders require non-empty ranges
        s = strided_interval("i", low, high, stride, phase)
        expected = [i for i in range(low, high) if i % stride == phase % stride]
        assert s.enumerate().flat().tolist() == expected

    @given(st.integers(0, 6), st.integers(0, 6), st.integers(-8, 8))
    def test_halfplane_filter_matches_brute_force(self, w1, w2, bound):
        s = box({"i": (0, w1 + 1), "j": (0, w2 + 1)}).with_constraints(
            Constraint.le(var("i") + var("j"), bound)
        )
        expected = [
            (i, j)
            for i in range(w1 + 1)
            for j in range(w2 + 1)
            if i + j <= bound
        ]
        assert [tuple(p) for p in s.enumerate()] == expected


class TestAffineMapProperties:
    @given(
        point_lists,
        st.integers(-5, 5),
        st.integers(-5, 5),
        st.integers(-20, 20),
    )
    def test_image_matches_pointwise_application(self, points, c1, c2, c0):
        m = AffineMap(
            ("x", "y"), [LinearExpr({"x": c1, "y": c2}, c0)]
        )
        domain = ps(points)
        image = m.image(domain)
        expected = sorted({c1 * x + c2 * y + c0 for x, y in domain})
        assert image.flat().tolist() == expected

    @given(st.integers(1, 20), st.integers(1, 10))
    def test_injective_map_preserves_cardinality(self, width, stride):
        domain = interval("i", 0, width)
        m = AffineMap(("i",), [var("i") * stride + 3])
        assert len(m.image(domain)) == width


@settings(max_examples=25)
@given(
    st.integers(0, 5),
    st.integers(1, 8),
    st.integers(1, 8),
)
def test_block_overlap_matches_closed_form(start, len_a, len_b):
    """Intersecting two integer intervals equals the closed-form overlap."""
    a = interval("i", 0, len_a)
    b = interval("i", start, start + len_b)
    expected = max(0, min(len_a, start + len_b) - max(0, start))
    assert a.intersect(b).count() == expected


@st.composite
def point_arrays(draw):
    """Random (N, 1) or (N, 2) int64 point arrays.

    Covers sorted, unsorted, duplicate-heavy, negative, single-row and
    empty inputs.
    """
    dim = draw(st.sampled_from([1, 2]))
    span = draw(st.sampled_from([2, 50, 10**12]))
    rows = draw(st.integers(0, 60))
    values = draw(
        st.lists(st.integers(-span, span), min_size=rows * dim, max_size=rows * dim)
    )
    points = np.array(values, dtype=np.int64).reshape(rows, dim)
    order = draw(st.sampled_from(["as-drawn", "sorted", "unique-sorted"]))
    if order == "sorted" and rows:
        points = points[np.lexsort(points.T[::-1])]
    elif order == "unique-sorted" and rows:
        points = np.unique(points, axis=0)
    return points


class TestCanonicalizeAgainstUnique:
    @settings(max_examples=300, deadline=None)
    @given(point_arrays())
    def test_matches_row_unique(self, points):
        before = points.copy()
        canonical = _canonicalize(points)
        expected = np.unique(points, axis=0)
        assert canonical.dtype == np.int64
        assert canonical.shape == expected.shape
        assert np.array_equal(canonical, expected)
        assert np.array_equal(points, before)  # the input stays the caller's
