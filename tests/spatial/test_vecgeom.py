"""Vectorized predicates must agree exactly with the scalar reference."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.spatial import geometry as sg
from repro.spatial import vecgeom as vg
from repro.spatial.mbr import MBR

coords = st.floats(
    min_value=-100, max_value=100, allow_nan=False, allow_infinity=False
)


@st.composite
def segment_arrays(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    xs = st.lists(coords, min_size=n, max_size=n)
    return tuple(np.asarray(draw(xs)) for _ in range(4))


@st.composite
def rects(draw):
    x1, x2 = sorted((draw(coords), draw(coords)))
    y1, y2 = sorted((draw(coords), draw(coords)))
    return MBR(x1, y1, x2, y2)


class TestAgainstScalar:
    @given(segment_arrays(), rects())
    @settings(max_examples=60, deadline=None)
    def test_mbr_intersects_rect(self, segs, rect):
        x1, y1, x2, y2 = segs
        mask = vg.mbr_intersects_rect(x1, y1, x2, y2, rect)
        for i in range(len(x1)):
            expected = MBR.from_segment(x1[i], y1[i], x2[i], y2[i]).intersects(rect)
            assert mask[i] == expected

    @given(segment_arrays(), coords, coords)
    @settings(max_examples=60, deadline=None)
    def test_mbr_contains_point(self, segs, px, py):
        x1, y1, x2, y2 = segs
        mask = vg.mbr_contains_point(x1, y1, x2, y2, px, py)
        for i in range(len(x1)):
            expected = MBR.from_segment(x1[i], y1[i], x2[i], y2[i]).contains_point(
                px, py
            )
            assert mask[i] == expected

    @given(segment_arrays(), coords, coords)
    @settings(max_examples=60, deadline=None)
    def test_point_segment_distance_sq(self, segs, px, py):
        x1, y1, x2, y2 = segs
        d = vg.point_segment_distance_sq(px, py, x1, y1, x2, y2)
        for i in range(len(x1)):
            expected = sg.point_segment_distance_sq(
                px, py, x1[i], y1[i], x2[i], y2[i]
            )
            assert d[i] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @given(segment_arrays(), rects())
    @settings(max_examples=60, deadline=None)
    def test_segments_intersect_rect(self, segs, rect):
        """One window for every row: the bounds go in as scalars."""
        x1, y1, x2, y2 = segs
        mask = vg.segments_intersect_rects(x1, y1, x2, y2, *rect)
        for i in range(len(x1)):
            expected = sg.segment_intersects_rect(x1[i], y1[i], x2[i], y2[i], rect)
            assert mask[i] == expected, (
                f"segment {(x1[i], y1[i], x2[i], y2[i])} vs {rect}"
            )


#: A small integer grid: segments collinear with a window edge, endpoints
#: on edges and degenerate windows are common, so the collinear-graze rows
#: reach the scalar residue of the window test.
grid = st.integers(min_value=-4, max_value=4).map(float)


@st.composite
def grid_rows(draw):
    """``(x1, y1, x2, y2)`` columns plus one window per row."""
    n = draw(st.integers(min_value=1, max_value=60))
    segs = draw(st.lists(st.tuples(grid, grid, grid, grid), min_size=n, max_size=n))
    corners = draw(st.lists(st.tuples(grid, grid, grid, grid), min_size=n, max_size=n))
    windows = [
        (min(a, c), min(b, d), max(a, c), max(b, d)) for a, b, c, d in corners
    ]
    return np.array(segs).T, np.array(windows).T


@st.composite
def grid_point_rows(draw):
    """``(x1, y1, x2, y2)`` columns plus one point and tolerance per row."""
    n = draw(st.integers(min_value=1, max_value=60))
    half = st.integers(min_value=-8, max_value=8).map(lambda v: v / 2.0)
    segs = draw(st.lists(st.tuples(grid, grid, grid, grid), min_size=n, max_size=n))
    pts = draw(st.lists(st.tuples(half, half), min_size=n, max_size=n))
    tol = st.sampled_from([0.0, 1e-9, 0.25, 0.5, 1.0])
    eps = draw(st.lists(tol, min_size=n, max_size=n))
    return np.array(segs).T, np.array(pts).T, np.array(eps)


class TestRowWise:
    """Every batched query's refinement: one window, point and tolerance
    per row, against the scalar predicates."""

    @given(grid_rows())
    @settings(max_examples=150, deadline=None)
    def test_segments_intersect_rects_per_row(self, rows):
        (x1, y1, x2, y2), (rx0, ry0, rx1, ry1) = rows
        mask = vg.segments_intersect_rects(x1, y1, x2, y2, rx0, ry0, rx1, ry1)
        for i in range(len(x1)):
            rect = MBR(rx0[i], ry0[i], rx1[i], ry1[i])
            expected = sg.segment_intersects_rect(x1[i], y1[i], x2[i], y2[i], rect)
            assert mask[i] == expected, (
                f"segment {(x1[i], y1[i], x2[i], y2[i])} vs {rect}"
            )

    @given(grid_point_rows())
    @settings(max_examples=150, deadline=None)
    def test_segments_contain_points_per_row(self, rows):
        (x1, y1, x2, y2), (px, py), eps = rows
        mask = vg.segments_contain_points(px, py, x1, y1, x2, y2, eps)
        for i in range(len(x1)):
            expected = sg.segment_contains_point(
                px[i], py[i], x1[i], y1[i], x2[i], y2[i], eps[i]
            )
            assert mask[i] == expected, (
                f"segment {(x1[i], y1[i], x2[i], y2[i])} vs point "
                f"{(px[i], py[i])}, eps {eps[i]}"
            )

    def test_collinear_grazes_per_row(self):
        """Rows whose segment runs along, or only touches, its own window's
        edge line: the scalar residue decides each against its own window."""
        x1 = np.array([-1.0, -2.0, 1.0, -1.0])
        y1 = np.array([0.0, -2.0, -3.0, 1.0])
        x2 = np.array([3.0, 3.0, -2.0, 1.0])
        y2 = np.array([0.0, 0.0, -2.0, 3.0])
        windows = [(0.0, 0.0, 2.0, 2.0), (1.0, -1.0, 1.0, -1.0),
                   (0.0, -2.0, 2.0, -2.0), (0.0, 0.0, 2.0, 2.0)]
        mask = vg.segments_intersect_rects(x1, y1, x2, y2, *np.array(windows).T)
        assert mask.tolist() == [True, False, False, True]


class TestEdgeCases:
    def test_empty_like_behaviour_zero_length_segments(self):
        x = np.array([1.0, 2.0])
        y = np.array([1.0, 2.0])
        d = vg.point_segment_distance_sq(0.0, 0.0, x, y, x, y)
        assert d[0] == pytest.approx(2.0)
        assert d[1] == pytest.approx(8.0)

    def test_contain_point_respects_eps(self):
        x1 = np.array([0.0])
        y1 = np.array([0.0])
        x2 = np.array([10.0])
        y2 = np.array([0.0])
        assert not vg.segments_contain_points(5.0, 0.05, x1, y1, x2, y2, 0.01)[0]
        assert vg.segments_contain_points(5.0, 0.05, x1, y1, x2, y2, 0.1)[0]

    def test_rect_all_inside_fast_path(self):
        rect = MBR(0, 0, 10, 10)
        x1 = np.array([1.0, 2.0])
        y1 = np.array([1.0, 2.0])
        x2 = np.array([3.0, 4.0])
        y2 = np.array([3.0, 4.0])
        assert vg.segments_intersect_rects(x1, y1, x2, y2, *rect).all()

    def test_rect_all_rejected_fast_path(self):
        rect = MBR(0, 0, 1, 1)
        x1 = np.array([5.0, 6.0])
        y1 = np.array([5.0, 6.0])
        x2 = np.array([7.0, 8.0])
        y2 = np.array([7.0, 8.0])
        assert not vg.segments_intersect_rects(x1, y1, x2, y2, *rect).any()

    def test_rect_crossing_without_endpoints_inside(self):
        rect = MBR(0, 0, 10, 10)
        x1 = np.array([-5.0, -5.0])
        y1 = np.array([5.0, 20.0])
        x2 = np.array([15.0, 15.0])
        y2 = np.array([5.0, 20.0])
        mask = vg.segments_intersect_rects(x1, y1, x2, y2, *rect)
        assert mask[0] and not mask[1]
