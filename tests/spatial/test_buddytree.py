"""Buddy-style index: structure, oracle agreement."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.queries import PointQuery
from repro.sim.trace import OpCounter
from repro.spatial import bruteforce as bf
from repro.spatial.buddytree import BuddyTree
from repro.spatial.geometry import point_segment_distance_sq
from repro.spatial.mbr import MBR

from tests.conftest import make_segments


@pytest.fixture(scope="module")
def bt(pa_small):
    return BuddyTree(pa_small)


class TestConstruction:
    def test_invalid_capacity(self, pa_small):
        with pytest.raises(ValueError):
            BuddyTree(pa_small, page_capacity=0)

    def test_no_replication(self, bt, pa_small):
        """Every segment is stored exactly once."""
        seen: list = []
        stack = [bt.root]
        while stack:
            n = stack.pop()
            seen.extend(n.seg_ids)
            if not n.is_leaf:
                stack.extend((n.low, n.high))
        assert sorted(seen) == list(range(pa_small.size))

    def test_segments_contained_in_their_region(self, bt, pa_small):
        stack = [bt.root]
        while stack:
            n = stack.pop()
            for seg_id in n.seg_ids:
                assert n.rect.contains(pa_small.segment_mbr(seg_id))
            if not n.is_leaf:
                stack.extend((n.low, n.high))

    def test_halves_are_disjoint_buddies(self, bt):
        stack = [bt.root]
        while stack:
            n = stack.pop()
            if n.is_leaf:
                continue
            assert n.low.rect.intersection_area(n.high.rect) == 0.0
            union = n.low.rect.union(n.high.rect)
            assert union == n.rect
            stack.extend((n.low, n.high))

    def test_spanning_segments_cross_the_cut(self, bt, pa_small):
        stack = [bt.root]
        while stack:
            n = stack.pop()
            if n.is_leaf:
                continue
            for seg_id in n.seg_ids:
                mbr = pa_small.segment_mbr(seg_id)
                assert not n.low.rect.contains(mbr)
                assert not n.high.rect.contains(mbr)
            stack.extend((n.low, n.high))

    def test_index_bytes_linear_in_segments(self, bt, pa_small):
        assert bt.index_bytes() == (
            bt.node_count * bt.costs.index_node_header_bytes
            + pa_small.size * bt.costs.index_entry_bytes
        )


class TestQueries:
    def test_range_filter_matches_whole_dataset_mbr_filter(self, bt, pa_small, rng):
        """Filtering semantics equal the R-tree's: every MBR intersecting
        the window is a candidate (no replication, no misses)."""
        ext = pa_small.extent
        for _ in range(20):
            w = ext.width * rng.uniform(0.01, 0.15)
            h = ext.height * rng.uniform(0.01, 0.15)
            x = rng.uniform(ext.xmin, ext.xmax - w)
            y = rng.uniform(ext.ymin, ext.ymax - h)
            rect = MBR(x, y, x + w, y + h)
            got = bt.range_filter(rect)
            want = bf.range_filter(pa_small, rect)
            assert np.array_equal(got, np.sort(want))

    def test_point_filter_matches_oracle(self, bt, pa_small):
        for i in range(0, pa_small.size, max(1, pa_small.size // 25)):
            px, py = float(pa_small.x1[i]), float(pa_small.y1[i])
            got = bt.range_filter(PointQuery(px, py).window)
            want = np.sort(bf.point_filter(pa_small, px, py))
            assert np.array_equal(got, want)

    def test_nn_matches_oracle(self, bt, pa_small, rng):
        ext = pa_small.extent
        for _ in range(20):
            px = rng.uniform(ext.xmin, ext.xmax)
            py = rng.uniform(ext.ymin, ext.ymax)
            got = bt.nearest_neighbor(px, py)
            want = bf.nearest_neighbor(pa_small, px, py)
            d_got = point_segment_distance_sq(px, py, *pa_small.segment(got))
            d_want = point_segment_distance_sq(px, py, *pa_small.segment(want))
            assert d_got == pytest.approx(d_want, rel=1e-12, abs=1e-12)

    def test_knn_matches_oracle(self, bt, pa_small, rng):
        ext = pa_small.extent
        for _ in range(6):
            px = rng.uniform(ext.xmin, ext.xmax)
            py = rng.uniform(ext.ymin, ext.ymax)
            got = bt.nearest_neighbors(px, py, 5)
            want = bf.k_nearest_neighbors(pa_small, px, py, 5)
            gd = sorted(
                point_segment_distance_sq(px, py, *pa_small.segment(int(i)))
                for i in got
            )
            wd = sorted(
                point_segment_distance_sq(px, py, *pa_small.segment(int(i)))
                for i in want
            )
            assert np.allclose(gd, wd, rtol=1e-12)

    def test_instrumented(self, bt, pa_small):
        counter = OpCounter()
        bt.range_filter(pa_small.extent, counter)
        # Nodes in the square root's padding (outside the data extent) are
        # legitimately pruned; everything else is visited.
        assert 0 < counter.nodes_visited <= bt.node_count
        assert counter.entries_scanned == pa_small.size
        assert len(counter.trace) == counter.nodes_visited

    def test_on_random_data(self, rng):
        ds = make_segments(rng, 600)
        bt = BuddyTree(ds, page_capacity=8)
        ext = ds.extent
        for _ in range(10):
            w = ext.width * rng.uniform(0.05, 0.3)
            h = ext.height * rng.uniform(0.05, 0.3)
            x = rng.uniform(ext.xmin, ext.xmax - w)
            y = rng.uniform(ext.ymin, ext.ymax - h)
            rect = MBR(x, y, x + w, y + h)
            assert np.array_equal(
                bt.range_filter(rect), np.sort(bf.range_filter(ds, rect))
            )
