"""Packed R-tree: construction, oracle agreement, instrumentation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.queries import PointQuery
from repro.data.model import SegmentDataset
from repro.sim.trace import OpCounter
from repro.spatial import bruteforce as bf
from repro.spatial.geometry import point_segment_distance_sq
from repro.spatial.mbr import MBR
from repro.spatial.rtree import PackedRTree
from repro.spatial.stats import check_invariants

from tests.conftest import make_segments


class TestBuild:
    def test_invariants_on_pa(self, pa_small_tree):
        check_invariants(pa_small_tree)

    def test_invariants_on_random(self, rng):
        ds = make_segments(rng, 731)
        check_invariants(PackedRTree.build(ds, node_capacity=7))

    def test_single_segment_tree(self):
        ds = SegmentDataset("one", np.r_[0.0], np.r_[0.0], np.r_[1.0], np.r_[1.0])
        tree = PackedRTree.build(ds)
        assert tree.node_count == 1
        assert tree.height == 1
        assert tree.root == 0
        check_invariants(tree)

    def test_exact_capacity_boundary(self, rng):
        for n in (25, 26, 625, 626):
            ds = make_segments(rng, n)
            tree = PackedRTree.build(ds, node_capacity=25)
            check_invariants(tree)

    def test_capacity_too_small_raises(self, pa_small):
        with pytest.raises(ValueError):
            PackedRTree.build(pa_small, node_capacity=1)

    def test_height_grows_logarithmically(self, rng):
        ds = make_segments(rng, 10_000)
        tree = PackedRTree.build(ds, node_capacity=10)
        # 10k entries at fanout 10: 1000 leaves, 100, 10, 1 -> height 4.
        assert tree.height == 4

    def test_unsorted_build_is_valid_but_looser(self, pa_small):
        sorted_tree = PackedRTree.build(pa_small, sort=True)
        unsorted_tree = PackedRTree.build(pa_small, sort=False)
        check_invariants(unsorted_tree)
        from repro.spatial.stats import tree_stats

        assert (
            tree_stats(sorted_tree).leaf_area_ratio
            < tree_stats(unsorted_tree).leaf_area_ratio
        )

    def test_index_bytes_accounting(self, pa_small_tree):
        t = pa_small_tree
        expected = (
            t.node_count * t.costs.index_node_header_bytes
            + int(t.node_child_count.sum()) * t.costs.index_entry_bytes
        )
        assert t.index_bytes() == expected


class TestRangeFilter:
    def _windows(self, ds, rng, n=25):
        ext = ds.extent
        out = []
        for _ in range(n):
            w = ext.width * rng.uniform(0.01, 0.2)
            h = ext.height * rng.uniform(0.01, 0.2)
            x = rng.uniform(ext.xmin, ext.xmax - w)
            y = rng.uniform(ext.ymin, ext.ymax - h)
            out.append(MBR(x, y, x + w, y + h))
        return out

    def test_matches_oracle(self, pa_small, pa_small_tree, rng):
        for rect in self._windows(pa_small, rng):
            got = np.sort(pa_small_tree.range_filter(rect))
            want = np.sort(bf.range_filter(pa_small, rect))
            assert np.array_equal(got, want)

    def test_whole_extent_returns_everything(self, pa_small, pa_small_tree):
        got = pa_small_tree.range_filter(pa_small.extent)
        assert len(got) == pa_small.size

    def test_empty_region(self, pa_small, pa_small_tree):
        ext = pa_small.extent
        rect = MBR(ext.xmax + 10, ext.ymax + 10, ext.xmax + 20, ext.ymax + 20)
        assert len(pa_small_tree.range_filter(rect)) == 0

    def test_counter_instrumentation(self, pa_small, pa_small_tree):
        counter = OpCounter()
        rect = MBR(
            pa_small.extent.xmin,
            pa_small.extent.ymin,
            pa_small.extent.center()[0],
            pa_small.extent.center()[1],
        )
        ids = pa_small_tree.range_filter(rect, counter)
        assert counter.nodes_visited >= 1
        assert counter.mbr_tests >= counter.nodes_visited  # >=1 test per visit
        assert counter.entries_scanned == len(ids)
        assert len(counter.trace) == counter.nodes_visited

    def test_counter_visits_bounded_by_tree(self, pa_small, pa_small_tree):
        counter = OpCounter(record_trace=False)
        pa_small_tree.range_filter(pa_small.extent, counter)
        assert counter.nodes_visited == pa_small_tree.node_count


class TestPointFilter:
    """A point query filters as the window of its degenerate MBR; the
    oracle's point-containment scan checks that the two forms agree."""

    def test_matches_oracle_on_endpoints(self, pa_small, pa_small_tree):
        for i in range(0, pa_small.size, max(1, pa_small.size // 40)):
            px, py = float(pa_small.x1[i]), float(pa_small.y1[i])
            got = np.sort(pa_small_tree.range_filter(PointQuery(px, py).window))
            want = np.sort(bf.point_filter(pa_small, px, py))
            assert np.array_equal(got, want)
            assert i in got  # the anchoring segment's own MBR contains it

    def test_far_outside_point(self, pa_small, pa_small_tree):
        ext = pa_small.extent
        q = PointQuery(ext.xmax + 100, ext.ymax + 100)
        assert len(pa_small_tree.range_filter(q.window)) == 0


class TestNearestNeighbor:
    def test_matches_oracle(self, pa_small, pa_small_tree, rng):
        ext = pa_small.extent
        for _ in range(40):
            px = rng.uniform(ext.xmin, ext.xmax)
            py = rng.uniform(ext.ymin, ext.ymax)
            got = pa_small_tree.nearest_neighbor(px, py)
            want = bf.nearest_neighbor(pa_small, px, py)
            d_got = point_segment_distance_sq(px, py, *pa_small.segment(got))
            d_want = point_segment_distance_sq(px, py, *pa_small.segment(want))
            assert d_got == pytest.approx(d_want, rel=1e-12, abs=1e-12)

    def test_point_far_outside_extent(self, pa_small, pa_small_tree):
        ext = pa_small.extent
        px, py = ext.xmax + 5 * ext.width, ext.ymax + 5 * ext.height
        got = pa_small_tree.nearest_neighbor(px, py)
        want = bf.nearest_neighbor(pa_small, px, py)
        d_got = point_segment_distance_sq(px, py, *pa_small.segment(got))
        d_want = point_segment_distance_sq(px, py, *pa_small.segment(want))
        assert d_got == pytest.approx(d_want, rel=1e-12)

    def test_query_on_a_segment_returns_zero_distance(self, pa_small, pa_small_tree):
        i = pa_small.size // 3
        mx = (pa_small.x1[i] + pa_small.x2[i]) / 2
        my = (pa_small.y1[i] + pa_small.y2[i]) / 2
        got = pa_small_tree.nearest_neighbor(float(mx), float(my))
        d = point_segment_distance_sq(float(mx), float(my), *pa_small.segment(got))
        assert d == pytest.approx(0.0, abs=1e-15)

    def test_pruning_visits_few_nodes(self, pa_small, pa_small_tree):
        """Branch-and-bound must not degenerate to a full scan."""
        counter = OpCounter(record_trace=False)
        c = pa_small.extent.center()
        pa_small_tree.nearest_neighbor(c[0], c[1], counter)
        assert counter.nodes_visited < pa_small_tree.node_count / 4
        assert counter.distance_evals < pa_small.size / 10

    def test_counter_results(self, pa_small, pa_small_tree):
        counter = OpCounter(record_trace=False)
        c = pa_small.extent.center()
        best = pa_small_tree.nearest_neighbor(c[0], c[1], counter)
        assert best >= 0
        assert counter.results_produced == 1
        assert counter.heap_ops > 0


class TestEntryHelpers:
    def test_entry_positions_roundtrip(self, pa_small_tree):
        ids = pa_small_tree.entry_ids[::37]
        pos = pa_small_tree.entry_positions_for_ids(ids)
        assert np.array_equal(pa_small_tree.entry_ids[pos], ids)

    def test_estimated_index_bytes_matches_real_build(self, pa_small, pa_small_tree):
        for n in (1, 24, 25, 26, 200, pa_small.size):
            sub = pa_small.subset(np.arange(n))
            real = PackedRTree.build(sub, node_capacity=pa_small_tree.node_capacity)
            est = pa_small_tree.estimated_index_bytes_for_entries(n)
            assert est == real.index_bytes(), f"n={n}"

    def test_estimated_index_bytes_zero(self, pa_small_tree):
        assert pa_small_tree.estimated_index_bytes_for_entries(0) == 0
