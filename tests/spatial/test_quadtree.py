"""PMR quadtree: structure, oracle agreement, PMR-specific properties."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.queries import PointQuery
from repro.sim.trace import OpCounter
from repro.spatial import bruteforce as bf
from repro.spatial.geometry import point_segment_distance_sq
from repro.spatial.mbr import MBR
from repro.spatial.quadtree import PMRQuadtree

from tests.conftest import make_segments


@pytest.fixture(scope="module")
def qt(pa_small):
    return PMRQuadtree(pa_small)


class TestConstruction:
    def test_invalid_params(self, pa_small):
        with pytest.raises(ValueError):
            PMRQuadtree(pa_small, splitting_threshold=0)
        with pytest.raises(ValueError):
            PMRQuadtree(pa_small, max_depth=0)

    def test_depth_bounded(self, qt):
        assert 1 <= qt.depth() <= qt.max_depth

    def test_replication_factor_at_least_one(self, qt):
        assert qt.replication_factor() >= 1.0

    def test_every_segment_stored_somewhere(self, qt, pa_small):
        seen = set()
        stack = [qt.root]
        while stack:
            cell = stack.pop()
            if cell.is_leaf:
                seen.update(cell.seg_ids)
            else:
                stack.extend(cell.children)
        assert seen == set(range(pa_small.size))

    def test_leaves_respect_threshold_or_depth_cap(self, qt):
        """A leaf may exceed the threshold only transiently via the no-
        cascade rule or at the depth cap; it can never exceed it by more
        than the number of post-split insertions, which for our insert-all
        build means: an over-full leaf must sit at max depth, or have been
        left over-full by at most the PMR one-split-per-insert rule (its
        occupancy stays below 2x threshold in practice on street data)."""
        stack = [qt.root]
        while stack:
            cell = stack.pop()
            if cell.is_leaf:
                if cell.depth < qt.max_depth:
                    assert len(cell.seg_ids) <= 2 * qt.splitting_threshold
            else:
                stack.extend(cell.children)

    def test_children_partition_parent(self, qt):
        stack = [qt.root]
        while stack:
            cell = stack.pop()
            if cell.is_leaf:
                continue
            union = MBR.union_of([c.rect for c in cell.children])
            assert union == cell.rect
            area = sum(c.rect.area() for c in cell.children)
            assert area == pytest.approx(cell.rect.area(), rel=1e-12)
            stack.extend(cell.children)

    def test_index_bytes_positive_and_counts_replication(self, qt, pa_small):
        plain = (
            qt.node_count * qt.costs.index_node_header_bytes
            + pa_small.size * qt.costs.index_entry_bytes
        )
        assert qt.index_bytes() > 0
        # Replication means stored entries >= one per segment.
        assert qt.index_bytes() >= plain - qt.node_count * 4 * qt.costs.index_entry_bytes


class TestQueries:
    def test_range_answers_match_oracle(self, qt, pa_small, rng):
        ext = pa_small.extent
        for _ in range(25):
            w = ext.width * rng.uniform(0.01, 0.15)
            h = ext.height * rng.uniform(0.01, 0.15)
            x = rng.uniform(ext.xmin, ext.xmax - w)
            y = rng.uniform(ext.ymin, ext.ymax - h)
            rect = MBR(x, y, x + w, y + h)
            cand = qt.range_filter(rect)
            want = bf.range_query(pa_small, rect)
            # Filtering must not lose any true answer...
            assert set(want.tolist()) <= set(cand.tolist())
            # ...and is at least as precise as the whole-dataset MBR filter.
            assert len(cand) <= len(bf.range_filter(pa_small, rect))

    def test_point_candidates_superset_of_answers(self, qt, pa_small):
        for i in range(0, pa_small.size, max(1, pa_small.size // 30)):
            px, py = float(pa_small.x1[i]), float(pa_small.y1[i])
            cand = set(qt.range_filter(PointQuery(px, py).window).tolist())
            want = set(bf.point_query(pa_small, px, py).tolist())
            assert want <= cand
            assert i in cand
            # ...and within the whole-dataset point-containment filter.
            assert cand <= set(bf.point_filter(pa_small, px, py).tolist())

    def test_nn_matches_oracle(self, qt, pa_small, rng):
        ext = pa_small.extent
        for _ in range(25):
            px = rng.uniform(ext.xmin, ext.xmax)
            py = rng.uniform(ext.ymin, ext.ymax)
            got = qt.nearest_neighbor(px, py)
            want = bf.nearest_neighbor(pa_small, px, py)
            d_got = point_segment_distance_sq(px, py, *pa_small.segment(got))
            d_want = point_segment_distance_sq(px, py, *pa_small.segment(want))
            assert d_got == pytest.approx(d_want, rel=1e-12, abs=1e-12)

    def test_knn_matches_oracle_distances(self, qt, pa_small, rng):
        ext = pa_small.extent
        for _ in range(8):
            px = rng.uniform(ext.xmin, ext.xmax)
            py = rng.uniform(ext.ymin, ext.ymax)
            got = qt.nearest_neighbors(px, py, 7)
            want = bf.k_nearest_neighbors(pa_small, px, py, 7)
            gd = sorted(
                point_segment_distance_sq(px, py, *pa_small.segment(int(i)))
                for i in got
            )
            wd = sorted(
                point_segment_distance_sq(px, py, *pa_small.segment(int(i)))
                for i in want
            )
            assert np.allclose(gd, wd, rtol=1e-12)

    def test_instrumentation(self, qt, pa_small):
        counter = OpCounter()
        ext = pa_small.extent
        c = ext.center()
        rect = MBR(c[0] - ext.width * 0.05, c[1] - ext.height * 0.05,
                   c[0] + ext.width * 0.05, c[1] + ext.height * 0.05)
        qt.range_filter(rect, counter)
        assert counter.nodes_visited > 0
        assert counter.mbr_tests > 0
        assert len(counter.trace) == counter.nodes_visited

    def test_empty_region(self, qt, pa_small):
        ext = pa_small.extent
        rect = MBR(ext.xmax + 10, ext.ymax + 10, ext.xmax + 20, ext.ymax + 20)
        assert len(qt.range_filter(rect)) == 0


class TestOnRandomData:
    def test_oracle_agreement_random(self, rng):
        ds = make_segments(rng, 400)
        qt = PMRQuadtree(ds, splitting_threshold=4)
        ext = ds.extent
        for _ in range(15):
            w = ext.width * rng.uniform(0.05, 0.3)
            h = ext.height * rng.uniform(0.05, 0.3)
            x = rng.uniform(ext.xmin, ext.xmax - w)
            y = rng.uniform(ext.ymin, ext.ymax - h)
            rect = MBR(x, y, x + w, y + h)
            cand = set(qt.range_filter(rect).tolist())
            want = set(bf.range_query(ds, rect).tolist())
            assert want <= cand
