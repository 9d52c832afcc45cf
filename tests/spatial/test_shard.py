"""Window→Hilbert-key-range decomposition vs the scalar curve oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.spatial.hilbert import hilbert_sort_keys, xy_to_d
from repro.spatial.mbr import MBR
from repro.spatial.shard import (
    equi_count_boundaries,
    expanding_key_ranges,
    ranges_overlap_shards,
    window_cell_span,
    window_key_ranges,
    window_shard_ranges,
)


def _oracle_keys(order, x_lo, y_lo, x_hi, y_hi):
    """The window's key set by brute scalar enumeration."""
    return {
        xy_to_d(order, x, y)
        for x in range(x_lo, x_hi + 1)
        for y in range(y_lo, y_hi + 1)
    }


@st.composite
def _cell_windows(draw, max_order=6):
    order = draw(st.integers(min_value=1, max_value=max_order))
    n = 1 << order
    x_lo = draw(st.integers(min_value=0, max_value=n - 1))
    y_lo = draw(st.integers(min_value=0, max_value=n - 1))
    x_hi = draw(st.integers(min_value=x_lo, max_value=n - 1))
    y_hi = draw(st.integers(min_value=y_lo, max_value=n - 1))
    return order, x_lo, y_lo, x_hi, y_hi


class TestWindowKeyRanges:
    @given(_cell_windows())
    @settings(max_examples=120, deadline=None)
    def test_union_tiles_window_exactly(self, win):
        order, x_lo, y_lo, x_hi, y_hi = win
        ranges = window_key_ranges(order, x_lo, y_lo, x_hi, y_hi)
        covered = set()
        for lo, hi in ranges:
            covered.update(range(lo, hi + 1))
        assert covered == _oracle_keys(order, x_lo, y_lo, x_hi, y_hi)

    @given(_cell_windows())
    @settings(max_examples=120, deadline=None)
    def test_sorted_disjoint_maximally_merged(self, win):
        order, x_lo, y_lo, x_hi, y_hi = win
        ranges = window_key_ranges(order, x_lo, y_lo, x_hi, y_hi)
        assert ranges  # a non-empty window always yields at least one range
        for lo, hi in ranges:
            assert lo <= hi
        for (_, h0), (l1, _) in zip(ranges, ranges[1:]):
            # Strictly ascending with a gap: adjacent ranges would have
            # been merged, overlapping ones are a decomposition bug.
            assert l1 > h0 + 1

    @pytest.mark.parametrize("order", [1, 3, 6])
    def test_full_grid_is_one_range(self, order):
        n = 1 << order
        assert window_key_ranges(order, 0, 0, n - 1, n - 1) == [(0, n * n - 1)]

    def test_single_cell(self):
        assert window_key_ranges(3, 5, 2, 5, 2) == [
            (xy_to_d(3, 5, 2), xy_to_d(3, 5, 2))
        ]

    def test_out_of_grid_raises(self):
        with pytest.raises(ValueError):
            window_key_ranges(2, 0, 0, 4, 0)
        with pytest.raises(ValueError):
            window_key_ranges(2, -1, 0, 1, 1)
        with pytest.raises(ValueError):
            window_key_ranges(2, 2, 0, 1, 1)


class TestWindowCellSpan:
    @given(
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_point_window_matches_sort_key_cell(self, order, fx, fy):
        """A degenerate window lands on exactly the cell hilbert_sort_keys
        assigns the same point."""
        extent = MBR(-3.0, 10.0, 7.0, 30.0)
        x = extent.xmin + fx * extent.width
        y = extent.ymin + fy * extent.height
        x_lo, y_lo, x_hi, y_hi = window_cell_span(extent, order, x, y, x, y)
        assert (x_lo, y_lo) == (x_hi, y_hi)
        key = int(
            hilbert_sort_keys(
                np.array([x]), np.array([y]), extent, order=order
            )[0]
        )
        assert key == xy_to_d(order, x_lo, y_lo)

    def test_clips_to_grid(self):
        extent = MBR(0.0, 0.0, 1.0, 1.0)
        span = window_cell_span(extent, 4, -5.0, -5.0, 5.0, 5.0)
        assert span == (0, 0, 15, 15)

    def test_degenerate_extent_raises(self):
        with pytest.raises(ValueError):
            window_cell_span(MBR(0.0, 0.0, 0.0, 1.0), 4, 0.0, 0.0, 0.0, 0.0)


class TestWindowShardRanges:
    @given(_cell_windows(max_order=5), st.integers(min_value=1, max_value=4))
    @settings(max_examples=80, deadline=None)
    def test_coarse_rescale_is_superset_of_exact(self, win, drop):
        """Decomposing at a coarse order and rescaling covers every fine
        key of the window (the hierarchical-superset property admission
        relies on)."""
        order, x_lo, y_lo, x_hi, y_hi = win
        extent = MBR(0.0, 0.0, 1.0, 1.0)
        n = 1 << order
        # A float window hitting exactly the cell window [lo, hi].
        eps = 1.0 / (4.0 * n)
        xmin, xmax = x_lo / n + eps, (x_hi + 1) / n - eps
        ymin, ymax = y_lo / n + eps, (y_hi + 1) / n - eps
        prune = max(1, order - drop)
        coarse = window_shard_ranges(
            extent, order, xmin, ymin, xmax, ymax, prune_order=prune
        )
        fine = set()
        for lo, hi in window_key_ranges(order, x_lo, y_lo, x_hi, y_hi):
            fine.update(range(lo, hi + 1))
        covered = set()
        for lo, hi in coarse:
            covered.update(range(lo, hi + 1))
        assert fine <= covered

    def test_prune_order_above_order_is_clamped(self):
        extent = MBR(0.0, 0.0, 1.0, 1.0)
        a = window_shard_ranges(extent, 4, 0.1, 0.1, 0.4, 0.4, prune_order=9)
        b = window_shard_ranges(extent, 4, 0.1, 0.1, 0.4, 0.4, prune_order=4)
        assert a == b


class TestEquiCountBoundaries:
    @given(
        st.integers(min_value=1, max_value=100_000),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=1024),
    )
    @settings(max_examples=150, deadline=None)
    def test_endpoints_monotone_aligned(self, n, k, align):
        b = equi_count_boundaries(n, k, align)
        assert b[0] == 0 and b[-1] == n
        assert (np.diff(b) > 0).all()
        assert len(b) - 1 <= k
        # Interior cuts land on the alignment; only the two endpoints may
        # break it (the dataset size is whatever it is).
        for cut in b[1:-1].tolist():
            assert cut % align == 0

    def test_even_split_no_alignment(self):
        assert equi_count_boundaries(100, 4).tolist() == [0, 25, 50, 75, 100]

    def test_small_dataset_collapses_shards(self):
        # 1000 entries, align 625: only one interior cut fits.
        b = equi_count_boundaries(1000, 8, 625)
        assert b.tolist() == [0, 625, 1000]

    def test_validation(self):
        with pytest.raises(ValueError):
            equi_count_boundaries(0, 4)
        with pytest.raises(ValueError):
            equi_count_boundaries(10, 0)
        with pytest.raises(ValueError):
            equi_count_boundaries(10, 2, 0)


class TestRangesOverlapShards:
    @given(
        st.integers(min_value=1, max_value=12),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=400),
                st.integers(min_value=0, max_value=400),
            ),
            min_size=0,
            max_size=8,
        ),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_bruteforce(self, m, raw_ranges, data):
        # Shard spans: contiguous slices of an ascending (with duplicates)
        # key array, as equi-count cuts over sorted keys produce them.
        keys = np.sort(
            np.asarray(
                data.draw(
                    st.lists(
                        st.integers(min_value=0, max_value=400),
                        min_size=m,
                        max_size=m * 8,
                    )
                ),
                dtype=np.int64,
            )
        )
        cuts = np.unique(
            np.concatenate(
                [[0], np.sort(
                    data.draw(
                        st.lists(
                            st.integers(min_value=1, max_value=max(1, keys.size - 1)),
                            min_size=0, max_size=m - 1,
                        )
                    )
                ).astype(np.int64), [keys.size]]
            )
        )
        lo = keys[cuts[:-1]]
        hi = keys[cuts[1:] - 1]
        ranges = [(min(a, b), max(a, b)) for a, b in raw_ranges]
        got = ranges_overlap_shards(ranges, lo, hi).tolist()
        want = [
            s
            for s in range(lo.size)
            if any(r0 <= hi[s] and r1 >= lo[s] for r0, r1 in ranges)
        ]
        assert got == want

    def test_empty_inputs(self):
        assert ranges_overlap_shards(
            [], np.array([0]), np.array([5])
        ).size == 0
        assert ranges_overlap_shards(
            [(0, 1)], np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        ).size == 0

    def test_boundary_key_hits_both_shards(self):
        # A duplicate key straddling a cut: both shards own it.
        lo = np.array([0, 10], dtype=np.int64)
        hi = np.array([10, 20], dtype=np.int64)
        assert ranges_overlap_shards([(10, 10)], lo, hi).tolist() == [0, 1]


class TestExpandingKeyRanges:
    def test_terminates_with_full_span(self):
        extent = MBR(0.0, 0.0, 1.0, 1.0)
        rings = list(expanding_key_ranges(extent, 8, 0.3, 0.7))
        radii = [r for r, _ in rings]
        assert radii == sorted(radii)
        assert rings[-1][1] == [(0, (1 << 16) - 1)]

    def test_first_ring_is_point_cell(self):
        extent = MBR(0.0, 0.0, 1.0, 1.0)
        r0, ranges0 = next(iter(expanding_key_ranges(extent, 8, 0.5, 0.5)))
        assert r0 == 0.0
        assert len(ranges0) == 1
        assert ranges0[0][0] == ranges0[0][1]

    def test_bad_growth_raises(self):
        extent = MBR(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            list(expanding_key_ranges(extent, 8, 0.5, 0.5, growth=1.0))
