"""SegmentDataset container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.model import SegmentDataset


def _tiny():
    return SegmentDataset(
        "t",
        x1=np.array([0.0, 2.0, -1.0]),
        y1=np.array([0.0, 2.0, 5.0]),
        x2=np.array([1.0, 3.0, -2.0]),
        y2=np.array([1.0, 1.0, 6.0]),
    )


class TestConstruction:
    def test_extent_derived(self):
        ds = _tiny()
        assert ds.extent.as_tuple() == (-2.0, 0.0, 3.0, 6.0)

    def test_length(self):
        assert len(_tiny()) == 3
        assert _tiny().size == 3

    def test_mismatched_columns_raise(self):
        with pytest.raises(ValueError):
            SegmentDataset("bad", np.zeros(2), np.zeros(3), np.zeros(2), np.zeros(2))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            SegmentDataset("bad", np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0))

    @pytest.mark.parametrize(
        "col, value", [("x1", np.nan), ("y1", np.inf), ("x2", -np.inf), ("y2", np.nan)]
    )
    def test_non_finite_coordinates_raise(self, col, value):
        cols = {c: np.zeros(3) for c in ("x1", "y1", "x2", "y2")}
        cols[col][1] = value
        with pytest.raises(ValueError, match=f"{col} must be finite"):
            SegmentDataset("bad", **cols)

    def test_columns_contiguous_float64(self):
        ds = SegmentDataset(
            "t",
            x1=np.array([0, 1], dtype=np.int32),
            y1=np.array([0, 1], dtype=np.int32),
            x2=np.array([1, 2], dtype=np.int32),
            y2=np.array([1, 2], dtype=np.int32),
        )
        assert ds.x1.dtype == np.float64
        assert ds.x1.flags["C_CONTIGUOUS"]


class TestAccessors:
    def test_segment(self):
        assert _tiny().segment(1) == (2.0, 2.0, 3.0, 1.0)

    def test_segment_mbr_orders_coords(self):
        assert _tiny().segment_mbr(1).as_tuple() == (2.0, 1.0, 3.0, 2.0)

    def test_centers(self):
        cx, cy = _tiny().centers()
        assert cx[0] == pytest.approx(0.5)
        assert cy[1] == pytest.approx(1.5)


class TestSubset:
    def test_subset_selects_and_rederives_extent(self):
        sub = _tiny().subset([0, 1])
        assert sub.size == 2
        assert sub.extent.as_tuple() == (0.0, 0.0, 3.0, 2.0)

    def test_subset_default_name(self):
        assert _tiny().subset([0]).name == "t-subset"

    def test_empty_subset_raises(self):
        with pytest.raises(ValueError):
            _tiny().subset([])


class TestByteModel:
    def test_data_bytes_whole(self):
        ds = _tiny()
        assert ds.data_bytes() == 3 * ds.costs.segment_record_bytes

    def test_data_bytes_count(self):
        ds = _tiny()
        assert ds.data_bytes(10) == 10 * ds.costs.segment_record_bytes

    def test_id_bytes(self):
        ds = _tiny()
        assert ds.id_bytes(7) == 7 * ds.costs.object_id_bytes
