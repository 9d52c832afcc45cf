"""Linear-scan reference implementations (the test oracle).

Every R-tree query must return exactly what a whole-dataset scan returns:
these functions define that ground truth.  They are also the honest baseline
for "how much does the index actually buy you" sanity checks.  No module of
the library calls them; tests and benchmarks compare against them.
:func:`point_filter` keeps the point-containment form of the filter
predicate, so comparing an index's filter over a point query's degenerate
window with it checks that the two forms agree.

Filtering and refinement are exposed separately, mirroring the two query
phases, so tests can validate each phase of the engine independently:

* ``*_filter`` functions apply only the MBR predicate (candidates),
* ``*_refine``/exact functions apply the exact geometric predicate (answers).
"""

from __future__ import annotations

import numpy as np

from repro.data.model import SegmentDataset
from repro.spatial import vecgeom
from repro.spatial.geometry import DEFAULT_EPS
from repro.spatial.mbr import MBR

__all__ = [
    "range_filter",
    "range_query",
    "point_filter",
    "point_query",
    "nearest_neighbor",
    "k_nearest_neighbors",
]


def range_filter(ds: SegmentDataset, rect: MBR) -> np.ndarray:
    """Ids of segments whose MBR intersects ``rect`` (filter phase oracle)."""
    mask = vecgeom.mbr_intersects_rect(ds.x1, ds.y1, ds.x2, ds.y2, rect)
    return np.nonzero(mask)[0].astype(np.int64)


def range_query(ds: SegmentDataset, rect: MBR) -> np.ndarray:
    """Ids of segments that exactly intersect the window ``rect``."""
    mask = vecgeom.segments_intersect_rects(ds.x1, ds.y1, ds.x2, ds.y2, *rect)
    return np.nonzero(mask)[0].astype(np.int64)


def point_filter(ds: SegmentDataset, px: float, py: float) -> np.ndarray:
    """Ids of segments whose MBR contains the point (filter phase oracle)."""
    mask = vecgeom.mbr_contains_point(ds.x1, ds.y1, ds.x2, ds.y2, px, py)
    return np.nonzero(mask)[0].astype(np.int64)


def point_query(
    ds: SegmentDataset, px: float, py: float, eps: float = DEFAULT_EPS
) -> np.ndarray:
    """Ids of segments passing within ``eps`` of the point."""
    mask = vecgeom.segments_contain_points(px, py, ds.x1, ds.y1, ds.x2, ds.y2, eps)
    return np.nonzero(mask)[0].astype(np.int64)


def nearest_neighbor(ds: SegmentDataset, px: float, py: float) -> int:
    """Id of the segment nearest to the point (ties: lowest id)."""
    d = vecgeom.point_segment_distance_sq(px, py, ds.x1, ds.y1, ds.x2, ds.y2)
    return int(np.argmin(d))


def k_nearest_neighbors(
    ds: SegmentDataset, px: float, py: float, k: int
) -> np.ndarray:
    """Ids of the ``k`` nearest segments, nearest first (ties: lowest id)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    d = vecgeom.point_segment_distance_sq(px, py, ds.x1, ds.y1, ds.x2, ds.y2)
    k = min(k, ds.size)
    # argsort is stable, so equal distances break toward the lower id.
    return np.argsort(d, kind="stable")[:k].astype(np.int64)
