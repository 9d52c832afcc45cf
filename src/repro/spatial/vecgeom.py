"""NumPy-vectorized geometric predicates over arrays of line segments.

The scalar predicates in :mod:`repro.spatial.geometry` are the readable
reference; these vectorized equivalents operate on the column arrays of a
:class:`repro.data.model.SegmentDataset` (``x1, y1, x2, y2`` each of shape
``(n,)``).  Every refinement runs through one segment–window test
(:func:`segments_intersect_rects`) and one segment–point test
(:func:`segments_contain_points`), whose query bounds may be scalars (one
query over many segments: :meth:`repro.core.engine.QueryEngine.refine`) or
per-row arrays (every query's candidates at once: the batched planner).
The brute-force oracle (:mod:`repro.spatial.bruteforce`) that tests
validate the indexes against scans whole datasets with the same functions,
and :func:`mbr_mindist_sq` is the best-first NN bound.

Per the HPC guides, hot loops are vectorized with masks rather than Python
loops; all functions are allocation-conscious (no hidden copies of the input
columns) and return boolean masks or float arrays aligned with the inputs.
"""

from __future__ import annotations

import numpy as np

from repro.spatial.mbr import MBR

__all__ = [
    "mbr_intersects_rect",
    "mbr_contains_point",
    "mbr_mindist_sq",
    "point_segment_distance_sq",
    "segments_contain_points",
    "segments_intersect_rects",
]


def mbr_intersects_rect(
    x1: np.ndarray, y1: np.ndarray, x2: np.ndarray, y2: np.ndarray, rect: MBR
) -> np.ndarray:
    """Mask of segments whose MBR intersects ``rect`` (the filter predicate)."""
    sxmin = np.minimum(x1, x2)
    sxmax = np.maximum(x1, x2)
    symin = np.minimum(y1, y2)
    symax = np.maximum(y1, y2)
    return (
        (sxmin <= rect.xmax)
        & (sxmax >= rect.xmin)
        & (symin <= rect.ymax)
        & (symax >= rect.ymin)
    )


def mbr_contains_point(
    x1: np.ndarray, y1: np.ndarray, x2: np.ndarray, y2: np.ndarray,
    px: float, py: float,
) -> np.ndarray:
    """Mask of segments whose MBR contains the point ``(px, py)``."""
    sxmin = np.minimum(x1, x2)
    sxmax = np.maximum(x1, x2)
    symin = np.minimum(y1, y2)
    symax = np.maximum(y1, y2)
    return (sxmin <= px) & (px <= sxmax) & (symin <= py) & (py <= symax)


def mbr_mindist_sq(
    px: np.ndarray, py: np.ndarray,
    xmin: np.ndarray, ymin: np.ndarray, xmax: np.ndarray, ymax: np.ndarray,
) -> np.ndarray:
    """Squared MINDIST from points to boxes, elementwise (Roussopoulos).

    Row ``i`` is the squared distance from ``(px[i], py[i])`` to the nearest
    point of box ``i`` (zero when the point lies inside).  The expression —
    ``max(max(lo - p, p - hi), 0)`` per axis, then the sum of squares — is
    the bound of the best-first NN loop in
    :meth:`repro.spatial.rtree.PackedRTree.nearest_neighbors`; ``traverse.c``
    evaluates it in the same operation order, so the compiled search
    reproduces its bounds bit for bit.
    """
    dx = np.maximum(np.maximum(xmin - px, px - xmax), 0.0)
    dy = np.maximum(np.maximum(ymin - py, py - ymax), 0.0)
    return dx * dx + dy * dy


def point_segment_distance_sq(
    px: float, py: float,
    x1: np.ndarray, y1: np.ndarray, x2: np.ndarray, y2: np.ndarray,
) -> np.ndarray:
    """Squared point-to-segment distances for every segment (vectorized).

    Mirrors :func:`repro.spatial.geometry.point_segment_distance_sq` exactly,
    including the degenerate zero-length-segment case; equality of the two is
    property-tested.
    """
    dx = x2 - x1
    dy = y2 - y1
    len_sq = dx * dx + dy * dy
    ex0 = px - x1
    ey0 = py - y1
    # Guard the division for degenerate segments; their t is irrelevant
    # because the clamped projection collapses to the first endpoint anyway.
    safe_len = np.where(len_sq == 0.0, 1.0, len_sq)
    t = (ex0 * dx + ey0 * dy) / safe_len
    t = np.where(len_sq == 0.0, 0.0, np.clip(t, 0.0, 1.0))
    cx = x1 + t * dx
    cy = y1 + t * dy
    ex = px - cx
    ey = py - cy
    return ex * ex + ey * ey


def segments_contain_points(
    px: np.ndarray, py: np.ndarray,
    x1: np.ndarray, y1: np.ndarray, x2: np.ndarray, y2: np.ndarray,
    eps: np.ndarray,
) -> np.ndarray:
    """Mask of segments passing within ``eps`` of their query point.

    The segment columns are aligned ``(n,)`` arrays; ``px``, ``py`` and
    ``eps`` are scalars or ``(n,)`` arrays, so row ``i`` tests segment ``i``
    against point ``(px[i], py[i])`` with tolerance ``eps[i]``.  Matches
    :func:`repro.spatial.geometry.segment_contains_point` row by row
    (property-tested with a different point and tolerance per row).
    """
    return point_segment_distance_sq(px, py, x1, y1, x2, y2) <= eps * eps


def _cross_sign(ax, ay, bx, by, cx, cy):
    """Vectorized orientation of triangles ``(a, b, c)`` (sign of cross)."""
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def segments_intersect_rects(
    x1: np.ndarray, y1: np.ndarray, x2: np.ndarray, y2: np.ndarray,
    rxmin: np.ndarray, rymin: np.ndarray, rxmax: np.ndarray, rymax: np.ndarray,
) -> np.ndarray:
    """Mask of segments that truly intersect their query window.

    The segment columns are aligned ``(n,)`` arrays; the window bounds are
    scalars or ``(n,)`` arrays, so row ``i`` clips segment ``i`` against
    window ``(rxmin[i], rymin[i], rxmax[i], rymax[i])``.  Vectorized
    Cohen-Sutherland: trivial accept when an endpoint lies in the window,
    trivial reject when both endpoints share an outside half-plane, and an
    exact segment-vs-window-edge orientation test for the remainder, with
    the scalar :func:`repro.spatial.geometry.segments_intersect` deciding
    the rare collinear-graze residue.  Matches
    :func:`repro.spatial.geometry.segment_intersects_rect` row by row
    (property-tested with a different window per row).
    """
    rxmin, rymin, rxmax, rymax, _ = np.broadcast_arrays(rxmin, rymin, rxmax, rymax, x1)
    in1 = (rxmin <= x1) & (x1 <= rxmax) & (rymin <= y1) & (y1 <= rymax)
    in2 = (rxmin <= x2) & (x2 <= rxmax) & (rymin <= y2) & (y2 <= rymax)
    result = in1 | in2

    both_left = (x1 < rxmin) & (x2 < rxmin)
    both_right = (x1 > rxmax) & (x2 > rxmax)
    both_below = (y1 < rymin) & (y2 < rymin)
    both_above = (y1 > rymax) & (y2 > rymax)
    rejected = both_left | both_right | both_below | both_above

    undecided = ~result & ~rejected
    if not np.any(undecided):
        return result

    u = np.nonzero(undecided)[0]
    ux1, uy1 = x1[u], y1[u]
    ux2, uy2 = x2[u], y2[u]
    uxmin, uymin = rxmin[u], rymin[u]
    uxmax, uymax = rxmax[u], rymax[u]
    hit = np.zeros(ux1.shape, dtype=bool)
    edges = (
        (uxmin, uymin, uxmax, uymin),
        (uxmax, uymin, uxmax, uymax),
        (uxmax, uymax, uxmin, uymax),
        (uxmin, uymax, uxmin, uymin),
    )
    for ex1, ey1, ex2, ey2 in edges:
        d1 = _cross_sign(ex1, ey1, ex2, ey2, ux1, uy1)
        d2 = _cross_sign(ex1, ey1, ex2, ey2, ux2, uy2)
        d3 = _cross_sign(ux1, uy1, ux2, uy2, ex1, ey1)
        d4 = _cross_sign(ux1, uy1, ux2, uy2, ex2, ey2)
        proper = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)) & (d1 != 0) & (d2 != 0) & (d3 != 0) & (d4 != 0)
        # Collinear touching: endpoint of one on the other. The undecided set
        # has both endpoints strictly outside the window, so only the segment
        # grazing an edge collinearly matters; treat d==0 plus bbox overlap.
        graze = (d1 == 0) | (d2 == 0) | (d3 == 0) | (d4 == 0)
        if np.any(graze):
            bxmin, bxmax = np.minimum(ex1, ex2), np.maximum(ex1, ex2)
            bymin, bymax = np.minimum(ey1, ey2), np.maximum(ey1, ey2)
            overlap = (
                (np.minimum(ux1, ux2) <= bxmax)
                & (np.maximum(ux1, ux2) >= bxmin)
                & (np.minimum(uy1, uy2) <= bymax)
                & (np.maximum(uy1, uy2) >= bymin)
            )
            # A zero orientation with bbox overlap can still be a miss for
            # non-collinear configurations; fall back to the scalar test for
            # this rare residue to stay exact.
            residue = graze & overlap & ~proper
            if np.any(residue):
                from repro.spatial.geometry import segments_intersect

                idx = np.nonzero(residue)[0]
                for i in idx:
                    if segments_intersect(
                        float(ux1[i]), float(uy1[i]), float(ux2[i]), float(uy2[i]),
                        float(ex1[i]), float(ey1[i]), float(ex2[i]), float(ey2[i]),
                    ):
                        proper[i] = True
        hit |= proper
    result[u[hit]] = True
    return result
