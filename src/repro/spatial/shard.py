"""Hilbert key-range decomposition and shard-boundary algebra.

SpatialPathDB-style key-range partitioning splits a Hilbert-sorted dataset
into contiguous key ranges ("shards"); scalable query processing then needs
the inverse map — from a query window to the curve ranges it can touch — so
untouched shards can be skipped at plan time.  This module provides the
pure geometry of that map:

* :func:`window_key_ranges` — exact window→curve-range decomposition: the
  sorted, disjoint, merged set of Hilbert index ranges whose cells tile a
  grid-aligned window exactly.  The recursion mirrors the quadrant-rotation
  state machine of :func:`repro.spatial.hilbert.xy_to_d` (within a quadrant
  the curve is contiguous, so a fully-covered quadrant emits one range).
* :func:`window_cell_span` — a float window mapped to inclusive grid-cell
  bounds under exactly the scaling :func:`~repro.spatial.hilbert.
  hilbert_sort_keys` applies to segment centers.
* :func:`window_shard_ranges` — the two combined at a configurable
  *pruning order*: decomposing at a coarse order keeps the range count
  small (the curve is hierarchical, so each coarse cell is one contiguous
  block of fine keys), and the scaled result is a superset tiling of the
  exact fine-order ranges.
* :func:`equi_count_boundaries` / :func:`ranges_overlap_shards` — the
  shard-boundary side: equi-count cuts over the sorted keys (snapped to a
  packing alignment) and the range×boundary overlap join.
* :func:`expanding_key_ranges` — the NN/k-NN frontier: key ranges of
  growing windows around a query point, for residency admission and
  prefetch ordering of best-first searches whose reach is not known a
  priori.

Everything here is exact integer geometry over the curve.  A node's MBR
can overhang its key range, so key overlap alone is not an exact visit
predicate for a tree traversal.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.spatial.hilbert import DEFAULT_ORDER
from repro.spatial.mbr import MBR

__all__ = [
    "DEFAULT_PRUNE_ORDER",
    "window_key_ranges",
    "window_cell_span",
    "window_shard_ranges",
    "equi_count_boundaries",
    "ranges_overlap_shards",
    "expanding_key_ranges",
]

#: Default decomposition order for shard pruning: 2^8 cells per axis keeps
#: the recursion a few hundred nodes for county-scale windows while still
#: resolving shard boundaries far finer than any equi-count cut.
DEFAULT_PRUNE_ORDER = 8

#: Hilbert-order quadrant visit sequence: (rx, ry) in increasing digit
#: ``(3*rx) ^ ry`` — the order the curve itself enters the quadrants, which
#: makes the decomposition's emission order ascending by construction.
_QUADRANTS = ((0, 0), (0, 1), (1, 1), (1, 0))


def window_key_ranges(
    order: int, x_lo: int, y_lo: int, x_hi: int, y_hi: int
) -> List[Tuple[int, int]]:
    """Exact Hilbert ranges tiling the inclusive cell window, sorted+merged.

    Returns ``[(d_lo, d_hi), ...]`` (both ends inclusive) such that the
    union of the ranges is exactly ``{xy_to_d(order, x, y)}`` over the
    window's cells, the ranges are disjoint, ascending, and no two are
    adjacent (maximally merged).  Property-tested against the scalar
    :func:`~repro.spatial.hilbert.xy_to_d` oracle.

    The recursion carries the same quadrant rotation as ``xy_to_d``; a
    sub-square fully covered by the window is emitted as one contiguous
    range (``side**2`` keys) without descending further, so the output
    size is bounded by the window perimeter times the order, not its area.
    """
    n = 1 << order
    if not (0 <= x_lo <= x_hi < n and 0 <= y_lo <= y_hi < n):
        raise ValueError(
            f"cell window ({x_lo},{y_lo})..({x_hi},{y_hi}) outside the "
            f"{n}x{n} order-{order} grid"
        )
    out: List[Tuple[int, int]] = []

    def rec(side: int, d_base: int, xlo: int, xhi: int, ylo: int, yhi: int) -> None:
        if xlo == 0 and ylo == 0 and xhi == side - 1 and yhi == side - 1:
            out.append((d_base, d_base + side * side - 1))
            return
        s = side >> 1
        for rx, ry in _QUADRANTS:
            qx0 = max(xlo, rx * s)
            qx1 = min(xhi, rx * s + s - 1)
            qy0 = max(ylo, ry * s)
            qy1 = min(yhi, ry * s + s - 1)
            if qx0 > qx1 or qy0 > qy1:
                continue
            lx0, lx1 = qx0 - rx * s, qx1 - rx * s
            ly0, ly1 = qy0 - ry * s, qy1 - ry * s
            if ry == 0:
                if rx == 1:
                    lx0, lx1 = s - 1 - lx1, s - 1 - lx0
                    ly0, ly1 = s - 1 - ly1, s - 1 - ly0
                lx0, ly0 = ly0, lx0
                lx1, ly1 = ly1, lx1
            rec(s, d_base + s * s * ((3 * rx) ^ ry), lx0, lx1, ly0, ly1)

    rec(n, 0, x_lo, x_hi, y_lo, y_hi)
    # Quadrants are visited in curve order, so ``out`` is already sorted
    # and disjoint; only adjacent ranges remain to merge.
    merged: List[Tuple[int, int]] = []
    for lo, hi in out:
        if merged and merged[-1][1] + 1 == lo:
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def window_cell_span(
    extent: MBR,
    order: int,
    xmin: float,
    ymin: float,
    xmax: float,
    ymax: float,
) -> Tuple[int, int, int, int]:
    """Inclusive grid-cell bounds ``(x_lo, y_lo, x_hi, y_hi)`` of a window.

    Uses exactly the :func:`~repro.spatial.hilbert.hilbert_sort_keys`
    scaling (clip into the grid, points on the max edge land in the last
    cell), so a segment center inside the window always maps into the
    span.  Degenerate windows (points) map to a single cell.
    """
    if extent.width <= 0 or extent.height <= 0:
        raise ValueError("extent must have positive area for Hilbert scaling")
    nf = float(1 << order)

    def cell(v: float, lo: float, span: float) -> int:
        return int(min(max((v - lo) / span * nf, 0.0), nf - 1.0))

    return (
        cell(xmin, extent.xmin, extent.width),
        cell(ymin, extent.ymin, extent.height),
        cell(xmax, extent.xmin, extent.width),
        cell(ymax, extent.ymin, extent.height),
    )


def window_shard_ranges(
    extent: MBR,
    order: int,
    xmin: float,
    ymin: float,
    xmax: float,
    ymax: float,
    prune_order: int = DEFAULT_PRUNE_ORDER,
) -> List[Tuple[int, int]]:
    """Key ranges (at ``order`` resolution) covering a float window.

    Decomposes at ``min(prune_order, order)`` and rescales each coarse
    range to fine keys: a coarse cell's fine keys are exactly the block
    ``[d << 2*(order-p), ((d+1) << 2*(order-p)) - 1]`` (the curve is
    hierarchical — the top ``p`` levels fix the leading key digits).  The
    result is a superset tiling of the exact fine decomposition: every
    fine cell the window touches is covered, plus the remainder of any
    partially-covered coarse cell.
    """
    p = min(prune_order, order)
    x_lo, y_lo, x_hi, y_hi = window_cell_span(extent, p, xmin, ymin, xmax, ymax)
    shift = 2 * (order - p)
    return [
        (lo << shift, ((hi + 1) << shift) - 1)
        for lo, hi in window_key_ranges(p, x_lo, y_lo, x_hi, y_hi)
    ]


def equi_count_boundaries(
    n_entries: int, n_shards: int, align: int = 1
) -> np.ndarray:
    """Entry-position cuts splitting ``n_entries`` sorted keys equi-count.

    Returns ascending boundary positions ``b`` with ``b[0] == 0`` and
    ``b[-1] == n_entries``; shard ``s`` owns packed positions
    ``[b[s], b[s+1])``.  Interior cuts are snapped to the nearest multiple
    of ``align`` (the packed tree's node alignment — ``capacity**2`` keeps
    every leaf *and* every level-1 subtree within one shard) and
    deduplicated, so fewer than ``n_shards`` shards come back when the
    dataset is too small to honor the alignment.
    """
    if n_entries < 1:
        raise ValueError(f"n_entries must be >= 1, got {n_entries}")
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if align < 1:
        raise ValueError(f"align must be >= 1, got {align}")
    cuts = [0]
    for i in range(1, n_shards):
        b = round(i * n_entries / n_shards / align) * align
        b = min(max(b, 0), n_entries)
        if b > cuts[-1] and b < n_entries:
            cuts.append(b)
    cuts.append(n_entries)
    return np.asarray(cuts, dtype=np.int64)


def ranges_overlap_shards(
    ranges: Sequence[Tuple[int, int]],
    shard_key_lo: np.ndarray,
    shard_key_hi: np.ndarray,
) -> np.ndarray:
    """Sorted ids of shards whose key span meets any of ``ranges``.

    ``shard_key_lo``/``shard_key_hi`` are the per-shard inclusive key
    spans, ascending by shard (contiguous shards of a sorted key array —
    spans may share endpoint keys when duplicate keys straddle a cut, in
    which case both shards are reported).
    """
    m = int(shard_key_lo.size)
    if m == 0 or not ranges:
        return np.empty(0, dtype=np.int64)
    hit = np.zeros(m, dtype=bool)
    for lo, hi in ranges:
        # First shard whose span end reaches lo; last whose start is <= hi.
        first = int(np.searchsorted(shard_key_hi, lo, side="left"))
        last = int(np.searchsorted(shard_key_lo, hi, side="right")) - 1
        if first <= last:
            hit[first : last + 1] = True
    return np.nonzero(hit)[0].astype(np.int64)


def expanding_key_ranges(
    extent: MBR,
    order: int,
    px: float,
    py: float,
    prune_order: int = DEFAULT_PRUNE_ORDER,
    growth: float = 2.0,
) -> Iterator[Tuple[float, List[Tuple[int, int]]]]:
    """Key ranges of square windows growing around ``(px, py)``.

    Yields ``(radius, ranges)`` pairs: the first ring is the query point's
    own cell, then half-width doubles (``growth``) until one window covers
    the whole extent, whose full key span is the final yield.  Best-first
    NN searches use this as the admission/prefetch frontier — the curve
    ranges a search *may* touch when it has reached a given radius —
    without fixing the actual traversal, which remains MINDIST-driven.
    """
    if growth <= 1.0:
        raise ValueError(f"growth must be > 1, got {growth}")
    yield 0.0, window_shard_ranges(extent, order, px, py, px, py, prune_order)
    radius = max(extent.width, extent.height) / float(1 << min(prune_order, order))
    span = math.hypot(extent.width, extent.height)
    while radius < span:
        yield radius, window_shard_ranges(
            extent, order,
            px - radius, py - radius, px + radius, py + radius,
            prune_order,
        )
        radius *= growth
    n_keys = 1 << (2 * order)
    yield span, [(0, n_keys - 1)]
