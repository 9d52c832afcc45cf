"""PMR quadtree for line segments (Nelson & Samet).

The paper's prior study [2] ("Analyzing Energy Behavior of Spatial Access
Methods for Memory-Resident Data", VLDB 2001) compared three index
structures — PMR quadtrees, packed R-trees and buddy trees — and the paper
adopts its packed R-tree "as a reference point".  This module implements the
PMR quadtree so that the comparison can be reproduced in the fully-at-client
setting (see ``benchmarks/test_ext_index_compare.py``).

**Structure.**  A region quadtree over the dataset extent: each segment is
inserted into every leaf cell it intersects.  When an insertion makes a
leaf's occupancy exceed the *splitting threshold*, the leaf splits once into
four quadrants (its segments are redistributed), but — the PMR rule —
existing overflow does not cascade: a cell splits at most once per
insertion, which bounds the tree against pathological inputs; a maximum
depth guards degenerate stacks of coincident segments.

**Queries.**  Window queries descend the cells intersecting the window and
collect segment ids; because a segment is stored in every cell it crosses,
they must deduplicate.  A point query is the window query of its degenerate
MBR, so it visits every leaf on whose seam the point lies, as the R-tree
visits every node whose MBR it touches.  The k-NN search is
best-first over cells by MINDIST, evaluating exact distances at the leaves,
mirroring the R-tree's search so the instrumented cost comparison is
apples-to-apples.  All traversals tally the same
:class:`~repro.sim.trace.OpCounter` events the R-tree tallies.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional, TYPE_CHECKING

import numpy as np

from repro.constants import DEFAULT_COSTS, CostModel
from repro.sim.trace import OpCounter
from repro.spatial import geometry
from repro.spatial.mbr import MBR

if TYPE_CHECKING:  # circular at runtime, see rtree.py
    from repro.data.model import SegmentDataset

__all__ = ["PMRQuadtree", "DEFAULT_SPLITTING_THRESHOLD", "DEFAULT_MAX_DEPTH"]

#: The classic PMR splitting threshold.
DEFAULT_SPLITTING_THRESHOLD = 8
#: Depth cap (cells of extent/2^16 side are far below segment length).
DEFAULT_MAX_DEPTH = 16


class _Cell:
    """One quadtree cell: either a leaf with segment ids or four children."""

    __slots__ = ("cell_id", "rect", "depth", "children", "seg_ids")

    def __init__(self, cell_id: int, rect: MBR, depth: int) -> None:
        self.cell_id = cell_id
        self.rect = rect
        self.depth = depth
        self.children: Optional[List["_Cell"]] = None
        self.seg_ids: List[int] = []

    @property
    def is_leaf(self) -> bool:
        return self.children is None


class PMRQuadtree:
    """A PMR quadtree over a :class:`SegmentDataset`."""

    def __init__(
        self,
        dataset: "SegmentDataset",
        splitting_threshold: int = DEFAULT_SPLITTING_THRESHOLD,
        max_depth: int = DEFAULT_MAX_DEPTH,
        costs: CostModel = DEFAULT_COSTS,
    ) -> None:
        if splitting_threshold < 1:
            raise ValueError(
                f"splitting_threshold must be >= 1, got {splitting_threshold}"
            )
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self.dataset = dataset
        self.splitting_threshold = splitting_threshold
        self.max_depth = max_depth
        self.costs = costs
        self._next_id = 0
        # Square root cell covering the extent (quadtrees decompose a square).
        ext = dataset.extent
        side = max(ext.width, ext.height)
        self.root = self._new_cell(
            MBR(ext.xmin, ext.ymin, ext.xmin + side, ext.ymin + side), 0
        )
        for seg_id in range(dataset.size):
            self._insert(seg_id)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _new_cell(self, rect: MBR, depth: int) -> _Cell:
        cell = _Cell(self._next_id, rect, depth)
        self._next_id += 1
        return cell

    def _segment_intersects_cell(self, seg_id: int, rect: MBR) -> bool:
        x1, y1, x2, y2 = self.dataset.segment(seg_id)
        if not MBR.from_segment(x1, y1, x2, y2).intersects(rect):
            return False
        return geometry.segment_intersects_rect(x1, y1, x2, y2, rect)

    def _quadrants(self, rect: MBR) -> List[MBR]:
        cx, cy = rect.center()
        return [
            MBR(rect.xmin, rect.ymin, cx, cy),
            MBR(cx, rect.ymin, rect.xmax, cy),
            MBR(rect.xmin, cy, cx, rect.ymax),
            MBR(cx, cy, rect.xmax, rect.ymax),
        ]

    def _split(self, cell: _Cell) -> None:
        cell.children = [
            self._new_cell(q, cell.depth + 1) for q in self._quadrants(cell.rect)
        ]
        ids, cell.seg_ids = cell.seg_ids, []
        for child in cell.children:
            for seg_id in ids:
                if self._segment_intersects_cell(seg_id, child.rect):
                    child.seg_ids.append(seg_id)

    def _insert(self, seg_id: int) -> None:
        stack = [self.root]
        while stack:
            cell = stack.pop()
            if not self._segment_intersects_cell(seg_id, cell.rect):
                continue
            if cell.is_leaf:
                cell.seg_ids.append(seg_id)
                # PMR rule: split once when the insertion overflows the
                # threshold; no cascading re-splits.
                if (
                    len(cell.seg_ids) > self.splitting_threshold
                    and cell.depth < self.max_depth
                ):
                    self._split(cell)
            else:
                stack.extend(cell.children)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        """Total cells allocated."""
        return self._next_id

    def depth(self) -> int:
        """Maximum leaf depth."""
        best = 0
        stack = [self.root]
        while stack:
            cell = stack.pop()
            if cell.is_leaf:
                best = max(best, cell.depth)
            else:
                stack.extend(cell.children)
        return best

    def index_bytes(self) -> int:
        """Stored size: per-cell header plus one entry per stored id.

        A segment crossing ``k`` leaves is stored ``k`` times — the PMR
        quadtree's replication overhead, one of the axes the [2] comparison
        measured.
        """
        headers = entries = 0
        stack = [self.root]
        while stack:
            cell = stack.pop()
            headers += 1
            if cell.is_leaf:
                entries += len(cell.seg_ids)
            else:
                stack.extend(cell.children)
        return (
            headers * self.costs.index_node_header_bytes
            + entries * self.costs.index_entry_bytes
        )

    def replication_factor(self) -> float:
        """Mean number of leaves each segment is stored in."""
        entries = 0
        stack = [self.root]
        while stack:
            cell = stack.pop()
            if cell.is_leaf:
                entries += len(cell.seg_ids)
            else:
                stack.extend(cell.children)
        return entries / self.dataset.size

    def _cell_bytes(self, cell: _Cell) -> int:
        n = len(cell.seg_ids) if cell.is_leaf else 4
        return self.costs.index_node_header_bytes + n * self.costs.index_entry_bytes

    # ------------------------------------------------------------------
    # Queries (filtering)
    # ------------------------------------------------------------------
    def range_filter(
        self, rect: MBR, counter: Optional[OpCounter] = None
    ) -> np.ndarray:
        """Candidate ids for a window query (deduplicated).

        Candidates are segments stored in leaves intersecting the window
        whose own MBR also intersects it — the same MBR-level filter the
        R-tree applies, so refinement work is comparable.  A point query's
        window is its degenerate MBR.
        """
        counter = counter if counter is not None else OpCounter(record_trace=False)
        ds = self.dataset
        out: set = set()
        stack = [self.root]
        while stack:
            cell = stack.pop()
            counter.visit_node(cell.cell_id, self._cell_bytes(cell))
            if cell.is_leaf:
                counter.mbr_tests += len(cell.seg_ids)
                for seg_id in cell.seg_ids:
                    if seg_id in out:
                        continue
                    if ds.segment_mbr(seg_id).intersects(rect):
                        counter.entries_scanned += 1
                        out.add(seg_id)
            else:
                counter.mbr_tests += 4
                for child in cell.children:
                    if child.rect.intersects(rect):
                        stack.append(child)
        return np.asarray(sorted(out), dtype=np.int64)

    # ------------------------------------------------------------------
    # Nearest neighbor
    # ------------------------------------------------------------------
    def nearest_neighbors(
        self,
        px: float,
        py: float,
        k: int = 1,
        counter: Optional[OpCounter] = None,
    ) -> np.ndarray:
        """Ids of the ``k`` nearest segments, nearest first."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        counter = counter if counter is not None else OpCounter(record_trace=False)
        ds = self.dataset
        best: List[tuple] = []  # max-heap: (-dist_sq, seg_id)
        evaluated: set = set()

        def kth() -> float:
            return -best[0][0] if len(best) >= k else math.inf

        tiebreak = 0
        heap: List[tuple] = [(0.0, tiebreak, self.root)]
        counter.heap_ops += 1
        while heap:
            dist_sq, _, cell = heapq.heappop(heap)
            counter.heap_ops += 1
            if dist_sq > kth():
                break
            counter.visit_node(cell.cell_id, self._cell_bytes(cell))
            if cell.is_leaf:
                for seg_id in cell.seg_ids:
                    if seg_id in evaluated:
                        continue
                    evaluated.add(seg_id)
                    counter.refine_candidate(
                        seg_id, self.costs.segment_record_bytes
                    )
                    counter.distance_evals += 1
                    d = geometry.point_segment_distance_sq(
                        px, py, *ds.segment(seg_id)
                    )
                    if d < kth():
                        heapq.heappush(best, (-d, seg_id))
                        if len(best) > k:
                            heapq.heappop(best)
                        counter.heap_ops += 1
            else:
                counter.mbr_tests += 4
                for child in cell.children:
                    md = child.rect.mindist_sq(px, py)
                    if md > kth():
                        continue
                    tiebreak += 1
                    heapq.heappush(heap, (md, tiebreak, child))
                    counter.heap_ops += 1
        ordered = sorted(best, key=lambda t: (-t[0], t[1]))
        counter.results_produced += len(ordered)
        return np.asarray([seg_id for _, seg_id in ordered], dtype=np.int64)

    def nearest_neighbor(
        self, px: float, py: float, counter: Optional[OpCounter] = None
    ) -> int:
        """Id of the nearest segment (k = 1 convenience)."""
        out = self.nearest_neighbors(px, py, 1, counter)
        return int(out[0]) if len(out) else -1
