"""Buddy-tree-style index: non-overlapping binary space partition.

The third structure in the paper's reference [2] comparison is the buddy
tree (Seeger & Kriegel, VLDB '90): a dynamic structure whose directory
rectangles are drawn from a recursive *buddy* decomposition of space —
halving one axis at a time — so sibling regions never overlap (unlike the
R-tree) and the directory adapts to the data (unlike a plain grid).

This module implements the static, bulk-loaded core of that design point
for the index comparison:

* space is split recursively into **buddy halves** (alternating axis,
  midpoint cuts — every region is reachable by halving, the buddy-system
  invariant);
* a node splits while it holds more than ``page_capacity`` segments *and*
  splitting actually separates them;
* a segment lives in the **smallest buddy region that fully contains it**
  (the MX-CIF discipline): spanning segments sit at interior nodes, so
  nothing is replicated (the quadtree's cost) and nothing overlaps (the
  R-tree's cost) — the buddy tree's characteristic trade: queries must
  inspect the spanning lists of every node on their search path.

This is a faithful *static* rendition of the buddy design point rather
than the full dynamic insertion algorithm (the paper's datasets are static
and bulk-loaded, like its packed R-tree).  Queries are instrumented with
the same :class:`~repro.sim.trace.OpCounter` events as the other indexes.
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

__all__ = ["BuddyTree", "DEFAULT_PAGE_CAPACITY"]

#: Segments per page before a region splits.
DEFAULT_PAGE_CAPACITY = 16
#: Maximum halvings (region side = extent / 2^(depth/2)).
_MAX_DEPTH = 32


class _Node:
    """One buddy region: spanning segments plus optional two halves."""

    __slots__ = ("node_id", "rect", "depth", "seg_ids", "low", "high")

    def __init__(self, node_id: int, rect: MBR, depth: int) -> None:
        self.node_id = node_id
        self.rect = rect
        self.depth = depth
        self.seg_ids: List[int] = []
        self.low: Optional["_Node"] = None
        self.high: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.low is None


class BuddyTree:
    """A bulk-loaded buddy-style index over a :class:`SegmentDataset`."""

    def __init__(
        self,
        dataset: "SegmentDataset",
        page_capacity: int = DEFAULT_PAGE_CAPACITY,
        costs: CostModel = DEFAULT_COSTS,
    ) -> None:
        if page_capacity < 1:
            raise ValueError(f"page_capacity must be >= 1, got {page_capacity}")
        self.dataset = dataset
        self.page_capacity = page_capacity
        self.costs = costs
        self._next_id = 0
        ext = dataset.extent
        side = max(ext.width, ext.height)
        root_rect = MBR(ext.xmin, ext.ymin, ext.xmin + side, ext.ymin + side)
        self.root = self._build(root_rect, list(range(dataset.size)), 0)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _halves(self, rect: MBR, depth: int) -> tuple[MBR, MBR]:
        """The two buddy halves (alternate the split axis by depth)."""
        cx, cy = rect.center()
        if depth % 2 == 0:
            return (
                MBR(rect.xmin, rect.ymin, cx, rect.ymax),
                MBR(cx, rect.ymin, rect.xmax, rect.ymax),
            )
        return (
            MBR(rect.xmin, rect.ymin, rect.xmax, cy),
            MBR(rect.xmin, cy, rect.xmax, rect.ymax),
        )

    def _build(self, rect: MBR, seg_ids: List[int], depth: int) -> _Node:
        node = _Node(self._next_id, rect, depth)
        self._next_id += 1
        if len(seg_ids) <= self.page_capacity or depth >= _MAX_DEPTH:
            node.seg_ids = seg_ids
            return node
        lo_rect, hi_rect = self._halves(rect, depth)
        ds = self.dataset
        spanning: List[int] = []
        lo_ids: List[int] = []
        hi_ids: List[int] = []
        for seg_id in seg_ids:
            mbr = ds.segment_mbr(seg_id)
            if lo_rect.contains(mbr):
                lo_ids.append(seg_id)
            elif hi_rect.contains(mbr):
                hi_ids.append(seg_id)
            else:
                spanning.append(seg_id)  # crosses the cut: stays here
        if not lo_ids and not hi_ids:
            # Splitting separates nothing: keep the page whole.
            node.seg_ids = seg_ids
            return node
        node.seg_ids = spanning
        node.low = self._build(lo_rect, lo_ids, depth + 1)
        node.high = self._build(hi_rect, hi_ids, depth + 1)
        return node

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        """Total buddy regions allocated."""
        return self._next_id

    def depth(self) -> int:
        """Maximum node depth."""
        best = 0
        stack = [self.root]
        while stack:
            n = stack.pop()
            best = max(best, n.depth)
            if not n.is_leaf:
                stack.extend((n.low, n.high))
        return best

    def index_bytes(self) -> int:
        """Stored size: headers plus one entry per segment (no replication)."""
        return (
            self.node_count * self.costs.index_node_header_bytes
            + self.dataset.size * self.costs.index_entry_bytes
        )

    def _node_bytes(self, node: _Node) -> int:
        n = len(node.seg_ids) + (0 if node.is_leaf else 2)
        return self.costs.index_node_header_bytes + n * self.costs.index_entry_bytes

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def range_filter(
        self, rect: MBR, counter: Optional[OpCounter] = None
    ) -> np.ndarray:
        """Candidate ids whose MBR intersects the window (a point query's
        window is its degenerate MBR)."""
        counter = counter if counter is not None else OpCounter(record_trace=False)
        out: List[int] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            counter.visit_node(node.node_id, self._node_bytes(node))
            counter.mbr_tests += len(node.seg_ids)
            for seg_id in node.seg_ids:
                if self.dataset.segment_mbr(seg_id).intersects(rect):
                    counter.entries_scanned += 1
                    out.append(seg_id)
            if not node.is_leaf:
                counter.mbr_tests += 2
                if node.low.rect.intersects(rect):
                    stack.append(node.low)
                if node.high.rect.intersects(rect):
                    stack.append(node.high)
        return np.asarray(sorted(out), dtype=np.int64)

    def nearest_neighbors(
        self,
        px: float,
        py: float,
        k: int = 1,
        counter: Optional[OpCounter] = None,
    ) -> np.ndarray:
        """Ids of the ``k`` nearest segments, nearest first.

        Best-first over buddy regions by MINDIST; a node's spanning
        segments are evaluated when the node is popped (their distance can
        be anything within the node's region, so the node's MINDIST is the
        valid lower bound for them too).
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        counter = counter if counter is not None else OpCounter(record_trace=False)
        ds = self.dataset
        best: List[tuple] = []

        def kth() -> float:
            return -best[0][0] if len(best) >= k else math.inf

        tiebreak = 0
        heap: List[tuple] = [(0.0, tiebreak, self.root)]
        counter.heap_ops += 1
        while heap:
            dist_sq, _, node = heapq.heappop(heap)
            counter.heap_ops += 1
            if dist_sq > kth():
                break
            counter.visit_node(node.node_id, self._node_bytes(node))
            for seg_id in node.seg_ids:
                # Spanning lists can be long (the structure's weak spot);
                # prune each entry by its own MBR's MINDIST before paying
                # for an exact distance.
                counter.mbr_tests += 1
                mbr = ds.segment_mbr(seg_id)
                if mbr.mindist_sq(px, py) > kth():
                    continue
                counter.refine_candidate(seg_id, self.costs.segment_record_bytes)
                counter.distance_evals += 1
                d = geometry.point_segment_distance_sq(px, py, *ds.segment(seg_id))
                if d < kth():
                    heapq.heappush(best, (-d, seg_id))
                    if len(best) > k:
                        heapq.heappop(best)
                    counter.heap_ops += 1
            if not node.is_leaf:
                counter.mbr_tests += 2
                for child in (node.low, node.high):
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
