"""Hilbert-packed R-tree over line segments (Kamel & Faloutsos, CIKM '93).

The paper's index structure: the (static, known a priori) segment dataset is
sorted by the Hilbert value of each segment's MBR center, then the tree is
bulk-loaded bottom-up, level by level — consecutive runs of ``node_capacity``
sorted items form a leaf, consecutive runs of leaves form the next level, and
so on up to a single root.  Packing produces full nodes (except the last of
each level) and, thanks to Hilbert locality, tight low-overlap MBRs.

Implementation notes
---------------------
The tree is stored as a structure of NumPy arrays rather than linked node
objects: children of every node occupy a contiguous index range, so a node is
just ``(level, child_start, child_count)`` plus its MBR held in four parallel
coordinate arrays.  This layout

* makes the per-node child MBR tests vectorizable (a slice compare instead of
  a Python loop — the bulk-load and filtering hot paths per the HPC guides),
* gives every node a stable integer id, which the :class:`~repro.sim.trace.
  OpCounter` trace and the D-cache simulator use to form synthetic addresses,
* makes subtree statistics (``entries_in_subtree``) O(1) to precompute, which
  the one-pass extraction algorithm of the insufficient-memory scenario needs
  to estimate shipment sizes without a second traversal (paper section 4).

Queries are *filtering only* here: :meth:`PackedRTree.range_filter` returns
the candidate segment ids whose MBRs meet a window, and a point query
filters as the window of its degenerate MBR (the four closed comparisons of
``MBR.contains_point``).  Exact refinement lives in the query engine
(:mod:`repro.core.engine`), because where refinement runs — client or server —
is precisely what the paper partitions.  The nearest-neighbor search is the
exception: following the paper (and Roussopoulos et al.), it has no separate
phases and returns the exact nearest segment directly.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.constants import CostModel
from repro.sim.trace import OpCounter

if TYPE_CHECKING:  # circular at runtime: data.model uses spatial.mbr
    from repro.data.model import SegmentDataset
from repro.spatial import geometry, vecgeom
from repro.spatial.hilbert import DEFAULT_ORDER, hilbert_sort_keys
from repro.spatial.mbr import MBR

__all__ = ["PackedRTree", "DEFAULT_NODE_CAPACITY"]

#: Default fanout.  With 20-byte entries and an 8-byte header this makes a
#: node ~508 bytes; on the PA dataset the resulting index is ~3 MB, matching
#: the paper's reported 3.56 MB index to first order.
DEFAULT_NODE_CAPACITY = 25


@dataclass
class PackedRTree:
    """A bulk-loaded packed R-tree bound to a :class:`SegmentDataset`.

    Use :meth:`build` to construct; the raw ``__init__`` exists for internal
    use and tests.  All node arrays are aligned: index ``i`` describes node
    ``i``; leaves come first, the root is the last node.
    """

    dataset: SegmentDataset
    node_capacity: int
    #: Hilbert-sorted permutation of segment ids (the packed leaf entries).
    entry_ids: np.ndarray
    #: Per-node MBR coordinate columns.
    node_xmin: np.ndarray
    node_ymin: np.ndarray
    node_xmax: np.ndarray
    node_ymax: np.ndarray
    #: Tree level of each node (0 = leaf).
    node_level: np.ndarray
    #: First child index: for leaves an offset into ``entry_ids``; for
    #: internal nodes an offset into the node arrays.
    node_child_start: np.ndarray
    #: Number of children (entries for leaves, child nodes otherwise).
    node_child_count: np.ndarray
    #: Leaf entries contained in each node's subtree (for extraction sizing).
    entries_in_subtree: np.ndarray
    #: Nodes contained in each node's subtree, self included.
    nodes_in_subtree: np.ndarray
    #: Per-segment MBRs in *entry order* (aligned with ``entry_ids``);
    #: precomputed so leaf scans are vectorized slices.
    entry_xmin: np.ndarray
    entry_ymin: np.ndarray
    entry_xmax: np.ndarray
    entry_ymax: np.ndarray
    costs: CostModel

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        dataset: SegmentDataset,
        node_capacity: int = DEFAULT_NODE_CAPACITY,
        hilbert_order: int = DEFAULT_ORDER,
        sort: bool = True,
    ) -> "PackedRTree":
        """Bulk-load a packed R-tree over ``dataset``.

        Parameters
        ----------
        node_capacity:
            Maximum entries per node (>= 2).
        hilbert_order:
            Hilbert-curve order used for the sort keys.
        sort:
            When False, skip the Hilbert sort and pack segments in dataset
            order — the strawman the packing ablation bench compares against.
        """
        if node_capacity < 2:
            raise ValueError(f"node_capacity must be >= 2, got {node_capacity}")
        n = dataset.size
        if sort:
            cx, cy = dataset.centers()
            keys = hilbert_sort_keys(cx, cy, dataset.extent, order=hilbert_order)
            entry_ids = np.argsort(keys, kind="stable").astype(np.int64)
        else:
            entry_ids = np.arange(n, dtype=np.int64)

        # Per-entry MBRs in entry order.
        ex1 = dataset.x1[entry_ids]
        ey1 = dataset.y1[entry_ids]
        ex2 = dataset.x2[entry_ids]
        ey2 = dataset.y2[entry_ids]
        entry_xmin = np.minimum(ex1, ex2)
        entry_xmax = np.maximum(ex1, ex2)
        entry_ymin = np.minimum(ey1, ey2)
        entry_ymax = np.maximum(ey1, ey2)

        # --- Level 0: leaves over consecutive entry runs -----------------
        cap = node_capacity
        xmin_parts: List[np.ndarray] = []
        ymin_parts: List[np.ndarray] = []
        xmax_parts: List[np.ndarray] = []
        ymax_parts: List[np.ndarray] = []
        level_parts: List[np.ndarray] = []
        start_parts: List[np.ndarray] = []
        count_parts: List[np.ndarray] = []
        entries_parts: List[np.ndarray] = []

        def grouped_reduce(arr: np.ndarray, op, count: int) -> np.ndarray:
            """Reduce ``arr`` in runs of ``cap`` (vectorized via reduceat)."""
            starts = np.arange(0, count, cap)
            return op.reduceat(arr, starts)

        n_leaves = math.ceil(n / cap)
        leaf_starts = np.arange(0, n, cap, dtype=np.int64)
        leaf_counts = np.minimum(cap, n - leaf_starts).astype(np.int64)
        xmin_parts.append(grouped_reduce(entry_xmin, np.minimum, n))
        ymin_parts.append(grouped_reduce(entry_ymin, np.minimum, n))
        xmax_parts.append(grouped_reduce(entry_xmax, np.maximum, n))
        ymax_parts.append(grouped_reduce(entry_ymax, np.maximum, n))
        level_parts.append(np.zeros(n_leaves, dtype=np.int32))
        start_parts.append(leaf_starts)
        count_parts.append(leaf_counts)
        entries_parts.append(leaf_counts.astype(np.int64))

        # --- Upper levels: pack the previous level's nodes ---------------
        level = 0
        prev_offset = 0  # node-id offset of the previous level
        prev_count = n_leaves
        prev_xmin = xmin_parts[-1]
        prev_ymin = ymin_parts[-1]
        prev_xmax = xmax_parts[-1]
        prev_ymax = ymax_parts[-1]
        prev_entries = entries_parts[-1]
        while prev_count > 1:
            level += 1
            m = math.ceil(prev_count / cap)
            starts = np.arange(0, prev_count, cap, dtype=np.int64)
            counts = np.minimum(cap, prev_count - starts).astype(np.int64)
            xmin = np.minimum.reduceat(prev_xmin, starts)
            ymin = np.minimum.reduceat(prev_ymin, starts)
            xmax = np.maximum.reduceat(prev_xmax, starts)
            ymax = np.maximum.reduceat(prev_ymax, starts)
            entries = np.add.reduceat(prev_entries, starts)
            xmin_parts.append(xmin)
            ymin_parts.append(ymin)
            xmax_parts.append(xmax)
            ymax_parts.append(ymax)
            level_parts.append(np.full(m, level, dtype=np.int32))
            start_parts.append(starts + prev_offset)
            count_parts.append(counts)
            entries_parts.append(entries)
            prev_offset += prev_count
            prev_count = m
            prev_xmin, prev_ymin, prev_xmax, prev_ymax = xmin, ymin, xmax, ymax
            prev_entries = entries

        node_xmin = np.concatenate(xmin_parts)
        node_ymin = np.concatenate(ymin_parts)
        node_xmax = np.concatenate(xmax_parts)
        node_ymax = np.concatenate(ymax_parts)
        node_level = np.concatenate(level_parts)
        node_child_start = np.concatenate(start_parts)
        node_child_count = np.concatenate(count_parts)
        entries_in_subtree = np.concatenate(entries_parts)

        # Nodes-in-subtree: leaves are 1; each internal node is 1 + sum of
        # its children's values.  Children precede parents in the layout, so
        # one forward pass suffices.
        total_nodes = len(node_level)
        nodes_in_subtree = np.ones(total_nodes, dtype=np.int64)
        for i in range(n_leaves, total_nodes):
            s = node_child_start[i]
            c = node_child_count[i]
            nodes_in_subtree[i] = 1 + int(nodes_in_subtree[s : s + c].sum())

        return cls(
            dataset=dataset,
            node_capacity=cap,
            entry_ids=entry_ids,
            node_xmin=node_xmin,
            node_ymin=node_ymin,
            node_xmax=node_xmax,
            node_ymax=node_ymax,
            node_level=node_level,
            node_child_start=node_child_start,
            node_child_count=node_child_count,
            entries_in_subtree=entries_in_subtree,
            nodes_in_subtree=nodes_in_subtree,
            entry_xmin=entry_xmin,
            entry_ymin=entry_ymin,
            entry_xmax=entry_xmax,
            entry_ymax=entry_ymax,
            costs=dataset.costs,
        )

    # ------------------------------------------------------------------
    # Structure accessors
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        """Total number of nodes."""
        return len(self.node_level)

    @property
    def root(self) -> int:
        """Node id of the root (always the last node)."""
        return self.node_count - 1

    @property
    def height(self) -> int:
        """Number of levels (1 for a single-leaf tree)."""
        return int(self.node_level[self.root]) + 1

    def node_mbr(self, node: int) -> MBR:
        """The MBR of node ``node``."""
        return MBR(
            float(self.node_xmin[node]),
            float(self.node_ymin[node]),
            float(self.node_xmax[node]),
            float(self.node_ymax[node]),
        )

    def is_leaf(self, node: int) -> bool:
        """True when ``node`` is a leaf."""
        return self.node_level[node] == 0

    def node_bytes(self, node: int) -> int:
        """Stored size of one node (header + occupied entries)."""
        return (
            self.costs.index_node_header_bytes
            + int(self.node_child_count[node]) * self.costs.index_entry_bytes
        )

    def index_bytes(self) -> int:
        """Total stored size of the index."""
        return (
            self.node_count * self.costs.index_node_header_bytes
            + int(self.node_child_count.sum()) * self.costs.index_entry_bytes
        )

    def node_bytes_array(self) -> np.ndarray:
        """Per-node stored sizes, :meth:`node_bytes` vectorized (cached)."""
        sizes = getattr(self, "_node_bytes_array", None)
        if sizes is None:
            sizes = (
                self.costs.index_node_header_bytes
                + self.node_child_count.astype(np.int64) * self.costs.index_entry_bytes
            )
            self._node_bytes_array = sizes
        return sizes

    # ------------------------------------------------------------------
    # Filtering queries
    # ------------------------------------------------------------------
    def range_filter(
        self, rect: MBR, counter: Optional[OpCounter] = None
    ) -> np.ndarray:
        """Candidate ids for a window query: segments whose MBR meets ``rect``.

        A point query's candidates are those of its degenerate window
        ``MBR.from_point(x, y)``: the segments whose MBR contains the point.
        Depth-first traversal from the root, exactly as the paper describes;
        every visited node, MBR test and scanned entry is tallied in
        ``counter`` when one is supplied.
        """
        counter = counter if counter is not None else OpCounter(record_trace=False)
        out: List[np.ndarray] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            counter.visit_node(node, self.node_bytes(node))
            s = int(self.node_child_start[node])
            c = int(self.node_child_count[node])
            counter.mbr_tests += c
            if self.node_level[node] == 0:
                sl = slice(s, s + c)
                hit = (
                    (self.entry_xmin[sl] <= rect.xmax)
                    & (self.entry_xmax[sl] >= rect.xmin)
                    & (self.entry_ymin[sl] <= rect.ymax)
                    & (self.entry_ymax[sl] >= rect.ymin)
                )
                matched = self.entry_ids[sl][hit]
                counter.entries_scanned += int(hit.sum())
                if matched.size:
                    out.append(matched)
            else:
                sl = slice(s, s + c)
                hit = (
                    (self.node_xmin[sl] <= rect.xmax)
                    & (self.node_xmax[sl] >= rect.xmin)
                    & (self.node_ymin[sl] <= rect.ymax)
                    & (self.node_ymax[sl] >= rect.ymin)
                )
                # Push in reverse so traversal order matches a recursive DFS.
                children = np.nonzero(hit)[0] + s
                stack.extend(int(ch) for ch in children[::-1])
        if not out:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(out)

    # ------------------------------------------------------------------
    # Nearest-neighbor query (no separate filter/refine phases)
    # ------------------------------------------------------------------
    def nearest_neighbor(
        self, px: float, py: float, counter: Optional[OpCounter] = None
    ) -> int:
        """Id of the segment nearest to ``(px, py)``.

        Branch-and-bound best-first search (Roussopoulos et al. [24], the
        strategy the paper adopts): a priority queue ordered by MINDIST holds
        both nodes and data entries; a node whose MINDIST exceeds the best
        exact distance found so far is pruned without being visited.  Exact
        point-to-segment distances are evaluated only for leaf entries, and
        tallied as ``distance_evals`` (this is the query's refinement-like
        work, inseparable from its traversal).
        """
        out = self.nearest_neighbors(px, py, 1, counter)
        return int(out[0]) if len(out) else -1

    def nearest_neighbors(
        self,
        px: float,
        py: float,
        k: int = 1,
        counter: Optional[OpCounter] = None,
    ) -> np.ndarray:
        """Ids of the ``k`` segments nearest to ``(px, py)``, nearest first.

        The k-NN generalization of the branch-and-bound search (one of the
        'other spatial queries' the paper's future work names): pruning uses
        the k-th best exact distance found so far, so the search degrades
        gracefully from the paper's k=1 case.  Returns fewer than ``k`` ids
        only when the dataset is smaller than ``k``.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        counter = counter if counter is not None else OpCounter(record_trace=False)
        ds = self.dataset
        # Max-heap (negated distances) of the k best exact hits so far.
        best: List[tuple] = []  # (-dist_sq, seg_id)

        def kth_dist_sq() -> float:
            return -best[0][0] if len(best) >= k else math.inf
        # Heap items: (mindist_sq, tiebreak, is_entry, id)
        tiebreak = 0
        heap: List[tuple] = [(0.0, tiebreak, False, self.root)]
        counter.heap_ops += 1
        while heap:
            dist_sq, _, is_entry, ident = heapq.heappop(heap)
            counter.heap_ops += 1
            if dist_sq > kth_dist_sq():
                # Everything remaining is at least this far: done.
                break
            if is_entry:
                seg_id = ident
                counter.refine_candidate(seg_id, self.costs.segment_record_bytes)
                counter.distance_evals += 1
                d = geometry.point_segment_distance_sq(px, py, *ds.segment(seg_id))
                if d < kth_dist_sq():
                    heapq.heappush(best, (-d, seg_id))
                    if len(best) > k:
                        heapq.heappop(best)
                    counter.heap_ops += 1
                continue
            node = ident
            counter.visit_node(node, self.node_bytes(node))
            s = int(self.node_child_start[node])
            c = int(self.node_child_count[node])
            counter.mbr_tests += c
            sl = slice(s, s + c)
            if self.node_level[node] == 0:
                mind = vecgeom.mbr_mindist_sq(
                    px, py,
                    self.entry_xmin[sl], self.entry_ymin[sl],
                    self.entry_xmax[sl], self.entry_ymax[sl],
                )
                for off in np.argsort(mind, kind="stable"):
                    md = float(mind[off])
                    if md > kth_dist_sq():
                        break
                    tiebreak += 1
                    heapq.heappush(
                        heap, (md, tiebreak, True, int(self.entry_ids[s + off]))
                    )
                    counter.heap_ops += 1
            else:
                mind = vecgeom.mbr_mindist_sq(
                    px, py,
                    self.node_xmin[sl], self.node_ymin[sl],
                    self.node_xmax[sl], self.node_ymax[sl],
                )
                for off in range(c):
                    md = float(mind[off])
                    if md > kth_dist_sq():
                        continue
                    tiebreak += 1
                    heapq.heappush(heap, (md, tiebreak, False, s + off))
                    counter.heap_ops += 1
        ordered = sorted(best, key=lambda t: (-t[0], t[1]))
        counter.results_produced += len(ordered)
        return np.asarray([seg_id for _, seg_id in ordered], dtype=np.int64)

    # ------------------------------------------------------------------
    # Entry-range helpers (used by the extraction algorithm)
    # ------------------------------------------------------------------
    def entry_positions_for_ids(self, ids: np.ndarray) -> np.ndarray:
        """Positions in the packed entry order of the given segment ids."""
        # entry_ids is a permutation: invert it once, lazily.
        inv = getattr(self, "_inverse_perm", None)
        if inv is None:
            inv = np.empty(len(self.entry_ids), dtype=np.int64)
            inv[self.entry_ids] = np.arange(len(self.entry_ids), dtype=np.int64)
            self._inverse_perm = inv
        return inv[np.asarray(ids, dtype=np.int64)]

    def estimated_index_bytes_for_entries(self, n_entries: int) -> int:
        """Size of a packed index over ``n_entries`` (extraction budgeting).

        Uses the packed-tree recurrence exactly (full nodes except the last
        per level), so the estimate equals the true size of the index the
        server would actually build and ship — property-tested against a
        real build.
        """
        if n_entries <= 0:
            return 0
        total_entries = 0
        total_nodes = 0
        count = n_entries
        while True:
            nodes = math.ceil(count / self.node_capacity)
            total_entries += count
            total_nodes += nodes
            if nodes == 1:
                break
            count = nodes
        return (
            total_nodes * self.costs.index_node_header_bytes
            + total_entries * self.costs.index_entry_bytes
        )
