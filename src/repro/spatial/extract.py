"""Budgeted subtree extraction — the server side of "fully at the client"
under insufficient client memory (paper Figure 2).

When the client cannot hold the whole dataset, it sends the server a query
*plus its memory availability*.  The server traverses its master packed
R-tree once, picking (a) the data items and nodes that satisfy the predicate
and (b) proximate items "on either side" of the predicate path, until the
shipment (data records + a fresh packed index over them) fills the client's
budget.  The client answers the current query — and, with luck, spatially
proximate future queries — entirely from this shipment.

Because the tree is Hilbert-packed, "on either side of the predicate path"
has a crisp meaning: the packed entry order *is* the Hilbert order, so the
entries adjacent to the candidate run are exactly the spatially proximate
ones.  Extraction therefore reduces to choosing a contiguous entry range
``[lo, hi)`` that covers every candidate and is grown symmetrically to the
byte budget.  The packed-tree size recurrence
(:meth:`~repro.spatial.rtree.PackedRTree.estimated_index_bytes_for_entries`)
prices the shipped index without building it, so sizing needs no second pass
— matching the paper's "in just one pass down the index structure, since the
packed R-tree can give reasonable estimates of how many data items and index
nodes are present within a given subtree".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.sim.trace import OpCounter
from repro.spatial.batchtraverse import batch_filter
from repro.spatial.rtree import PackedRTree

__all__ = [
    "Extraction",
    "extract_range",
    "max_entries_within_budget",
    "coverage_rect",
]


@dataclass(frozen=True)
class Extraction:
    """Result of a budgeted extraction.

    ``fits`` is False when even the bare candidate set exceeds the client's
    budget, in which case nothing is shipped and the caller must execute the
    query at the server instead.
    """

    #: Global segment ids shipped to the client (packed/Hilbert order).
    global_ids: np.ndarray
    #: Entry-range bounds in the master tree's packed order.
    entry_lo: int
    entry_hi: int
    #: Byte accounting of the shipment.
    data_bytes: int
    index_bytes: int
    #: Whether the shipment fits the budget (see class docstring).
    fits: bool

    @property
    def total_bytes(self) -> int:
        """Data plus index bytes on the wire / in client memory."""
        return self.data_bytes + self.index_bytes

    @property
    def n_entries(self) -> int:
        """Number of shipped segments."""
        return int(self.entry_hi - self.entry_lo)


def max_entries_within_budget(tree: PackedRTree, budget_bytes: int) -> int:
    """Largest entry count whose data + packed index fit ``budget_bytes``.

    Monotone in the entry count, so a binary search over ``[0, N]`` suffices.
    """
    if budget_bytes <= 0:
        return 0

    def total(n: int) -> int:
        return n * tree.costs.segment_record_bytes + (
            tree.estimated_index_bytes_for_entries(n)
        )

    lo, hi = 0, len(tree.entry_ids)
    if total(hi) <= budget_bytes:
        return hi
    # Invariant: total(lo) <= budget < total(hi).
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if total(mid) <= budget_bytes:
            lo = mid
        else:
            hi = mid
    return lo


def _anchor_position(tree: PackedRTree, px: float, py: float) -> int:
    """Packed-order position nearest to ``(px, py)``.

    Used when a query produced no candidates (an empty window): extraction
    still ships the region *around* the query so proximate follow-up queries
    can hit.  A greedy MINDIST descent from the root lands on the closest
    leaf; its first entry position is the anchor.
    """
    node = tree.root
    while tree.node_level[node] != 0:
        s = int(tree.node_child_start[node])
        c = int(tree.node_child_count[node])
        sl = slice(s, s + c)
        dx = np.maximum(
            np.maximum(tree.node_xmin[sl] - px, px - tree.node_xmax[sl]), 0.0
        )
        dy = np.maximum(
            np.maximum(tree.node_ymin[sl] - py, py - tree.node_ymax[sl]), 0.0
        )
        node = s + int(np.argmin(dx * dx + dy * dy))
    return int(tree.node_child_start[node])


def extract_range(
    tree: PackedRTree,
    candidates: np.ndarray,
    anchor_x: float,
    anchor_y: float,
    budget_bytes: int,
    counter: Optional[OpCounter] = None,
) -> Extraction:
    """Choose the entry range to ship for a query with the given candidates.

    Parameters
    ----------
    tree:
        The server's master packed R-tree.
    candidates:
        Global segment ids produced by filtering the query on the master
        index (may be empty).
    anchor_x, anchor_y:
        The query's focus point (window center / query point); anchors the
        shipment when ``candidates`` is empty.
    budget_bytes:
        The client's stated memory availability.
    counter:
        Server-side :class:`OpCounter`; the extraction's own work — scanning
        the shipped entries into the outgoing message and emitting the fresh
        index nodes — is tallied here (the ``w2`` extra work of the paper).
    """
    counter = counter if counter is not None else OpCounter(record_trace=False)
    n_total = len(tree.entry_ids)
    max_n = max_entries_within_budget(tree, budget_bytes)

    if len(candidates) > 0:
        pos = tree.entry_positions_for_ids(np.asarray(candidates, dtype=np.int64))
        lo = int(pos.min())
        hi = int(pos.max()) + 1
    else:
        a = _anchor_position(tree, anchor_x, anchor_y)
        lo, hi = a, a  # empty; expansion below grows around the anchor

    needed = hi - lo
    if needed > max_n:
        # The client cannot hold even the candidate run: nothing is shipped.
        return Extraction(
            global_ids=np.empty(0, dtype=np.int64),
            entry_lo=lo,
            entry_hi=lo,
            data_bytes=0,
            index_bytes=0,
            fits=False,
        )

    # Grow symmetrically to the budget, clamping at the dataset's ends and
    # reclaiming unused slack from a clamped side.
    extra = max_n - needed
    grow_lo = extra // 2
    new_lo = lo - grow_lo
    if new_lo < 0:
        new_lo = 0
    new_hi = new_lo + max_n
    if new_hi > n_total:
        new_hi = n_total
        new_lo = max(0, new_hi - max_n)
    lo, hi = new_lo, new_hi

    n_ship = hi - lo
    ids = tree.entry_ids[lo:hi].copy()
    data_bytes = n_ship * tree.costs.segment_record_bytes
    index_bytes = tree.estimated_index_bytes_for_entries(n_ship)

    # Server work: copy each shipped entry into the outgoing message and emit
    # the fresh index bottom-up (node visits approximate the emission cost).
    counter.entries_scanned += n_ship
    if n_ship > 0:
        emitted_nodes = 0
        count = n_ship
        while True:
            nodes = math.ceil(count / tree.node_capacity)
            emitted_nodes += nodes
            if nodes == 1:
                break
            count = nodes
        counter.nodes_visited += emitted_nodes
        counter.mbr_tests += n_ship  # MBR recomputation during packing

    return Extraction(
        global_ids=ids,
        entry_lo=lo,
        entry_hi=hi,
        data_bytes=data_bytes,
        index_bytes=index_bytes,
        fits=True,
    )


def coverage_rect(
    tree: PackedRTree,
    anchor: "MBR",
    entry_lo: int,
    entry_hi: int,
    probe=None,
) -> "MBR":
    """Largest anchor-centered rectangle fully covered by an entry range.

    "Covered" means every master segment whose MBR intersects the rectangle
    lies inside the shipped packed-order range ``[entry_lo, entry_hi)`` —
    the guarantee that makes client-local answers provably equal to master
    answers (used by both the insufficient-memory cache and the broadcast
    hot-region construction).  Found by doubling then binary search over
    window filters of the master tree; ``probe``, when given, is called once
    per filter so the caller can charge the work to the server's counter.
    """
    from repro.spatial.mbr import MBR

    ext = tree.dataset.extent

    def covered(rect: MBR) -> bool:
        if probe is not None:
            probe()
        pos = batch_filter(
            tree, [rect.xmin], [rect.ymin], [rect.xmax], [rect.ymax]
        ).cand_positions
        return bool((pos >= entry_lo).all() and (pos < entry_hi).all())

    cx, cy = anchor.center()

    def rect_at(scale: float) -> MBR:
        w = max(anchor.width, 1e-9) * scale / 2.0
        h = max(anchor.height, 1e-9) * scale / 2.0
        return MBR(
            max(ext.xmin, cx - w),
            max(ext.ymin, cy - h),
            min(ext.xmax, cx + w),
            min(ext.ymax, cy + h),
        )

    if not covered(rect_at(1.0)):
        # A degenerate anchor (e.g. an empty window) may sit over data that
        # was not shipped; the guarantee collapses to the anchor point.
        return MBR.from_point(cx, cy)
    lo_s, hi_s = 1.0, 2.0
    while covered(rect_at(hi_s)):
        lo_s = hi_s
        hi_s *= 2.0
        if hi_s > 1e6:  # the whole extent is covered
            return rect_at(lo_s)
    for _ in range(20):
        mid = (lo_s + hi_s) / 2.0
        if covered(rect_at(mid)):
            lo_s = mid
        else:
            hi_s = mid
    return rect_at(lo_s)
