"""Batched best-first NN/k-NN search over the packed R-tree.

:meth:`repro.spatial.rtree.PackedRTree.nearest_neighbors` runs Roussopoulos
branch-and-bound one heap expansion at a time — a Python loop per query that
dominates planning time on NN workloads.  :func:`batch_nearest` runs the
*same* search for a whole batch of queries together, round-synchronized:

* each round, every still-active query drains its priority queue in exact
  scalar pop order (entries are refined inline against precomputed exact
  distances) until it pops an index node;
* the popped nodes of all queries are then expanded at once — child MINDIST
  lower bounds (:func:`repro.spatial.vecgeom.mbr_mindist_sq`) and, for leaf
  children, exact point-to-segment distances
  (:func:`repro.spatial.vecgeom.point_segment_distance_sq`) are computed in
  a handful of NumPy calls over the concatenated child sets;
* children surviving each query's best-so-far bound become sorted *runs*.

The per-query priority queue never stores individual pushes: the scalar heap
pops items in ``(mindist, tiebreak)`` order, and within one expanded node the
pushed children are already sorted that way (internal nodes push in slice
order, leaves in stable-argsort order — tiebreaks are assigned in push
order).  So each node contributes one sorted run, and a tiny k-way-merge
heap over run heads reproduces the scalar pop sequence exactly — ``O(pops)``
heap traffic instead of ``O(pushes)``, with push costs tallied
arithmetically.

The replay contract (what :mod:`repro.core.batchplan` prices) is bit-for-bit
equality with the scalar search per query: answer ids in the same order, the
op tallies (``nodes_visited``, ``mbr_tests``, ``candidates_refined``,
``distance_evals``, ``heap_ops``, ``results_produced``), and the ordered
visit/refine log — every index-node touch and candidate-segment fetch in
exact scalar order, which is what the cache replay consumes.  The
differential suite enforces this on paper workloads and hypothesis-random
batches, including distance ties (co-located segments) and k larger than the
dataset.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.spatial import vecgeom

__all__ = ["BatchNNResult", "batch_nearest"]


@dataclass
class BatchNNResult:
    """Per-query outputs of one batched NN/k-NN search.

    ``answer_ids[i]`` are query ``i``'s result ids, nearest first (scalar
    order, including the ``(distance, id)`` final sort).  The visit/refine
    log is ``(trace_is_entry[i], trace_ids[i])``: in pop order, ``True``
    rows are candidate-segment refinements (data-region touches), ``False``
    rows are index-node visits.  Count arrays are the scalar OpCounter
    tallies; ``distance_evals`` always equals ``candidates_refined`` for
    this query kind.
    """

    answer_ids: List[np.ndarray]
    trace_is_entry: List[np.ndarray]
    trace_ids: List[np.ndarray]
    nodes_visited: np.ndarray
    mbr_tests: np.ndarray
    candidates_refined: np.ndarray
    heap_ops: np.ndarray
    results_produced: np.ndarray
    # The per-query trace arrays above are views into these flat logs;
    # query ``i`` owns rows ``[log_ends[i-1], log_ends[i])``.  Consumers
    # that post-process the whole batch (the planner's phase builder) work
    # on the flat arrays directly instead of re-concatenating the views.
    flat_is_entry: np.ndarray = None  # type: ignore[assignment]
    flat_ids: np.ndarray = None  # type: ignore[assignment]
    log_ends: np.ndarray = None  # type: ignore[assignment]


class _SearchState:
    """One query's live search: runs, merge heap, best-k, and tallies."""

    __slots__ = (
        "px", "py", "k", "kth", "tb", "best", "rheap",
        "runs_md", "runs_tb", "runs_id", "runs_aux", "runs_entry", "runs_pos",
        "heap_ops", "nodes_visited", "mbr_tests", "refined",
        "log_entry", "log_id",
    )

    def __init__(self, px: float, py: float, k: int, root: int) -> None:
        self.px = px
        self.py = py
        self.k = k
        self.kth = math.inf
        self.tb = 0
        self.best: List[tuple] = []  # (-dist_sq, seg_id), max-heap of k best
        # The merge heap holds one (mindist, tiebreak, run_index) head per
        # non-exhausted run; the root starts as its own single-item run,
        # mirroring the scalar initial push (heap_ops = 1, tiebreak 0).
        self.rheap: List[tuple] = [(0.0, 0, 0)]
        self.runs_md: List[list] = [[0.0]]
        self.runs_tb: List[list] = [[0]]
        self.runs_id: List[list] = [[root]]
        self.runs_aux: List[Optional[list]] = [None]
        self.runs_entry: List[bool] = [False]
        self.runs_pos: List[int] = [0]
        self.heap_ops = 1
        self.nodes_visited = 0
        self.mbr_tests = 0
        self.refined = 0
        self.log_entry: List[bool] = []
        self.log_id: List[int] = []


def _drain(st: _SearchState) -> int:
    """Pop in scalar order until a node needs expansion; -1 when finished.

    Every processed pop and the terminating bound-crossing pop cost one
    ``heap_ops`` each, exactly as the scalar loop counts them; a naturally
    exhausted queue ends without an extra op (the scalar ``while heap``
    test).
    """
    rheap = st.rheap
    runs_md = st.runs_md
    runs_tb = st.runs_tb
    runs_id = st.runs_id
    runs_aux = st.runs_aux
    runs_entry = st.runs_entry
    runs_pos = st.runs_pos
    log_entry = st.log_entry
    log_id = st.log_id
    heappop = heapq.heappop
    heappush = heapq.heappush
    while rheap:
        md, tb, ri = rheap[0]
        if md > st.kth:
            # Everything remaining is at least this far: the scalar loop
            # pops this item, sees the bound crossed, and breaks.
            st.heap_ops += 1
            return -1
        st.heap_ops += 1
        pos = runs_pos[ri]
        mds = runs_md[ri]
        nxt = pos + 1
        if nxt < len(mds):
            # Advance the run in place: replacing the head is one sift
            # instead of a pop plus a push.
            runs_pos[ri] = nxt
            heapq.heapreplace(rheap, (mds[nxt], runs_tb[ri][nxt], ri))
        else:
            heappop(rheap)
        ident = runs_id[ri][pos]
        if runs_entry[ri]:
            log_entry.append(True)
            log_id.append(ident)
            st.refined += 1
            d = runs_aux[ri][pos]
            if d < st.kth:
                best = st.best
                heappush(best, (-d, ident))
                if len(best) > st.k:
                    heappop(best)
                st.heap_ops += 1
                if len(best) >= st.k:
                    st.kth = -best[0][0]
        else:
            log_entry.append(False)
            log_id.append(ident)
            st.nodes_visited += 1
            return ident
    return -1


_ARANGE = np.arange(0, dtype=np.int64)


def _arange_upto(n: int) -> np.ndarray:
    """A growing cached ``arange`` — callers slice views off the front.

    Each round needs several consecutive-integer arrays (row ids, child
    offsets, within-row ranks); reusing one buffer keeps those allocations
    out of the per-round overhead.
    """
    global _ARANGE
    if _ARANGE.size < n:
        _ARANGE = np.arange(max(n, 2 * _ARANGE.size), dtype=np.int64)
    return _ARANGE


class _MbrTable:
    """Node and leaf-entry MBR columns concatenated once per tree.

    One MINDIST kernel call then covers a round's mixed internal/leaf
    children: node ``i`` sits at combined index ``i``, entry ``j`` at
    ``n_nodes + j``.  Cached on the tree instance (packed trees are
    immutable after bulk load) and amortized over every search.
    """

    __slots__ = ("n_nodes", "xmin", "ymin", "xmax", "ymax")

    def __init__(self, tree) -> None:
        self.n_nodes = int(tree.node_xmin.size)
        self.xmin = np.concatenate([tree.node_xmin, tree.entry_xmin])
        self.ymin = np.concatenate([tree.node_ymin, tree.entry_ymin])
        self.xmax = np.concatenate([tree.node_xmax, tree.entry_xmax])
        self.ymax = np.concatenate([tree.node_ymax, tree.entry_ymax])

    @classmethod
    def for_tree(cls, tree) -> "_MbrTable":
        cached = getattr(tree, "_batchnn_mbrs", None)
        if (
            cached is None
            or cached.xmin.size != tree.node_xmin.size + tree.entry_xmin.size
        ):
            cached = cls(tree)
            tree._batchnn_mbrs = cached
        return cached


def _expand_round(
    tree, mbrs: _MbrTable, pend: List[_SearchState], nodes: List[int]
) -> None:
    """Expand one popped node per pending state with shared NumPy kernels.

    Each state contributes exactly one node (internal or leaf); children of
    all nodes are concatenated, bounded with MINDIST, pruned against each
    state's best-so-far, sorted per state by ``(mindist, slice offset)``,
    and attached as one run per state.

    Tie-break fidelity: the scalar loop pushes an *internal* node's
    surviving children in slice order (tiebreaks follow slice order, the
    run is that set sorted by ``(mindist, offset)``), but walks a *leaf*'s
    entries in stable-argsort MINDIST order and stops at the first past the
    bound (survivors are the same ``mindist <= kth`` set, tiebreaks follow
    the sorted order).  Both cases keep the same survivor set and sorted
    run; only the tiebreak numbering differs, chosen per state below.
    Exact segment distances for surviving leaf entries — what the scalar
    search evaluates one by one at entry-pop time — are computed here in
    one vectorized call and carried alongside the runs.
    """
    ds = tree.dataset
    m = len(pend)
    nodes_arr = np.asarray(nodes, dtype=np.int64)
    leaf = tree.node_level[nodes_arr] == 0
    n_int = m - int(np.count_nonzero(leaf))
    # Renumber states internal-first: rows stay sorted after pruning, so
    # kept internal children occupy a contiguous prefix and every
    # leaf-specific step below is a slice instead of a scatter.  Rounds
    # that are all-internal or all-leaf are already partitioned.
    if 0 < n_int < m and leaf[:n_int].any():
        reorder = np.argsort(leaf, kind="stable")
        nodes_arr = nodes_arr[reorder]
        pend = [pend[i] for i in reorder.tolist()]
        leaf = leaf[reorder]
    starts = tree.node_child_start[nodes_arr]
    counts = tree.node_child_count[nodes_arr]
    for st, c in zip(pend, counts.tolist()):
        st.mbr_tests += c
    total = int(counts.sum())
    if total == 0:
        return
    ends = np.cumsum(counts)
    base = starts - (ends - counts)
    if n_int < m:
        # Children indexed straight into the combined MBR table: internal
        # children keep their node index, leaf entries are offset by n_nodes.
        base[n_int:] += mbrs.n_nodes
    rows = np.repeat(_arange_upto(m)[:m], counts)
    idx = _arange_upto(total)[:total] + np.repeat(base, counts)
    qx = np.fromiter((st.px for st in pend), np.float64, count=m)
    qy = np.fromiter((st.py for st in pend), np.float64, count=m)
    kth = np.fromiter((st.kth for st in pend), np.float64, count=m)
    tb_base = np.fromiter((st.tb for st in pend), np.int64, count=m)

    md = vecgeom.mbr_mindist_sq(
        qx[rows], qy[rows],
        mbrs.xmin[idx], mbrs.ymin[idx], mbrs.xmax[idx], mbrs.ymax[idx],
    )

    keep = md <= kth[rows]
    rowk = rows[keep]
    mdk = md[keep]
    idxk = idx[keep]
    cnt = np.bincount(rowk, minlength=m)
    offs = np.cumsum(cnt) - cnt
    # Within one state idxk ascends with slice offset, so it is the exact
    # (mindist, offset) tie key.
    order = np.lexsort((idxk, mdk, rowk))
    rows_s = rowk[order]
    md_s = mdk[order]
    idx_s = idxk[order]
    # Kept internal children are rowk < n_int, a prefix of both the kept
    # and the sorted arrays (rowk and rows_s are nondecreasing).
    k_int = int(np.searchsorted(rowk, n_int))
    ar = _arange_upto(rowk.size)
    # Internal tiebreaks follow slice (push) order — rank before sorting,
    # then permute; the first k_int slots of ``order`` index that prefix.
    rank_pre = ar[:k_int] - offs[rowk[:k_int]]
    tb_int = (tb_base[rowk[:k_int]] + 1 + rank_pre)[order[:k_int]]
    # Leaf tiebreaks follow the sorted order.
    tb_leaf = (
        tb_base[rows_s[k_int:]]
        + 1
        + ar[k_int:rowk.size]
        - offs[rows_s[k_int:]]
    )

    aux_l: Optional[list] = None
    if k_int < rowk.size:
        seg = tree.entry_ids[idx_s[k_int:] - mbrs.n_nodes].astype(
            np.int64, copy=False
        )
        d = vecgeom.point_segment_distance_sq(
            qx[rows_s[k_int:]], qy[rows_s[k_int:]],
            ds.x1[seg], ds.y1[seg], ds.x2[seg], ds.y2[seg],
        )
        aux_l = d.tolist()
        id_l = idx_s[:k_int].tolist() + seg.tolist()
    else:
        id_l = idx_s.tolist()

    md_l = md_s.tolist()
    tb_l = tb_int.tolist() + tb_leaf.tolist()
    pos = 0
    for st, c, is_leaf in zip(pend, cnt.tolist(), leaf.tolist()):
        if c == 0:
            continue
        end = pos + c
        mds = md_l[pos:end]
        tbs = tb_l[pos:end]
        ri = len(st.runs_md)
        st.runs_md.append(mds)
        st.runs_tb.append(tbs)
        st.runs_id.append(id_l[pos:end])
        st.runs_aux.append(aux_l[pos - k_int:end - k_int] if is_leaf else None)
        st.runs_entry.append(is_leaf)
        st.runs_pos.append(0)
        heapq.heappush(st.rheap, (mds[0], tbs[0], ri))
        st.tb += c
        st.heap_ops += c
        pos = end


# Below this many still-active queries a synchronized round is mostly
# fixed NumPy-call overhead; the survivors finish one at a time instead.
_SCALAR_TAIL = 8


def _expand_one(tree, st: _SearchState, node: int) -> None:
    """Expand one node for one state — the single-query round.

    Used for the tail of a batch (the few deepest searches), where a
    synchronized round's fixed cost outweighs its sharing.  Matches the
    scalar expansion exactly: same MINDIST kernel on the child slice, leaf
    children kept as the stable-argsort prefix within the bound, internal
    children kept in slice order (tiebreaks assigned in push order) then
    laid out as a ``(mindist, tiebreak)``-sorted run.
    """
    ds = tree.dataset
    s = int(tree.node_child_start[node])
    c = int(tree.node_child_count[node])
    st.mbr_tests += c
    if c == 0:
        return
    sl = slice(s, s + c)
    kth = st.kth
    is_leaf = bool(tree.node_level[node] == 0)
    if is_leaf:
        mind = vecgeom.mbr_mindist_sq(
            st.px, st.py,
            tree.entry_xmin[sl], tree.entry_ymin[sl],
            tree.entry_xmax[sl], tree.entry_ymax[sl],
        )
        order = np.argsort(mind, kind="stable")
        md_s = mind[order]
        # The scalar loop pushes the sorted prefix and breaks at the first
        # child past the bound (the bound is fixed while pushing).
        n_keep = int(np.searchsorted(md_s, kth, side="right"))
        if n_keep == 0:
            return
        seg = tree.entry_ids[s + order[:n_keep]]
        d = vecgeom.point_segment_distance_sq(
            st.px, st.py, ds.x1[seg], ds.y1[seg], ds.x2[seg], ds.y2[seg],
        )
        mds = md_s[:n_keep].tolist()
        ids = seg.tolist()
        aux: Optional[list] = d.tolist()
        tbs = list(range(st.tb + 1, st.tb + 1 + n_keep))
    else:
        mind = vecgeom.mbr_mindist_sq(
            st.px, st.py,
            tree.node_xmin[sl], tree.node_ymin[sl],
            tree.node_xmax[sl], tree.node_ymax[sl],
        )
        kept = np.nonzero(mind <= kth)[0]
        n_keep = int(kept.size)
        if n_keep == 0:
            return
        mk = mind[kept]
        order = np.argsort(mk, kind="stable")
        mds = mk[order].tolist()
        ids = (kept[order] + s).tolist()
        # Tiebreaks follow slice (push) order; the run is re-sorted by
        # (mindist, tiebreak) — stable argsort keeps ties in push order.
        base = st.tb + 1
        tbs = [base + r for r in order.tolist()]
        aux = None
    ri = len(st.runs_md)
    st.runs_md.append(mds)
    st.runs_tb.append(tbs)
    st.runs_id.append(ids)
    st.runs_aux.append(aux)
    st.runs_entry.append(is_leaf)
    st.runs_pos.append(0)
    heapq.heappush(st.rheap, (mds[0], tbs[0], ri))
    st.tb += n_keep
    st.heap_ops += n_keep


def batch_nearest(tree, px, py, ks) -> BatchNNResult:
    """Best-first (k-)NN for every query at once, bit-identical per query.

    ``px``/``py``/``ks`` are aligned arrays: query ``i`` asks for the
    ``ks[i]`` segments nearest to ``(px[i], py[i])``.  Equivalent, query by
    query, to ``tree.nearest_neighbors(px[i], py[i], ks[i], counter)`` —
    same answer ids, tallies, and visit/refine order (see module docstring
    for the contract and the differential tests that enforce it).
    """
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    ks = np.asarray(ks, dtype=np.int64)
    if not (px.shape == py.shape == ks.shape):
        raise ValueError("px, py and ks must be aligned 1-d arrays")
    if ks.size and int(ks.min()) < 1:
        bad = int(ks[ks < 1][0])
        raise ValueError(f"k must be >= 1, got {bad}")
    root = tree.root
    states = [
        _SearchState(float(px[i]), float(py[i]), int(ks[i]), root)
        for i in range(px.size)
    ]
    mbrs = _MbrTable.for_tree(tree)

    pend: List[_SearchState] = []
    nodes: List[int] = []
    for st in states:
        node = _drain(st)
        if node >= 0:
            pend.append(st)
            nodes.append(node)
    while pend:
        if len(pend) <= _SCALAR_TAIL:
            # Round synchronization is only a batching device — each state
            # is independent, so the stragglers just run to completion.
            for st, node in zip(pend, nodes):
                while node >= 0:
                    _expand_one(tree, st, node)
                    node = _drain(st)
            break
        _expand_round(tree, mbrs, pend, nodes)
        nxt: List[_SearchState] = []
        nxt_nodes: List[int] = []
        for st in pend:
            node = _drain(st)
            if node >= 0:
                nxt.append(st)
                nxt_nodes.append(node)
        pend, nodes = nxt, nxt_nodes

    # Finalize into flat arrays once, handing out per-query views: the
    # per-query lists are tiny, so hundreds of small array constructions
    # would cost more than the searches themselves.
    n = len(states)
    ans_flat: List[int] = []
    log_entry_flat: List[bool] = []
    log_id_flat: List[int] = []
    ans_ends = np.empty(n, dtype=np.int64)
    log_ends = np.empty(n, dtype=np.int64)
    for i, st in enumerate(states):
        ordered = sorted(st.best, key=lambda t: (-t[0], t[1]))
        st.best = ordered  # reused below for results_produced
        ans_flat.extend(seg_id for _, seg_id in ordered)
        log_entry_flat.extend(st.log_entry)
        log_id_flat.extend(st.log_id)
        ans_ends[i] = len(ans_flat)
        log_ends[i] = len(log_id_flat)
    ans_arr = np.asarray(ans_flat, dtype=np.int64)
    ent_arr = np.asarray(log_entry_flat, dtype=bool)
    ids_arr = np.asarray(log_id_flat, dtype=np.int64)
    a_lo = 0
    l_lo = 0
    answers: List[np.ndarray] = []
    t_entry: List[np.ndarray] = []
    t_ids: List[np.ndarray] = []
    for i in range(n):
        a_hi = int(ans_ends[i])
        l_hi = int(log_ends[i])
        answers.append(ans_arr[a_lo:a_hi])
        t_entry.append(ent_arr[l_lo:l_hi])
        t_ids.append(ids_arr[l_lo:l_hi])
        a_lo, l_lo = a_hi, l_hi
    return BatchNNResult(
        answer_ids=answers,
        trace_is_entry=t_entry,
        trace_ids=t_ids,
        nodes_visited=np.fromiter(
            (st.nodes_visited for st in states), np.int64, count=n
        ),
        mbr_tests=np.fromiter(
            (st.mbr_tests for st in states), np.int64, count=n
        ),
        candidates_refined=np.fromiter(
            (st.refined for st in states), np.int64, count=n
        ),
        heap_ops=np.fromiter(
            (st.heap_ops for st in states), np.int64, count=n
        ),
        results_produced=np.fromiter(
            (len(st.best) for st in states), np.int64, count=n
        ),
        flat_is_entry=ent_arr,
        flat_ids=ids_arr,
        log_ends=log_ends,
    )
