"""Batched R-tree searches: the scalar loops of :mod:`repro.spatial.rtree`
compiled (``traverse.c``), a whole query batch per call.

The batched planner replays each query's index-node visits and refinements
through the cache models, so each kernel is a line-for-line port of its
scalar search and gives, per query, bit-for-bit what the scalar search
gives:

* :func:`batch_filter` runs ``filter_run``, the port of
  :meth:`~repro.spatial.rtree.PackedRTree.range_filter`: the same
  candidates, depth-first preorder of visited nodes and MBR-test tallies.
  A point query is the window ``(px, py, px, py)`` of its degenerate MBR
  (``PointQuery.window``), as in the scalar engine's filter.
* :func:`batch_nearest` runs ``nn_run``, the port of
  :meth:`~repro.spatial.rtree.PackedRTree.nearest_neighbors`: the answer
  ids in ``(distance, id)`` order, the op tallies, and the ordered
  visit/refine log, distance ties included.

The library is built on first use (:func:`repro.native.load`); without a C
compiler each query runs through the scalar search itself.  A tree's
columns are handed to C once, as a struct of pointers kept on the tree
(packed trees are immutable).  The kernels trust their inputs, so both
entry points check them first.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

import numpy as np

from repro import native
from repro.sim.trace import REGION_DATA, OpCounter
from repro.spatial.mbr import MBR
from repro.spatial.rtree import PackedRTree

__all__ = ["BatchFilterResult", "BatchNNResult", "batch_filter", "batch_nearest"]

_SOURCE = Path(__file__).with_name("traverse.c")
#: The loaded ``traverse.c``; False once the scalar fallback has warned.
_lib = None

_P = ctypes.c_void_p
_I64 = ctypes.c_int64

#: ``traverse.c``'s ``Tree``: these tree columns, read with these dtypes,
#: then the dataset's endpoint columns and the root.
_TREE_COLUMNS = (
    ("node_xmin", np.float64), ("node_ymin", np.float64),
    ("node_xmax", np.float64), ("node_ymax", np.float64),
    ("node_level", np.int32), ("node_child_start", np.int64),
    ("node_child_count", np.int64),
    ("entry_xmin", np.float64), ("entry_ymin", np.float64),
    ("entry_xmax", np.float64), ("entry_ymax", np.float64),
    ("entry_ids", np.int64),
)
_SEGMENT_COLUMNS = ("x1", "y1", "x2", "y2")


class _Tree(ctypes.Structure):
    _fields_ = [(name, _P) for name, _ in _TREE_COLUMNS] + [
        (name, _P) for name in _SEGMENT_COLUMNS
    ] + [("root", _I64)]


def _kernel():
    """The ``traverse.c`` library, or None (after one RuntimeWarning) without
    a C compiler."""
    global _lib
    if _lib is None:
        lib = native.load(
            _SOURCE,
            "batch_filter and batch_nearest run the scalar PackedRTree "
            "searches instead, exactly but slower",
        )
        _lib = False
        if lib is not None:
            lib.filter_run.argtypes = (
                _P, _I64, _I64, _P, _P, _P, _P, _P, _I64, _P, _P, _I64, _P, _P, _P,
            )
            lib.nn_run.argtypes = (
                _P, _I64, _I64, _P, _P, _P, _P, _P, _P, _I64, _P, _P, _P, _P,
                _I64, _P, _P, _P,
            )
            lib.filter_run.restype = lib.nn_run.restype = _I64
            _lib = lib
    return _lib or None


def _bind(tree: PackedRTree):
    """``(address of tree's Tree struct, most children of any node)``."""
    bound = getattr(tree, "_traverse_binding", None)
    if bound is None:
        cols = [
            np.ascontiguousarray(getattr(tree, name), dtype=dtype)
            for name, dtype in _TREE_COLUMNS
        ] + [
            np.ascontiguousarray(getattr(tree.dataset, name), dtype=np.float64)
            for name in _SEGMENT_COLUMNS
        ]
        struct = _Tree(*(c.ctypes.data for c in cols), tree.root)
        # The struct and the arrays it points into live as long as the tree.
        bound = (ctypes.addressof(struct), int(tree.node_child_count.max()), struct, cols)
        tree._traverse_binding = bound
    return bound[:2]


def _grow(buf: np.ndarray, used: int) -> np.ndarray:
    """``buf`` at twice its size, its first ``used`` items copied."""
    out = np.empty(max(2 * buf.size, 16), dtype=buf.dtype)
    out[:used] = buf[:used]
    return out


def _offsets(sizes) -> np.ndarray:
    """CSR offsets ``[0, s0, s0 + s1, ...]`` of the given sizes."""
    return np.concatenate(([0], np.cumsum(np.fromiter(sizes, dtype=np.int64))))


# ----------------------------------------------------------------------
# Window filter
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchFilterResult:
    """Per-query traversal output in CSR form (query-major, offsets aligned)."""

    #: Visited node ids in scalar DFS preorder, all queries concatenated.
    visited: np.ndarray
    #: ``(n_queries + 1,)`` offsets into :attr:`visited`.
    visited_offsets: np.ndarray
    #: Matched entry positions (packed order, ascending per query).
    cand_positions: np.ndarray
    #: Matched segment ids, aligned with :attr:`cand_positions`.
    cand_ids: np.ndarray
    #: ``(n_queries + 1,)`` offsets into the candidate arrays.
    cand_offsets: np.ndarray
    #: Per-query MBR-test tallies (one per child of every visited node).
    mbr_tests: np.ndarray

    @property
    def n_queries(self) -> int:
        """Number of queries this batch covered."""
        return len(self.visited_offsets) - 1

    def nodes_of(self, i: int) -> np.ndarray:
        """Query ``i``'s visited nodes in DFS preorder."""
        return self.visited[self.visited_offsets[i] : self.visited_offsets[i + 1]]

    def candidates_of(self, i: int) -> np.ndarray:
        """Query ``i``'s candidate segment ids in scalar filter order."""
        return self.cand_ids[self.cand_offsets[i] : self.cand_offsets[i + 1]]


def batch_filter(
    tree: PackedRTree,
    qxmin: np.ndarray,
    qymin: np.ndarray,
    qxmax: np.ndarray,
    qymax: np.ndarray,
) -> BatchFilterResult:
    """Filter ``n`` windows against the tree, each exactly as ``range_filter``.

    The four bounds are aligned 1-d arrays, with ``qxmin <= qxmax`` and
    ``qymin <= qymax`` in every row (the :class:`~repro.spatial.mbr.MBR`
    rule, which no NaN bound meets).
    """
    qxmin, qymin, qxmax, qymax = (
        np.ascontiguousarray(a, dtype=np.float64) for a in (qxmin, qymin, qxmax, qymax)
    )
    if not (qxmin.ndim == 1 and qxmin.shape == qymin.shape == qxmax.shape == qymax.shape):
        raise ValueError("qxmin, qymin, qxmax and qymax must be aligned 1-d arrays")
    if not np.all((qxmin <= qxmax) & (qymin <= qymax)):
        raise ValueError("every window needs xmin <= xmax and ymin <= ymax, no NaN")
    n = qxmin.size
    lib = _kernel()
    if lib is None:
        return _scalar_filter(tree, qxmin, qymin, qxmax, qymax)
    ptr, max_children = _bind(tree)
    visited_offsets = np.zeros(n + 1, dtype=np.int64)
    cand_offsets = np.zeros(n + 1, dtype=np.int64)
    mbr_tests = np.empty(n, dtype=np.int64)
    # A pending-sibling run per internal level, plus the root.
    stack = np.empty(tree.height * max_children + 1, dtype=np.int64)
    # Room for a typical window; a batch that needs more grows and resumes.
    visited = np.empty(16 * n + 256, dtype=np.int64)
    cand = np.empty(32 * n + 1024, dtype=np.int64)
    done = 0
    while done < n:
        done = lib.filter_run(
            ptr, done, n,
            qxmin.ctypes.data, qymin.ctypes.data,
            qxmax.ctypes.data, qymax.ctypes.data,
            visited.ctypes.data, visited.size, visited_offsets.ctypes.data,
            cand.ctypes.data, cand.size, cand_offsets.ctypes.data,
            mbr_tests.ctypes.data, stack.ctypes.data,
        )
        if done < n:
            if visited_offsets[done + 1] == visited.size:
                visited = _grow(visited, visited_offsets[done])
            else:
                cand = _grow(cand, cand_offsets[done])
    cand = cand[: cand_offsets[n]]
    return BatchFilterResult(
        visited=visited[: visited_offsets[n]],
        visited_offsets=visited_offsets,
        cand_positions=cand,
        cand_ids=tree.entry_ids[cand],
        cand_offsets=cand_offsets,
        mbr_tests=mbr_tests,
    )


def _scalar_filter(tree, qxmin, qymin, qxmax, qymax) -> BatchFilterResult:
    """:func:`batch_filter` through ``range_filter``, one window at a time."""
    visited, cands, mbr_tests = [], [], []
    for window in zip(qxmin.tolist(), qymin.tolist(), qxmax.tolist(), qymax.tolist()):
        counter = OpCounter(record_trace=True)
        ids = tree.range_filter(MBR(*window), counter)
        visited.append([a.object_id for a in counter.trace])
        cands.append(tree.entry_positions_for_ids(ids))
        mbr_tests.append(counter.mbr_tests)
    cand = np.concatenate(cands) if cands else np.empty(0, dtype=np.int64)
    return BatchFilterResult(
        visited=np.fromiter((v for vs in visited for v in vs), dtype=np.int64),
        visited_offsets=_offsets(len(v) for v in visited),
        cand_positions=cand,
        cand_ids=tree.entry_ids[cand],
        cand_offsets=_offsets(c.size for c in cands),
        mbr_tests=np.asarray(mbr_tests, dtype=np.int64),
    )


# ----------------------------------------------------------------------
# Best-first (k-)NN
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchNNResult:
    """Per-query outputs of one batched NN/k-NN search, in CSR form.

    Query ``i``'s answer ids (:meth:`answers_of`) are nearest first, in
    scalar order (including the ``(distance, id)`` final sort).  Its
    visit/refine log (:meth:`log_of`) is in pop order: ``True`` rows are
    candidate-segment refinements (data-region touches), ``False`` rows
    are index-node visits.  Count arrays are the scalar OpCounter tallies;
    ``distance_evals`` always equals ``candidates_refined`` for this query
    kind.
    """

    #: Answer ids, all queries concatenated.
    ans_ids: np.ndarray
    #: ``(n_queries + 1,)`` offsets into :attr:`ans_ids`.
    ans_offsets: np.ndarray
    #: Log rows: whether each is a candidate refinement, and its node or
    #: segment id; all queries concatenated.
    log_is_entry: np.ndarray
    log_ids: np.ndarray
    #: ``(n_queries + 1,)`` offsets into the log arrays.
    log_offsets: np.ndarray
    nodes_visited: np.ndarray
    mbr_tests: np.ndarray
    candidates_refined: np.ndarray
    heap_ops: np.ndarray
    results_produced: np.ndarray

    def answers_of(self, i: int) -> np.ndarray:
        """Query ``i``'s answer ids, nearest first."""
        return self.ans_ids[self.ans_offsets[i] : self.ans_offsets[i + 1]]

    def log_of(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Query ``i``'s visit/refine log: ``(is_entry, ids)`` in pop order."""
        lo, hi = self.log_offsets[i], self.log_offsets[i + 1]
        return self.log_is_entry[lo:hi], self.log_ids[lo:hi]


def batch_nearest(tree: PackedRTree, px, py, ks) -> BatchNNResult:
    """Best-first (k-)NN for every query at once, bit-identical per query.

    ``px``/``py``/``ks`` are aligned 1-d arrays: query ``i`` asks for the
    ``ks[i]`` segments nearest to the finite point ``(px[i], py[i])``, with
    ``ks[i]`` a (non-bool) integer ``>= 1``.  Equivalent, query by query, to
    ``tree.nearest_neighbors(px[i], py[i], ks[i], counter)`` — same answer
    ids, tallies, and visit/refine order.
    """
    px = np.ascontiguousarray(px, dtype=np.float64)
    py = np.ascontiguousarray(py, dtype=np.float64)
    ks = np.asarray(ks)
    if not (px.ndim == 1 and px.shape == py.shape == ks.shape):
        raise ValueError("px, py and ks must be aligned 1-d arrays")
    if ks.size and ks.dtype.kind not in "iu":
        raise ValueError(f"ks must be integers, got {ks.dtype}")
    ks = np.ascontiguousarray(ks, dtype=np.int64)
    if ks.size and int(ks.min()) < 1:
        bad = int(ks[ks < 1][0])
        raise ValueError(f"k must be >= 1, got {bad}")
    if not (np.isfinite(px).all() and np.isfinite(py).all()):
        raise ValueError("query points must be finite")
    n = px.size
    lib = _kernel()
    if lib is None:
        return _scalar_nearest(tree, px, py, ks)
    ptr, max_children = _bind(tree)
    # Every query keeps min(k, entries) answers at most; the best-k set
    # holds one more between a push and its eviction.  A heap or best-k
    # item is four words.
    kept = np.minimum(ks, tree.entry_ids.size)
    tallies = np.empty((5, n), dtype=np.int64)
    log_offsets = np.zeros(n + 1, dtype=np.int64)
    ans_offsets = np.zeros(n + 1, dtype=np.int64)
    ans = np.empty(int(kept.sum()), dtype=np.int64)
    best = np.empty(4 * (int(kept.max(initial=0)) + 1), dtype=np.int64)
    mind = np.empty(max_children, dtype=np.float64)
    order = np.empty(max_children, dtype=np.int64)
    # Room for a typical search; a batch that needs more grows and resumes.
    log_entry = np.empty(16 * n + 256, dtype=bool)
    log_id = np.empty(log_entry.size, dtype=np.int64)
    heap = np.empty(4 * 1024, dtype=np.int64)
    done = 0
    while done < n:
        done = lib.nn_run(
            ptr, done, n,
            px.ctypes.data, py.ctypes.data, ks.ctypes.data, tallies.ctypes.data,
            log_entry.ctypes.data, log_id.ctypes.data, log_id.size,
            log_offsets.ctypes.data, ans.ctypes.data, ans_offsets.ctypes.data,
            heap.ctypes.data, heap.size // 4, best.ctypes.data,
            mind.ctypes.data, order.ctypes.data,
        )
        if done < n:
            if log_offsets[done + 1] == log_id.size:
                used = log_offsets[done]
                log_entry = _grow(log_entry, used)
                log_id = _grow(log_id, used)
            else:
                heap = _grow(heap, 0)
    end = log_offsets[n]
    return BatchNNResult(
        ans[: ans_offsets[n]], ans_offsets, log_entry[:end], log_id[:end],
        log_offsets, *tallies,
    )


def _scalar_nearest(tree, px, py, ks) -> BatchNNResult:
    """:func:`batch_nearest` through ``nearest_neighbors``, one query at a
    time."""
    answers, counters = [], []
    for x, y, k in zip(px.tolist(), py.tolist(), ks.tolist()):
        counters.append(OpCounter(record_trace=True))
        answers.append(tree.nearest_neighbors(x, y, k, counters[-1]))
    trace = [a for c in counters for a in c.trace]
    tallies = [
        (c.nodes_visited, c.mbr_tests, c.candidates_refined, c.heap_ops,
         c.results_produced)
        for c in counters
    ]
    return BatchNNResult(
        np.concatenate(answers) if answers else np.empty(0, dtype=np.int64),
        _offsets(a.size for a in answers),
        np.array([a.region == REGION_DATA for a in trace], dtype=bool),
        np.array([a.object_id for a in trace], dtype=np.int64),
        _offsets(len(c.trace) for c in counters),
        *np.array(tallies, dtype=np.int64).reshape(-1, 5).T,
    )

