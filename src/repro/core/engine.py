"""Instrumented query engine: the filtering and refinement phases.

One :class:`QueryEngine` binds a dataset to its packed R-tree and exposes the
two demarcated phases of spatial query processing:

* :meth:`QueryEngine.filter` — traverse the index, return candidate ids
  (segments whose MBR meets the query's window; a point query's window is
  the point's degenerate MBR);
* :meth:`QueryEngine.refine` — run the exact geometric predicate on each
  candidate, return the answer ids (the same segment–window and
  segment–point tests of :mod:`repro.spatial.vecgeom` that the batched
  planner runs over every query's candidates at once);

plus :meth:`QueryEngine.nearest` for the phase-less NN query.  Every phase
takes an :class:`~repro.sim.trace.OpCounter` and tallies its abstract
operations and data touches there; *where* the counter is priced — on the
client CPU model or the server's — is exactly the work-partitioning decision
the executor makes.  The engine itself is placement-agnostic: the same code
"runs" on both sides, as the paper's single query implementation did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.data.model import SegmentDataset
from repro.sim.trace import REGION_RESULT, OpCounter
from repro.spatial import vecgeom
from repro.spatial.rtree import PackedRTree
from repro.core.queries import KNNQuery, NNQuery, PointQuery, Query, QueryKind, RangeQuery

__all__ = ["QueryEngine", "PhaseOutput"]


@dataclass(frozen=True)
class PhaseOutput:
    """Ids produced by one phase plus the counter that accumulated its work."""

    ids: np.ndarray
    counter: OpCounter


class QueryEngine:
    """Filter/refine engine over one dataset + index pair."""

    def __init__(self, dataset: SegmentDataset, tree: Optional[PackedRTree] = None):
        self.dataset = dataset
        self.tree = tree if tree is not None else PackedRTree.build(dataset)
        if self.tree.dataset is not dataset:
            raise ValueError("tree was built over a different dataset")

    # ------------------------------------------------------------------
    # Phase 1: filtering
    # ------------------------------------------------------------------
    def filter(self, query: Query, counter: Optional[OpCounter] = None) -> PhaseOutput:
        """Index traversal producing candidate ids: the R-tree's window
        filter over the query's :attr:`window` (a point query's is the
        point's degenerate MBR).

        Raises for NN queries — they have no separate filtering step; use
        :meth:`nearest`.
        """
        if not query.kind.has_phases:
            raise TypeError(
                f"{type(query).__name__} has no separate filtering phase"
            )
        counter = counter if counter is not None else OpCounter()
        ids = self.tree.range_filter(query.window, counter)
        return PhaseOutput(ids=ids, counter=counter)

    # ------------------------------------------------------------------
    # Phase 2: refinement
    # ------------------------------------------------------------------
    def refine(
        self,
        query: Query,
        candidates: np.ndarray,
        counter: Optional[OpCounter] = None,
    ) -> PhaseOutput:
        """Exact geometry on each candidate, producing the answer ids.

        The candidate records are touched in the data region (cache-model
        traffic) and each exact test is tallied with its query-specific
        geometry counter (point tests are far cheaper than window clips).
        """
        counter = counter if counter is not None else OpCounter()
        ds = self.dataset
        cand = np.asarray(candidates, dtype=np.int64)
        for seg_id in cand:
            counter.refine_candidate(int(seg_id), ds.costs.segment_record_bytes)
        if cand.size == 0:
            return PhaseOutput(ids=cand, counter=counter)

        x1 = ds.x1[cand]
        y1 = ds.y1[cand]
        x2 = ds.x2[cand]
        y2 = ds.y2[cand]
        if isinstance(query, RangeQuery):
            counter.range_refine_tests += int(cand.size)
            mask = vecgeom.segments_intersect_rects(x1, y1, x2, y2, *query.rect)
        elif isinstance(query, PointQuery):
            counter.point_refine_tests += int(cand.size)
            mask = vecgeom.segments_contain_points(
                query.x, query.y, x1, y1, x2, y2, query.eps
            )
        else:
            raise TypeError(f"{type(query).__name__} has no refinement phase")
        answers = cand[mask]
        counter.results_produced += int(answers.size)
        for seg_id in answers:
            counter.touch(REGION_RESULT, int(seg_id), ds.costs.object_id_bytes)
        return PhaseOutput(ids=answers, counter=counter)

    # ------------------------------------------------------------------
    # Nearest neighbor (single fused phase)
    # ------------------------------------------------------------------
    def nearest(self, query, counter: Optional[OpCounter] = None) -> PhaseOutput:
        """Branch-and-bound (k-)NN search; ids ordered nearest first."""
        counter = counter if counter is not None else OpCounter()
        if isinstance(query, KNNQuery):
            ids = self.tree.nearest_neighbors(query.x, query.y, query.k, counter)
        elif isinstance(query, NNQuery):
            ids = self.tree.nearest_neighbors(query.x, query.y, 1, counter)
        else:
            raise TypeError(
                f"nearest() requires an NNQuery or KNNQuery, got {type(query).__name__}"
            )
        return PhaseOutput(ids=ids, counter=counter)

    # ------------------------------------------------------------------
    # Convenience: full local answer
    # ------------------------------------------------------------------
    def answer(self, query: Query, counter: Optional[OpCounter] = None) -> PhaseOutput:
        """Filter + refine (or NN search) in one call; the 'fully at one
        side' execution path."""
        counter = counter if counter is not None else OpCounter()
        if query.kind is QueryKind.NEAREST_NEIGHBOR:
            return self.nearest(query, counter)
        filtered = self.filter(query, counter)
        return self.refine(query, filtered.ids, counter)
