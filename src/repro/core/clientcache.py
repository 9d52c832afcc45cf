"""The insufficient-memory "fully at the client" execution (section 6.2).

The client cannot hold the dataset, so it holds a *spatially proximate
subset*: on a miss it sends the query plus its memory availability to the
server; the server extracts the predicate's neighbourhood from its master
index (:mod:`repro.spatial.extract`), ships data + a fresh packed index
sized to the client's budget, and the client answers this query — and, with
workload locality, the following ones — entirely from the shipment.  On the
next miss the client "throws away all the data it has and re-requests".

**Local-answerability.**  The paper's client checks "based on the index it
has, whether [the query] can be completely satisfied with its data locally".
A subset index alone cannot prove completeness, so the server accompanies
each shipment with a *coverage rectangle*: the largest anchor-centered
rectangle such that every master segment intersecting it is in the shipment
(found by a doubling-then-binary search over window filters of the master
index, priced into the server's ``w2``).  A later query is answered locally
iff its predicate region lies inside the coverage rectangle — for NN
queries, iff the best local distance is no larger than the distance from
the query point to the coverage boundary (otherwise a closer segment could
be hiding outside the shipment).  This makes local answers *provably* equal to master answers,
which the scheme-equivalence tests assert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.engine import QueryEngine
from repro.core.executor import (
    ClientComputeStep,
    Environment,
    QueryPlan,
    RecvStep,
    SendStep,
    ServerComputeStep,
)
from repro.core.messages import (
    data_items_payload,
    extraction_payload,
    request_payload,
)
from repro.core.queries import Query, QueryKind
from repro.core.schemes import Scheme, SchemeConfig
from repro.data.model import SegmentDataset
from repro.sim.trace import OpCounter
from repro.spatial.extract import coverage_rect, extract_range
from repro.spatial.geometry import point_segment_distance_sq
from repro.spatial.mbr import MBR
from repro.spatial.rtree import PackedRTree

__all__ = ["CachedRegion", "ClientCacheSession", "INSUFFICIENT_CLIENT_CONFIG"]

#: SchemeConfig under which cached-local plans are reported.
INSUFFICIENT_CLIENT_CONFIG = SchemeConfig(Scheme.FULLY_CLIENT, data_at_client=True)
#: Instructions charged to the server per coverage-search probe.
_COVERAGE_PROBE_NODES = 64


def materialize_entry_range(
    tree: PackedRTree, entry_lo: int, entry_hi: int, name: Optional[str] = None
) -> Tuple[np.ndarray, SegmentDataset, PackedRTree]:
    """Materialize packed positions ``[entry_lo, entry_hi)`` as a shipment.

    Subsets the dataset by the range's (Hilbert-ordered) master ids and
    bulk-loads a packed tree over it.  Returns ``(global_ids, dataset,
    tree)``: the master ids in packed order, the subset dataset (extent
    re-derived), and its index.
    """
    if not (0 <= entry_lo < entry_hi <= tree.entry_ids.size):
        raise ValueError(
            f"entry range [{entry_lo}, {entry_hi}) outside "
            f"[0, {tree.entry_ids.size})"
        )
    ids = tree.entry_ids[entry_lo:entry_hi].copy()
    sub = tree.dataset.subset(ids, name=name)
    return ids, sub, PackedRTree.build(sub, node_capacity=tree.node_capacity)


@dataclass
class CachedRegion:
    """The client's current shipment: subset data, index, and coverage."""

    sub_dataset: SegmentDataset
    sub_tree: PackedRTree
    sub_engine: QueryEngine
    #: Maps subset-local segment ids to master ids.
    global_ids: np.ndarray
    #: Every master segment intersecting this rectangle is in the subset.
    coverage: MBR
    total_bytes: int
    #: The shipment's packed-entry range in the master tree (freshness
    #: tracking tests server-side updates against this range).
    entry_lo: int = 0
    entry_hi: int = 0


def _interior_distance(rect: MBR, x: float, y: float) -> float:
    """Distance from an interior point to the rectangle's boundary (0 if
    the point is outside)."""
    if not rect.contains_point(x, y):
        return 0.0
    return min(x - rect.xmin, rect.xmax - x, y - rect.ymin, rect.ymax - y)


class ClientCacheSession:
    """Stateful insufficient-memory execution over a query sequence.

    Use :meth:`plan` per query (in workload order — state carries across
    queries) and price the returned plans with
    :func:`repro.core.executor.price_plan`.
    """

    def __init__(self, env: Environment, budget_bytes: int) -> None:
        if budget_bytes <= 0:
            raise ValueError(f"budget_bytes must be positive, got {budget_bytes}")
        self.env = env
        self.budget_bytes = budget_bytes
        self.region: Optional[CachedRegion] = None
        self.local_hits = 0
        self.misses = 0
        self.fallbacks = 0

    # ------------------------------------------------------------------
    # Local-answerability
    # ------------------------------------------------------------------
    def _can_answer_locally(self, query: Query) -> bool:
        region = self.region
        if region is None:
            return False
        if query.kind is QueryKind.NEAREST_NEIGHBOR:
            if not region.coverage.contains_point(query.x, query.y):
                return False
            # Provisional local (k-)NN; certified iff no outside segment
            # could be closer than the coverage boundary — i.e. the worst
            # of the k local distances stays inside the guaranteed region.
            k = getattr(query, "k", 1)
            local = region.sub_tree.nearest_neighbors(query.x, query.y, k)
            if len(local) < k:
                return False
            d = max(
                math.sqrt(
                    point_segment_distance_sq(
                        query.x, query.y, *region.sub_dataset.segment(int(i))
                    )
                )
                for i in local
            )
            return d <= _interior_distance(region.coverage, query.x, query.y)
        return region.coverage.contains(query.window)

    # ------------------------------------------------------------------
    # Coverage search (server side, at extraction time)
    # ------------------------------------------------------------------
    def _coverage_rect(
        self,
        anchor: MBR,
        entry_lo: int,
        entry_hi: int,
        server_counter: OpCounter,
    ) -> MBR:
        """Largest anchor-centered rectangle fully covered by the shipment.

        Delegates to :func:`repro.spatial.extract.coverage_rect`, charging
        each master-scan probe to the server's counter (part of ``w2``).
        """

        def probe() -> None:
            server_counter.nodes_visited += _COVERAGE_PROBE_NODES

        return coverage_rect(
            self.env.tree, anchor, entry_lo, entry_hi, probe=probe
        )

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, query: Query) -> QueryPlan:
        """Plan one query under the cached-client scheme (stateful)."""
        if self._can_answer_locally(query):
            self.local_hits += 1
            return self._plan_local(query)
        self.misses += 1
        return self._plan_miss(query)

    def plan_sequence(self, queries: List[Query]) -> List[QueryPlan]:
        """Plan a whole workload in order."""
        return [self.plan(q) for q in queries]

    def _map_ids(self, local_ids: np.ndarray) -> np.ndarray:
        assert self.region is not None
        return self.region.global_ids[np.asarray(local_ids, dtype=np.int64)]

    def _plan_local(self, query: Query) -> QueryPlan:
        region = self.region
        assert region is not None
        counter = OpCounter()
        if query.kind is QueryKind.NEAREST_NEIGHBOR:
            out = region.sub_engine.nearest(query, counter)  # type: ignore[arg-type]
            n_cand = 0
        else:
            out = region.sub_engine.answer(query, counter)
            n_cand = counter.candidates_refined
        cost = self.env.client_cpu.compute(counter)
        return QueryPlan(
            query=query,
            config=INSUFFICIENT_CLIENT_CONFIG,
            steps=[ClientComputeStep(cost, "local query on cached region")],
            answer_ids=self._map_ids(out.ids),
            n_candidates=n_cand,
            n_results=int(out.ids.size),
        )

    def _plan_miss(self, query: Query) -> QueryPlan:
        env = self.env
        costs = env.dataset.costs
        server_counter = OpCounter()

        # Server: filter the master index for the query's candidates.
        if query.kind is QueryKind.NEAREST_NEIGHBOR:
            k = getattr(query, "k", 1)
            candidates = env.tree.nearest_neighbors(
                query.x, query.y, k, server_counter
            )
        else:
            candidates = env.engine.filter(query, server_counter).ids

        fx, fy = query.focus()
        extraction = extract_range(
            env.tree, candidates, fx, fy, self.budget_bytes, server_counter
        )

        if not extraction.fits:
            # Even the bare candidates exceed client memory: fall back to a
            # fully-at-server execution for this query (data items returned;
            # the client keeps nothing).
            self.fallbacks += 1
            self.region = None
            return self._plan_fallback_server(query, server_counter)

        coverage = self._coverage_rect(
            query.window, extraction.entry_lo, extraction.entry_hi, server_counter
        )
        server_cost = env.server_cpu.compute(server_counter)

        # Install the shipment as the client's new (only) cached region:
        # one contiguous packed-entry range of the master tree.
        global_ids, sub_dataset, sub_tree = materialize_entry_range(
            env.tree,
            extraction.entry_lo,
            extraction.entry_hi,
            name=f"{env.dataset.name}-cache",
        )
        self.region = CachedRegion(
            sub_dataset=sub_dataset,
            sub_tree=sub_tree,
            sub_engine=QueryEngine(sub_dataset, sub_tree),
            global_ids=global_ids,
            coverage=coverage,
            total_bytes=extraction.total_bytes,
            entry_lo=extraction.entry_lo,
            entry_hi=extraction.entry_hi,
        )

        # Client: answer the query from the fresh shipment.
        local_counter = OpCounter()
        if query.kind is QueryKind.NEAREST_NEIGHBOR:
            out = self.region.sub_engine.nearest(query, local_counter)  # type: ignore[arg-type]
            n_cand = 0
        else:
            out = self.region.sub_engine.answer(query, local_counter)
            n_cand = local_counter.candidates_refined
        local_cost = env.client_cpu.compute(local_counter)

        steps = [
            SendStep(request_payload(costs, with_memory_availability=True)),
            ServerComputeStep(server_cost.cycles, "filter + extract + cover"),
            RecvStep(extraction_payload(extraction)),
            ClientComputeStep(local_cost, "query on fresh shipment"),
        ]
        return QueryPlan(
            query=query,
            config=INSUFFICIENT_CLIENT_CONFIG,
            steps=steps,
            answer_ids=self._map_ids(out.ids),
            n_candidates=n_cand,
            n_results=int(out.ids.size),
        )

    def _plan_fallback_server(
        self, query: Query, server_counter: OpCounter
    ) -> QueryPlan:
        """Serve one oversized query fully at the server."""
        env = self.env
        costs = env.dataset.costs
        if query.kind is QueryKind.NEAREST_NEIGHBOR:
            k = getattr(query, "k", 1)
            answers = env.tree.nearest_neighbors(query.x, query.y, k)
            refine_counter = OpCounter()  # already folded into server_counter
        else:
            refine_counter = OpCounter()
            # Reuse the engine so counts/trace match the normal server path.
            out = env.engine.refine(query, env.engine.filter(query).ids, refine_counter)
            answers = out.ids
        server_counter.merge(refine_counter)
        server_cost = env.server_cpu.compute(server_counter)
        steps = [
            SendStep(request_payload(costs, with_memory_availability=True)),
            ServerComputeStep(server_cost.cycles, "fallback: fully at server"),
            RecvStep(data_items_payload(int(answers.size), costs)),
        ]
        return QueryPlan(
            query=query,
            config=SchemeConfig(Scheme.FULLY_SERVER, data_at_client=False),
            steps=steps,
            answer_ids=answers,
            n_candidates=int(answers.size),
            n_results=int(answers.size),
        )
