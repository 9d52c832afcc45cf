"""Batched multi-query planner: plan whole workloads, not single queries.

:func:`repro.core.executor.plan_query` runs one query's phases against the
tree, replays its memory trace through the stateful CPU caches, and prices
the counts — a Python loop per query, per scheme, that dominates
``Session.run`` wall time on figure-scale workloads.  This module produces
the *identical* :class:`~repro.core.executor.QueryPlan` objects in two
vectorized stages:

1. **Phase data** (:func:`compute_query_phases`): every point/range query in
   the workload is filtered in one call of the compiled depth-first filter
   (:func:`repro.spatial.batchtraverse.batch_filter`) and refined in one
   bulk :mod:`~repro.spatial.vecgeom` call over the concatenated candidate
   sets.  The result per query — candidate ids, answer ids, and per-phase
   :class:`PhaseTrace` records (operation counts + the ordered memory-touch
   arrays) — is *placement-free*: schemes differ in where phases run, never
   in what they compute.  NN/k-NN queries run through the compiled
   best-first search (:func:`repro.spatial.batchtraverse.batch_nearest`),
   which reproduces each query's scalar heap-pop order, tie-breaks and op
   tallies exactly; its visit/refine logs land in the same trace form.
2. **Cache replay and assembly** (:func:`_replay_workload`, the one
   replay builder, shared with :class:`repro.serve.QueryService`): each
   side's phase traces are laid out at :mod:`repro.sim.cpu`'s region
   addresses and concatenated into named streams of byte accesses (exactly
   the ``CacheSim.access`` calls of the scalar path), all replayed in one
   call of :class:`repro.sim.cache.BatchedLRU`.  A sweep
   gives each configuration its own cold streams, and identical cold
   streams (e.g. the server's work under both FULLY_SERVER placements)
   are simulated once; warm planning chains every configuration on one
   stream per side, seeded from the live caches.  Per-phase hit/miss
   slices then price each step via the CPU models' ``compute_replayed``
   mirrors, and plans are assembled branch-for-branch against
   ``plan_query`` — same labels, payloads, step order, and cache-state
   side effects (the environment's caches are left exactly as the scalar
   loop would leave them).

The op counts are **replayed, not re-derived**: the counts in each
``PhaseTrace`` are the scalar traversal's tallies (the paper's cost model),
assembled from the batch traversal's per-query outputs, never from counting
NumPy operations.  Equality with the scalar planner — ids, counts, priced
energy/cycles, final cache state — is enforced bit for bit by the
differential suite.

:class:`PhaseDataCache` is the plan-dedup layer: phase data is keyed by
:func:`repro.core.queries.query_key`, so repeated workloads (and repeated
queries within one) are traversed once and shared across the scheme grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.executor import (
    ClientComputeStep,
    Environment,
    PlanStep,
    QueryPlan,
    RecvStep,
    SendStep,
    ServerComputeStep,
)
from repro.core.messages import (
    data_items_payload,
    id_list_payload,
    request_payload,
    request_with_candidates_payload,
)
from repro.core.queries import Query, QueryKind, RangeQuery, query_key
from repro.core.schemes import Scheme, SchemeConfig
from repro.sim.cache import BatchedLRU, CacheSim
from repro.sim.cpu import REGION_BASES, region_strides
from repro.sim.trace import REGION_DATA, REGION_INDEX, REGION_RESULT, OpCounter
from repro.spatial import vecgeom
from repro.spatial.batchtraverse import batch_filter, batch_nearest

__all__ = [
    "PhaseTrace",
    "QueryPhases",
    "PhaseDataCache",
    "compute_query_phases",
    "plan_workload_batched",
    "plans_equal",
]


# ----------------------------------------------------------------------
# Phase data
# ----------------------------------------------------------------------
@dataclass
class PhaseTrace:
    """One phase's operation counts plus its memory-touch trace as arrays.

    The array triplet ``(regions, ids, nbytes)`` is the exact sequence of
    :class:`~repro.sim.trace.Access` records the scalar phase appends to its
    counter.
    """

    counter: OpCounter
    regions: np.ndarray
    ids: np.ndarray
    nbytes: np.ndarray


class QueryPhases:
    """Placement-free phase data for one query (shared across schemes)."""

    __slots__ = (
        "key",
        "is_nn",
        "cand_ids",
        "answer_ids",
        "filter_trace",
        "refine_trace",
        "answer_trace",
        "nn_trace",
        "_displays",
    )

    def __init__(
        self,
        key: tuple,
        *,
        is_nn: bool,
        cand_ids: np.ndarray,
        answer_ids: np.ndarray,
        filter_trace: Optional[PhaseTrace] = None,
        refine_trace: Optional[PhaseTrace] = None,
        answer_trace: Optional[PhaseTrace] = None,
        nn_trace: Optional[PhaseTrace] = None,
    ) -> None:
        self.key = key
        self.is_nn = is_nn
        self.cand_ids = cand_ids
        self.answer_ids = answer_ids
        self.filter_trace = filter_trace
        self.refine_trace = refine_trace
        self.answer_trace = answer_trace
        self.nn_trace = nn_trace
        self._displays: Dict[bool, PhaseTrace] = {}

    def display(self, received_data_items: bool, costs) -> PhaseTrace:
        """The client's display phase (``executor._display_counter``).

        Each result id touches the result region; when full data items came
        over the wire the record store interleaves with it, id by id.
        """
        trace = self._displays.get(received_data_items)
        if trace is None:
            ids = self.answer_ids.astype(np.int64)
            n = ids.size
            counter = OpCounter(record_trace=False)
            counter.results_produced = n
            if received_data_items:
                regions = np.empty(2 * n, dtype=np.int8)
                regions[0::2] = REGION_RESULT
                regions[1::2] = REGION_DATA
                rid = np.repeat(ids, 2)
                nb = np.empty(2 * n, dtype=np.int64)
                nb[0::2] = costs.object_id_bytes
                nb[1::2] = costs.segment_record_bytes
            else:
                regions = np.full(n, REGION_RESULT, dtype=np.int8)
                rid = ids
                nb = np.full(n, costs.object_id_bytes, dtype=np.int64)
            trace = PhaseTrace(counter, regions, rid, nb)
            self._displays[received_data_items] = trace
        return trace


class PhaseDataCache:
    """Keyed store of :class:`QueryPhases`: the plan-dedup layer.

    Keys are :func:`~repro.core.queries.query_key` tuples.  Phase data
    belongs to the dataset it was computed against, so a cache serves one
    environment only (each :class:`repro.api.Engine` owns one).  Bounded
    FIFO to keep long sweeps from accumulating unbounded trace arrays.
    """

    def __init__(self, max_entries: int = 8192):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._data: Dict[tuple, QueryPhases] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple) -> Optional[QueryPhases]:
        qp = self._data.get(key)
        if qp is None:
            self.misses += 1
        else:
            self.hits += 1
        return qp

    def put(self, key: tuple, phases: QueryPhases) -> None:
        if key not in self._data and len(self._data) >= self.max_entries:
            self._data.pop(next(iter(self._data)))
        self._data[key] = phases

    def __len__(self) -> int:
        return len(self._data)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


# ----------------------------------------------------------------------
# Phase computation
# ----------------------------------------------------------------------
def _counts(**fields: int) -> OpCounter:
    c = OpCounter(record_trace=False)
    for name, value in fields.items():
        setattr(c, name, value)
    return c


def _nn_phases_batch(
    env: Environment, keys: List[tuple], queries: List[Query]
) -> Dict[tuple, QueryPhases]:
    """Phase data for every distinct NN/k-NN query in one batched search.

    :func:`repro.spatial.batchtraverse.batch_nearest` hands back, per query,
    the scalar tallies plus the visit/refine log in exact pop order; the log
    maps directly onto trace arrays — index-region node touches sized by
    the node-bytes table, data-region segment fetches sized by the record
    stride — which is precisely the access sequence the scalar search
    appends to its counter.
    """
    tree = env.tree
    costs = env.dataset.costs
    node_bytes = tree.node_bytes_array()
    seg_bytes = costs.segment_record_bytes
    px = np.array([q.x for q in queries], dtype=np.float64)
    py = np.array([q.y for q in queries], dtype=np.float64)
    ks = np.array([getattr(q, "k", 1) for q in queries], dtype=np.int64)
    nn = batch_nearest(tree, px, py, ks)
    # One vectorized pass over the engine's flat visit/refine log; the
    # per-query trace arrays below are views into these.
    ends = nn.log_ends
    ids_all = nn.flat_ids
    flags_all = nn.flat_is_entry
    regions_all = np.where(flags_all, REGION_DATA, REGION_INDEX).astype(np.int8)
    nb_all = np.full(ids_all.size, seg_bytes, dtype=np.int64)
    node_rows = ~flags_all
    nb_all[node_rows] = node_bytes[ids_all[node_rows]]
    out: Dict[tuple, QueryPhases] = {}
    a = 0
    for i, key in enumerate(keys):
        b = int(ends[i])
        regions = regions_all[a:b]
        ids = ids_all[a:b]
        nb = nb_all[a:b]
        refined = int(nn.candidates_refined[i])
        counter = OpCounter(
            nodes_visited=int(nn.nodes_visited[i]),
            mbr_tests=int(nn.mbr_tests[i]),
            candidates_refined=refined,
            distance_evals=refined,
            heap_ops=int(nn.heap_ops[i]),
            results_produced=int(nn.results_produced[i]),
            record_trace=False,
        )
        out[key] = QueryPhases(
            key,
            is_nn=True,
            cand_ids=np.empty(0, dtype=np.int64),
            answer_ids=nn.answer_ids[i],
            nn_trace=PhaseTrace(counter, regions, ids, nb),
        )
        a = b
    return out


def _pr_phases(
    key: tuple,
    q: Query,
    visited: np.ndarray,
    node_bytes: np.ndarray,
    cand_ids: np.ndarray,
    answer_ids: np.ndarray,
    mbr_tests: int,
    costs,
) -> QueryPhases:
    nc = int(cand_ids.size)
    na = int(answer_ids.size)
    filter_trace = PhaseTrace(
        _counts(
            nodes_visited=int(visited.size),
            mbr_tests=mbr_tests,
            entries_scanned=nc,
        ),
        np.full(visited.size, REGION_INDEX, dtype=np.int8),
        visited.astype(np.int64),
        node_bytes[visited],
    )
    refine_fields = dict(candidates_refined=nc)
    if nc > 0:
        # engine.refine returns before the geometry tests when the
        # candidate set is empty — the test tallies must stay zero then.
        if isinstance(q, RangeQuery):
            refine_fields["range_refine_tests"] = nc
        else:
            refine_fields["point_refine_tests"] = nc
        refine_fields["results_produced"] = na
    refine_trace = PhaseTrace(
        _counts(**refine_fields),
        np.concatenate(
            [
                np.full(nc, REGION_DATA, dtype=np.int8),
                np.full(na, REGION_RESULT, dtype=np.int8),
            ]
        ),
        np.concatenate([cand_ids.astype(np.int64), answer_ids.astype(np.int64)]),
        np.concatenate(
            [
                np.full(nc, costs.segment_record_bytes, dtype=np.int64),
                np.full(na, costs.object_id_bytes, dtype=np.int64),
            ]
        ),
    )
    merged = _counts(**filter_trace.counter.counts_dict())
    merged.merge(refine_trace.counter)
    answer_trace = PhaseTrace(
        merged,
        np.concatenate([filter_trace.regions, refine_trace.regions]),
        np.concatenate([filter_trace.ids, refine_trace.ids]),
        np.concatenate([filter_trace.nbytes, refine_trace.nbytes]),
    )
    return QueryPhases(
        key,
        is_nn=False,
        cand_ids=cand_ids,
        answer_ids=answer_ids,
        filter_trace=filter_trace,
        refine_trace=refine_trace,
        answer_trace=answer_trace,
    )


def _compute_phases(env: Environment, todo: Dict[tuple, Query]) -> Dict[tuple, QueryPhases]:
    ds = env.dataset
    tree = env.tree
    costs = ds.costs
    result: Dict[tuple, QueryPhases] = {}
    nn_keys: List[tuple] = []
    nn_queries: List[Query] = []
    pr_keys: List[tuple] = []
    pr_queries: List[Query] = []
    for k, q in todo.items():
        if q.kind is QueryKind.NEAREST_NEIGHBOR:
            nn_keys.append(k)
            nn_queries.append(q)
        else:
            pr_keys.append(k)
            pr_queries.append(q)
    if nn_queries:
        result.update(_nn_phases_batch(env, nn_keys, nn_queries))
    if not pr_queries:
        return result

    n = len(pr_queries)
    qx0 = np.empty(n)
    qy0 = np.empty(n)
    qx1 = np.empty(n)
    qy1 = np.empty(n)
    is_range = np.zeros(n, dtype=bool)
    px = np.zeros(n)
    py = np.zeros(n)
    eps = np.zeros(n)
    for i, q in enumerate(pr_queries):
        if isinstance(q, RangeQuery):
            r = q.rect
            qx0[i], qy0[i], qx1[i], qy1[i] = r.xmin, r.ymin, r.xmax, r.ymax
            is_range[i] = True
        else:
            # A point query is the degenerate window (x, y, x, y).
            qx0[i] = qx1[i] = px[i] = q.x
            qy0[i] = qy1[i] = py[i] = q.y
            eps[i] = q.eps
    res = batch_filter(tree, qx0, qy0, qx1, qy1)

    # Bulk refinement: every query's candidates in one call per predicate.
    cand = res.cand_ids
    counts = np.diff(res.cand_offsets)
    rq = np.repeat(np.arange(n, dtype=np.int64), counts)
    x1 = ds.x1[cand]
    y1 = ds.y1[cand]
    x2 = ds.x2[cand]
    y2 = ds.y2[cand]
    mask = np.zeros(cand.size, dtype=bool)
    range_rows = is_range[rq]
    if np.any(range_rows):
        sel = np.nonzero(range_rows)[0]
        qq = rq[sel]
        mask[sel] = vecgeom.segments_intersect_rects(
            x1[sel], y1[sel], x2[sel], y2[sel],
            qx0[qq], qy0[qq], qx1[qq], qy1[qq],
        )
    if cand.size and np.any(~range_rows):
        sel = np.nonzero(~range_rows)[0]
        qq = rq[sel]
        mask[sel] = vecgeom.segments_contain_points(
            px[qq], py[qq], x1[sel], y1[sel], x2[sel], y2[sel], eps[qq],
        )

    node_bytes = tree.node_bytes_array()
    for i, (k, q) in enumerate(zip(pr_keys, pr_queries)):
        o0, o1 = int(res.cand_offsets[i]), int(res.cand_offsets[i + 1])
        c_ids = cand[o0:o1]
        a_ids = c_ids[mask[o0:o1]]
        result[k] = _pr_phases(
            k, q, res.nodes_of(i), node_bytes, c_ids, a_ids,
            int(res.mbr_tests[i]), costs,
        )
    return result


def compute_query_phases(
    env: Environment,
    queries: Sequence[Query],
    cache: Optional[PhaseDataCache] = None,
) -> List[QueryPhases]:
    """Phase data for every query, deduplicated and cache-backed.

    Repeated queries (by :func:`~repro.core.queries.query_key`) share one
    :class:`QueryPhases`; with a ``cache``, phase data survives across
    calls — the plan-dedup layer of the batched planner.
    """
    out: List[Optional[QueryPhases]] = [None] * len(queries)
    keys: List[tuple] = []
    missing: Dict[tuple, Query] = {}
    for i, q in enumerate(queries):
        k = query_key(q)
        keys.append(k)
        phases = cache.get(k) if cache is not None else None
        if phases is not None:
            out[i] = phases
        elif k not in missing:
            missing[k] = q
    if missing:
        fresh = _compute_phases(env, missing)
        if cache is not None:
            for k, phases in fresh.items():
                cache.put(k, phases)
        for i, k in enumerate(keys):
            if out[i] is None:
                out[i] = fresh[k]
    return out  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Cache replay + plan assembly
# ----------------------------------------------------------------------
def _query_phase_slots(
    phases: QueryPhases, config: SchemeConfig, costs
) -> List[Tuple[str, PhaseTrace]]:
    """This query's compute phases under ``config``, in plan-step order.

    Stream building and plan assembly both walk this list, which is what
    keeps the replayed hit/miss slices aligned with the steps they price.
    """
    scheme = config.scheme
    received = not config.data_at_client
    if phases.is_nn:
        if scheme is Scheme.FULLY_CLIENT:
            return [("client", phases.nn_trace)]
        return [
            ("server", phases.nn_trace),
            ("client", phases.display(received, costs)),
        ]
    if scheme is Scheme.FULLY_CLIENT:
        return [("client", phases.answer_trace)]
    if scheme is Scheme.FULLY_SERVER:
        return [
            ("server", phases.answer_trace),
            ("client", phases.display(received, costs)),
        ]
    if scheme is Scheme.FILTER_CLIENT_REFINE_SERVER:
        return [
            ("client", phases.filter_trace),
            ("server", phases.refine_trace),
            ("client", phases.display(received, costs)),
        ]
    if scheme is Scheme.FILTER_SERVER_REFINE_CLIENT:
        return [
            ("server", phases.filter_trace),
            ("client", phases.refine_trace),
        ]
    raise ValueError(f"unhandled scheme {scheme!r}")  # pragma: no cover


class _Stream:
    """One replay stream: its handle, then what the replay left.

    After :meth:`finish`, ``hm`` holds each phase's ``(hits, misses)`` in
    stream order, ``hits_total``/``misses_total`` their sums, and ``ways``
    the final cache state (a :meth:`BatchedLRU.final_ways` matrix).
    """

    __slots__ = ("handle", "hm", "hits_total", "misses_total", "ways")

    def __init__(self, handle: int) -> None:
        self.handle = handle
        self.hm: List[Tuple[int, int]] = []
        self.hits_total = 0
        self.misses_total = 0
        self.ways: Optional[np.ndarray] = None

    def finish(self, batch: BatchedLRU) -> None:
        hits, lines = batch.phases_of(self.handle)
        misses = lines - hits
        self.hm = list(zip(hits.tolist(), misses.tolist()))
        self.hits_total = int(hits.sum())
        self.misses_total = int(misses.sum())
        self.ways = batch.final_ways(self.handle)


def _add_streams(
    batch: BatchedLRU,
    named: Dict[Hashable, List[PhaseTrace]],
    seeds: Dict[Hashable, np.ndarray],
    sim: CacheSim,
    costs,
) -> Dict[Hashable, _Stream]:
    """Add one side's named streams to ``batch``; the streams by name.

    Each stream is its traces' accesses end to end, one phase per trace, at
    the byte addresses of :mod:`repro.sim.cpu`'s region layout, computed in
    one step for the whole side.  Unseeded streams with identical trace
    sequences replay identically from cold, so they share one stream.
    """
    specs: List[Tuple[List[PhaseTrace], Optional[np.ndarray]]] = []
    spec_of: Dict[Hashable, int] = {}
    cold: Dict[tuple, int] = {}
    for name, traces in named.items():
        if not traces:
            continue
        seed = seeds.get(name)
        if seed is None:
            k = cold.setdefault(tuple(map(id, traces)), len(specs))
        else:
            k = len(specs)
        if k == len(specs):
            specs.append((traces, seed))
        spec_of[name] = k
    traces = [t for ts, _ in specs for t in ts]
    if not traces:
        return {}
    regions = np.concatenate([t.regions for t in traces])
    addrs = np.concatenate([t.ids for t in traces]).astype(np.int64, copy=False)
    addrs *= np.array(region_strides(costs), dtype=np.int64)[regions]
    addrs += np.array(REGION_BASES, dtype=np.int64)[regions]
    nbytes = np.concatenate([t.nbytes for t in traces])
    ends = np.cumsum([t.regions.size for t in traces], dtype=np.int64)
    streams: List[_Stream] = []
    a = p = 0
    for ts, seed in specs:
        phase_ends = ends[p : p + len(ts)]
        b = int(phase_ends[-1])
        handle = batch.add_stream(
            addrs[a:b], nbytes[a:b], phase_ends - a,
            sim.line_bytes, sim.n_sets, sim.assoc, seed_ways=seed,
        )
        streams.append(_Stream(handle))
        a, p = b, p + len(ts)
    return {name: streams[k] for name, k in spec_of.items()}


def _result_payload(n: int, costs, data_at_client: bool):
    if data_at_client:
        return id_list_payload(n, costs)
    return data_items_payload(n, costs)


def _assemble_plan(
    query: Query,
    config: SchemeConfig,
    phases: QueryPhases,
    costs,
    slot_costs: list,
) -> QueryPlan:
    """Mirror of ``plan_query``'s step assembly, with pre-priced compute."""
    scheme = config.scheme
    steps: List[PlanStep] = []
    answer_ids = phases.answer_ids
    n_res = int(answer_ids.size)
    if phases.is_nn:
        if scheme is Scheme.FULLY_CLIENT:
            steps.append(ClientComputeStep(slot_costs[0], "nn search at client"))
            return QueryPlan(query, config, steps, answer_ids, 0, n_res)
        server_cost, disp = slot_costs
        steps.append(SendStep(request_payload(costs)))
        steps.append(ServerComputeStep(server_cost.cycles, "nn search at server"))
        steps.append(RecvStep(_result_payload(n_res, costs, config.data_at_client)))
        steps.append(ClientComputeStep(disp, "display"))
        return QueryPlan(query, config, steps, answer_ids, 0, n_res)

    n_cand = int(phases.cand_ids.size)
    if scheme is Scheme.FULLY_CLIENT:
        steps.append(ClientComputeStep(slot_costs[0], "filter + refine at client"))
        return QueryPlan(query, config, steps, answer_ids, n_cand, n_res)
    if scheme is Scheme.FULLY_SERVER:
        server_cost, disp = slot_costs
        steps.append(SendStep(request_payload(costs)))
        steps.append(
            ServerComputeStep(server_cost.cycles, "filter + refine at server")
        )
        steps.append(RecvStep(_result_payload(n_res, costs, config.data_at_client)))
        steps.append(ClientComputeStep(disp, "display"))
        return QueryPlan(query, config, steps, answer_ids, n_cand, n_res)
    if scheme is Scheme.FILTER_CLIENT_REFINE_SERVER:
        filt_cost, ref_cost, disp = slot_costs
        steps.append(ClientComputeStep(filt_cost, "filter at client"))
        steps.append(SendStep(request_with_candidates_payload(n_cand, costs)))
        steps.append(ServerComputeStep(ref_cost.cycles, "refine at server"))
        steps.append(RecvStep(_result_payload(n_res, costs, config.data_at_client)))
        steps.append(ClientComputeStep(disp, "display"))
        return QueryPlan(query, config, steps, answer_ids, n_cand, n_res)
    # FILTER_SERVER_REFINE_CLIENT
    filt_cost, ref_cost = slot_costs
    steps.append(SendStep(request_payload(costs)))
    steps.append(ServerComputeStep(filt_cost.cycles, "filter at server"))
    steps.append(RecvStep(id_list_payload(n_cand, costs)))
    steps.append(ClientComputeStep(ref_cost, "refine at client"))
    return QueryPlan(query, config, steps, answer_ids, n_cand, n_res)


#: One replay group: ``(queries, phase data, scheme, client-stream name,
#: server-stream name)``; see :func:`_replay_workload`.
_Group = Tuple[Sequence[Query], Sequence[QueryPhases], SchemeConfig, Hashable, Hashable]


def _replay_workload(
    env: Environment,
    groups: Sequence[_Group],
    seeds: Dict[Hashable, np.ndarray],
) -> Tuple[List[List[QueryPlan]], Dict[Hashable, _Stream]]:
    """Replay every group's data-cache streams and assemble its plans.

    The one replay builder, behind :func:`plan_workload_batched` and
    :meth:`repro.serve.QueryService._replay_batch`.  ``groups`` come in
    replay order; each group's client phases run on the stream its client
    name names and its server phases on the stream its server name names,
    so a name several groups share is one timeline continuing across them
    (a name is a client name or a server name, never both).
    ``seeds`` warm-starts streams by name with a way matrix
    (:meth:`repro.sim.cache.CacheSim.ways`); other streams start cold, and
    cold streams with identical trace sequences are simulated once.  A side
    whose CPU model does not simulate its cache gets no stream and prices
    each phase with the scalar path's fallback estimate.

    Returns each group's plans, in group order, and the finished streams by
    name, from which callers write the final cache states back.
    """
    client = env.client_cpu
    server = env.server_cpu
    costs = env.dataset.costs

    # Each named stream's phase traces, in replay order.
    named: Dict[str, Dict[Hashable, List[PhaseTrace]]] = {"client": {}, "server": {}}
    for _, phases, scheme, client_name, server_name in groups:
        lists = {
            "client": named["client"].setdefault(client_name, []),
            "server": named["server"].setdefault(server_name, []),
        }
        for qp in phases:
            for side, trace in _query_phase_slots(qp, scheme, costs):
                lists[side].append(trace)

    batch = BatchedLRU()
    streams: Dict[Hashable, _Stream] = {}
    for side, cpu, sim in (
        ("client", client, client.dcache),
        ("server", server, server.l1),
    ):
        if cpu.use_cache_sim:
            streams.update(_add_streams(batch, named[side], seeds, sim, cpu.costs))
    batch.run()
    for stream in {id(s): s for s in streams.values()}.values():
        stream.finish(batch)

    # Walk the groups again: price each phase from its stream's next
    # (hits, misses) slice, and assemble each plan once its costs exist.
    at: Dict[Hashable, int] = {}
    plans_per_group: List[List[QueryPlan]] = []
    for queries, phases, scheme, client_name, server_name in groups:
        client_hm = streams[client_name].hm if client_name in streams else None
        server_hm = streams[server_name].hm if server_name in streams else None
        ci = at.get(client_name, 0)
        si = at.get(server_name, 0)
        plans: List[QueryPlan] = []
        for query, qp in zip(queries, phases):
            slot_costs = []
            for side, trace in _query_phase_slots(qp, scheme, costs):
                if side == "client":
                    if client_hm is None:
                        # No cache simulation on this side: the scalar
                        # path's fallback estimate uses only the counts.
                        slot_costs.append(client.compute(trace.counter))
                    else:
                        h, m = client_hm[ci]
                        slot_costs.append(client.compute_replayed(trace.counter, h, m))
                    ci += 1
                else:
                    if server_hm is None:
                        slot_costs.append(server.compute(trace.counter))
                    else:
                        h, m = server_hm[si]
                        slot_costs.append(server.compute_replayed(trace.counter, h, m))
                    si += 1
            plans.append(_assemble_plan(query, scheme, qp, costs, slot_costs))
        at[client_name] = ci
        at[server_name] = si
        plans_per_group.append(plans)
    return plans_per_group, streams


def plan_workload_batched(
    env: Environment,
    queries: Sequence[Query],
    configs: Sequence[SchemeConfig],
    *,
    reset_caches: bool = True,
    phase_cache: Optional[PhaseDataCache] = None,
) -> List[List[QueryPlan]]:
    """Plan every query under every scheme configuration at once.

    Equivalent, plan for plan and bit for bit, to::

        for config in configs:
            env.reset_caches()          # reset_caches=True (the grid loop)
            [plan_query(q, config, env) for q in queries]

    including the caches' final state.  Each configuration replays on its
    own cold streams.  With ``reset_caches=False`` the replay instead
    continues from the caches' current contents, chaining all
    configurations on one warm stream per side.  Returns one plan list per
    configuration, aligned with ``configs``.
    """
    queries = list(queries)
    configs = list(configs)
    # Scalar planning validates config-major, query-minor; keep the first
    # error identical (but raise before doing any work).
    for config in configs:
        for q in queries:
            config.validate_for(q)
    if not configs:
        return []
    phases = compute_query_phases(env, queries, phase_cache)
    sims = (env.client_cpu.dcache, env.server_cpu.l1)
    if reset_caches:
        groups = [
            (queries, phases, config, ("client", i), ("server", i))
            for i, config in enumerate(configs)
        ]
        seeds: Dict[Hashable, np.ndarray] = {}
    else:
        groups = [(queries, phases, config, "client", "server") for config in configs]
        seeds = {"client": sims[0].ways(), "server": sims[1].ways()}
    plans, streams = _replay_workload(env, groups, seeds)

    # Leave the environment's caches exactly as the scalar loop would.
    if reset_caches:
        env.reset_caches()
    for sim, name in zip(sims, groups[-1][3:]):
        stream = streams.get(name)
        if stream is not None:
            sim.load_ways(stream.ways)
            sim.hits += stream.hits_total
            sim.misses += stream.misses_total
    return plans


def plans_equal(a: Sequence[QueryPlan], b: Sequence[QueryPlan]) -> bool:
    """Bit-for-bit equality of two plan lists (the differential predicate)."""
    if len(a) != len(b):
        return False
    for pa, pb in zip(a, b):
        if pa.query != pb.query or pa.config != pb.config:
            return False
        if pa.n_candidates != pb.n_candidates or pa.n_results != pb.n_results:
            return False
        if not np.array_equal(pa.answer_ids, pb.answer_ids):
            return False
        if pa.steps != pb.steps:
            return False
    return True
