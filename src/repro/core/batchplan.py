"""Batched multi-query planner: plan whole workloads, not single queries.

:func:`repro.core.executor.plan_query` runs one query's phases against the
tree, replays its memory trace through the stateful CPU caches, and prices
the counts — a Python loop per query, per scheme, that dominates
``Session.run`` wall time on figure-scale workloads.  This module produces
the *identical* :class:`~repro.core.executor.QueryPlan` objects in three
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
2. **Cache replay**: for each scheme configuration the client/server phase
   traces are concatenated into per-side access streams (exactly the line
   sequence the scalar path would feed ``CacheSim``) and simulated together
   by :class:`repro.sim.cache.BatchedLRU`.  Identical streams across
   configurations (e.g. the server's work under both FULLY_SERVER
   placements) are simulated once.
3. **Assembly**: per-phase hit/miss slices price each step via the CPU
   models' ``compute_replayed`` mirrors, and plans are assembled
   branch-for-branch against ``plan_query`` — same labels, payloads, step
   order, and cache-state side effects (the environment's caches are left
   exactly as the scalar loop would leave them).

The op counts are **replayed, not re-derived**: the counts in each
``PhaseTrace`` are the scalar traversal's tallies (the paper's cost model),
assembled from the batch traversal's per-query outputs, never from counting
NumPy operations.  Equality with the scalar planner — ids, counts, priced
energy/cycles, final cache state — is enforced bit for bit by the
differential suite.

:class:`PhaseDataCache` is the plan-dedup layer: phase data is keyed by
:func:`repro.core.queries.query_key` and bound to a dataset fingerprint, so
repeated workloads (and repeated queries within one) are planned once and
shared across the scheme grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

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
from repro.sim.cache import BatchedLRU
from repro.sim.cpu import _INDEX_STRIDE, _REGION_BASE
from repro.sim.trace import REGION_DATA, REGION_INDEX, REGION_RESULT, OpCounter
from repro.spatial import vecgeom
from repro.spatial.batchtraverse import batch_filter, batch_nearest

__all__ = [
    "PhaseTrace",
    "QueryPhases",
    "PhaseDataCache",
    "CacheGeometry",
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
    counter; :meth:`lines_for` expands it into line-granular cache addresses
    for a given cache geometry (cached per geometry — the client and server
    see the same touches through different line sizes).
    """

    counter: OpCounter
    regions: np.ndarray
    ids: np.ndarray
    nbytes: np.ndarray
    _lines: dict = field(default_factory=dict, repr=False)

    def lines_for(self, geom: "CacheGeometry") -> np.ndarray:
        lines = self._lines.get(geom.key)
        if lines is None:
            lines = geom.lines_of(self.regions, self.ids, self.nbytes)
            self._lines[geom.key] = lines
        return lines


@dataclass(frozen=True)
class CacheGeometry:
    """Address layout + cache shape of one side's data cache.

    Mirrors ``ClientCPU._address_of`` / ``ServerCPU._address_of`` and the
    line decomposition of :meth:`repro.sim.cache.CacheSim.access`.
    """

    line_bytes: int
    n_sets: int
    assoc: int
    data_stride: int
    result_stride: int

    @classmethod
    def of(cls, sim, costs) -> "CacheGeometry":
        """Geometry of one :class:`~repro.sim.cache.CacheSim` + cost model."""
        return cls(
            line_bytes=sim.line_bytes,
            n_sets=sim.n_sets,
            assoc=sim.assoc,
            data_stride=costs.segment_record_bytes,
            result_stride=costs.object_id_bytes,
        )

    @property
    def key(self) -> tuple:
        """Identity of the address expansion (shared line caches hinge on it)."""
        return (self.line_bytes, self.data_stride, self.result_stride)

    def lines_of(
        self, regions: np.ndarray, ids: np.ndarray, nbytes: np.ndarray
    ) -> np.ndarray:
        """Line-granular address sequence of one access trace."""
        return self.lines_and_counts(regions, ids, nbytes)[0]

    def lines_and_counts(
        self, regions: np.ndarray, ids: np.ndarray, nbytes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Line sequence plus the per-access line counts (for splitting)."""
        bases = np.array(
            [
                _REGION_BASE[REGION_INDEX],
                _REGION_BASE[REGION_DATA],
                _REGION_BASE[REGION_RESULT],
            ],
            dtype=np.int64,
        )
        strides = np.array(
            [_INDEX_STRIDE, self.data_stride, self.result_stride], dtype=np.int64
        )
        addr = bases[regions] + ids * strides[regions]
        lb = self.line_bytes
        if lb & (lb - 1) == 0:
            sh = lb.bit_length() - 1
            first = addr >> sh
            last = (addr + nbytes - 1) >> sh
        else:
            first = addr // lb
            last = (addr + nbytes - 1) // lb
        counts = np.where(nbytes > 0, last - first + 1, 0)
        total = int(counts.sum())
        run_starts = np.cumsum(counts) - counts
        lines = np.repeat(first - run_starts, counts)
        lines += np.arange(total, dtype=np.int64)
        return lines, counts


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

    Keys are :func:`~repro.core.queries.query_key` tuples; ``fingerprint``
    names the dataset the phase data was computed against — a cache must
    never be consulted for a different dataset (Session binds one per
    fingerprint).  Bounded FIFO to keep long sweeps from accumulating
    unbounded trace arrays.
    """

    def __init__(self, fingerprint: Optional[str] = None, max_entries: int = 8192):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.fingerprint = fingerprint
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
    """One side's concatenated replay stream with per-phase boundaries."""

    __slots__ = ("handle", "starts", "ends", "hm", "hits_total", "misses_total")

    def __init__(self, handle: int, starts: np.ndarray, ends: np.ndarray) -> None:
        self.handle = handle
        self.starts = starts
        self.ends = ends
        self.hm: List[Tuple[int, int]] = []
        self.hits_total = 0
        self.misses_total = 0

    def finish(self, batch: BatchedLRU) -> None:
        hits = batch.hits_of(self.handle)
        h = np.zeros(self.starts.size, dtype=np.int64)
        full = self.ends > self.starts
        if full.any():
            # The non-empty phases tile the stream, so each reduceat
            # segment runs exactly to the next non-empty phase's start.
            h[full] = np.add.reduceat(hits, self.starts[full], dtype=np.int64)
        self.hm = list(zip(h.tolist(), (self.ends - self.starts - h).tolist()))
        self.hits_total = int(h.sum())
        self.misses_total = int(hits.size) - self.hits_total

    def phase_hm(self, j: int) -> Tuple[int, int]:
        return self.hm[j]


def _prime_lines(traces: Sequence[PhaseTrace], geom: CacheGeometry) -> None:
    """Expand every uncached trace's line sequence in one vectorized call.

    ``lines_for`` on a short trace (an NN visit log, a display phase) costs
    more in per-call NumPy overhead than in actual work; concatenating the
    uncached traces' access arrays, expanding once, and splitting the result
    back per trace keeps stream building flat in the number of traces.
    """
    missing: List[PhaseTrace] = []
    seen: set = set()
    for t in traces:
        if geom.key not in t._lines and id(t) not in seen:
            seen.add(id(t))
            missing.append(t)
    if not missing:
        return
    acc_counts = np.array([t.regions.size for t in missing], dtype=np.int64)
    regs = np.concatenate([t.regions for t in missing])
    ids = np.concatenate([t.ids for t in missing])
    nbs = np.concatenate([t.nbytes for t in missing])
    lines, per_access = geom.lines_and_counts(regs, ids, nbs)
    cum = np.zeros(per_access.size + 1, dtype=np.int64)
    np.cumsum(per_access, out=cum[1:])
    ends = np.cumsum(acc_counts)
    line_ends = cum[ends]
    line_starts = cum[ends - acc_counts]
    for t, a, b in zip(missing, line_starts.tolist(), line_ends.tolist()):
        t._lines[geom.key] = lines[a:b]


def _make_stream(
    batch: BatchedLRU,
    traces: Sequence[PhaseTrace],
    geom: CacheGeometry,
    seed: Optional[np.ndarray],
) -> _Stream:
    _prime_lines(traces, geom)
    parts = [t.lines_for(geom) for t in traces]
    lens = np.array([p.size for p in parts], dtype=np.int64)
    lines = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    handle = batch.add_stream(lines, geom.n_sets, geom.assoc, seed_ways=seed)
    ends = np.cumsum(lens)
    return _Stream(handle, ends - lens, ends)


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


def _replay_workload(
    env: Environment,
    phases: Sequence[QueryPhases],
    configs: Sequence[SchemeConfig],
    costs,
    *,
    reset_caches: bool,
) -> Tuple[BatchedLRU, List[Dict[str, Tuple[_Stream, int]]], Dict[str, object]]:
    """Build and run every configuration's per-side replay streams.

    The replay core of :func:`plan_workload_batched`.  Returns the finished
    :class:`BatchedLRU`, one ``side -> (stream, first-phase offset)``
    mapping per configuration, and the live cache simulators by side
    (for :func:`_writeback_sims`).
    """
    client = env.client_cpu
    server = env.server_cpu
    sims = {"client": client.dcache, "server": server.l1}
    use_sim = {"client": client.use_cache_sim, "server": server.use_cache_sim}
    geoms = {
        "client": CacheGeometry.of(client.dcache, client.costs),
        "server": CacheGeometry.of(server.l1, server.costs),
    }

    batch = BatchedLRU()
    all_streams: List[_Stream] = []
    # Per config: side -> (stream, index of the config's first phase in it).
    per_config: List[Dict[str, Tuple[_Stream, int]]] = []

    if reset_caches:
        table: Dict[tuple, _Stream] = {}
        for config in configs:
            sides: Dict[str, List[PhaseTrace]] = {"client": [], "server": []}
            for qp in phases:
                for side, trace in _query_phase_slots(qp, config, costs):
                    sides[side].append(trace)
            entry: Dict[str, Tuple[_Stream, int]] = {}
            for side, traces in sides.items():
                if not traces or not use_sim[side]:
                    continue
                # Identical trace sequences replay identically from cold:
                # share one simulated stream across configurations.
                sig = (side, tuple(map(id, traces)))
                stream = table.get(sig)
                if stream is None:
                    stream = _make_stream(batch, traces, geoms[side], None)
                    table[sig] = stream
                    all_streams.append(stream)
                entry[side] = (stream, 0)
            per_config.append(entry)
    else:
        sides_all: Dict[str, List[PhaseTrace]] = {"client": [], "server": []}
        base_at: List[Dict[str, int]] = []
        for config in configs:
            base_at.append({s: len(sides_all[s]) for s in sides_all})
            for qp in phases:
                for side, trace in _query_phase_slots(qp, config, costs):
                    sides_all[side].append(trace)
        side_stream: Dict[str, _Stream] = {}
        for side, traces in sides_all.items():
            if not traces or not use_sim[side]:
                continue
            side_stream[side] = _make_stream(
                batch, traces, geoms[side], sims[side].ways()
            )
            all_streams.append(side_stream[side])
        for ci in range(len(configs)):
            per_config.append(
                {s: (stream, base_at[ci][s]) for s, stream in side_stream.items()}
            )

    batch.run()
    for stream in all_streams:
        stream.finish(batch)
    return batch, per_config, sims


def _writeback_sims(
    batch: BatchedLRU,
    per_config: List[Dict[str, Tuple[_Stream, int]]],
    sims: Dict[str, object],
    env: Environment,
    *,
    reset_caches: bool,
) -> None:
    """Leave the environment's caches exactly as the scalar loop would."""
    if reset_caches:
        env.reset_caches()
        for side, (stream, _base) in per_config[-1].items():
            sim = sims[side]
            sim.load_ways(batch.final_ways(stream.handle))
            sim.hits = stream.hits_total
            sim.misses = stream.misses_total
    else:
        for side, (stream, _base) in (per_config[-1] if per_config else {}).items():
            sim = sims[side]
            sim.load_ways(batch.final_ways(stream.handle))
            sim.hits += stream.hits_total
            sim.misses += stream.misses_total


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

    including the caches' final state.  With ``reset_caches=False`` the
    replay instead continues from the caches' current contents, chaining
    all configurations on one warm timeline (no cross-config stream
    sharing is possible then).  Returns one plan list per configuration,
    aligned with ``configs``.
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
    costs = env.dataset.costs
    phases = compute_query_phases(env, queries, phase_cache)

    client = env.client_cpu
    server = env.server_cpu
    batch, per_config, sims = _replay_workload(
        env, phases, configs, costs, reset_caches=reset_caches
    )

    plans_all: List[List[QueryPlan]] = []
    for ci, config in enumerate(configs):
        entry = per_config[ci]
        seq = {"client": 0, "server": 0}
        plans: List[QueryPlan] = []
        for qi, qp in enumerate(phases):
            slot_costs = []
            for side, trace in _query_phase_slots(qp, config, costs):
                cpu = client if side == "client" else server
                if side in entry:
                    stream, base = entry[side]
                    h, m = stream.phase_hm(base + seq[side])
                    slot_costs.append(cpu.compute_replayed(trace.counter, h, m))
                else:
                    # No cache simulation on this side: the scalar path's
                    # fallback estimate uses only the counts.
                    slot_costs.append(cpu.compute(trace.counter))
                seq[side] += 1
            plans.append(_assemble_plan(queries[qi], config, qp, costs, slot_costs))
        plans_all.append(plans)

    _writeback_sims(batch, per_config, sims, env, reset_caches=reset_caches)
    return plans_all


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
