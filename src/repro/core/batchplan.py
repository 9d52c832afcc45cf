"""Batched multi-query planner: plan whole workloads, not single queries.

:func:`repro.core.executor.plan_query` runs one query's phases against the
tree, replays its memory trace through the stateful CPU caches, and prices
the counts — a Python loop per query, per scheme, that dominates
``Session.run`` wall time on figure-scale workloads.  This module produces
the *identical* plans, as columns, in two vectorized stages:

1. **Phase data** (:func:`compute_query_phases`): every distinct point/range
   query is filtered in one call of the compiled depth-first filter
   (:func:`repro.spatial.batchtraverse.batch_filter`) and refined in one
   bulk :mod:`~repro.spatial.vecgeom` call over the concatenated candidate
   sets; every distinct NN/k-NN query runs in one call of the compiled
   best-first search (:func:`repro.spatial.batchtraverse.batch_nearest`),
   which reproduces each query's scalar heap-pop order, tie-breaks and op
   tallies exactly.  Their CSR outputs become one :class:`PhaseTable`, a
   row per distinct query: its candidates and answers, and for each phase
   kind its memory accesses (byte address and size, laid out once at
   :mod:`repro.sim.cpu`'s region addresses) and op counts.  Phase data is
   *placement-free*: schemes differ in where phases run, never in what they
   compute, so one table serves every scheme of a grid.
2. **Cache replay and pricing** (:func:`_replay_workload`, the one replay
   builder, shared with :class:`repro.serve.QueryService`): each side's
   phases are gathered from the table into named streams of byte accesses
   (exactly the ``CacheSim.access`` calls of the scalar path), all replayed
   in one call of :class:`repro.sim.cache.BatchedLRU`.  A sweep gives each
   configuration its own cold streams, and identical cold streams (e.g. the
   server's work under both FULLY_SERVER placements) are simulated once;
   the service seeds its streams from the live caches.  Every phase of a
   side is then priced in one array call of the CPU models'
   ``compute_replayed``, and the plans come out as
   :class:`~repro.core.gridrun.PlanColumns`: per step template, one column
   per step (:data:`_PLANS` lays the steps out as ``plan_query`` does).  A plan object is assembled only when one is read.  The
   environment's caches are left exactly as the scalar loop would leave
   them.

The op counts are **replayed, not re-derived**: a table's counts are the
scalar traversal's tallies (the paper's cost model), assembled from the
batch traversal's outputs, never from counting NumPy operations.  Equality
with the scalar planner — ids, counts, priced energy/cycles, final cache
state — is enforced bit for bit by the differential suite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Hashable, List, NamedTuple, Sequence, Tuple

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
from repro.core.gridrun import PlanAnswers, PlanColumns
from repro.core.queries import Query, QueryKind, RangeQuery, query_key
from repro.core.schemes import Scheme, SchemeConfig, validate_pairs
from repro.sim.cache import BatchedLRU, CacheSim
from repro.sim.cpu import REGION_BASES, ComputeCost, region_strides
from repro.sim.trace import REGION_DATA, REGION_INDEX, REGION_RESULT, OpCounter
from repro.spatial import vecgeom
from repro.spatial.batchtraverse import batch_filter, batch_nearest

__all__ = [
    "PhaseRow",
    "PhaseTable",
    "compute_query_phases",
    "plan_workload_batched",
    "plans_equal",
]


# ----------------------------------------------------------------------
# Phase data
# ----------------------------------------------------------------------
#: Phase kinds, the first axis of a :class:`PhaseTable`'s spans and counts:
#: the filter, the refinement, the answer (the filter followed by the
#: refinement, or the NN search), and the client's display of the answers
#: with the data items (received over the wire) and without them.
_KINDS = 5
FILTER, REFINE, ANSWER, DISPLAY_DATA, DISPLAY_IDS = range(_KINDS)
#: Each op count's column in a count matrix.
_FIELD = {name: i for i, name in enumerate(OpCounter._COUNT_FIELDS)}


class PhaseRow(NamedTuple):
    """One query's row of a :class:`PhaseTable`."""

    is_nn: bool
    cand_ids: np.ndarray
    answer_ids: np.ndarray


@dataclass(frozen=True, eq=False)
class PhaseTable(Sequence):
    """Placement-free phase data of a query list, a row per distinct query.

    ``rows[i]`` is input query ``i``'s row; queries with one
    :func:`~repro.core.queries.query_key` share it.  Row ``r``'s candidates
    are ``cand_ids[cand_offsets[r]:cand_offsets[r + 1]]`` (none for an NN
    row) and its answers ``ans_ids[ans_offsets[r]:ans_offsets[r + 1]]``.
    Its phase of kind ``k`` makes the accesses ``(addrs[j], nbytes[j])``
    for ``j`` from ``starts[k, r]`` to ``ends[k, r]``, in order: the scalar
    phase's ``CacheSim.access`` calls.  ``counts[k, r]`` are that phase's op
    counts, in ``OpCounter._COUNT_FIELDS`` order.  As a sequence the table
    reads as each input query's :class:`PhaseRow`.
    """

    rows: np.ndarray
    is_nn: np.ndarray
    cand_offsets: np.ndarray
    cand_ids: np.ndarray
    ans_offsets: np.ndarray
    ans_ids: np.ndarray
    addrs: np.ndarray
    nbytes: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    counts: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> PhaseRow:
        return self.row(self.rows[i])

    def row(self, r: int) -> PhaseRow:
        """Row ``r``'s query kind, candidates and answers."""
        c, a = self.cand_offsets, self.ans_offsets
        return PhaseRow(bool(self.is_nn[r]), self.cand_ids[c[r]:c[r + 1]],
                        self.ans_ids[a[r]:a[r + 1]])


def _set(counts: np.ndarray, **fields) -> None:
    """Write op counts by name into a ``(rows, fields)`` count matrix."""
    for name, value in fields.items():
        counts[:, _FIELD[name]] = value


def _refine(ds, res, windows: np.ndarray, is_range: np.ndarray) -> np.ndarray:
    """Which of a :func:`batch_filter` result's candidates are answers:
    every query's candidates in one bulk call per predicate.  Row ``i`` of
    ``windows`` is query ``i``'s ``(xmin, ymin, xmax, ymax, eps)``, a point
    query's window the degenerate ``(x, y, x, y)``."""
    cand = res.cand_ids
    rq = np.repeat(np.arange(is_range.size), np.diff(res.cand_offsets))
    ranged = is_range[rq]
    mask = np.empty(cand.size, dtype=bool)
    sel = np.flatnonzero(ranged)
    if sel.size:
        c, q = cand[sel], windows[rq[sel]].T
        mask[sel] = vecgeom.segments_intersect_rects(
            ds.x1[c], ds.y1[c], ds.x2[c], ds.y2[c], *q[:4]
        )
    sel = np.flatnonzero(~ranged)
    if sel.size:
        c, q = cand[sel], windows[rq[sel]].T
        mask[sel] = vecgeom.segments_contain_points(
            q[0], q[1], ds.x1[c], ds.y1[c], ds.x2[c], ds.y2[c], q[4]
        )
    return mask


def _compute_phases(env: Environment, todo: Dict[tuple, Query]) -> PhaseTable:
    """The phase table of the distinct queries ``todo`` (by key), its
    ``rows`` in ``todo`` order: one compiled filter call and one bulk
    refinement for the point/range queries, one compiled best-first call
    for the NN/k-NN queries."""
    ds = env.dataset
    tree = env.tree
    costs = ds.costs
    queries = list(todo.values())
    nn_of = np.array([q.kind is QueryKind.NEAREST_NEIGHBOR for q in queries], dtype=bool)
    # Point/range rows first, then NN rows.
    order = np.argsort(nn_of, kind="stable")
    rows = np.empty(order.size, dtype=np.intp)
    rows[order] = np.arange(order.size)
    pr = [queries[i] for i in order[: order.size - int(nn_of.sum())]]
    nq = [queries[i] for i in order[len(pr):]]

    is_range = np.array([isinstance(q, RangeQuery) for q in pr], dtype=bool)
    windows = np.array(
        [q.window.as_tuple() + (getattr(q, "eps", 0.0),) for q in pr],
        dtype=np.float64,
    ).reshape(-1, 5)
    res = batch_filter(tree, *windows.T[:4])
    nn = batch_nearest(
        tree, [q.x for q in nq], [q.y for q in nq], np.array([getattr(q, "k", 1) for q in nq])
    )
    mask = _refine(ds, res, windows, is_range)

    n_pr, n_rows = len(pr), order.size
    is_nn = np.arange(n_rows) >= n_pr
    cand = res.cand_ids
    nc = np.diff(res.cand_offsets)
    ans = np.concatenate([cand[mask], nn.ans_ids])
    na = np.concatenate([
        np.diff(np.cumsum(np.r_[0, mask])[res.cand_offsets]), np.diff(nn.ans_offsets)
    ])

    # A row's accesses, part after part: the filter's node visits (or the
    # NN search's visits and fetches), the refinement's candidate fetches,
    # its answer writes (also the display's, when only ids came back), and
    # the display of each answer with its data item.  Every access is laid
    # out at its byte address in its region (sim.cpu's layout).
    sizes = np.stack([
        np.concatenate([np.diff(res.visited_offsets), np.diff(nn.log_offsets)]),
        np.concatenate([nc, np.zeros(len(nq), dtype=np.int64)]),
        na,
        2 * na,
    ])
    ends = np.cumsum(sizes.T.ravel()).reshape(n_rows, len(sizes)).T
    starts = ends - sizes
    addrs = np.empty(int(sizes.sum()), dtype=np.int64)
    nbytes = np.empty(addrs.size, dtype=np.int64)
    bases = np.array(REGION_BASES, dtype=np.int64)
    strides = np.array(region_strides(costs), dtype=np.int64)

    def place(part, every=1):
        """Where each access of ``part`` goes, each row's from its start:
        every ``every``-th position, for ``every`` accesses per id."""
        n = sizes[part] // every
        at = np.arange(0, every * int(n.sum()), every)
        at += np.repeat(starts[part] - every * (np.cumsum(n) - n), n)
        return at

    def put(at, region, ids, size):
        addrs[at] = bases[region] + ids * strides[region]
        nbytes[at] = size

    seg, oid = costs.segment_record_bytes, costs.object_id_bytes
    log_entry = np.concatenate([np.zeros(res.visited.size, dtype=bool), nn.log_is_entry])
    log_ids = np.concatenate([res.visited, nn.log_ids])
    log_nbytes = np.full(log_ids.size, seg, dtype=np.int64)
    nodes = ~log_entry
    log_nbytes[nodes] = tree.node_bytes_array()[log_ids[nodes]]
    put(place(0), np.where(log_entry, REGION_DATA, REGION_INDEX), log_ids, log_nbytes)
    put(place(1), REGION_DATA, cand, seg)
    put(place(2), REGION_RESULT, ans, oid)
    at = place(3, every=2)
    put(at, REGION_RESULT, ans, oid)
    put(at + 1, REGION_DATA, ans, seg)
    spans = (
        (starts[0], np.where(is_nn, starts[0], ends[0])),  # filter
        (starts[1], np.where(is_nn, starts[1], ends[2])),  # refine
        (starts[0], np.where(is_nn, ends[0], ends[2])),  # answer
        (starts[3], ends[3]),  # display with data items
        (starts[2], ends[2]),  # display without
    )

    counts = np.zeros((_KINDS, n_rows, len(_FIELD)), dtype=np.int64)
    filt, refine = counts[FILTER, :n_pr], counts[REFINE, :n_pr]
    _set(filt, nodes_visited=np.diff(res.visited_offsets), mbr_tests=res.mbr_tests,
         entries_scanned=nc)
    # A window with no candidates refines nothing: zero counts, as
    # engine.refine returns before its geometry tests.
    _set(refine, candidates_refined=nc, point_refine_tests=np.where(is_range, 0, nc),
         range_refine_tests=np.where(is_range, nc, 0), results_produced=na[:n_pr])
    counts[ANSWER, :n_pr] = filt + refine
    _set(counts[ANSWER, n_pr:], nodes_visited=nn.nodes_visited, mbr_tests=nn.mbr_tests,
         candidates_refined=nn.candidates_refined, distance_evals=nn.candidates_refined,
         heap_ops=nn.heap_ops, results_produced=nn.results_produced)
    counts[DISPLAY_DATA:, :, _FIELD["results_produced"]] = na

    return PhaseTable(
        rows=rows,
        is_nn=is_nn,
        cand_offsets=np.concatenate([res.cand_offsets, np.full(len(nq), cand.size)]),
        cand_ids=cand,
        ans_offsets=np.concatenate([[0], np.cumsum(na)]),
        ans_ids=ans,
        addrs=addrs,
        nbytes=nbytes,
        starts=np.stack([s for s, _ in spans]),
        ends=np.stack([e for _, e in spans]),
        counts=counts,
    )


def compute_query_phases(env: Environment, queries: Sequence[Query]) -> PhaseTable:
    """The phase table of ``queries``: each distinct query (by
    :func:`~repro.core.queries.query_key`) is computed once, and repeats
    share its row."""
    keys = [query_key(q) for q in queries]
    todo: Dict[tuple, Query] = {}
    for k, q in zip(keys, queries):
        todo.setdefault(k, q)
    table = _compute_phases(env, todo)
    pos = {k: i for i, k in enumerate(todo)}
    return replace(table, rows=table.rows[np.array([pos[k] for k in keys], dtype=np.intp)])


# ----------------------------------------------------------------------
# Cache replay + plan assembly
# ----------------------------------------------------------------------
def _result(n: int, config: SchemeConfig, costs):
    return (id_list_payload if config.data_at_client else data_items_payload)(n, costs)


#: The display step's phase kind, chosen per configuration (:func:`_spec`).
_DISPLAY = -1

#: Each scheme's plan, step by step as ``plan_query`` builds it.  A compute
#: step is ``(step type, labels, kind)``: its labels for point/range and
#: for NN queries, and the phase kind it prices.  A message is
#: ``(step type, payload, count)``: ``payload(n, config, costs)`` for the
#: query's candidate (``count`` 0) or result (1) count.
_PLANS = {
    Scheme.FULLY_CLIENT: (
        (ClientComputeStep, ("filter + refine at client", "nn search at client"), ANSWER),
    ),
    Scheme.FULLY_SERVER: (
        (SendStep, lambda n, _, costs: request_payload(costs), 0),
        (ServerComputeStep, ("filter + refine at server", "nn search at server"), ANSWER),
        (RecvStep, _result, 1),
        (ClientComputeStep, ("display",) * 2, _DISPLAY),
    ),
    Scheme.FILTER_CLIENT_REFINE_SERVER: (
        (ClientComputeStep, ("filter at client",) * 2, FILTER),
        (SendStep, lambda n, _, costs: request_with_candidates_payload(n, costs), 0),
        (ServerComputeStep, ("refine at server",) * 2, REFINE),
        (RecvStep, _result, 1),
        (ClientComputeStep, ("display",) * 2, _DISPLAY),
    ),
    Scheme.FILTER_SERVER_REFINE_CLIENT: (
        (SendStep, lambda n, _, costs: request_payload(costs), 0),
        (ServerComputeStep, ("filter at server",) * 2, FILTER),
        (RecvStep, lambda n, _, costs: id_list_payload(n, costs), 0),
        (ClientComputeStep, ("refine at client",) * 2, REFINE),
    ),
}
#: Each scheme's step template.
_TEMPLATE = {scheme: tuple(s[0] for s in steps) for scheme, steps in _PLANS.items()}
_SIDES = (ClientComputeStep, ServerComputeStep)


def _spec(config: SchemeConfig, costs) -> tuple:
    """``config``'s step template; each side's compute steps' phase kinds,
    in step order (the client displays the data items it received, unless
    the data sits at the client and only ids came back); and each message
    step's payload as ``(zero, per, count)``: ``zero + per * n`` bytes for
    the query's ``n`` candidates (``count`` 0) or results (1), since every
    payload of :mod:`repro.core.messages` is affine in its count."""
    display = DISPLAY_IDS if config.data_at_client else DISPLAY_DATA
    steps = _PLANS[config.scheme]
    kinds = [
        np.array([display if s[2] == _DISPLAY else s[2] for s in steps if s[0] is side],
                 dtype=np.intp)
        for side in _SIDES
    ]
    sizes = {}
    for pos, (kind, payload, count) in enumerate(steps):
        if kind not in _SIDES:
            zero = payload(0, config, costs).nbytes
            sizes[pos] = (zero, payload(1, config, costs).nbytes - zero, count)
    return _TEMPLATE[config.scheme], kinds, sizes


def _add_streams(
    batch: BatchedLRU,
    table: PhaseTable,
    named: Dict[Hashable, list],
    seeds: Dict[Hashable, np.ndarray],
    sim: CacheSim,
    handles: Dict[Hashable, int],
    at: Dict[Hashable, int],
) -> Tuple[range, np.ndarray]:
    """Add one side's named streams to ``batch`` as one block.

    ``named`` maps each name to its phases, as arrays of flat
    ``(kind, row)`` indices into ``table``'s spans and counts, and their
    number.  Each stream is its phases' accesses end to end, gathered from
    the table in one step for the whole side.  Unseeded streams with
    identical phase sequences replay identically from cold, so they share
    one stream.  Each name's stream handle goes into ``handles`` and its
    first phase within the block into ``at``.  Returns the block's handles
    and its phases.
    """
    specs: List[tuple] = []
    spec_of: Dict[Hashable, int] = {}
    cold: Dict[bytes, int] = {}
    for name, (parts, n) in named.items():
        if not n:
            continue
        seed = seeds.get(name)
        if seed is None:
            k = cold.setdefault(np.concatenate(parts).tobytes(), len(specs))
        else:
            k = len(specs)
        if k == len(specs):
            specs.append((parts, n, seed))
        spec_of[name] = k
    if not specs:
        return range(0), np.empty(0, dtype=np.intp)
    phases = np.concatenate([p for parts, _, _ in specs for p in parts])
    # One multi-range gather: phase j's accesses are the table's from
    # lo[j] to lo[j] + size[j].
    lo = table.starts.ravel()[phases]
    size = table.ends.ravel()[phases] - lo
    phase_ends = np.cumsum(size)
    # The index is the gather's largest temporary: 32-bit positions halve
    # it, for any side and table of fewer than 2**31 accesses.
    index = np.int32 if max(phase_ends[-1], table.addrs.size) < 2**31 else np.int64
    gather = np.repeat((lo - (phase_ends - size)).astype(index), size)
    gather += np.arange(gather.size, dtype=index)
    stream_ends = np.cumsum([n for _, n, _ in specs]).tolist()
    seed_ways = None
    if any(seed is not None for *_, seed in specs):
        cold_ways = np.full((sim.n_sets, sim.assoc), -1, dtype=np.int64)
        seed_ways = np.stack([cold_ways if w is None else w for *_, w in specs])
    block = batch.add_streams(
        table.addrs[gather], table.nbytes[gather], phase_ends, stream_ends,
        sim.line_bytes, sim.n_sets, sim.assoc, seed_ways,
    )
    for name, k in spec_of.items():
        handles[name], at[name] = block[k], stream_ends[k] - specs[k][1]
    return block, phases


def _assemble_plan(
    query: Query, config: SchemeConfig, row: PhaseRow, costs, slot_costs: list
) -> QueryPlan:
    """``plan_query``'s plan, with its compute steps pre-priced:
    ``slot_costs`` holds a :class:`~repro.sim.cpu.ComputeCost` per client
    step and cycles per server step, in step order."""
    counts = (int(row.cand_ids.size), int(row.answer_ids.size))
    slots = iter(slot_costs)
    steps: List[PlanStep] = [
        kind(next(slots), a[row.is_nn]) if kind in _SIDES else kind(a(counts[b], config, costs))
        for kind, a, b in _PLANS[config.scheme]
    ]
    return QueryPlan(query, config, steps, row.answer_ids, *counts)


def _answers(table: PhaseTable, rows: np.ndarray) -> PlanAnswers:
    """The answer ids and tallies of the plans of table ``rows``."""
    a, c = table.ans_offsets, table.cand_offsets
    lo, hi = a[rows].tolist(), a[rows + 1].tolist()
    return PlanAnswers([table.ans_ids[i:j] for i, j in zip(lo, hi)],
                       (c[rows + 1] - c[rows]).tolist(), [j - i for i, j in zip(lo, hi)])


#: One replay group: ``(table rows, scheme, client-stream name,
#: server-stream name)``; see :func:`_replay_workload`.
_Group = Tuple[np.ndarray, SchemeConfig, Hashable, Hashable]


def _replay_workload(
    env: Environment,
    table: PhaseTable,
    groups: Sequence[_Group],
    seeds: Dict[Hashable, np.ndarray],
) -> Tuple[Dict[tuple, tuple], Dict[Hashable, tuple]]:
    """Replay every group's data-cache streams and price its plans as columns.

    The one replay builder, behind :func:`plan_workload_batched` and
    :meth:`repro.serve.QueryService._replay_batch`.  A group plans the
    queries at its ``table`` rows under its scheme.  ``groups`` come in
    replay order; each group's client phases run on the stream its client
    name names and its server phases on the stream its server name names,
    so a name several groups share is one timeline continuing across them
    (a name is a client name or a server name, never both).
    ``seeds`` warm-starts streams by name with a way matrix
    (:meth:`repro.sim.cache.CacheSim.ways`); other streams start cold, and
    cold streams with identical phase sequences are simulated once.  Each
    side's streams are one :meth:`~repro.sim.cache.BatchedLRU.add_streams`
    block, and each side's phases are priced in one ``compute_replayed``.

    Returns every group's plans, numbered in group order, as one
    :class:`~repro.core.gridrun.PlanColumns` block per step template (a
    group's plans consecutive in it), and each named stream's final way
    matrix and per-phase hits and lines (a name with no phases has none).
    """
    costs = env.dataset.costs
    n_rows = table.is_nn.size

    # Each side's named streams, in replay order: per name, its groups'
    # phases as flat (kind, row) indices and their number.  Per step
    # template, its groups: each one's first plan, table rows, message
    # sizes, stream names and where its phases start in them.
    named: List[Dict[Hashable, list]] = [{}, {}]
    layout: Dict[tuple, list] = {}
    by_config: Dict[SchemeConfig, tuple] = {}
    plan = 0
    for rows, config, *names in groups:
        spec = by_config.get(config)
        if spec is None:
            spec = by_config[config] = _spec(config, costs)
        template, kinds, sizes = spec
        firsts = []
        for side, name, side_kinds in zip(named, names, kinds):
            stream = side.setdefault(name, [[], 0])
            firsts.append(stream[1])
            if side_kinds.size:
                stream[0].append((rows[:, None] + side_kinds * n_rows).ravel())
                stream[1] += rows.size * side_kinds.size
        layout.setdefault(template, []).append((plan, rows, sizes, names, firsts))
        plan += rows.size

    # One block per side.  ``at`` points each name at its stream's first
    # phase in its side's per-phase hits and misses.
    batch = BatchedLRU()
    handles: Dict[Hashable, int] = {}
    at: Dict[Hashable, int] = {}
    sims = (env.client_cpu.dcache, env.server_cpu.l1)
    sides = [_add_streams(batch, table, s, seeds, sim, handles, at)
             for s, sim in zip(named, sims)]
    batch.run()
    replayed = [batch.phases_of(block) for block, _ in sides]
    finals = {}
    for side, (hits, lines) in zip(named, replayed):
        for name, (_, n) in side.items():
            if name in handles:
                span = slice(at[name], at[name] + n)
                finals[name] = (batch.final_ways(handles[name]), hits[span], lines[span])
    del batch  # free the accesses and per-line verdicts before pricing

    # Price every phase of each side in one call, its op counts one row
    # gather from the table, then gather the phases behind the blocks'
    # compute columns, block by block and step by step, so that each
    # compute column is a slice.
    cpus = (env.client_cpu, env.server_cpu)
    per_phase = table.counts.reshape(-1, len(_FIELD))
    priced = [
        cpu.compute_replayed(OpCounter(*per_phase[phases].T, record_trace=False),
                             hits, lines - hits)
        for cpu, (_, phases), (hits, lines) in zip(cpus, sides, replayed)
    ]
    picks: List[List[int]] = [[], []]
    for template, parts in layout.items():
        for i, (kind, slots) in enumerate(zip(_SIDES, picks)):
            k = template.count(kind)
            for pos in range(k):
                for _, rows, _, names, firsts in parts:
                    lo = at.get(names[i], 0) + firsts[i]
                    slots.extend(range(lo + pos, lo + k * rows.size, k))
    taken = {
        ClientComputeStep: _take(priced[0], np.array(picks[0], dtype=np.intp)),
        ServerComputeStep: priced[1].cycles[np.array(picks[1], dtype=np.intp)],
    }
    used = dict.fromkeys(taken, 0)
    # A message column is ``zero + per * count`` of each plan's candidate
    # or result count, its coefficients its group's.
    c, a = table.cand_offsets, table.ans_offsets
    blocks: Dict[tuple, tuple] = {}
    for template, parts in layout.items():
        plans = np.concatenate([np.arange(p, p + r.size) for p, r, *_ in parts])
        rows = np.concatenate([r for _, r, *_ in parts])
        n_of = [r.size for _, r, *_ in parts]
        n_counts = np.stack([c[rows + 1] - c[rows], a[rows + 1] - a[rows]])
        at_plan = np.arange(rows.size)
        columns = []
        for pos, kind in enumerate(template):
            if kind in taken:
                columns.append(_take(taken[kind], slice(used[kind], used[kind] + rows.size)))
                used[kind] += rows.size
            else:
                zero, per, count = (np.repeat(v, n_of)
                                    for v in zip(*(sizes[pos] for _, _, sizes, *_ in parts)))
                columns.append(zero + per * n_counts[count, at_plan])
        blocks[template] = (template, plans, columns)
    return blocks, finals


def _take(column, part):
    """``part`` (a slice or an index array) of one step position's column."""
    if isinstance(column, ComputeCost):
        return ComputeCost(*(v[part] for v in vars(column).values()))
    return column[part]


def plan_workload_batched(
    env: Environment,
    queries: Sequence[Query],
    configs: Sequence[SchemeConfig],
) -> List[PlanColumns]:
    """Plan every query under every scheme configuration at once.

    Equivalent, plan for plan and bit for bit, to::

        for config in configs:
            env.reset_caches()
            [plan_query(q, config, env) for q in queries]

    including the caches' final state.  Each configuration replays on its
    own cold streams.  Returns one :class:`~repro.core.gridrun.PlanColumns`
    per configuration, aligned with ``configs``: what
    :func:`~repro.core.gridrun.price_grid` prices, and a sequence of the
    ``plan_query`` plans, each built when read.
    """
    queries = list(queries)
    configs = list(configs)
    if not configs:
        return []
    # Scalar planning validates config-major, query-minor; raise its first
    # error before doing any work, checking the first query of each kind.
    kinds = {q.kind: q for q in reversed(queries)}.values()
    validate_pairs((config, q) for config in configs for q in kinds)
    phases = compute_query_phases(env, queries)
    rows = phases.rows
    groups = [
        (rows, config, ("client", i), ("server", i))
        for i, config in enumerate(configs)
    ]
    blocks, finals = _replay_workload(env, phases, groups, {})

    # Leave the environment's caches exactly as the scalar loop would: the
    # last configuration's final states.
    env.reset_caches()
    for sim, name in zip((env.client_cpu.dcache, env.server_cpu.l1), groups[-1][2:]):
        if name in finals:
            ways, hits, lines = finals[name]
            sim.load_ways(ways)
            sim.hits += int(hits.sum())
            sim.misses += int((lines - hits).sum())

    # Configuration i's plans are group i's rows of its template's block.
    answers, n, firsts, out = _answers(phases, rows), len(queries), {}, []
    for config in configs:
        template, _, columns = blocks[_TEMPLATE[config.scheme]]
        first = firsts[template] = firsts.get(template, -n) + n
        part = slice(first, first + n)
        out.append(PlanColumns(
            [(template, np.arange(n), [_take(c, part) for c in columns])], answers,
            lambda i, slot_costs, config=config: _assemble_plan(
                queries[i], config, phases[i], env.dataset.costs, slot_costs),
        ))
    return out


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
