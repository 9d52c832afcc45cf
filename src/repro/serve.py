"""Multi-tenant query service: admission, micro-batching, contention pricing.

The paper prices one client against one server.  :class:`QueryService`
promotes that to serving scale: a fleet of heterogeneous clients
(:class:`~repro.data.workloads.ClientProfile`) submits a time-ordered stream
of :class:`~repro.data.workloads.QueryRequest` arrivals, and the service

1. **admits** each arrival — rejecting it when the bounded arrival queue is
   full (``max_queue``) or the client's energy budget is spent
   (``battery_j``),
2. **coalesces** admitted queries across clients into micro-batches (up to
   ``max_batch`` queries, formed after a ``batch_window_s`` collection
   window), each replayed from the stream's phase table (one batched
   traversal of every distinct query of the stream, made before
   admission) and priced by one vectorized grid call — the cross-client
   amortization the batched planner/pricer were built for, and
3. **prices contention** with a simple queueing/service-time model over
   :class:`~repro.sim.server.ServerCPU`: the server is a single resource,
   so each query's server-side compute serializes within its batch, and a
   query's extra wait (batch formation + earlier batch members' server
   time) is charged at the client's blocked power — NIC idle plus the CPU's
   wait-policy power, exactly the rates a
   :class:`~repro.core.executor.WaitStep` would burn.

Every request yields one typed :class:`QueryOutcome` (admission verdict,
latency, energy, contention), collected in a :class:`ServiceReport` and,
when the session has a :class:`~repro.core.gridrun.RunLedger`, recorded as
``outcome`` / ``serve_batch`` / ``serve`` events.

**Semantics.** Each client is its own physical device: it sees a private
client D-cache, cold at fleet start and warming across its own queries in
arrival order (the batched replay continues each client's cache state
across micro-batches by warm seeding, carried as a
:class:`~repro.sim.cache.BatchedLRU` way matrix).  The server is one
physical machine: its L1 is *shared service state*, warming across every
served query in dispatch order, whoever issued it.  Serving is therefore
*plan-for-plan identical* to serving the same dispatch sequence one query
at a time — ``planner="serial"`` runs that reference implementation, and
the differential suite pins the two together; a single-client fleet
degenerates to today's ``Session`` results bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api import Session
# The replay builder is looked up through its module at call time, so a
# wrapper rebound there (perfbench's tracer) sees serve's replays too.
from repro.core import batchplan
from repro.core.batchplan import PhaseTable, compute_query_phases
from repro.core.executor import (
    Environment,
    QueryPlan,
    RunResult,
    ServerComputeStep,
    plan_query,
    price_plan,
)
from repro.core.gridrun import PlanColumns, RunLedger
from repro.core.queries import Query
from repro.core.schemes import SchemeConfig, validate_pairs
from repro.data.model import SegmentDataset
from repro.data.workloads import ClientProfile, QueryRequest
from repro.sim.cache import CacheSim

__all__ = [
    "QueryService",
    "QueryOutcome",
    "ServiceReport",
    "SERVE_PLANNERS",
    "VERDICTS",
]

#: Service planners: ``"batched"`` coalesces each micro-batch through the
#: batched planner/pricer (the point of the service); ``"serial"`` is the
#: per-query scalar reference the differential suite compares against.
SERVE_PLANNERS = ("batched", "serial")

#: Admission verdicts a request can receive.
VERDICTS = ("served", "rejected-queue", "rejected-battery")


@dataclass(frozen=True, kw_only=True)
class QueryOutcome:
    """One request's fate: admission verdict plus its priced costs.

    For served requests ``latency_s`` is queueing delay (batch formation
    plus server contention) + the plan's own wall time, and ``energy_j`` is
    the plan's client energy + ``contention_j`` (the blocked-power cost of
    the queueing delay).  Rejected requests carry zero costs.
    """

    client_id: int
    query: Query
    verdict: str
    arrival_s: float
    scheme: str = ""
    batch: int = -1
    start_s: float = 0.0
    queue_wait_s: float = 0.0
    server_s: float = 0.0
    latency_s: float = 0.0
    energy_j: float = 0.0
    contention_j: float = 0.0
    answer_ids: Tuple[int, ...] = ()
    n_results: int = 0
    result: Optional[RunResult] = field(default=None, compare=False)

    @property
    def served(self) -> bool:
        """Whether the request was admitted and answered."""
        return self.verdict == "served"

    def to_record(self) -> dict:
        """This outcome as a flat dict (ledger ``outcome`` events)."""
        rec = {
            "client_id": self.client_id,
            "verdict": self.verdict,
            "arrival_s": self.arrival_s,
        }
        if self.served:
            rec.update(
                scheme=self.scheme,
                batch=self.batch,
                queue_wait_s=self.queue_wait_s,
                server_s=self.server_s,
                latency_s=self.latency_s,
                energy_j=self.energy_j,
                contention_j=self.contention_j,
                n_results=self.n_results,
            )
        return rec


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


@dataclass(frozen=True)
class ServiceReport:
    """Everything one :meth:`QueryService.serve` call produced."""

    outcomes: Tuple[QueryOutcome, ...]
    planner: str
    n_batches: int
    #: Real (host) seconds the serve call took — the throughput the
    #: benchmark gates, not a simulated quantity.
    wall_seconds: float
    #: Simulated seconds from t=0 to the last served query's completion.
    makespan_s: float

    def __len__(self) -> int:
        return len(self.outcomes)

    @property
    def served(self) -> List[QueryOutcome]:
        """The served outcomes, in arrival order."""
        return [o for o in self.outcomes if o.served]

    @property
    def n_served(self) -> int:
        """How many requests were admitted and answered."""
        return sum(1 for o in self.outcomes if o.served)

    @property
    def n_rejected_queue(self) -> int:
        """How many requests bounced off the full arrival queue."""
        return sum(1 for o in self.outcomes if o.verdict == "rejected-queue")

    @property
    def n_rejected_battery(self) -> int:
        """How many requests were refused for a spent energy budget."""
        return sum(1 for o in self.outcomes if o.verdict == "rejected-battery")

    @property
    def qps(self) -> float:
        """Simulated sustained throughput: served queries per makespan second."""
        if self.makespan_s <= 0.0:
            return 0.0
        return self.n_served / self.makespan_s

    def latency_percentile(self, q: float) -> float:
        """The ``q``-th percentile of served latency (seconds)."""
        return _percentile([o.latency_s for o in self.served], q)

    def energy_percentile(self, q: float) -> float:
        """The ``q``-th percentile of served per-query energy (joules)."""
        return _percentile([o.energy_j for o in self.served], q)

    @property
    def total_energy_j(self) -> float:
        """Total client energy spent across the fleet (served queries)."""
        return sum(o.energy_j for o in self.served)

    def summary(self) -> dict:
        """The report's aggregates as a flat dict (ledger / BENCH JSON)."""
        return {
            "planner": self.planner,
            "n_requests": len(self.outcomes),
            "n_served": self.n_served,
            "n_rejected_queue": self.n_rejected_queue,
            "n_rejected_battery": self.n_rejected_battery,
            "n_batches": self.n_batches,
            "qps": self.qps,
            "makespan_s": self.makespan_s,
            "wall_seconds": self.wall_seconds,
            "p50_latency_s": self.latency_percentile(50),
            "p99_latency_s": self.latency_percentile(99),
            "p50_energy_j": self.energy_percentile(50),
            "p99_energy_j": self.energy_percentile(99),
            "total_energy_j": self.total_energy_j,
        }


def _cold_clone(sim: CacheSim) -> CacheSim:
    """A fresh, cold cache with ``sim``'s geometry."""
    return CacheSim(sim.n_sets * sim.assoc * sim.line_bytes, sim.assoc, sim.line_bytes)


def _cold_ways(sim: CacheSim) -> np.ndarray:
    """An empty way matrix (:meth:`CacheSim.ways`) with ``sim``'s geometry."""
    return np.full((sim.n_sets, sim.assoc), -1, dtype=np.int64)


class _ClientState:
    """One client's service-side state: virtual D-cache + energy meter.

    The D-cache is a way matrix (:meth:`~repro.sim.cache.CacheSim.ways`),
    updated in place by each micro-batch.  It starts cold at fleet start
    and warms across the client's own queries only — each client device is
    independent, whoever else shares its micro-batches.  (The server's L1
    is *service* state, shared across the fleet; :meth:`QueryService.serve`
    owns it.)
    """

    __slots__ = ("profile", "ways", "spent_j")

    def __init__(self, profile: ClientProfile, env: Environment) -> None:
        self.profile = profile
        self.ways = _cold_ways(env.client_cpu.dcache)
        self.spent_j = 0.0


def _server_cycles(cols: PlanColumns) -> List[float]:
    """Each plan's server compute cycles, summed in step order."""
    out = [0] * len(cols)
    for template, rows, columns in cols.blocks:
        servers = [c.tolist() for k, c in zip(template, columns) if k is ServerComputeStep]
        for i, *cycles in zip(rows.tolist(), *servers):
            out[i] = sum(cycles)
    return out


def _blocked_power_w(policy, env: Environment) -> float:
    """Watts a client burns while blocked waiting (NIC idle + wait-policy CPU)."""
    return policy.nic_power.idle_w + env.client_cpu.blocked_power_w(
        policy.cpu_busy_while_blocked
    )


class QueryService:
    """Serve a client fleet's query stream over one :class:`~repro.api.Session`.

    ``source`` is a :class:`~repro.data.model.SegmentDataset`, a ready
    :class:`~repro.core.executor.Environment`, or a
    :class:`~repro.api.Session` to share (its environment and ledger are
    then common; the ``ledger`` keyword must stay unset).

    ``max_queue`` bounds the arrival queue (arrivals beyond it are
    rejected), ``max_batch`` caps micro-batch size, and ``batch_window_s``
    is the collection window: a batch is dispatched no earlier than its
    oldest member's arrival plus the window (and no earlier than the
    server coming free).
    """

    def __init__(
        self,
        source: Union[SegmentDataset, Environment, Session],
        *,
        max_queue: int = 256,
        max_batch: int = 64,
        batch_window_s: float = 0.05,
        ledger: Optional[RunLedger] = None,
    ) -> None:
        if isinstance(source, Session):
            if ledger is not None:
                raise TypeError(
                    "the ledger is configured on the shared Session; do not "
                    "pass it again"
                )
            self.session = source
        else:
            self.session = Session(source, ledger=ledger)
        for name, value in (("max_queue", max_queue), ("max_batch", max_batch)):
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be an int >= 1, got {value!r}")
        if not (batch_window_s >= 0.0 and math.isfinite(batch_window_s)):
            raise ValueError(
                f"batch_window_s must be finite and >= 0, got {batch_window_s!r}"
            )
        self.max_queue = max_queue
        self.max_batch = max_batch
        self.batch_window_s = batch_window_s

    # ------------------------------------------------------------------
    def serve(
        self,
        requests: Sequence[QueryRequest],
        fleet: Sequence[ClientProfile],
        *,
        planner: str = "batched",
    ) -> ServiceReport:
        """Run the arrival stream to completion; one outcome per request.

        Requests are processed in arrival order.  Each loop turn opens the
        next dispatch instant (oldest waiting arrival + the batch window,
        or the server's free time if later), admits every arrival up to it
        against the queue bound and each client's battery budget, then
        serves up to ``max_batch`` queued queries as one micro-batch.
        The batched planner computes every request's phase data in one
        call before the loop, so a query repeated anywhere in the stream
        is traversed once.  ``planner`` selects the coalesced batched path
        or the per-query serial reference (:data:`SERVE_PLANNERS`); both
        yield identical answers and cache states, and energies equal to
        the pricers' agreement tolerance.
        """
        if planner not in SERVE_PLANNERS:
            raise ValueError(
                f"unknown planner {planner!r}; choose from {SERVE_PLANNERS}"
            )
        profiles: Dict[int, ClientProfile] = {}
        for p in fleet:
            if not isinstance(p, ClientProfile):
                raise TypeError(
                    f"fleet entries must be ClientProfile, got {type(p).__name__}"
                )
            if p.client_id in profiles:
                raise ValueError(f"duplicate client_id {p.client_id} in fleet")
            profiles[p.client_id] = p
        reqs = sorted(requests, key=lambda r: (r.arrival_s, r.client_id))

        def scheme_of(r: QueryRequest) -> SchemeConfig:
            if r.client_id not in profiles:
                raise ValueError(f"request references unknown client_id {r.client_id}")
            return profiles[r.client_id].scheme

        validate_pairs((scheme_of(r), r.query) for r in reqs)

        env = self.session.env
        states = {cid: _ClientState(p, env) for cid, p in profiles.items()}
        server_ways = _cold_ways(env.server_cpu.l1)
        outcomes: List[Optional[QueryOutcome]] = [None] * len(reqs)
        queue: List[int] = []
        t_free = 0.0
        i, n = 0, len(reqs)
        n_batches = 0
        # The clock covers the stream's phase computation too: it is work
        # the serial planner does inside its batches.
        t0 = time.perf_counter()
        if planner == "batched":
            phases = compute_query_phases(env, [r.query for r in reqs])
        while i < n or queue:
            head = queue[0] if queue else i
            t_start = max(reqs[head].arrival_s + self.batch_window_s, t_free)
            while i < n and reqs[i].arrival_s <= t_start:
                r = reqs[i]
                st = states[r.client_id]
                if st.spent_j >= st.profile.battery_j:
                    outcomes[i] = QueryOutcome(
                        client_id=r.client_id,
                        query=r.query,
                        verdict="rejected-battery",
                        arrival_s=r.arrival_s,
                    )
                elif len(queue) >= self.max_queue:
                    outcomes[i] = QueryOutcome(
                        client_id=r.client_id,
                        query=r.query,
                        verdict="rejected-queue",
                        arrival_s=r.arrival_s,
                    )
                else:
                    queue.append(i)
                i += 1
            batch = queue[: self.max_batch]
            del queue[: self.max_batch]
            if not batch:
                continue
            n_batches += 1
            batch_reqs = [reqs[k] for k in batch]
            if planner == "batched":
                cols = self._replay_batch(
                    batch_reqs, phases, phases.rows[batch], states, server_ways
                )
                results = self._price_batch(batch_reqs, cols, states)
            else:
                cols, results = self._serve_serial(
                    batch_reqs, states, server_ways
                )
            # Contention: server-side compute serializes within the batch.
            answers = cols.answers
            server_cycles = _server_cycles(cols)
            clock = env.server_cpu.clock_hz
            cursor = 0.0
            for k, idx in enumerate(batch):
                r = reqs[idx]
                st = states[r.client_id]
                result, server_s = results[k], server_cycles[k] / clock
                delay = (t_start - r.arrival_s) + cursor
                cursor += server_s
                contention_j = delay * _blocked_power_w(st.profile.policy, env)
                energy_j = result.energy.total() + contention_j
                st.spent_j += energy_j
                outcomes[idx] = QueryOutcome(
                    client_id=r.client_id,
                    query=r.query,
                    verdict="served",
                    arrival_s=r.arrival_s,
                    scheme=st.profile.scheme.label,
                    batch=n_batches - 1,
                    start_s=t_start,
                    queue_wait_s=delay,
                    server_s=server_s,
                    latency_s=delay + result.wall_seconds,
                    energy_j=energy_j,
                    contention_j=contention_j,
                    answer_ids=tuple(answers.ids[k].tolist()),
                    n_results=answers.n_results[k],
                    result=result,
                )
            t_free = t_start + cursor
            self.session.record(
                "serve_batch",
                planner=planner,
                batch=n_batches - 1,
                n=len(batch),
                n_clients=len({reqs[k].client_id for k in batch}),
                t_start_s=t_start,
                server_s=cursor,
            )
        wall = time.perf_counter() - t0
        done = [o for o in outcomes if o is not None]
        makespan = max(
            (o.arrival_s + o.latency_s for o in done if o.served), default=0.0
        )
        report = ServiceReport(
            outcomes=tuple(done),
            planner=planner,
            n_batches=n_batches,
            wall_seconds=wall,
            makespan_s=makespan,
        )
        if self.session.ledger is not None:
            for o in report.outcomes:
                self.session.record("outcome", **o.to_record())
            self.session.record("serve", **report.summary())
        return report

    # ------------------------------------------------------------------
    def _replay_batch(
        self,
        batch_reqs: List[QueryRequest],
        phases: PhaseTable,
        rows: np.ndarray,
        states: Dict[int, _ClientState],
        server_ways: np.ndarray,
    ) -> PlanColumns:
        """Plan one micro-batch through the batched machinery.

        ``rows`` are the requests' rows of the stream's phase table
        ``phases``.  The replay builder gets one group per request, in
        dispatch order: each client's phases run on that client's private
        D-cache stream and every server phase on the one shared server-L1
        stream, each
        warm-seeded from its saved way matrix so every timeline continues
        exactly where the last batch left it.  The environment's own
        caches are never touched; the per-client way matrices and
        ``server_ways`` are advanced in place.  Returns the batch's plans,
        one per request, as columns.
        """
        env = self.session.env
        groups = [
            (rows[k : k + 1], states[r.client_id].profile.scheme, r.client_id, "server")
            for k, r in enumerate(batch_reqs)
        ]
        seeds = {r.client_id: states[r.client_id].ways for r in batch_reqs}
        seeds["server"] = server_ways
        blocks, finals = batchplan._replay_workload(env, phases, groups, seeds)
        for name, (final, *_) in finals.items():
            # Client ids are ints, so no client stream is named "server".
            ways = server_ways if name == "server" else states[name].ways
            ways[...] = final
        return PlanColumns(
            list(blocks.values()),
            batchplan._answers(phases, rows),
            lambda k, slot_costs: batchplan._assemble_plan(
                batch_reqs[k].query, groups[k][1], phases.row(rows[k]),
                env.dataset.costs, slot_costs,
            ),
        )

    def _price_batch(
        self,
        batch_reqs: List[QueryRequest],
        cols: PlanColumns,
        states: Dict[int, _ClientState],
    ) -> List[RunResult]:
        """Price one micro-batch in one vectorized grid call.

        The grid is the batch's plans x its distinct policies, and request
        ``k`` reads the cell in its own policy's column.  A cell depends
        only on its plan and its policy, so each outcome is the one pricing
        that request alone would give.
        """
        column: Dict[object, int] = {}
        policy_of = [
            column.setdefault(states[r.client_id].profile.policy, len(column))
            for r in batch_reqs
        ]
        grid = self.session.price_grid(cols, list(column))
        return [grid.result(k, j) for k, j in enumerate(policy_of)]

    def _serve_serial(
        self,
        batch_reqs: List[QueryRequest],
        states: Dict[int, _ClientState],
        server_ways: np.ndarray,
    ) -> Tuple[PlanColumns, List[RunResult]]:
        """The per-query scalar reference: swap in each query's caches.

        Each query loads its client's way matrix into a scalar
        :class:`~repro.sim.cache.CacheSim` and stores it back after
        planning; the shared server L1 converts once per batch.  Returns
        the plans as columns, like the batched path.
        """
        env = self.session.env
        client, server = env.client_cpu, env.server_cpu
        saved = (client.dcache, server.l1)
        client_sim = _cold_clone(client.dcache)
        server_sim = _cold_clone(server.l1)
        server_sim.load_ways(server_ways)
        plans: List[QueryPlan] = []
        results: List[RunResult] = []
        try:
            client.dcache, server.l1 = client_sim, server_sim
            for r in batch_reqs:
                st = states[r.client_id]
                client_sim.load_ways(st.ways)
                plan = plan_query(r.query, st.profile.scheme, env)
                st.ways[...] = client_sim.ways()
                plans.append(plan)
                results.append(price_plan(plan, env, st.profile.policy))
        finally:
            client.dcache, server.l1 = saved
        server_ways[...] = server_sim.ways()
        return PlanColumns.from_plans(plans), results
