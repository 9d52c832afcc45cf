"""Broadcast data dissemination — the paper's "incorporation of broadcast
(widely shared information) into our framework" future work.

The model follows the paper's reference [15] (Imielinski, Viswanathan,
Badrinath, *Energy Efficient Indexing on Air*, SIGMOD '94): the server
cyclically airs the dataset on a broadcast channel as a sequence of
**chunks** — contiguous runs of the master tree's Hilbert-packed entry
order, each carrying its segment records plus a packed sub-index — preceded
by a small **air index** announcing when each chunk airs.

A client answers a query from the broadcast instead of the on-demand
channel: it never transmits (the decisive energy lever — the paper found
the transmitter to be the dominant consumer), waits for the chunk(s)
covering its query, receives them, and refines locally.  Two listening
disciplines are modeled:

* ``air_index=True`` — the client catches the next index slot, learns its
  chunk's airtime, and **sleeps** until then (19.8 mW instead of 100 mW):
  the [15] technique.
* ``air_index=False`` — no index: the radio must **idle**, matching MBR
  headers as chunks fly by, until its chunk arrives.

Because chunks partition the packed entry order, a query's candidates span
a contiguous chunk range; receiving that range yields a provably complete
local answer (same argument as the extraction shipment, tested against the
oracle).  The trade-off against on-demand service is classic: broadcast
costs no transmit energy and scales to any number of listeners, but the
client waits half a cycle on average and receives a whole chunk rather
than just its results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.constants import DEFAULT_NETWORK, NetworkConfig
from repro.core.engine import QueryEngine
from repro.core.executor import (
    ClientComputeStep,
    Environment,
    QueryPlan,
    RecvStep,
    WaitStep,
)
from repro.core.messages import Payload
from repro.core.queries import Query, QueryKind, RangeQuery
from repro.core.schemes import Scheme, SchemeConfig
from repro.sim.protocol import packetize
from repro.sim.trace import OpCounter
from repro.spatial.extract import coverage_rect

__all__ = ["BroadcastSchedule", "BroadcastClient"]

#: Bytes of air-index entry per chunk (chunk MBR + airtime offset).
_AIR_INDEX_ENTRY_BYTES = 24
#: SchemeConfig label under which broadcast plans are reported.
_BROADCAST_CONFIG = SchemeConfig(Scheme.FULLY_CLIENT, data_at_client=True)


@dataclass(frozen=True)
class _Chunk:
    """One broadcast chunk: a contiguous packed-entry range."""

    entry_lo: int
    entry_hi: int
    payload_bytes: int
    #: Cycle-relative airtime offset of this chunk's first bit (seconds).
    offset_s: float
    air_seconds: float


class BroadcastSchedule:
    """The server's cyclic broadcast program over one dataset.

    ``n_chunks`` contiguous, byte-balanced runs of the master tree's packed
    entry order; each chunk's payload is its data records plus a packed
    sub-index over them (so the client can query the chunk immediately).
    """

    def __init__(
        self,
        env: Environment,
        n_chunks: int = 16,
        network: NetworkConfig = DEFAULT_NETWORK,
    ) -> None:
        if n_chunks < 1:
            raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
        n_entries = len(env.tree.entry_ids)
        if n_chunks > n_entries:
            raise ValueError(
                f"n_chunks={n_chunks} exceeds the dataset's {n_entries} entries"
            )
        self.env = env
        self.network = network
        tree = env.tree
        bounds = np.linspace(0, n_entries, n_chunks + 1).astype(int)
        chunks: List[_Chunk] = []
        offset = 0.0
        # The air index leads the cycle.
        self.index_bytes = n_chunks * _AIR_INDEX_ENTRY_BYTES
        index_msg = packetize(self.index_bytes, network)
        self.index_air_seconds = index_msg.wire_bits / network.bandwidth_bps
        offset += self.index_air_seconds
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            n = int(hi - lo)
            payload = (
                n * tree.costs.segment_record_bytes
                + tree.estimated_index_bytes_for_entries(n)
            )
            msg = packetize(payload, network)
            air = msg.wire_bits / network.bandwidth_bps
            chunks.append(
                _Chunk(
                    entry_lo=int(lo),
                    entry_hi=int(hi),
                    payload_bytes=payload,
                    offset_s=offset,
                    air_seconds=air,
                )
            )
            offset += air
        self.chunks = chunks
        self.cycle_seconds = offset

    # ------------------------------------------------------------------
    def chunk_range_for_entries(self, positions: np.ndarray) -> tuple[int, int]:
        """Indices ``(c_lo, c_hi)`` (inclusive) of chunks covering the
        packed-entry ``positions``."""
        if positions.size == 0:
            raise ValueError("no entry positions to cover")
        lo = int(positions.min())
        hi = int(positions.max())
        c_lo = c_hi = -1
        for i, ch in enumerate(self.chunks):
            if ch.entry_lo <= lo < ch.entry_hi:
                c_lo = i
            if ch.entry_lo <= hi < ch.entry_hi:
                c_hi = i
        assert c_lo >= 0 and c_hi >= 0, "chunks must partition the entries"
        return c_lo, c_hi

    def received_ids(self, c_lo: int, c_hi: int) -> np.ndarray:
        """Global segment ids delivered by chunks ``c_lo..c_hi``."""
        lo = self.chunks[c_lo].entry_lo
        hi = self.chunks[c_hi].entry_hi
        return self.env.tree.entry_ids[lo:hi].copy()

    def received_bytes(self, c_lo: int, c_hi: int) -> int:
        """Payload bytes of chunks ``c_lo..c_hi``."""
        return sum(ch.payload_bytes for ch in self.chunks[c_lo : c_hi + 1])


class BroadcastClient:
    """Plans queries answered from the broadcast channel.

    ``air_index`` selects the listening discipline (see module docstring).
    ``phase_s`` is the cycle-relative instant at which the query is issued;
    workload planners rotate it (or draw it from the supplied seed) so
    results average over the cycle, as a real population of clients would.
    """

    def __init__(
        self,
        schedule: BroadcastSchedule,
        air_index: bool = True,
        cache_chunks: bool = False,
    ) -> None:
        self.schedule = schedule
        self.air_index = air_index
        #: When True, the client keeps the last-received chunk range in
        #: memory and answers later queries from it when they fall inside
        #: its coverage rectangle — the natural pairing of broadcast with
        #: the paper's section-6.2 caching (tune in once, browse for free).
        self.cache_chunks = cache_chunks
        #: Held chunk range and its coverage guarantee (cache_chunks mode).
        self._held: Optional[tuple[int, int]] = None
        self._held_coverage = None
        self.local_hits = 0
        self.receptions = 0
        # Planner-side memo of chunk-range engines (the simulated client
        # rebuilds its in-memory structures per reception; the *simulation*
        # need not re-run identical Python work per query).
        self._engines: dict[tuple[int, int], tuple[np.ndarray, QueryEngine]] = {}

    def _engine_for(self, c_lo: int, c_hi: int) -> tuple[np.ndarray, QueryEngine]:
        key = (c_lo, c_hi)
        if key not in self._engines:
            received = self.schedule.received_ids(c_lo, c_hi)
            sub = self.schedule.env.dataset.subset(received, name="broadcast-chunk")
            self._engines[key] = (received, QueryEngine(sub))
        return self._engines[key]

    # ------------------------------------------------------------------
    def _wait_until(self, phase: float, target_offset: float) -> float:
        """Seconds from cycle-phase ``phase`` until ``target_offset`` airs."""
        cycle = self.schedule.cycle_seconds
        delta = (target_offset - phase) % cycle
        return delta

    def plan(self, query: Query, phase_s: float = 0.0) -> QueryPlan:
        """Plan one query served entirely from the broadcast."""
        if query.kind is QueryKind.NEAREST_NEIGHBOR:
            raise ValueError(
                "NN queries need a distance guarantee a single chunk cannot "
                "give; serve them on-demand"
            )
        sched = self.schedule
        env = sched.env
        phase = phase_s % sched.cycle_seconds

        # The client filters on the master index structure? No — it has no
        # index. It consults the air index (or chunk headers) to find the
        # chunks overlapping its query region, which requires knowing the
        # candidate span. We model the lookup by filtering on the master
        # tree but charging only the tiny air-index matching cost: chunk
        # MBR tests at the client.
        filt = env.engine.filter(query)
        lookup = OpCounter()
        lookup.mbr_tests += len(sched.chunks)
        steps = []

        if filt.ids.size == 0:
            # Nothing to receive: the air-index lookup alone answers it.
            cost = env.client_cpu.compute(lookup)
            steps.append(ClientComputeStep(cost, "air-index lookup (empty)"))
            if self.air_index:
                wait = self._wait_until(phase, 0.0)
                steps.insert(0, WaitStep(wait, radio_listening=False,
                                         label="sleep to index slot"))
                steps.insert(
                    1,
                    RecvStep(Payload(sched.index_bytes, "air index")),
                )
            return QueryPlan(
                query=query,
                config=_BROADCAST_CONFIG,
                steps=steps,
                answer_ids=filt.ids,
                n_candidates=0,
                n_results=0,
            )

        positions = env.tree.entry_positions_for_ids(filt.ids)
        c_lo, c_hi = sched.chunk_range_for_entries(positions)

        # Cached-chunk fast path: the held range covers this query's region
        # (coverage-rectangle certification, as in the section-6.2 cache).
        if (
            self.cache_chunks
            and self._held is not None
            and self._held_coverage is not None
            and isinstance(query, RangeQuery)
            and self._held_coverage.contains(query.rect)
        ):
            self.local_hits += 1
            h_lo, h_hi = self._held
            received, sub_engine = self._engine_for(h_lo, h_hi)
            counter = OpCounter()
            counter.merge(lookup)
            out = sub_engine.answer(query, counter)
            cost = env.client_cpu.compute(counter)
            answers = received[out.ids]
            return QueryPlan(
                query=query,
                config=_BROADCAST_CONFIG,
                steps=[ClientComputeStep(cost, "query over held chunks")],
                answer_ids=np.sort(answers),
                n_candidates=int(filt.ids.size),
                n_results=int(answers.size),
            )

        chunk_bytes = sched.received_bytes(c_lo, c_hi)
        target = sched.chunks[c_lo].offset_s

        if self.air_index:
            # Sleep to the next index slot, receive the index, sleep to the
            # chunk slot, receive the chunk(s).
            to_index = self._wait_until(phase, 0.0)
            steps.append(
                WaitStep(to_index, radio_listening=False,
                         label="sleep to index slot")
            )
            steps.append(RecvStep(Payload(sched.index_bytes, "air index")))
            after_index = (phase + to_index + sched.index_air_seconds) % (
                sched.cycle_seconds
            )
            to_chunk = self._wait_until(after_index, target)
            steps.append(
                WaitStep(to_chunk, radio_listening=False,
                         label="sleep to chunk slot")
            )
        else:
            # No index: idle-listen until the chunk headers match.
            to_chunk = self._wait_until(phase, target)
            steps.append(
                WaitStep(to_chunk, radio_listening=True,
                         label="idle until chunk airs")
            )
        steps.append(
            RecvStep(Payload(chunk_bytes, f"broadcast chunks {c_lo}..{c_hi}"))
        )

        # Local refinement over the received chunk data.
        self.receptions += 1
        received, sub_engine = self._engine_for(c_lo, c_hi)
        if self.cache_chunks:
            self._held = (c_lo, c_hi)
            lo = sched.chunks[c_lo].entry_lo
            hi = sched.chunks[c_hi].entry_hi
            self._held_coverage = coverage_rect(env.tree, query.window, lo, hi)
        counter = OpCounter()
        counter.merge(lookup)
        out = sub_engine.answer(query, counter)
        cost = env.client_cpu.compute(counter)
        steps.append(ClientComputeStep(cost, "query over received chunks"))
        answers = received[out.ids]
        return QueryPlan(
            query=query,
            config=_BROADCAST_CONFIG,
            steps=steps,
            answer_ids=np.sort(answers),
            n_candidates=int(filt.ids.size),
            n_results=int(answers.size),
        )

    def plan_workload(
        self, queries: Sequence[Query], seed: int = 31
    ) -> List[QueryPlan]:
        """Plan a workload with cycle phases drawn uniformly at random."""
        rng = np.random.default_rng(seed)
        cycle = self.schedule.cycle_seconds
        return [
            self.plan(q, phase_s=float(rng.uniform(0.0, cycle)))
            for q in queries
        ]
