"""Server CPU cycle model — the SimpleScalar stand-in.

The paper runs the server's share of each query on SimpleScalar with the
Table 4 configuration (4-issue superscalar, 1 GHz, two-level caches, native
FP units) and feeds only the resulting *cycle count* back into the client
simulation: the server is resource-rich, so its energy is not accounted, and
its compute time matters only through the client's wait,
``C_wait = C_w2 * MhzC / MhzS``.

This model prices the same :class:`~repro.sim.trace.OpCounter` counts the
client model prices, with the server's hardware advantages applied:

* native floating-point (1 cycle/op pipelined vs ~55 emulated on the client),
* superscalar issue folded into an effective IPC,
* a large L1/L2 hierarchy: the same access trace replays through a 32 KB L1
  model whose misses cost only the L2 latency (the paper assumes the dataset
  and index stay memory-resident and warm at the server).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constants import DEFAULT_COSTS, DEFAULT_SERVER, CostModel, ServerConfig
from repro.sim.cache import CacheSim
from repro.sim.cpu import check_miss_rate, instruction_counts, replay_trace
from repro.sim.trace import OpCounter

__all__ = ["ServerCost", "ServerCPU"]

#: L1 miss penalty (cycles) — an L2 hit; L2 misses are neglected because the
#: paper assumes server-side data stays cached in its ample memory.
_L1_MISS_PENALTY = 12


@dataclass(frozen=True)
class ServerCost:
    """Priced cost of one query phase at the server (cycles only)."""

    instructions: float
    cycles: float
    l1_accesses: int
    l1_misses: int

    def __add__(self, other: "ServerCost") -> "ServerCost":
        return ServerCost(
            self.instructions + other.instructions,
            self.cycles + other.cycles,
            self.l1_accesses + other.l1_accesses,
            self.l1_misses + other.l1_misses,
        )

    @classmethod
    def zero(cls) -> "ServerCost":
        """The additive identity."""
        return cls(0.0, 0.0, 0, 0)


class ServerCPU:
    """Stateful server CPU model (its L1 persists across queries)."""

    def __init__(
        self,
        config: ServerConfig = DEFAULT_SERVER,
        costs: CostModel = DEFAULT_COSTS,
        fallback_miss_rate: float = 0.02,
    ) -> None:
        self.config = config
        self.costs = costs
        self.fallback_miss_rate = check_miss_rate(fallback_miss_rate)
        # Table 4: 32 KB L1 D-cache, 2-way, 64 B lines.
        self.l1 = CacheSim(32 * 1024, 2, 64)

    @property
    def clock_hz(self) -> float:
        """The server clock (Hz)."""
        return self.config.clock_hz

    def seconds(self, cycles: float) -> float:
        """Wall-clock duration of ``cycles`` (a float or an array) at the
        server clock."""
        return cycles / self.config.clock_hz

    def reset_cache(self) -> None:
        """Cold-start the L1 (workload boundary)."""
        self.l1.reset()

    def _instructions(self, counter: OpCounter) -> float:
        """Instructions of a phase, native FP included."""
        int_instr, fp_ops = instruction_counts(counter, self.costs)
        return int_instr + fp_ops * self.costs.server_fp_cycles

    def _price(self, instructions: float, accesses: int, misses: int) -> ServerCost:
        """Cycles of ``instructions`` with their L1 accesses and misses."""
        cycles = instructions / self.config.effective_ipc + misses * _L1_MISS_PENALTY
        return ServerCost(
            instructions=instructions,
            cycles=cycles,
            l1_accesses=accesses,
            l1_misses=misses,
        )

    def compute(self, counter: OpCounter) -> ServerCost:
        """Price one query phase's operation counts at the server."""
        if counter.record_trace:
            hits, misses = replay_trace(self.l1, counter, self.costs)
            return self.compute_replayed(counter, hits, misses)
        touched_bytes = (
            counter.nodes_visited * 256
            + counter.candidates_refined * self.costs.segment_record_bytes
        )
        accesses = int(touched_bytes // 64) + 1
        misses = int(accesses * self.fallback_miss_rate)
        return self._price(self._instructions(counter), accesses, misses)

    def compute_replayed(
        self, counter: OpCounter, hits: int, misses: int
    ) -> ServerCost:
        """Price a phase whose trace replayed to ``hits`` and ``misses``.

        :meth:`compute` replays through the L1 and lands here; the batched
        planner replays through :class:`repro.sim.cache.BatchedLRU` and
        prices every phase of a replay in one call, with array counts, hits
        and misses.
        """
        return self._price(self._instructions(counter), hits + misses, misses)
