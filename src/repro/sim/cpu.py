"""Client CPU cycle/energy model — the SimplePower stand-in.

The original study compiled the query code for a 5-stage single-issue
integer pipeline and simulated it cycle by cycle with SimplePower.  Here the
query algorithms run natively and report abstract operation counts
(:class:`repro.sim.trace.OpCounter`); this module prices those counts into
cycles and joules:

* **Instructions** — each abstract op costs a calibrated number of integer
  instructions (:class:`repro.constants.CostModel`).  Floating-point
  geometry is priced separately: the client datapath is integer-only, so
  every FP operation expands into ``client_fp_emulation_cycles`` of software
  emulation — the reason refinement is so much more expensive on the client
  than on the server, and a first-order driver of the paper's results.
* **Memory** — the recorded access trace is replayed through a
  :class:`repro.sim.cache.CacheSim` of the client D-cache (8 KB, 4-way, 32 B
  lines); each miss stalls ``memory_latency_cycles`` (100) cycles.
  Synthetic addresses are laid out per region (index nodes / data records /
  result buffers) at their stored sizes, so traversal locality is real:
  Hilbert-packed trees miss less than unsorted ones.
* **Energy** — SimplePower-style per-event energies: datapath+clock per
  cycle, I-cache per instruction, D-cache per line touch, bus+DRAM per miss.
  The sum is the figures' "Processor" bucket.

The model also prices protocol processing (section 4.1's ``C_protocol`` /
``E_protocol``) and the CPU's behaviour while blocked on the NIC: the paper
found blocking + a low-power CPU mode cuts receive-side energy by more than
half versus busy-waiting, and uses blocking throughout its results; both
policies are implemented so the ablation bench can reproduce that finding.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.constants import (
    DEFAULT_CLIENT,
    DEFAULT_COSTS,
    DEFAULT_NETWORK,
    ClientConfig,
    CostModel,
    NetworkConfig,
)
from repro.sim.cache import CacheSim
from repro.sim.protocol import WireMessage, protocol_instructions
from repro.sim.trace import REGION_DATA, REGION_INDEX, REGION_RESULT, OpCounter

__all__ = ["ComputeCost", "ClientCPU", "instruction_counts"]

#: Synthetic address-space base of each trace region, indexed by region (far
#: apart so regions never alias within the DRAM address map).
REGION_BASES = (0x0000_0000, 0x1000_0000, 0x2000_0000)
#: Stride between consecutive index-node addresses (node size rounded up to
#: a power-of-two block, as an allocator would).
INDEX_STRIDE = 512


def region_strides(costs: CostModel) -> Tuple[int, int, int]:
    """Bytes between consecutive objects of each trace region, indexed by
    region: index nodes, data records at their stored size, result ids."""
    return (INDEX_STRIDE, costs.segment_record_bytes, costs.object_id_bytes)


def _address_of(region: int, object_id: int, strides: Tuple[int, int, int]) -> int:
    """The byte address of ``object_id`` in trace ``region``."""
    if region not in (REGION_INDEX, REGION_DATA, REGION_RESULT):
        raise ValueError(f"unknown trace region {region!r}")
    return REGION_BASES[region] + object_id * strides[region]


def replay_trace(
    cache: CacheSim, counter: OpCounter, costs: CostModel
) -> Tuple[int, int]:
    """Replay the counter's access trace through ``cache``, laid out at the
    region addresses; returns the ``(hits, misses)`` it caused."""
    strides = region_strides(costs)
    h0, m0 = cache.hits, cache.misses
    for acc in counter.iter_trace():
        cache.access(_address_of(acc.region, acc.object_id, strides), acc.nbytes)
    return (cache.hits - h0, cache.misses - m0)


def instruction_counts(counter: OpCounter, costs: CostModel) -> Tuple[float, float]:
    """``(integer_instructions, fp_operations)`` implied by a counter.

    Shared by the client and server models so both sides price *the same
    work* and differ only in how their hardware executes it.  A counter
    whose counts are equal-length int arrays prices one phase per element.
    """
    int_instr = (
        counter.nodes_visited * costs.instr_per_node_visit
        + counter.mbr_tests * costs.instr_per_mbr_test
        + counter.entries_scanned * costs.instr_per_entry_scan
        + counter.candidates_refined * costs.instr_per_refine_setup
        + counter.heap_ops * costs.instr_per_heap_op
        + counter.results_produced * costs.instr_per_result
    )
    fp_ops = (
        counter.mbr_tests * costs.fp_per_mbr_test
        + counter.point_refine_tests * costs.fp_per_point_refine
        + counter.range_refine_tests * costs.fp_per_range_refine
        + counter.distance_evals * costs.fp_per_distance
    )
    if isinstance(int_instr, np.ndarray):
        return int_instr.astype(np.float64), fp_ops.astype(np.float64)
    return float(int_instr), float(fp_ops)


def check_miss_rate(value) -> float:
    """``value`` if it is a usable ``fallback_miss_rate``: a real number in
    [0, 1] (so never NaN, infinite or a bool); otherwise ValueError."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not 0.0 <= value <= 1.0
    ):
        raise ValueError(
            f"fallback_miss_rate must be a number in [0, 1], got {value!r}"
        )
    return value


@dataclass(frozen=True)
class ComputeCost:
    """Priced cost of one compute phase on the client."""

    instructions: float
    cycles: float
    energy_j: float
    dcache_accesses: int
    dcache_misses: int

    def __add__(self, other: "ComputeCost") -> "ComputeCost":
        return ComputeCost(
            self.instructions + other.instructions,
            self.cycles + other.cycles,
            self.energy_j + other.energy_j,
            self.dcache_accesses + other.dcache_accesses,
            self.dcache_misses + other.dcache_misses,
        )

    @classmethod
    def zero(cls) -> "ComputeCost":
        """The additive identity."""
        return cls(0.0, 0.0, 0.0, 0, 0)


class ClientCPU:
    """Stateful client CPU model (the D-cache persists across phases).

    Reset the cache via :meth:`reset_cache` at workload boundaries; within a
    workload, consecutive queries legitimately warm the cache, as they would
    on the physical device.
    """

    def __init__(
        self,
        config: ClientConfig = DEFAULT_CLIENT,
        costs: CostModel = DEFAULT_COSTS,
        network: NetworkConfig = DEFAULT_NETWORK,
        #: Assumed miss rate when the trace is not recorded/replayed.
        fallback_miss_rate: float = 0.05,
    ) -> None:
        self.config = config
        self.costs = costs
        self.network = network
        self.fallback_miss_rate = check_miss_rate(fallback_miss_rate)
        self.dcache = CacheSim(
            config.dcache_bytes, config.cache_assoc, config.cache_line_bytes
        )

    # ------------------------------------------------------------------
    @property
    def clock_hz(self) -> float:
        """The client clock (Hz)."""
        return self.config.clock_hz

    def seconds(self, cycles: float) -> float:
        """Wall-clock duration of ``cycles`` (a float or an array) at the
        client clock."""
        return cycles / self.config.clock_hz

    def reset_cache(self) -> None:
        """Cold-start the D-cache (workload boundary)."""
        self.dcache.reset()

    def _price(
        self, instructions: float, accesses: int, misses: int
    ) -> ComputeCost:
        """Cycles and energy of ``instructions`` with their D-cache accesses
        and misses (scalars, or equal-length arrays priced elementwise)."""
        cycles = instructions + misses * self.config.memory_latency_cycles
        c = self.costs
        energy = (
            cycles * c.energy_per_cycle_j
            + instructions * c.energy_per_icache_access_j
            + accesses * c.energy_per_dcache_access_j
            + misses * c.energy_per_memory_access_j
        )
        # Energy scales with the square of supply voltage relative to the
        # 3.3 V technology point of the calibrated per-event figures.
        v_ratio = (self.config.supply_voltage / 3.3) ** 2
        return ComputeCost(
            instructions=instructions,
            cycles=cycles,
            energy_j=energy * v_ratio,
            dcache_accesses=accesses,
            dcache_misses=misses,
        )

    # ------------------------------------------------------------------
    # Query-phase and protocol pricing
    # ------------------------------------------------------------------
    def _instructions(self, counter: OpCounter) -> float:
        """Instructions of a phase, software FP emulation included."""
        int_instr, fp_ops = instruction_counts(counter, self.costs)
        return int_instr + fp_ops * self.costs.client_fp_emulation_cycles

    def compute(self, counter: OpCounter) -> ComputeCost:
        """Price one query phase's operation counts (and replay its trace)."""
        if counter.record_trace:
            hits, misses = replay_trace(self.dcache, counter, self.costs)
            return self.compute_replayed(counter, hits, misses)
        # No trace: estimate line touches from the byte volume implied by
        # the counters and apply the fallback miss rate.
        touched_bytes = (
            counter.nodes_visited
            * (
                self.costs.index_node_header_bytes
                + self.costs.index_entry_bytes * 12  # ~half-full scan
            )
            + counter.candidates_refined * self.costs.segment_record_bytes
        )
        accesses = int(touched_bytes // self.config.cache_line_bytes) + 1
        misses = int(accesses * self.fallback_miss_rate)
        return self._price(self._instructions(counter), accesses, misses)

    def compute_replayed(
        self, counter: OpCounter, hits: int, misses: int
    ) -> ComputeCost:
        """Price a phase whose trace replayed to ``hits`` and ``misses``.

        :meth:`compute` replays through the D-cache and lands here; the
        batched planner replays through :class:`repro.sim.cache.BatchedLRU`
        and prices every phase of a replay in one call, with array counts,
        hits and misses.
        """
        # Known defect, kept so both engines agree: the D-cache is charged
        # for the hits only, not for every line touched.
        return self._price(self._instructions(counter), hits, misses)

    def protocol(self, msg: WireMessage) -> ComputeCost:
        """Price the protocol processing for one message (send or receive).

        Streaming the payload through the protocol stack touches every byte
        once: line-granular accesses with compulsory misses on the payload
        (fresh buffers), which is what makes large transfers cost client
        cycles even before the NIC is charged.  A ``msg`` holding arrays
        (:func:`~repro.sim.protocol.packetize` of an array) prices one
        message per element.
        """
        instructions = protocol_instructions(msg, self.network)
        line = self.config.cache_line_bytes
        accesses = msg.payload_bytes // line + msg.n_frames
        misses = accesses  # compulsory: fresh DMA buffers
        return self._price(instructions, accesses, misses)

    def retx_protocol(self, frames: float) -> ComputeCost:
        """Protocol cost of retransmitting ``frames`` frames.

        A retransmission replays an already-segmented frame out of buffers
        that are still resident, so only the per-frame processing
        (timeout handling, checksum, interrupt) recurs — no per-message
        setup and no fresh buffer misses.  ``frames`` is fractional under
        expected-cost pricing and integral under the Monte-Carlo walk; the
        cost is linear in it either way, which is what lets the batched
        grid pricer apply it as one multiply.
        """
        if frames < 0:
            raise ValueError(f"negative frame count {frames!r}")
        return self._price(frames * self.network.per_frame_instructions, 0, 0)

    # ------------------------------------------------------------------
    # Blocked-CPU energy (while the NIC transfers or the server computes)
    # ------------------------------------------------------------------
    def blocked_energy_j(self, seconds: float, busy_wait: bool = False) -> float:
        """CPU energy while blocked for ``seconds``.

        ``busy_wait=False`` (the paper's configuration): the CPU halts in a
        low-power mode at ``lowpower_fraction`` of nominal power and is woken
        by the NIC interrupt.  ``busy_wait=True``: the CPU spins on the
        message-queue state, drawing full nominal power (and hammering the
        I-cache — folded into the nominal figure); the ablation bench
        contrasts the two.
        """
        if seconds < 0:
            raise ValueError(f"negative duration {seconds!r}")
        return self.blocked_power_w(busy_wait) * seconds

    def blocked_power_w(self, busy_wait: bool = False) -> float:
        """CPU watts while blocked (see :meth:`blocked_energy_j`)."""
        power = self.config.power_at()
        if not busy_wait:
            power *= self.config.lowpower_fraction
        return power
