"""Paper constants and calibrated cost-model parameters.

Everything configurable in the reproduction lives here, grouped by the paper
table it came from:

* :class:`NICPowerTable` — Table 2 (NIC power states, LMX3162-derived model).
* :class:`ClientConfig` — Table 3 (mobile client: single-issue 5-stage integer
  pipeline, 16 KB I-cache / 8 KB D-cache, 100-cycle memory, 3.3 V, 0.35 micron).
* :class:`ServerConfig` — Table 4 (4-issue superscalar at 1 GHz).
* :class:`CostModel` — the calibrated operation-level instruction/energy costs
  used by :mod:`repro.sim.cpu` in place of the cycle-accurate SimplePower
  simulator (see DESIGN.md section 2 for the substitution rationale).

The sweep grids of the evaluation section (bandwidths, clock ratios,
transmission distances, cache-buffer sizes) are module-level tuples.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

__all__ = [
    "MBPS",
    "MHZ",
    "BANDWIDTHS_MBPS",
    "CLIENT_CLOCK_RATIOS",
    "DISTANCES_M",
    "BUFFER_SIZES_BYTES",
    "NICPowerTable",
    "ClientConfig",
    "ServerConfig",
    "NetworkConfig",
    "CostModel",
    "DEFAULT_NIC_POWER",
    "DEFAULT_CLIENT",
    "DEFAULT_SERVER",
    "DEFAULT_NETWORK",
    "DEFAULT_COSTS",
]

#: Bits per second in one megabit per second.
MBPS = 1_000_000.0

#: Cycles per second in one megahertz.
MHZ = 1_000_000.0

#: Wireless bandwidth sweep of the evaluation section (Mbps).
BANDWIDTHS_MBPS = (2.0, 4.0, 6.0, 8.0, 11.0)

#: Client clock expressed as a fraction of the server clock (Table 3 sweep).
CLIENT_CLOCK_RATIOS = (1 / 8, 1 / 4, 1 / 2, 1 / 1)

#: Client-to-base-station transmission distances studied (meters).
DISTANCES_M = (100.0, 1000.0)

#: Client memory buffers for the insufficient-memory scenario (bytes).
BUFFER_SIZES_BYTES = (1 * 1024 * 1024, 2 * 1024 * 1024)


@dataclass(frozen=True, kw_only=True)
class NICPowerTable:
    """Wireless NIC power states (paper Table 2, in watts).

    The transmit power depends on the physical distance between the client and
    the base station; the two anchor points published in the paper are 1089.1 mW
    at 100 m and 3089.1 mW at 1 km.  :mod:`repro.sim.radio` interpolates between
    (and extrapolates around) these anchors with a path-loss model.

    Construction is keyword-only and validated: powers and latencies must be
    finite and non-negative (a negative or NaN power would silently corrupt
    every energy ledger downstream).
    """

    #: Transmit power at the 1 km anchor distance (W).
    transmit_1km_w: float = 3.0891
    #: Transmit power at the 100 m anchor distance (W).
    transmit_100m_w: float = 1.0891
    #: Receive power (W).
    receive_w: float = 0.165
    #: Idle power — carrier sensing possible, zero exit latency (W).
    idle_w: float = 0.100
    #: Sleep power — radio off, cannot sense incoming traffic (W).
    sleep_w: float = 0.0198
    #: Latency to exit the SLEEP state into an active state (seconds).
    sleep_exit_latency_s: float = 470e-6
    #: Latency to exit the IDLE state (seconds; zero per Table 2).
    idle_exit_latency_s: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "transmit_1km_w",
            "transmit_100m_w",
            "receive_w",
            "idle_w",
            "sleep_w",
            "sleep_exit_latency_s",
            "idle_exit_latency_s",
        ):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class ClientConfig:
    """Mobile-client hardware configuration (paper Table 3).

    The client is a single-issue five-stage pipelined *integer* datapath: all
    floating-point geometry is software-emulated, which is why refinement is so
    much more expensive per operation on the client than on the server (and why
    offloading refinement pays off for range queries).
    """

    #: Client clock in Hz. Default MhzS/8 = 125 MHz, matching the figures.
    clock_hz: float = 125.0 * MHZ
    #: Instruction-cache size (bytes): 16 KB, 4-way, 32 B lines.
    icache_bytes: int = 16 * 1024
    #: Data-cache size (bytes): 8 KB, 4-way, 32 B lines.
    dcache_bytes: int = 8 * 1024
    #: Cache associativity for both caches.
    cache_assoc: int = 4
    #: Cache line size (bytes) for both caches.
    cache_line_bytes: int = 32
    #: Cache hit latency (cycles).
    cache_hit_cycles: int = 1
    #: DRAM access latency (cycles).
    memory_latency_cycles: int = 100
    #: Client DRAM size (bytes): 32 MB.
    memory_bytes: int = 32 * 1024 * 1024
    #: Supply voltage (V) — used by the energy model.
    supply_voltage: float = 3.3
    #: Nominal total client power excluding the NIC, in watts, at the default
    #: clock.  This is the ``P_client`` of section 4.1 (datapath + clock +
    #: caches + buses + DRAM).  Derived from the per-event energies of
    #: :class:`CostModel`; kept here as the headline number used by the
    #: analytic model.  Scales linearly with clock frequency.  The figure is
    #: *dynamic* energy of a small 0.35 micron core in the SimplePower style
    #: — tens of milliwatts, far below a whole-PDA power rail — and is what
    #: makes wireless transmission (3 W at 1 km) so dominant in the results.
    nominal_power_w: float = 0.070
    #: Fraction of ``nominal_power_w`` drawn in the CPU low-power (halted)
    #: mode used while blocked on the NIC.  The paper reports 10-20% energy
    #: savings from this mode in communication-heavy runs.
    lowpower_fraction: float = 0.12

    def power_at(self, clock_hz: float | None = None) -> float:
        """Dynamic client power (W) at ``clock_hz`` (defaults to own clock)."""
        hz = self.clock_hz if clock_hz is None else clock_hz
        return self.nominal_power_w * (hz / (125.0 * MHZ))

    def with_clock(self, clock_hz: float) -> "ClientConfig":
        """A copy of this config running at ``clock_hz``."""
        return replace(self, clock_hz=clock_hz)


@dataclass(frozen=True)
class ServerConfig:
    """Server hardware configuration (paper Table 4).

    Only cycles matter at the server (the paper assumes it is resource-rich, so
    its energy is not accounted); we model it as a 4-issue superscalar with
    native floating-point units and a deep cache hierarchy summarized by an
    effective instructions-per-cycle figure.
    """

    #: Server clock in Hz (1 GHz).
    clock_hz: float = 1000.0 * MHZ
    #: Issue width (informational; folded into ``effective_ipc``).
    issue_width: int = 4
    #: Effective sustained IPC on this integer+FP pointer-chasing workload.
    #: 4-wide machines of the era sustain well under their peak on index
    #: traversals; 1.8 is a standard figure for pointer+FP mixes.
    effective_ipc: float = 1.8
    #: Server memory (bytes): 128 MB — always adequate in this study.
    memory_bytes: int = 128 * 1024 * 1024


@dataclass(frozen=True, kw_only=True)
class NetworkConfig:
    """Wireless link and protocol parameters (paper section 5.2).

    Construction is keyword-only and validated: the bandwidth and the
    distance must be positive (the radio model has no physical reading for
    a non-positive distance), every numeric field must be finite, and the
    byte/instruction counts must be ints (not bools), so malformed sweeps
    fail at construction rather than as NaN joules deep inside a pricing
    walk.

    The paper's channel is ideal — errors are folded into the effective
    bandwidth.  The ``loss_*`` / ``retx_*`` fields relax that: a stationary
    per-frame loss rate (i.i.d. Bernoulli, or Gilbert-Elliott bursts of
    mean length ``loss_burst_frames``) with TCP-like retransmission under
    capped exponential backoff.  ``loss_rate=0`` (the default) reproduces
    the ideal channel bit for bit; :mod:`repro.sim.lossy` prices the rest.
    """

    #: Effective delivered bandwidth ``B`` in bits/second. Channel errors and
    #: MAC effects are folded into this figure, per the paper.
    bandwidth_bps: float = 2.0 * MBPS
    #: Client-to-base-station distance (m); selects the Tx power.
    distance_m: float = 1000.0
    #: Maximum transmission unit (bytes per frame on the wireless link).
    mtu_bytes: int = 1500
    #: TCP header bytes per segment.
    tcp_header_bytes: int = 20
    #: IP header bytes per packet.
    ip_header_bytes: int = 20
    #: Link-layer framing overhead per frame (preamble + CRC), bytes.
    link_header_bytes: int = 34
    #: Fixed client instructions to initiate a send or receive (syscall, driver).
    per_message_instructions: int = 4_000
    #: Client instructions per frame for protocol processing (checksum,
    #: segmentation, copies) — the ``C_protocol`` component of section 4.1.
    per_frame_instructions: int = 1_800
    #: Client instructions per payload byte (buffer copies + checksumming).
    per_byte_instructions: float = 0.25
    #: Stationary per-frame loss probability in [0, 1).  0 = ideal channel.
    loss_rate: float = 0.0
    #: Mean loss-burst length in frames for the Gilbert-Elliott burst mode;
    #: ``None`` selects i.i.d. Bernoulli losses.  Must be >= 1 when set.
    loss_burst_frames: float | None = None
    #: Dwell before the first retransmission of a lost frame (seconds).
    retx_timeout_s: float = 0.02
    #: Timeout growth factor per consecutive loss of the same frame (>= 1).
    retx_backoff: float = 2.0
    #: Ceiling on the backed-off timeout (seconds).
    retx_timeout_cap_s: float = 1.0

    def __post_init__(self) -> None:
        # Every check is written so that NaN fails it.
        for name in ("bandwidth_bps", "distance_m"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(
                    f"{name} must be positive and finite, got {value!r}"
                )
        if not (0.0 <= self.loss_rate < 1.0):
            raise ValueError(
                f"loss_rate must be in [0, 1), got {self.loss_rate!r}"
            )
        if self.loss_burst_frames is not None and not (
            1.0 <= self.loss_burst_frames < math.inf
        ):
            raise ValueError(
                "loss_burst_frames must be a finite value >= 1 (or None for "
                f"Bernoulli losses), got {self.loss_burst_frames!r}"
            )
        if not 1.0 <= self.retx_backoff < math.inf:
            raise ValueError(
                "retx_backoff must be finite and >= 1, got "
                f"{self.retx_backoff!r}"
            )
        for name in (
            "retx_timeout_s",
            "retx_timeout_cap_s",
            "per_byte_instructions",
        ):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        for name, low in (
            ("mtu_bytes", 1),
            ("tcp_header_bytes", 0),
            ("ip_header_bytes", 0),
            ("link_header_bytes", 0),
            ("per_message_instructions", 0),
            ("per_frame_instructions", 0),
        ):
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Integral)
                or value < low
            ):
                raise ValueError(f"{name} must be an int >= {low}, got {value!r}")


@dataclass(frozen=True)
class CostModel:
    """Calibrated operation-level costs for the client CPU model.

    Instruction counts per abstract operation recorded by
    :class:`repro.sim.trace.OpCounter`.  The geometry operations carry the
    floating-point *operation* counts separately so the client (software FP
    emulation) and server (native FP) price them differently.

    Energy-per-event figures are in joules and reflect a 3.3 V / 0.35 micron
    design in the style of the SimplePower technology files: they are chosen so
    that the aggregate client power lands at
    :attr:`ClientConfig.nominal_power_w` for a typical instruction mix.
    """

    # ------------------------------------------------------------------
    # Instruction costs (integer instructions per abstract event)
    # ------------------------------------------------------------------
    #: Fixed overhead per visited index node (call, load header, loop setup).
    instr_per_node_visit: int = 40
    #: Integer instructions per MBR overlap/containment/MINDIST test.  Index
    #: MBRs are stored on the quantized integer grid (the same 3-bytes-per-
    #: coordinate encoding the wire references use), so these tests run on
    #: the integer datapath — no FP emulation; this is why filtering is cheap
    #: on the client relative to refinement, as the paper observes.
    instr_per_mbr_test: int = 28
    #: FP operations per MBR test (zero: quantized integer compares).
    fp_per_mbr_test: int = 0
    #: Integer instructions per leaf entry scanned into the candidate list.
    instr_per_entry_scan: int = 12
    #: Integer instructions per candidate refined (load segment, set up).
    instr_per_refine_setup: int = 80
    #: FP operations per point-vs-segment exact test (dot products, cross).
    fp_per_point_refine: int = 14
    #: FP operations per segment-vs-window exact test (Cohen-Sutherland style
    #: clip: outcodes plus up to four edge intersections).
    fp_per_range_refine: int = 56
    #: FP operations per point-to-segment distance evaluation (NN search).
    fp_per_distance: int = 22
    #: Integer instructions per priority-queue operation in the NN search.
    instr_per_heap_op: int = 45
    #: Integer instructions per result id appended/copied.
    instr_per_result: int = 10
    #: Cycles per software-emulated FP operation on the integer-only client.
    #: Double-precision SoftFloat-class emulation (unpack, align, normalize,
    #: repack) runs 100-400 cycles per operation on a 5-stage integer core;
    #: 170 is a mid-range figure for the compare/add/mul mix of the geometry
    #: kernels, and is the single biggest client/server asymmetry.
    client_fp_emulation_cycles: int = 170
    #: Cycles per FP operation on the server (native units, pipelined).
    server_fp_cycles: float = 1.0

    # ------------------------------------------------------------------
    # Energy per event on the client (joules), SimplePower-style buckets
    # ------------------------------------------------------------------
    #: Datapath + clock energy per executed instruction/cycle.
    energy_per_cycle_j: float = 0.35e-9
    #: I-cache access energy per instruction.
    energy_per_icache_access_j: float = 0.175e-9
    #: D-cache access energy per data access.
    energy_per_dcache_access_j: float = 0.50e-9
    #: Bus + DRAM energy per cache-line fill from memory.
    energy_per_memory_access_j: float = 14.0e-9

    # ------------------------------------------------------------------
    # Data layout (byte-size model; matches the paper's dataset/index sizes)
    # ------------------------------------------------------------------
    #: Bytes per stored line segment (4 float32 coords + id + name payload):
    #: calibrated to PA = 139006 segments ~ 10.06 MB.
    segment_record_bytes: int = 76
    #: Bytes per R-tree index entry (MBR as 4 float32 + child pointer).
    index_entry_bytes: int = 20
    #: Bytes per index-node header.
    index_node_header_bytes: int = 8
    #: Bytes per object *reference* exchanged in messages: a 4-byte id plus a
    #: 12-byte quantized MBR (3 bytes per coordinate on the dataset grid), so
    #: the receiver can place/refine candidates without a lookup round-trip.
    object_id_bytes: int = 16
    #: Bytes per query request message payload (query struct, session and
    #: display state, authentication).
    request_bytes: int = 256

    def client_cycles_for_fp(self, fp_ops: float) -> float:
        """Client cycles to execute ``fp_ops`` software-emulated FP operations."""
        return fp_ops * self.client_fp_emulation_cycles

    def server_cycles_for_fp(self, fp_ops: float) -> float:
        """Server cycles for ``fp_ops`` native FP operations."""
        return fp_ops * self.server_fp_cycles


#: Default instances used throughout the library and benches.
DEFAULT_NIC_POWER = NICPowerTable()
DEFAULT_CLIENT = ClientConfig()
DEFAULT_SERVER = ServerConfig()
DEFAULT_NETWORK = NetworkConfig()
DEFAULT_COSTS = CostModel()
