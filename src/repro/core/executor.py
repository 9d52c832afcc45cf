"""End-to-end execution of one query under one work-partitioning scheme.

This module composes everything: the query engine produces answers and
operation counts, the CPU models price compute, the protocol model sizes
messages, and the NIC state machine accumulates communication time/energy —
yielding the per-scheme energy and cycle breakdowns the figures plot.

Execution is split into two stages, mirroring what actually varies in the
paper's sweeps:

1. :func:`plan_query` runs the *computation* of the scheme (filtering and/or
   refinement on the right sides) and records a :class:`QueryPlan` — an
   ordered list of steps (client compute, send, server compute, receive)
   with priced compute costs and message payload sizes.  Plans depend on the
   dataset, query and scheme, but **not** on bandwidth, distance, clock or
   power-mode policy.
2. :func:`price_plan` walks the plan against a :class:`Policy` (bandwidth,
   distance, wait policy, NIC sleep discipline) and produces the
   :class:`RunResult` breakdowns.  Sweeping five bandwidths re-prices one
   plan five times instead of re-running the query — the figure benches
   rely on this.

The step walk keeps the client CPU and the NIC timelines aligned: at any
instant the CPU is either computing (priced per event), or blocked (low-power
halt or busy-wait), and the NIC is in exactly one of its four states.  The
ledger conservation laws are property-tested.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.constants import (
    DEFAULT_NETWORK,
    DEFAULT_NIC_POWER,
    NetworkConfig,
    NICPowerTable,
)
from repro.core.engine import QueryEngine
from repro.core.messages import (
    Payload,
    data_items_payload,
    id_list_payload,
    request_payload,
    request_with_candidates_payload,
)
from repro.core.queries import Query, QueryKind
from repro.core.schemes import Scheme, SchemeConfig
from repro.data.model import SegmentDataset
from repro.sim.cpu import ClientCPU, ComputeCost
from repro.sim.lossy import expected_retx
from repro.sim.metrics import CycleBreakdown, EnergyBreakdown, LossStats
from repro.sim.nic import NIC, NICState
from repro.sim.protocol import packetize
from repro.sim.server import ServerCPU
from repro.sim.trace import REGION_DATA, REGION_RESULT, OpCounter
from repro.spatial.rtree import PackedRTree

__all__ = [
    "Environment",
    "Policy",
    "WAIT_POLICIES",
    "QueryPlan",
    "RunResult",
    "ClientComputeStep",
    "ServerComputeStep",
    "SendStep",
    "RecvStep",
    "WaitStep",
    "plan_query",
    "price_plan",
    "execute",
]


# ----------------------------------------------------------------------
# Plan steps
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ClientComputeStep:
    """Client-side computation already priced by the client CPU model."""

    cost: ComputeCost
    label: str


@dataclass(frozen=True)
class ServerComputeStep:
    """Server-side computation (cycles at the server clock)."""

    cycles: float
    label: str


@dataclass(frozen=True)
class SendStep:
    """Client -> server message."""

    payload: Payload


@dataclass(frozen=True)
class RecvStep:
    """Server -> client message."""

    payload: Payload


@dataclass(frozen=True)
class WaitStep:
    """A pure wait of known duration (e.g. for a broadcast slot to air).

    ``radio_listening`` selects the NIC state during the wait: True keeps
    the radio in IDLE (it must notice the data when it arrives without any
    timing knowledge); False lets it SLEEP (an index-on-air told the client
    exactly when its slot airs, the energy optimization of Imielinski et
    al.'s broadcast indexing).  The CPU blocks either way.
    """

    seconds: float
    radio_listening: bool
    label: str = "wait"


PlanStep = Union[
    ClientComputeStep, ServerComputeStep, SendStep, RecvStep, WaitStep
]


@dataclass
class QueryPlan:
    """The bandwidth-independent record of one query's execution."""

    query: Query
    config: SchemeConfig
    steps: List[PlanStep]
    answer_ids: np.ndarray
    n_candidates: int
    n_results: int


# ----------------------------------------------------------------------
# Environment and policy
# ----------------------------------------------------------------------
@dataclass
class Environment:
    """The simulated world: one dataset, its index, and the two machines.

    The same :class:`QueryEngine` instance serves both sides (the paper runs
    one query implementation everywhere); *pricing* a phase against the
    client or server CPU model is what differentiates the sides.
    """

    dataset: SegmentDataset
    tree: PackedRTree
    engine: QueryEngine
    client_cpu: ClientCPU
    server_cpu: ServerCPU

    @classmethod
    def create(
        cls,
        dataset: SegmentDataset,
        tree: Optional[PackedRTree] = None,
        client_cpu: Optional[ClientCPU] = None,
        server_cpu: Optional[ServerCPU] = None,
    ) -> "Environment":
        """Build an environment with default models over ``dataset``."""
        tree = tree if tree is not None else PackedRTree.build(dataset)
        return cls(
            dataset=dataset,
            tree=tree,
            engine=QueryEngine(dataset, tree),
            client_cpu=client_cpu if client_cpu is not None else ClientCPU(),
            server_cpu=server_cpu if server_cpu is not None else ServerCPU(),
        )

    def reset_caches(self) -> None:
        """Cold-start both machines' caches (workload boundary)."""
        self.client_cpu.reset_cache()
        self.server_cpu.reset_cache()


#: Named wait policies accepted by :meth:`Policy.sweep`: how the client CPU
#: behaves while blocked on the NIC or the server.
WAIT_POLICIES = {
    # The paper's configuration: block, CPU halted in its low-power mode.
    "block": dict(busy_wait=False, cpu_lowpower=True),
    # Block, but without the low-power halt (isolates the halt's saving).
    "block-fullpower": dict(busy_wait=False, cpu_lowpower=False),
    # Spin on the message queue at full power (section 5.2 ablation).
    "busy": dict(busy_wait=True, cpu_lowpower=True),
}


@dataclass(frozen=True, kw_only=True)
class Policy:
    """Everything the paper sweeps or ablates without re-running queries.

    Construction is keyword-only and validated (the network and NIC power
    table validate their own numbers; the three discipline flags must be
    booleans).  Use :meth:`sweep` to build policy grids instead of
    hand-assembling lists.
    """

    network: NetworkConfig = DEFAULT_NETWORK
    nic_power: NICPowerTable = DEFAULT_NIC_POWER
    #: Busy-wait on receive instead of blocking (section 5.2 ablation;
    #: the paper's results all use blocking).
    busy_wait: bool = False
    #: Drop the CPU into its low-power mode while blocked (paper: 10-20%
    #: saving; enabled in all its results).
    cpu_lowpower: bool = True
    #: Put the NIC to SLEEP when no message can arrive; when False the NIC
    #: idles instead (ablation).
    nic_sleep: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.network, NetworkConfig):
            raise TypeError(
                f"network must be a NetworkConfig, got {type(self.network).__name__}"
            )
        if not isinstance(self.nic_power, NICPowerTable):
            raise TypeError(
                f"nic_power must be a NICPowerTable, got {type(self.nic_power).__name__}"
            )
        for flag in ("busy_wait", "cpu_lowpower", "nic_sleep"):
            if not isinstance(getattr(self, flag), bool):
                raise TypeError(f"{flag} must be a bool, got {getattr(self, flag)!r}")

    def with_bandwidth(self, bandwidth_bps: float) -> "Policy":
        """A copy at a different effective bandwidth."""
        return replace(self, network=replace(self.network, bandwidth_bps=bandwidth_bps))

    def with_distance(self, distance_m: float) -> "Policy":
        """A copy at a different client/base-station distance."""
        return replace(self, network=replace(self.network, distance_m=distance_m))

    def with_wait(self, wait: str) -> "Policy":
        """A copy using the named wait policy (see :data:`WAIT_POLICIES`)."""
        try:
            flags = WAIT_POLICIES[wait]
        except KeyError:
            raise ValueError(
                f"unknown wait policy {wait!r}; choose from "
                f"{sorted(WAIT_POLICIES)}"
            ) from None
        return replace(self, **flags)

    def with_loss(
        self,
        loss_rate: float,
        *,
        burst_frames: Optional[float] = None,
        timeout_s: Optional[float] = None,
        backoff: Optional[float] = None,
        timeout_cap_s: Optional[float] = None,
    ) -> "Policy":
        """A copy with the lossy-channel knobs set.

        ``burst_frames=None`` selects i.i.d. Bernoulli losses; a value
        >= 1 selects Gilbert-Elliott bursts of that mean length (the loss
        mode is fully respecified on every call).  The retransmission
        knobs default to the current network's values when omitted.
        """
        kwargs: dict = {
            "loss_rate": loss_rate,
            "loss_burst_frames": burst_frames,
        }
        if timeout_s is not None:
            kwargs["retx_timeout_s"] = timeout_s
        if backoff is not None:
            kwargs["retx_backoff"] = backoff
        if timeout_cap_s is not None:
            kwargs["retx_timeout_cap_s"] = timeout_cap_s
        return replace(self, network=replace(self.network, **kwargs))

    @classmethod
    def sweep(
        cls,
        *,
        bandwidths_mbps: Optional[Sequence[float]] = None,
        distances_m: Optional[Sequence[float]] = None,
        loss_rates: Optional[Sequence[float]] = None,
        loss_burst_frames: Optional[float] = None,
        wait: str = "block",
        nic_sleep: bool = True,
        network: NetworkConfig = DEFAULT_NETWORK,
        nic_power: NICPowerTable = DEFAULT_NIC_POWER,
    ) -> List["Policy"]:
        """Build the cross-product policy grid of a sweep.

        Distance-major, then loss rate, then bandwidth.  ``bandwidths_mbps``
        defaults to the paper's evaluation grid; ``distances_m`` defaults to
        the base network's single distance; ``loss_rates`` defaults to the
        base network's single loss rate (0 = the paper's ideal channel).
        Callers stop hand-building policy lists::

            policies = Policy.sweep(bandwidths_mbps=(2, 11), distances_m=(100, 1000))
            lossy = Policy.sweep(loss_rates=(0.0, 0.01, 0.05))
        """
        from repro.constants import BANDWIDTHS_MBPS, MBPS

        base = cls(network=network, nic_power=nic_power, nic_sleep=nic_sleep).with_wait(wait)
        bws = BANDWIDTHS_MBPS if bandwidths_mbps is None else tuple(bandwidths_mbps)
        dists = (
            (base.network.distance_m,) if distances_m is None else tuple(distances_m)
        )
        if loss_rates is None:
            lossy = [base]
        else:
            lossy = [
                base.with_loss(rate, burst_frames=loss_burst_frames)
                for rate in tuple(loss_rates)
            ]
        return [
            b.with_bandwidth(bw * MBPS).with_distance(d)
            for d in dists
            for b in lossy
            for bw in bws
        ]


# ----------------------------------------------------------------------
# Run result
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunResult:
    """Breakdowns for one priced query execution."""

    energy: EnergyBreakdown
    cycles: CycleBreakdown
    wall_seconds: float
    answer_ids: np.ndarray
    n_candidates: int
    n_results: int
    #: ``(direction, payload_bytes)`` log of application messages.
    messages: tuple
    #: Lossy-link ledger: retransmitted frames and backoff dwell (all
    #: zeros on the paper's ideal channel).
    loss: LossStats = LossStats()

    @classmethod
    def combine(cls, results: List["RunResult"]) -> "RunResult":
        """Elementwise sum over a workload (answers are concatenated)."""
        if not results:
            raise ValueError("combine() requires at least one result")
        energy = EnergyBreakdown()
        cycles = CycleBreakdown()
        loss = LossStats()
        wall = 0.0
        n_c = n_r = 0
        msgs: List[tuple] = []
        ids: List[np.ndarray] = []
        for r in results:
            energy = energy + r.energy
            cycles = cycles + r.cycles
            loss = loss + r.loss
            wall += r.wall_seconds
            n_c += r.n_candidates
            n_r += r.n_results
            msgs.extend(r.messages)
            ids.append(r.answer_ids)
        return cls(
            energy=energy,
            cycles=cycles,
            wall_seconds=wall,
            answer_ids=np.concatenate(ids) if ids else np.empty(0, dtype=np.int64),
            n_candidates=n_c,
            n_results=n_r,
            messages=tuple(msgs),
            loss=loss,
        )


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
def _display_counter(
    answer_ids: np.ndarray, costs, received_data_items: bool
) -> OpCounter:
    """The client's final bit of work: hand results to the user (``w3``).

    Each result id is touched; when full data items arrived over the wire
    the client also stores each record locally before display.
    """
    counter = OpCounter()
    counter.results_produced += int(answer_ids.size)
    for seg_id in answer_ids:
        counter.touch(REGION_RESULT, int(seg_id), costs.object_id_bytes)
        if received_data_items:
            counter.touch(REGION_DATA, int(seg_id), costs.segment_record_bytes)
    return counter


def plan_query(query: Query, config: SchemeConfig, env: Environment) -> QueryPlan:
    """Run the scheme's computation and record its bandwidth-free plan."""
    config.validate_for(query)
    costs = env.dataset.costs
    scheme = config.scheme
    steps: List[PlanStep] = []

    if query.kind is QueryKind.NEAREST_NEIGHBOR:
        if scheme is Scheme.FULLY_CLIENT:
            out = env.engine.nearest(query)
            cost = env.client_cpu.compute(out.counter)
            steps.append(ClientComputeStep(cost, "nn search at client"))
            return QueryPlan(query, config, steps, out.ids, 0, int(out.ids.size))
        # Fully at server.
        out = env.engine.nearest(query)
        server_cost = env.server_cpu.compute(out.counter)
        steps.append(SendStep(request_payload(costs)))
        steps.append(ServerComputeStep(server_cost.cycles, "nn search at server"))
        if config.data_at_client:
            payload = id_list_payload(int(out.ids.size), costs)
        else:
            payload = data_items_payload(int(out.ids.size), costs)
        steps.append(RecvStep(payload))
        disp = _display_counter(out.ids, costs, not config.data_at_client)
        steps.append(ClientComputeStep(env.client_cpu.compute(disp), "display"))
        return QueryPlan(query, config, steps, out.ids, 0, int(out.ids.size))

    # --- Phase-structured queries (point / range) ---------------------
    if scheme is Scheme.FULLY_CLIENT:
        counter = OpCounter()
        out = env.engine.answer(query, counter)
        cost = env.client_cpu.compute(counter)
        steps.append(ClientComputeStep(cost, "filter + refine at client"))
        return QueryPlan(
            query, config, steps, out.ids,
            counter.candidates_refined, int(out.ids.size),
        )

    if scheme is Scheme.FULLY_SERVER:
        counter = OpCounter()
        out = env.engine.answer(query, counter)
        server_cost = env.server_cpu.compute(counter)
        steps.append(SendStep(request_payload(costs)))
        steps.append(
            ServerComputeStep(server_cost.cycles, "filter + refine at server")
        )
        if config.data_at_client:
            payload = id_list_payload(int(out.ids.size), costs)
        else:
            payload = data_items_payload(int(out.ids.size), costs)
        steps.append(RecvStep(payload))
        disp = _display_counter(out.ids, costs, not config.data_at_client)
        steps.append(ClientComputeStep(env.client_cpu.compute(disp), "display"))
        return QueryPlan(
            query, config, steps, out.ids,
            counter.candidates_refined, int(out.ids.size),
        )

    if scheme is Scheme.FILTER_CLIENT_REFINE_SERVER:
        filt = env.engine.filter(query)
        filt_cost = env.client_cpu.compute(filt.counter)
        steps.append(ClientComputeStep(filt_cost, "filter at client"))
        n_cand = int(filt.ids.size)
        steps.append(SendStep(request_with_candidates_payload(n_cand, costs)))
        ref = env.engine.refine(query, filt.ids)
        server_cost = env.server_cpu.compute(ref.counter)
        steps.append(ServerComputeStep(server_cost.cycles, "refine at server"))
        if config.data_at_client:
            payload = id_list_payload(int(ref.ids.size), costs)
        else:
            payload = data_items_payload(int(ref.ids.size), costs)
        steps.append(RecvStep(payload))
        disp = _display_counter(ref.ids, costs, not config.data_at_client)
        steps.append(ClientComputeStep(env.client_cpu.compute(disp), "display"))
        return QueryPlan(query, config, steps, ref.ids, n_cand, int(ref.ids.size))

    if scheme is Scheme.FILTER_SERVER_REFINE_CLIENT:
        steps.append(SendStep(request_payload(costs)))
        filt = env.engine.filter(query)
        server_cost = env.server_cpu.compute(filt.counter)
        steps.append(ServerComputeStep(server_cost.cycles, "filter at server"))
        n_cand = int(filt.ids.size)
        # Data is at the client (the only variant studied), so bare
        # candidate ids come back.
        steps.append(RecvStep(id_list_payload(n_cand, costs)))
        ref = env.engine.refine(query, filt.ids)
        ref_cost = env.client_cpu.compute(ref.counter)
        steps.append(ClientComputeStep(ref_cost, "refine at client"))
        return QueryPlan(query, config, steps, ref.ids, n_cand, int(ref.ids.size))

    raise ValueError(f"unhandled scheme {scheme!r}")  # pragma: no cover


# ----------------------------------------------------------------------
# Pricing
# ----------------------------------------------------------------------
def price_plan(
    plan: QueryPlan, env: Environment, policy: Policy, *, channel=None
) -> RunResult:
    """Walk a plan against a policy, producing the run's breakdowns.

    On a lossy link (``policy.network.loss_rate > 0``) every message is
    additionally charged its closed-form *expected* retransmission cost
    (:func:`repro.sim.lossy.expected_retx`): extra wire time at the
    transfer's power state, backoff dwell at idle power, and per-frame
    protocol reprocessing on the client — the deterministic mean of the
    per-packet walk.  With ``loss_rate=0`` every added term is exactly
    zero and the walk reproduces the ideal channel bit for bit.

    Passing a seeded :class:`repro.sim.lossy.LossyChannel` as ``channel``
    switches the loss accounting from expectations to per-frame sampling
    — everything else in the walk stays byte-identical, which is what
    makes :mod:`repro.core.lossmc` a true oracle for this function.
    """
    client = env.client_cpu
    net = policy.network
    nic = NIC(power_table=policy.nic_power, distance_m=net.distance_m)
    retx = expected_retx(net)

    proc_cycles = 0.0
    proc_energy = 0.0
    tx_seconds = 0.0
    rx_seconds = 0.0
    wait_seconds = 0.0
    messages: List[tuple] = []

    def nic_quiet(seconds: float) -> None:
        """NIC behaviour when no traffic can arrive."""
        if policy.nic_sleep:
            nic.sleep(seconds)
        else:
            nic.idle(seconds)

    def blocked(seconds: float) -> float:
        """Client CPU energy while blocked for ``seconds``."""
        busy = policy.busy_wait or not policy.cpu_lowpower
        return client.blocked_energy_j(seconds, busy_wait=busy)

    def lossy_tail(msg, uplink: bool) -> float:
        """Expected retransmission cost of one message; returns elapsed s.

        The retransmitted bits ride the same power state as the original
        transfer; the backoff dwell idles the radio awaiting the
        ACK/retransmission; the per-frame protocol reprocessing overlaps
        the dwell (it is orders of magnitude shorter), so it charges
        cycles and energy but no NIC time of its own.
        """
        nonlocal proc_cycles, proc_energy, wait_seconds
        if channel is not None:
            # Monte-Carlo: sample each frame's retransmission count and
            # backoff dwell from the seeded channel.
            frame_bits = msg.wire_bits / msg.n_frames
            elapsed = 0.0
            dwell = 0.0
            n_total = 0
            for _ in range(msg.n_frames):
                n, frame_dwell = channel.frame_attempts()
                if n == 0:
                    continue
                if uplink:
                    elapsed += nic.retransmit(
                        frame_bits * n, net.bandwidth_bps, frames=n
                    )
                else:
                    elapsed += nic.rereceive(
                        frame_bits * n, net.bandwidth_bps, frames=n
                    )
                dwell += nic.backoff(frame_dwell)
                n_total += n
            extra_frames = float(n_total)
        elif retx.lossless:
            return 0.0
        else:
            extra_bits = msg.wire_bits * retx.retx_per_frame
            extra_frames = msg.n_frames * retx.retx_per_frame
            if uplink:
                elapsed = nic.retransmit(
                    extra_bits, net.bandwidth_bps, frames=extra_frames
                )
            else:
                elapsed = nic.rereceive(
                    extra_bits, net.bandwidth_bps, frames=extra_frames
                )
            dwell = nic.backoff(msg.n_frames * retx.backoff_per_frame_s)
        wait_seconds += dwell
        proc_energy += blocked(elapsed + dwell)
        rcost = client.retx_protocol(extra_frames)
        proc_cycles += rcost.cycles
        proc_energy += rcost.energy_j
        return elapsed

    for step in plan.steps:
        if isinstance(step, ClientComputeStep):
            proc_cycles += step.cost.cycles
            proc_energy += step.cost.energy_j
            nic_quiet(client.seconds(step.cost.cycles))
        elif isinstance(step, SendStep):
            msg = packetize(step.payload.nbytes, net)
            messages.append(("tx", step.payload.nbytes))
            # Protocol processing happens before the radio keys up.
            proto = client.protocol(msg)
            proc_cycles += proto.cycles
            proc_energy += proto.energy_j
            nic_quiet(client.seconds(proto.cycles))
            elapsed = nic.transmit(msg.wire_bits, net.bandwidth_bps)
            tx_seconds += elapsed
            proc_energy += blocked(elapsed)
            tx_seconds += lossy_tail(msg, uplink=True)
        elif isinstance(step, ServerComputeStep):
            seconds = env.server_cpu.seconds(step.cycles)
            # The NIC must listen for the response; the CPU blocks.
            nic.idle(seconds)
            wait_seconds += seconds
            proc_energy += blocked(seconds)
        elif isinstance(step, WaitStep):
            if step.radio_listening:
                nic.idle(step.seconds)
            else:
                nic.sleep(step.seconds)
            wait_seconds += step.seconds
            proc_energy += blocked(step.seconds)
        elif isinstance(step, RecvStep):
            msg = packetize(step.payload.nbytes, net)
            messages.append(("rx", step.payload.nbytes))
            if nic.state is NICState.SLEEP:
                # A receive not preceded by a wait (degenerate plans):
                # wake the radio first.
                nic.idle(0.0)
            elapsed = nic.receive(msg.wire_bits, net.bandwidth_bps)
            rx_seconds += elapsed
            proc_energy += blocked(elapsed)
            rx_seconds += lossy_tail(msg, uplink=False)
            # Reassembly/copy after the message lands.
            proto = client.protocol(msg)
            proc_cycles += proto.cycles
            proc_energy += proto.energy_j
            nic_quiet(client.seconds(proto.cycles))
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown plan step {step!r}")

    clock = client.clock_hz
    cycles = CycleBreakdown(
        processor=proc_cycles,
        nic_tx=tx_seconds * clock,
        nic_rx=rx_seconds * clock,
        wait=wait_seconds * clock,
    )
    energy = EnergyBreakdown(
        processor=proc_energy,
        nic_tx=nic.energy_j[NICState.TRANSMIT],
        nic_rx=nic.energy_j[NICState.RECEIVE],
        nic_idle=nic.energy_j[NICState.IDLE],
        nic_sleep=nic.energy_j[NICState.SLEEP],
    )
    return RunResult(
        energy=energy,
        cycles=cycles,
        wall_seconds=nic.total_time_s(),
        answer_ids=plan.answer_ids,
        n_candidates=plan.n_candidates,
        n_results=plan.n_results,
        messages=tuple(messages),
        loss=LossStats(
            retx_tx_frames=nic.tx_retx_frames,
            retx_rx_frames=nic.rx_retx_frames,
            backoff_s=nic.backoff_s,
        ),
    )


def execute(
    query: Query,
    config: SchemeConfig,
    env: Environment,
    policy: Policy = Policy(),
) -> RunResult:
    """Plan and price one query in one call (the simple public entry)."""
    return price_plan(plan_query(query, config, env), env, policy)
