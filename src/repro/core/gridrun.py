"""Workload-scale batched pricing runtime.

The evaluation is a grid — schemes x queries x bandwidths x distances x
wait policies — but :func:`repro.core.executor.price_plan` walks one
(plan, policy) pair at a time through a per-step Python loop, so a figure
bench re-walks thousands of tiny plans serially.  This module prices the
whole grid at once:

1. :func:`compile_plan` walks a plan **symbolically, once**, reducing it to
   a handful of policy-independent aggregates (compute cycles/joules, wire
   bits per direction, NIC-quiet and wait dwell seconds, sleep-exit counts
   under both NIC disciplines).  The walk mirrors ``price_plan`` statement
   for statement; a property test asserts the two agree to float tolerance
   on randomized grids.
2. :func:`price_grid` broadcasts those aggregates against per-policy
   scalars (bandwidth, transmit power, blocked-CPU power, NIC state powers)
   as NumPy arrays, producing every (plan, policy) cell in one shot;
   :func:`price_workload_grid` sums the aggregates over the workload first
   and prices M policies in O(N + M) instead of O(N * M).
3. :class:`PlanCache` memoizes planning per (dataset fingerprint, workload,
   scheme) so sweeps and repeated benches never re-plan.
4. :class:`RunLedger` records what happened — per-phase op counts, per-NIC-
   state joules/seconds (:class:`repro.sim.metrics.NICDwell`), plan-cache
   hit rates, wall-clock timings — as JSON-lines for
   ``repro bench --ledger`` and :func:`repro.bench.report.summarize_ledger`.

The scalar ``price_plan`` remains the oracle; everything here is an exact
algebraic regrouping of its arithmetic.  The aggregates work because the
step walk's policy dependence is affine: transfer time is ``wire_bits / B``,
NIC energy is ``power x dwell``, blocked-CPU energy is ``power x blocked
seconds``, and the only nonlinearity — the NIC sleep/idle state machine —
depends on a single boolean (``Policy.nic_sleep``), so both variants are
compiled up front.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import IO, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.constants import NetworkConfig
from repro.core.executor import (
    ClientComputeStep,
    Environment,
    Policy,
    QueryPlan,
    RecvStep,
    RunResult,
    SendStep,
    ServerComputeStep,
    WaitStep,
)
from repro.core.queries import Query, query_key
from repro.core.schemes import SchemeConfig
from repro.data.model import SegmentDataset
from repro.sim.lossy import expected_retx
from repro.sim.metrics import CycleBreakdown, EnergyBreakdown, LossStats, NICDwell
from repro.sim.protocol import packetize
from repro.sim.radio import RadioModel

__all__ = [
    "CompiledPlan",
    "PlanAggregates",
    "compile_plan",
    "framing_key",
    "GridResult",
    "price_grid",
    "price_workload_grid",
    "dataset_fingerprint",
    "workload_key",
    "scheme_key",
    "PlanCache",
    "RunLedger",
    "read_ledger",
]


# ----------------------------------------------------------------------
# Plan compilation
# ----------------------------------------------------------------------
def framing_key(net: NetworkConfig) -> Tuple[int, int, int, int]:
    """The part of a network config that changes a plan's wire footprint.

    :func:`repro.sim.protocol.packetize` only reads the MTU and the three
    header sizes; policies sharing these four values share compiled plans
    even when they differ in bandwidth, distance or discipline flags.
    """
    return (
        net.mtu_bytes,
        net.tcp_header_bytes,
        net.ip_header_bytes,
        net.link_header_bytes,
    )


@dataclass(frozen=True)
class CompiledPlan:
    """One plan's policy-independent aggregates (for one wire framing).

    The two ``*_sleep`` / ``*_nosleep`` counter pairs capture the only
    policy nonlinearity: how often the NIC crosses out of SLEEP (each
    crossing costs the exit latency at idle power) under the two
    ``Policy.nic_sleep`` disciplines.
    """

    #: Client compute + protocol cycles (the figures' Processor cycles).
    proc_cycles: float
    #: Client compute + protocol energy, excluding blocked-CPU energy.
    proc_energy_j: float
    #: Seconds the NIC is quiet (client computing / protocol processing);
    #: spent in SLEEP or IDLE depending on ``Policy.nic_sleep``.
    quiet_s: float
    #: Seconds waiting with the radio listening (server compute, indexed
    #: broadcast waits with no timing knowledge).
    idle_wait_s: float
    #: Seconds waiting with the radio off (index-directed broadcast waits).
    sleep_wait_s: float
    #: Total bits on the wire, client -> server.
    tx_bits: float
    #: Total bits on the wire, server -> client.
    rx_bits: float
    #: Total MTU frames on the wire, client -> server (lossy-link pricing
    #: scales retransmissions and backoff by frame counts).
    tx_frames: float
    #: Total MTU frames on the wire, server -> client.
    rx_frames: float
    #: SLEEP exits when the policy sleeps the NIC between activities.
    n_exits_sleep: int
    #: ...of which happen inside ``transmit()`` (charged to NIC-Tx time).
    n_tx_wake_sleep: int
    #: SLEEP exits when the policy keeps the NIC idling instead.
    n_exits_nosleep: int
    n_tx_wake_nosleep: int
    #: ``(direction, payload_bytes)`` application-message log, in step order.
    messages: Tuple[tuple, ...]
    answer_ids: np.ndarray
    n_candidates: int
    n_results: int

    @property
    def wait_s(self) -> float:
        """Blocked-on-the-world seconds (the cycle bars' ``wait`` bucket)."""
        return self.idle_wait_s + self.sleep_wait_s


# NIC states for the symbolic walk (private mirror of sim.nic.NICState —
# only SLEEP matters for exit counting, but keeping all four makes the walk
# read like the executor's).
_SLEEP, _IDLE, _TRANSMIT, _RECEIVE = range(4)


def compile_plan(
    plan: QueryPlan, env: Environment, network: NetworkConfig
) -> CompiledPlan:
    """Reduce one plan to its batched-pricing aggregates.

    ``network`` supplies the wire framing (MTU + headers) — normally the
    policy's network; protocol *instruction* rates come from the client CPU
    model's own network config, exactly as in the scalar walk.
    """
    client = env.client_cpu
    proc_cycles = 0.0
    proc_energy = 0.0
    quiet_s = 0.0
    idle_wait_s = 0.0
    sleep_wait_s = 0.0
    tx_bits = 0.0
    rx_bits = 0.0
    tx_frames = 0.0
    rx_frames = 0.0
    messages: List[tuple] = []
    # One symbolic NIC state machine per nic_sleep discipline; index 0 is
    # nic_sleep=True, index 1 is nic_sleep=False.
    state = [_SLEEP, _SLEEP]
    exits = [0, 0]
    tx_wakes = [0, 0]

    def quiet(seconds: float) -> None:
        """``nic_quiet``: SLEEP under discipline 0, IDLE under 1."""
        nonlocal quiet_s
        quiet_s += seconds
        state[0] = _SLEEP
        if state[1] == _SLEEP:
            exits[1] += 1
        state[1] = _IDLE

    def wake_to(new_state: int, in_transmit: bool = False) -> None:
        for v in (0, 1):
            if state[v] == _SLEEP:
                exits[v] += 1
                if in_transmit:
                    tx_wakes[v] += 1
            state[v] = new_state

    for step in plan.steps:
        if isinstance(step, ClientComputeStep):
            proc_cycles += step.cost.cycles
            proc_energy += step.cost.energy_j
            quiet(client.seconds(step.cost.cycles))
        elif isinstance(step, SendStep):
            msg = packetize(step.payload.nbytes, network)
            messages.append(("tx", step.payload.nbytes))
            proto = client.protocol(msg)
            proc_cycles += proto.cycles
            proc_energy += proto.energy_j
            quiet(client.seconds(proto.cycles))
            wake_to(_TRANSMIT, in_transmit=True)
            tx_bits += msg.wire_bits
            tx_frames += msg.n_frames
        elif isinstance(step, ServerComputeStep):
            idle_wait_s += env.server_cpu.seconds(step.cycles)
            wake_to(_IDLE)
        elif isinstance(step, WaitStep):
            if step.radio_listening:
                idle_wait_s += step.seconds
                wake_to(_IDLE)
            else:
                sleep_wait_s += step.seconds
                state[0] = state[1] = _SLEEP
        elif isinstance(step, RecvStep):
            msg = packetize(step.payload.nbytes, network)
            messages.append(("rx", step.payload.nbytes))
            # A receive out of SLEEP wakes via idle(0.0) in the scalar walk.
            wake_to(_RECEIVE)
            rx_bits += msg.wire_bits
            rx_frames += msg.n_frames
            proto = client.protocol(msg)
            proc_cycles += proto.cycles
            proc_energy += proto.energy_j
            quiet(client.seconds(proto.cycles))
        else:  # pragma: no cover - defensive, mirrors price_plan
            raise TypeError(f"unknown plan step {step!r}")

    return CompiledPlan(
        proc_cycles=proc_cycles,
        proc_energy_j=proc_energy,
        quiet_s=quiet_s,
        idle_wait_s=idle_wait_s,
        sleep_wait_s=sleep_wait_s,
        tx_bits=tx_bits,
        rx_bits=rx_bits,
        tx_frames=tx_frames,
        rx_frames=rx_frames,
        n_exits_sleep=exits[0],
        n_tx_wake_sleep=tx_wakes[0],
        n_exits_nosleep=exits[1],
        n_tx_wake_nosleep=tx_wakes[1],
        messages=tuple(messages),
        answer_ids=plan.answer_ids,
        n_candidates=plan.n_candidates,
        n_results=plan.n_results,
    )


# ----------------------------------------------------------------------
# Grid pricing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _PolicyColumns:
    """Per-policy scalars as (M,) arrays, ready to broadcast."""

    bandwidth_bps: np.ndarray
    tx_power_w: np.ndarray
    receive_w: np.ndarray
    idle_w: np.ndarray
    sleep_w: np.ndarray
    exit_latency_s: np.ndarray
    blocked_power_w: np.ndarray
    #: Expected retransmissions per wire frame (0 on an ideal channel).
    retx_per_frame: np.ndarray
    #: Expected backoff dwell per wire frame, seconds.
    backoff_per_frame_s: np.ndarray
    #: 0 where nic_sleep=True, 1 where nic_sleep=False (variant index).
    variant: np.ndarray

    @classmethod
    def build(cls, policies: Sequence[Policy], env: Environment) -> "_PolicyColumns":
        nominal = env.client_cpu.config.power_at()
        lp = env.client_cpu.config.lowpower_fraction
        bw, txp, rxw, idw, slw, lat, blk, var = [], [], [], [], [], [], [], []
        rpf, bpf = [], []
        for p in policies:
            bw.append(p.network.bandwidth_bps)
            txp.append(
                RadioModel(power_table=p.nic_power).transmit_power_w(
                    p.network.distance_m
                )
            )
            rxw.append(p.nic_power.receive_w)
            idw.append(p.nic_power.idle_w)
            slw.append(p.nic_power.sleep_w)
            lat.append(p.nic_power.sleep_exit_latency_s)
            busy = p.busy_wait or not p.cpu_lowpower
            blk.append(nominal if busy else nominal * lp)
            retx = expected_retx(p.network)
            rpf.append(retx.retx_per_frame)
            bpf.append(retx.backoff_per_frame_s)
            var.append(0 if p.nic_sleep else 1)
        f = np.asarray
        return cls(
            bandwidth_bps=f(bw, dtype=np.float64),
            tx_power_w=f(txp, dtype=np.float64),
            receive_w=f(rxw, dtype=np.float64),
            idle_w=f(idw, dtype=np.float64),
            sleep_w=f(slw, dtype=np.float64),
            exit_latency_s=f(lat, dtype=np.float64),
            blocked_power_w=f(blk, dtype=np.float64),
            retx_per_frame=f(rpf, dtype=np.float64),
            backoff_per_frame_s=f(bpf, dtype=np.float64),
            variant=f(var, dtype=np.intp),
        )


@dataclass
class GridResult:
    """Every bucket of an N-plans x M-policies pricing grid, as arrays.

    ``energy_*`` map onto :class:`EnergyBreakdown` buckets, ``cycles_*``
    onto :class:`CycleBreakdown`; ``dwell_*`` are the per-NIC-state seconds
    the ledger reports.  :meth:`result` materializes any single cell as the
    scalar executor's :class:`RunResult`; :meth:`combine_policy` sums a
    policy's column over the workload.
    """

    plans: List[QueryPlan]
    policies: List[Policy]
    compiled: List[CompiledPlan]
    energy_processor: np.ndarray
    energy_tx: np.ndarray
    energy_rx: np.ndarray
    energy_idle: np.ndarray
    energy_sleep: np.ndarray
    cycles_processor: np.ndarray
    cycles_tx: np.ndarray
    cycles_rx: np.ndarray
    cycles_wait: np.ndarray
    wall_s: np.ndarray
    dwell_tx_s: np.ndarray
    dwell_rx_s: np.ndarray
    dwell_idle_s: np.ndarray
    dwell_sleep_s: np.ndarray
    sleep_exits: np.ndarray
    retx_tx_frames: np.ndarray
    retx_rx_frames: np.ndarray
    backoff_s: np.ndarray

    @property
    def shape(self) -> Tuple[int, int]:
        """(n_plans, n_policies)."""
        return self.energy_processor.shape

    # ------------------------------------------------------------------
    def _energy(self, i, j) -> EnergyBreakdown:
        return EnergyBreakdown(
            processor=float(self.energy_processor[i, j]),
            nic_tx=float(self.energy_tx[i, j]),
            nic_rx=float(self.energy_rx[i, j]),
            nic_idle=float(self.energy_idle[i, j]),
            nic_sleep=float(self.energy_sleep[i, j]),
        )

    def _cycles(self, i, j) -> CycleBreakdown:
        return CycleBreakdown(
            processor=float(self.cycles_processor[i, j]),
            nic_tx=float(self.cycles_tx[i, j]),
            nic_rx=float(self.cycles_rx[i, j]),
            wait=float(self.cycles_wait[i, j]),
        )

    def loss(self, i: int, j: int) -> LossStats:
        """The (plan i, policy j) cell's lossy-link ledger."""
        return LossStats(
            retx_tx_frames=float(self.retx_tx_frames[i, j]),
            retx_rx_frames=float(self.retx_rx_frames[i, j]),
            backoff_s=float(self.backoff_s[i, j]),
        )

    def result(self, i: int, j: int) -> RunResult:
        """The (plan i, policy j) cell as a scalar-walk-shaped RunResult."""
        c = self.compiled[i]
        return RunResult(
            energy=self._energy(i, j),
            cycles=self._cycles(i, j),
            wall_seconds=float(self.wall_s[i, j]),
            answer_ids=c.answer_ids,
            n_candidates=c.n_candidates,
            n_results=c.n_results,
            messages=c.messages,
            loss=self.loss(i, j),
        )

    def combine_policy(self, j: int) -> RunResult:
        """Policy ``j``'s column summed over the workload (plan order)."""
        ids = [c.answer_ids for c in self.compiled]
        msgs: List[tuple] = []
        for c in self.compiled:
            msgs.extend(c.messages)
        return RunResult(
            energy=EnergyBreakdown(
                processor=float(self.energy_processor[:, j].sum()),
                nic_tx=float(self.energy_tx[:, j].sum()),
                nic_rx=float(self.energy_rx[:, j].sum()),
                nic_idle=float(self.energy_idle[:, j].sum()),
                nic_sleep=float(self.energy_sleep[:, j].sum()),
            ),
            cycles=CycleBreakdown(
                processor=float(self.cycles_processor[:, j].sum()),
                nic_tx=float(self.cycles_tx[:, j].sum()),
                nic_rx=float(self.cycles_rx[:, j].sum()),
                wait=float(self.cycles_wait[:, j].sum()),
            ),
            wall_seconds=float(self.wall_s[:, j].sum()),
            answer_ids=(
                np.concatenate(ids) if ids else np.empty(0, dtype=np.int64)
            ),
            n_candidates=sum(c.n_candidates for c in self.compiled),
            n_results=sum(c.n_results for c in self.compiled),
            messages=tuple(msgs),
            loss=LossStats(
                retx_tx_frames=float(self.retx_tx_frames[:, j].sum()),
                retx_rx_frames=float(self.retx_rx_frames[:, j].sum()),
                backoff_s=float(self.backoff_s[:, j].sum()),
            ),
        )

    def dwell(self, j: int) -> NICDwell:
        """Policy ``j``'s per-NIC-state dwell, summed over the workload."""
        return NICDwell(
            transmit_s=float(self.dwell_tx_s[:, j].sum()),
            receive_s=float(self.dwell_rx_s[:, j].sum()),
            idle_s=float(self.dwell_idle_s[:, j].sum()),
            sleep_s=float(self.dwell_sleep_s[:, j].sum()),
            transmit_j=float(self.energy_tx[:, j].sum()),
            receive_j=float(self.energy_rx[:, j].sum()),
            idle_j=float(self.energy_idle[:, j].sum()),
            sleep_j=float(self.energy_sleep[:, j].sum()),
            sleep_exits=int(self.sleep_exits[:, j].sum()),
        )


@dataclass(frozen=True)
class PlanAggregates:
    """:class:`CompiledPlan` fields as (N,) columns for one wire framing.

    :func:`price_grid` gathers them from the compiled plans and prices
    them through :func:`_price_framing_into`.
    """

    proc_cycles: np.ndarray
    proc_energy_j: np.ndarray
    quiet_s: np.ndarray
    idle_wait_s: np.ndarray
    sleep_wait_s: np.ndarray
    tx_bits: np.ndarray
    rx_bits: np.ndarray
    tx_frames: np.ndarray
    rx_frames: np.ndarray
    #: (N, 2) SLEEP-exit counts, column 0 = nic_sleep, column 1 = no-sleep.
    exits2: np.ndarray
    #: (N, 2) exits charged inside ``transmit()``, same column layout.
    txwake2: np.ndarray

    @classmethod
    def from_compiled(cls, compiled: Sequence[CompiledPlan]) -> "PlanAggregates":
        a = lambda attr: np.asarray(  # noqa: E731
            [getattr(c, attr) for c in compiled], dtype=np.float64
        )
        return cls(
            proc_cycles=a("proc_cycles"),
            proc_energy_j=a("proc_energy_j"),
            quiet_s=a("quiet_s"),
            idle_wait_s=a("idle_wait_s"),
            sleep_wait_s=a("sleep_wait_s"),
            tx_bits=a("tx_bits"),
            rx_bits=a("rx_bits"),
            tx_frames=a("tx_frames"),
            rx_frames=a("rx_frames"),
            exits2=np.asarray(
                [[c.n_exits_sleep, c.n_exits_nosleep] for c in compiled],
                dtype=np.float64,
            ),
            txwake2=np.asarray(
                [[c.n_tx_wake_sleep, c.n_tx_wake_nosleep] for c in compiled],
                dtype=np.float64,
            ),
        )


def _empty_grid(plans, policies, compiled, n: int, m: int) -> GridResult:
    """A zero-filled GridResult to be populated per framing group."""
    shape = (n, m)
    z = lambda: np.zeros(shape, dtype=np.float64)  # noqa: E731
    return GridResult(
        plans=plans,
        policies=policies,
        compiled=compiled,
        energy_processor=z(),
        energy_tx=z(),
        energy_rx=z(),
        energy_idle=z(),
        energy_sleep=z(),
        cycles_processor=z(),
        cycles_tx=z(),
        cycles_rx=z(),
        cycles_wait=z(),
        wall_s=z(),
        dwell_tx_s=z(),
        dwell_rx_s=z(),
        dwell_idle_s=z(),
        dwell_sleep_s=z(),
        sleep_exits=np.zeros(shape, dtype=np.int64),
        retx_tx_frames=z(),
        retx_rx_frames=z(),
        backoff_s=z(),
    )


def _price_framing_into(
    grid: GridResult,
    agg: PlanAggregates,
    cols: _PolicyColumns,
    cols_j: Sequence[int],
    clock: float,
    retx_unit,
) -> None:
    """Fill ``grid``'s columns ``cols_j`` from one framing's aggregates.

    This is the whole policy broadcast: every statement below is an exact
    algebraic regrouping of ``price_plan``'s scalar walk (see module
    docstring).
    """
    j = np.asarray(cols_j, dtype=np.intp)
    bw = cols.bandwidth_bps[j]
    lat = cols.exit_latency_s[j]
    var = cols.variant[j]  # 0 = nic_sleep, 1 = nic idles

    proc_cycles = agg.proc_cycles
    proc_energy = agg.proc_energy_j
    quiet = agg.quiet_s
    idle_wait = agg.idle_wait_s
    sleep_wait = agg.sleep_wait_s
    txb = agg.tx_bits
    rxb = agg.rx_bits
    wait_s = idle_wait + sleep_wait
    exits = agg.exits2[:, var]  # (N, Mf)
    txwake = agg.txwake2[:, var]

    # Lossy-link expectations: retransmitted bits ride the transfer's
    # power state, backoff idles the radio, reprocessing charges the
    # CPU — the exact algebraic regrouping of ``price_plan``'s
    # ``lossy_tail`` (all terms are identically zero at loss_rate=0,
    # preserving ideal-channel results bit for bit).
    r = cols.retx_per_frame[j][None, :]
    bo = cols.backoff_per_frame_s[j][None, :]
    txf = agg.tx_frames
    rxf = agg.rx_frames
    retx_tx_s = txb[:, None] * r / bw[None, :]
    retx_rx_s = rxb[:, None] * r / bw[None, :]
    backoff_s = (txf + rxf)[:, None] * bo
    retx_frames = (txf + rxf)[:, None] * r

    tx_s = txb[:, None] / bw[None, :] + retx_tx_s
    rx_s = rxb[:, None] / bw[None, :] + retx_rx_s
    tx_elapsed = tx_s + txwake * lat[None, :]
    quiet_idle = quiet[:, None] * (var == 1)[None, :]
    quiet_sleep = quiet[:, None] * (var == 0)[None, :]
    idle_s = idle_wait[:, None] + quiet_idle + exits * lat[None, :] + backoff_s
    sleep_s = sleep_wait[:, None] + quiet_sleep
    blocked_s = wait_s[:, None] + tx_elapsed + rx_s + backoff_s

    grid.energy_processor[:, j] = (
        proc_energy[:, None]
        + cols.blocked_power_w[j][None, :] * blocked_s
        + retx_frames * retx_unit.energy_j
    )
    grid.energy_tx[:, j] = cols.tx_power_w[j][None, :] * tx_s
    grid.energy_rx[:, j] = cols.receive_w[j][None, :] * rx_s
    grid.energy_idle[:, j] = cols.idle_w[j][None, :] * idle_s
    grid.energy_sleep[:, j] = cols.sleep_w[j][None, :] * sleep_s
    grid.cycles_processor[:, j] = proc_cycles[:, None] + retx_frames * retx_unit.cycles
    grid.cycles_tx[:, j] = tx_elapsed * clock
    grid.cycles_rx[:, j] = rx_s * clock
    grid.cycles_wait[:, j] = (wait_s[:, None] + backoff_s) * clock
    grid.wall_s[:, j] = tx_s + rx_s + idle_s + sleep_s
    grid.dwell_tx_s[:, j] = tx_s
    grid.dwell_rx_s[:, j] = rx_s
    grid.dwell_idle_s[:, j] = idle_s
    grid.dwell_sleep_s[:, j] = sleep_s
    grid.sleep_exits[:, j] = exits.astype(np.int64)
    grid.retx_tx_frames[:, j] = txf[:, None] * r
    grid.retx_rx_frames[:, j] = rxf[:, None] * r
    grid.backoff_s[:, j] = backoff_s


def _compile_for(
    plans: Sequence[QueryPlan],
    env: Environment,
    network: NetworkConfig,
    cache: Optional[Dict[tuple, Tuple[QueryPlan, CompiledPlan]]] = None,
) -> List[CompiledPlan]:
    """Compile ``plans`` under one framing, reusing ``cache`` when given."""
    key = framing_key(network)
    out = []
    for plan in plans:
        if cache is not None:
            # Key by object identity, but pin the plan in the entry: a
            # bare id() key goes stale once the plan is garbage-collected
            # and CPython hands its address to a different plan.
            ck = (id(plan), key)
            hit = cache.get(ck)
            if hit is None or hit[0] is not plan:
                hit = (plan, compile_plan(plan, env, network))
                cache[ck] = hit
            out.append(hit[1])
        else:
            out.append(compile_plan(plan, env, network))
    return out


def price_grid(
    plans: Sequence[QueryPlan],
    policies: Sequence[Policy],
    env: Environment,
    *,
    compile_cache: Optional[Dict[tuple, Tuple[QueryPlan, CompiledPlan]]] = None,
) -> GridResult:
    """Price the full plans x policies grid in one vectorized pass.

    Matches :func:`repro.core.executor.price_plan` cell-for-cell to float
    tolerance (property-tested).  Policies may mix bandwidths, distances,
    power tables, framings and discipline flags freely; plans are compiled
    once per distinct wire framing.
    """
    plans = list(plans)
    policies = list(policies)
    if not plans:
        raise ValueError("price_grid() requires at least one plan")
    if not policies:
        raise ValueError("price_grid() requires at least one policy")
    n, m = len(plans), len(policies)
    clock = env.client_cpu.clock_hz

    cols = _PolicyColumns.build(policies, env)

    # Static per-plan aggregates, grouped by wire framing.  Columns sharing
    # a framing share one compiled array set.
    by_framing: Dict[tuple, List[int]] = {}
    for j, p in enumerate(policies):
        by_framing.setdefault(framing_key(p.network), []).append(j)

    compiled_ref: List[CompiledPlan] = [None] * n  # type: ignore[list-item]
    grid = _empty_grid(plans, policies, compiled_ref, n, m)

    # Per-frame retransmission protocol unit cost (cycles/joules for one
    # reprocessed frame); linear in the frame count, like the scalar walk's
    # ``client.retx_protocol(extra_frames)``.
    retx_unit = env.client_cpu.retx_protocol(1.0)

    for fkey, cols_j in by_framing.items():
        net = policies[cols_j[0]].network
        compiled = _compile_for(plans, env, net, compile_cache)
        for i, c in enumerate(compiled):
            compiled_ref[i] = c
        agg = PlanAggregates.from_compiled(compiled)
        _price_framing_into(grid, agg, cols, cols_j, clock, retx_unit)

    return grid


def price_workload_grid(
    plans: Sequence[QueryPlan],
    policies: Sequence[Policy],
    env: Environment,
    *,
    compile_cache: Optional[Dict[tuple, Tuple[QueryPlan, CompiledPlan]]] = None,
) -> List[RunResult]:
    """Workload-summed results, one per policy, in policy order.

    The fast path for sweeps: per-plan detail is folded into workload
    aggregates *before* pricing, so M policy points cost O(N + M) rather
    than O(N x M) after compilation.
    """
    grid = price_grid(plans, policies, env, compile_cache=compile_cache)
    return [grid.combine_policy(j) for j in range(len(grid.policies))]


# ----------------------------------------------------------------------
# Plan cache
# ----------------------------------------------------------------------
def dataset_fingerprint(ds: SegmentDataset) -> str:
    """A content hash of a dataset: geometry, cardinality, cost model.

    Any mutation of the coordinate arrays (or a differently calibrated cost
    model) changes the fingerprint, so cached plans can never be served for
    data they were not planned against.
    """
    h = hashlib.sha1()
    h.update(ds.name.encode())
    h.update(str(ds.size).encode())
    for arr in (ds.x1, ds.y1, ds.x2, ds.y2):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr(ds.costs).encode())
    return h.hexdigest()


def workload_key(queries: Sequence[Query]) -> Tuple[tuple, ...]:
    """A hashable key for an ordered query sequence.

    Plans within a workload are order-dependent (the client D-cache warms
    across queries, as it does on the device), so the cache unit is the
    whole ordered workload, not the single query.  Each element is the
    query's explicit field tuple (:func:`repro.core.queries.query_key`) —
    kind tag plus coordinates — rather than a ``repr`` string, so the key
    survives cosmetic ``__repr__`` changes and never conflates queries whose
    floats print alike.
    """
    return tuple(query_key(q) for q in queries)


def scheme_key(config: SchemeConfig) -> Tuple[str, bool]:
    """A hashable key for a scheme configuration."""
    return (config.scheme.value, config.data_at_client)


class PlanCache:
    """LRU cache of planned workloads.

    Keyed on (dataset fingerprint, ordered workload, scheme): the exact
    inputs that determine a plan list.  Hit/miss counts feed the run-ledger
    (``plan`` events carry the rates).
    """

    def __init__(self, max_entries: int = 64) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: Dict[tuple, List[QueryPlan]] = {}
        self._order: List[tuple] = []
        self.hits = 0
        self.misses = 0

    def _key(
        self, fingerprint: str, queries: Sequence[Query], config: SchemeConfig
    ) -> tuple:
        return (fingerprint, workload_key(queries), scheme_key(config))

    def get(
        self, fingerprint: str, queries: Sequence[Query], config: SchemeConfig
    ) -> Optional[List[QueryPlan]]:
        """The cached plan list, or None (counts a hit/miss either way)."""
        key = self._key(fingerprint, queries, config)
        plans = self._entries.get(key)
        if plans is None:
            self.misses += 1
            return None
        self.hits += 1
        self._order.remove(key)
        self._order.append(key)
        return plans

    def put(
        self,
        fingerprint: str,
        queries: Sequence[Query],
        config: SchemeConfig,
        plans: List[QueryPlan],
    ) -> None:
        """Store a planned workload, evicting the least recently used."""
        key = self._key(fingerprint, queries, config)
        if key not in self._entries:
            self._order.append(key)
        self._entries[key] = plans
        while len(self._order) > self.max_entries:
            evicted = self._order.pop(0)
            del self._entries[evicted]

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when never consulted)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


# ----------------------------------------------------------------------
# Run ledger
# ----------------------------------------------------------------------
class RunLedger:
    """Structured JSON-lines record of a pricing run.

    Every event is one JSON object per line with at least ``event`` (the
    type) and ``t`` (seconds since the ledger was opened).  Event types
    written by the runtime:

    ``plan``
        One workload planned: ``dataset``, ``scheme``, ``n_queries``,
        ``seconds``, ``cache_hit``, ``cache_hits``, ``cache_misses``,
        ``cache_hit_rate``.
    ``price``
        One grid priced: ``engine`` (batched/scalar), ``n_plans``,
        ``n_policies``, ``seconds``.
    ``run``
        One (scheme, policy) cell's totals: ``scheme``, ``bandwidth_mbps``,
        ``distance_m``, ``energy_j`` (per bucket), ``cycles`` (per bucket),
        ``wall_seconds``, ``nic`` (per-state seconds/joules + sleep exits
        from :class:`NICDwell`), ``ops`` (candidates/results/messages).
        On a lossy link (``loss_rate > 0``) additionally ``loss_rate`` and
        ``loss`` (retransmitted frames per direction + backoff dwell from
        :class:`repro.sim.metrics.LossStats`); ideal-channel records keep
        their pre-loss shape exactly.
    ``bench`` / ``speedup`` / ``note``
        Free-form timings written by the CLI and the benches.

    Use as a context manager, or call :meth:`close` explicitly when backed
    by a path.  All records also stay in memory (:attr:`records`) so tests
    and summaries can read them without re-parsing the file.
    """

    def __init__(
        self, path: Optional[str] = None, stream: Optional[IO[str]] = None
    ) -> None:
        self.path = path
        self._stream = stream
        self._owns_stream = False
        if path is not None and stream is None:
            self._stream = open(path, "a", encoding="utf-8")
            self._owns_stream = True
        self._t0 = time.perf_counter()
        self.records: List[dict] = []

    # ------------------------------------------------------------------
    def record(self, event: str, **fields) -> dict:
        """Append one event; returns the record (also kept in memory)."""
        rec = {"event": event, "t": round(time.perf_counter() - self._t0, 6)}
        rec.update(fields)
        self.records.append(rec)
        if self._stream is not None:
            self._stream.write(json.dumps(rec) + "\n")
            self._stream.flush()
        return rec

    @contextmanager
    def timed(self, event: str, **fields):
        """Time a block and record it with its ``seconds``.

        Yields a dict the block may add fields to before the write.
        """
        extra: dict = {}
        start = time.perf_counter()
        try:
            yield extra
        finally:
            fields.update(extra)
            self.record(event, seconds=time.perf_counter() - start, **fields)

    def close(self) -> None:
        """Flush and close the backing stream (if this ledger opened it)."""
        if self._stream is not None and self._owns_stream:
            self._stream.close()
            self._stream = None

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_ledger(path: str) -> List[dict]:
    """Parse a JSON-lines ledger file back into event records."""
    records: List[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
