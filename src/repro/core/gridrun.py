"""Workload-scale batched pricing runtime.

The evaluation is a grid — schemes x queries x bandwidths x distances x
wait policies — but :func:`repro.core.executor.price_plan` walks one
(plan, policy) pair at a time through a per-step Python loop, so a figure
bench re-walks thousands of tiny plans serially.  This module prices the
whole grid at once:

1. :func:`_compile_for` reduces plans to policy-independent aggregate
   columns (:class:`PlanAggregates`: compute cycles/joules, wire bits and
   frames per direction, NIC-quiet and wait dwell seconds, sleep-exit
   counts under both NIC disciplines).  Plans are grouped by step template
   — the Table 1 schemes produce a handful of fixed step sequences — and
   each template is walked symbolically once; the numbers at each step
   position are priced as arrays through the scalar walk's own formulas
   (``packetize``, ``ClientCPU.protocol``/``seconds``,
   ``ServerCPU.seconds``), in its step order, so the aggregates are
   bit-identical to what a per-plan walk would sum.
2. :func:`price_grid` broadcasts those aggregates against per-policy
   scalars (bandwidth, transmit power, blocked-CPU power, NIC state powers)
   as NumPy arrays, producing every (plan, policy) cell in one shot;
   :meth:`GridResult.combine_policy` sums one policy's column over the
   workload.
3. :class:`RunLedger` records what happened — per-phase op counts, per-NIC-
   state joules/seconds (:class:`repro.sim.metrics.NICDwell`), wall-clock
   timings — as JSON-lines for ``repro bench --ledger`` and
   :func:`repro.bench.report.summarize_ledger`.

The scalar ``price_plan`` remains the oracle; everything here is an exact
algebraic regrouping of its arithmetic.  The aggregates work because the
step walk's policy dependence is affine: transfer time is ``wire_bits / B``,
NIC energy is ``power x dwell``, blocked-CPU energy is ``power x blocked
seconds``, and the only nonlinearity — the NIC sleep/idle state machine —
depends on the step template and a single boolean (``Policy.nic_sleep``),
so both variants are counted up front.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
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
from repro.sim.lossy import expected_retx
from repro.sim.metrics import CycleBreakdown, EnergyBreakdown, LossStats, NICDwell
from repro.sim.protocol import packetize
from repro.sim.radio import RadioModel

__all__ = [
    "PlanAggregates",
    "framing_key",
    "GridResult",
    "price_grid",
    "RunLedger",
    "read_ledger",
]


# ----------------------------------------------------------------------
# Plan compilation
# ----------------------------------------------------------------------
def framing_key(net: NetworkConfig) -> Tuple[int, int, int, int]:
    """The part of a network config that changes a plan's wire footprint.

    :func:`repro.sim.protocol.packetize` only reads the MTU and the three
    header sizes; policies sharing these four values share compiled
    aggregates even when they differ in bandwidth, distance or discipline
    flags.
    """
    return (
        net.mtu_bytes,
        net.tcp_header_bytes,
        net.ip_header_bytes,
        net.link_header_bytes,
    )


@dataclass(frozen=True)
class PlanAggregates:
    """N plans' policy-independent aggregates as (N,) columns, one framing.

    :func:`_compile_for` builds them; :func:`_price_framing_into` prices
    them.  The two ``(N, 2)`` SLEEP-exit columns capture the only policy
    nonlinearity: how often the NIC crosses out of SLEEP (each crossing
    costs the exit latency at idle power) under the two ``Policy.nic_sleep``
    disciplines.
    """

    #: Client compute + protocol cycles (the figures' Processor cycles).
    proc_cycles: np.ndarray
    #: Client compute + protocol energy, excluding blocked-CPU energy.
    proc_energy_j: np.ndarray
    #: Seconds the NIC is quiet (client computing / protocol processing);
    #: spent in SLEEP or IDLE depending on ``Policy.nic_sleep``.
    quiet_s: np.ndarray
    #: Seconds waiting with the radio listening (server compute, indexed
    #: broadcast waits with no timing knowledge).
    idle_wait_s: np.ndarray
    #: Seconds waiting with the radio off (index-directed broadcast waits).
    sleep_wait_s: np.ndarray
    #: Total bits on the wire, client -> server.
    tx_bits: np.ndarray
    #: Total bits on the wire, server -> client.
    rx_bits: np.ndarray
    #: Total MTU frames on the wire, client -> server (lossy-link pricing
    #: scales retransmissions and backoff by frame counts).
    tx_frames: np.ndarray
    #: Total MTU frames on the wire, server -> client.
    rx_frames: np.ndarray
    #: (N, 2) SLEEP-exit counts, column 0 = nic_sleep, column 1 = no-sleep.
    exits2: np.ndarray
    #: (N, 2) exits charged inside ``transmit()``, same column layout.
    txwake2: np.ndarray


#: Rows of a compiled block: the nine summed (N,) columns of
#: :class:`PlanAggregates` in field order, then the SLEEP exits and the
#: in-transmit wakes, each under (nic_sleep, no-sleep).
_SUMS = 9
_ROWS = _SUMS + 4

# NIC states for the symbolic walk (private mirror of sim.nic.NICState —
# only SLEEP matters for exit counting, but keeping all four makes the walk
# read like the executor's).
_SLEEP, _IDLE, _TRANSMIT, _RECEIVE = range(4)


def _template(steps: Sequence[object]) -> tuple:
    """A plan's step template: its step types in order, plus the
    ``radio_listening`` flag of each :class:`WaitStep` (the only step field
    that changes the NIC state sequence)."""
    kinds = tuple(map(type, steps))
    if WaitStep in kinds:
        kinds += tuple(s.radio_listening for s in steps if type(s) is WaitStep)
    return kinds


def _compile_template(
    plans: Sequence[QueryPlan], env: Environment, network: NetworkConfig
) -> np.ndarray:
    """Aggregate plans that share one step template.

    The NIC state machine depends only on the template, so one symbolic
    walk counts its SLEEP exits under both disciplines.  The numbers each
    step position carries are gathered into arrays and priced through the
    formulas ``price_plan`` calls (``packetize``, ``ClientCPU.protocol`` /
    ``seconds``, ``ServerCPU.seconds``), accumulating in its step order, so
    every aggregate is bit-identical to the scalar walk's.  Returns the
    ``(_ROWS, k)`` block.
    """
    client = env.client_cpu
    block = np.zeros((_ROWS, len(plans)))
    (proc_cycles, proc_energy, quiet_s, idle_wait_s, sleep_wait_s,
     tx_bits, rx_bits, tx_frames, rx_frames) = block[:_SUMS]
    # One symbolic NIC state machine per nic_sleep discipline; index 0 is
    # nic_sleep=True, index 1 is nic_sleep=False.
    state = [_SLEEP, _SLEEP]
    exits = [0, 0]
    tx_wakes = [0, 0]

    def nic_quiet() -> None:
        """``nic_quiet``: SLEEP under discipline 0, IDLE under 1."""
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

    def payloads(column: list):
        return packetize(
            np.array([s.payload.nbytes for s in column], dtype=np.int64), network
        )

    for pos in range(len(plans[0].steps)):
        column = [p.steps[pos] for p in plans]
        kind = type(column[0])
        if kind is ClientComputeStep:
            cycles = np.array([s.cost.cycles for s in column], dtype=np.float64)
            proc_cycles += cycles
            proc_energy += np.array([s.cost.energy_j for s in column], dtype=np.float64)
            quiet_s += client.seconds(cycles)
            nic_quiet()
        elif kind is SendStep:
            msg = payloads(column)
            proto = client.protocol(msg)
            proc_cycles += proto.cycles
            proc_energy += proto.energy_j
            quiet_s += client.seconds(proto.cycles)
            nic_quiet()
            wake_to(_TRANSMIT, in_transmit=True)
            tx_bits += msg.wire_bits
            tx_frames += msg.n_frames
        elif kind is ServerComputeStep:
            cycles = np.array([s.cycles for s in column], dtype=np.float64)
            idle_wait_s += env.server_cpu.seconds(cycles)
            wake_to(_IDLE)
        elif kind is WaitStep:
            seconds = np.array([s.seconds for s in column], dtype=np.float64)
            if column[0].radio_listening:
                idle_wait_s += seconds
                wake_to(_IDLE)
            else:
                sleep_wait_s += seconds
                state[0] = state[1] = _SLEEP
        elif kind is RecvStep:
            msg = payloads(column)
            # A receive out of SLEEP wakes via idle(0.0) in the scalar walk.
            wake_to(_RECEIVE)
            rx_bits += msg.wire_bits
            rx_frames += msg.n_frames
            proto = client.protocol(msg)
            proc_cycles += proto.cycles
            proc_energy += proto.energy_j
            quiet_s += client.seconds(proto.cycles)
            nic_quiet()
        else:
            raise TypeError(f"unknown plan step {column[0]!r}")
    block[_SUMS:] = np.array(exits + tx_wakes)[:, None]
    return block


def _compile_for(
    plans: Sequence[QueryPlan], env: Environment, network: NetworkConfig
) -> PlanAggregates:
    """Compile ``plans`` under one wire framing into aggregate columns.

    Plans are grouped by step template (:func:`_template`); each group is
    compiled once by :func:`_compile_template` and scattered back into
    plan order.  ``network`` supplies the wire framing (MTU + headers) —
    normally the policy's network; protocol *instruction* rates come from
    the client CPU model's own network config, exactly as in the scalar
    walk.
    """
    groups: Dict[tuple, List[int]] = {}
    for i, plan in enumerate(plans):
        groups.setdefault(_template(plan.steps), []).append(i)
    block = np.empty((_ROWS, len(plans)))
    for rows in groups.values():
        block[:, rows] = _compile_template([plans[i] for i in rows], env, network)
    return PlanAggregates(
        *block[:_SUMS],
        exits2=block[_SUMS:_SUMS + 2].T,
        txwake2=block[_SUMS + 2:].T,
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


#: Message direction of each step type that carries a payload.
_DIRECTION = {SendStep: "tx", RecvStep: "rx"}


@dataclass
class GridResult:
    """Every bucket of an N-plans x M-policies pricing grid, as arrays.

    ``energy_*`` map onto :class:`EnergyBreakdown` buckets, ``cycles_*``
    onto :class:`CycleBreakdown`; ``dwell_*`` are the per-NIC-state seconds
    the ledger reports.  :meth:`result` materializes any single cell as the
    scalar executor's :class:`RunResult`; :meth:`combine_policy` sums a
    policy's column over the workload.  Answer ids, tallies and message
    logs come from :attr:`plans`, derived once per grid.
    """

    plans: List[QueryPlan]
    policies: List[Policy]
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

    @cached_property
    def messages(self) -> List[tuple]:
        """Each plan's ``(direction, payload_bytes)`` message log, in step
        order (the scalar walk's ``RunResult.messages``)."""
        return [
            tuple(
                (d, s.payload.nbytes)
                for s in plan.steps
                if (d := _DIRECTION.get(type(s))) is not None
            )
            for plan in self.plans
        ]

    @cached_property
    def _workload(self) -> Tuple[np.ndarray, int, int, tuple]:
        """The workload's answer ids, candidate and result tallies and
        message log, in plan order — the same for every policy."""
        plans = self.plans
        return (
            np.concatenate([p.answer_ids for p in plans]),
            sum(p.n_candidates for p in plans),
            sum(p.n_results for p in plans),
            tuple(chain.from_iterable(self.messages)),
        )

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
        plan = self.plans[i]
        return RunResult(
            energy=self._energy(i, j),
            cycles=self._cycles(i, j),
            wall_seconds=float(self.wall_s[i, j]),
            answer_ids=plan.answer_ids,
            n_candidates=plan.n_candidates,
            n_results=plan.n_results,
            messages=self.messages[i],
            loss=self.loss(i, j),
        )

    def combine_policy(self, j: int) -> RunResult:
        """Policy ``j``'s column summed over the workload (plan order)."""
        answer_ids, n_candidates, n_results, messages = self._workload
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
            answer_ids=answer_ids,
            n_candidates=n_candidates,
            n_results=n_results,
            messages=messages,
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


def _empty_grid(plans, policies, n: int, m: int) -> GridResult:
    """A zero-filled GridResult to be populated per framing group."""
    shape = (n, m)
    z = lambda: np.zeros(shape, dtype=np.float64)  # noqa: E731
    return GridResult(
        plans=plans,
        policies=policies,
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


def price_grid(
    plans: Sequence[QueryPlan],
    policies: Sequence[Policy],
    env: Environment,
) -> GridResult:
    """Price the full plans x policies grid in one vectorized pass.

    Matches :func:`repro.core.executor.price_plan` cell-for-cell to float
    tolerance (property-tested).  Policies may mix bandwidths, distances,
    power tables, framings and discipline flags freely; plans are compiled
    once per distinct wire framing.  Each cell depends only on its plan and
    its policy, never on the rest of the grid.
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

    grid = _empty_grid(plans, policies, n, m)

    # Per-frame retransmission protocol unit cost (cycles/joules for one
    # reprocessed frame); linear in the frame count, like the scalar walk's
    # ``client.retx_protocol(extra_frames)``.
    retx_unit = env.client_cpu.retx_protocol(1.0)

    for cols_j in by_framing.values():
        agg = _compile_for(plans, env, policies[cols_j[0]].network)
        _price_framing_into(grid, agg, cols, cols_j, clock, retx_unit)

    return grid


# ----------------------------------------------------------------------
# Run ledger
# ----------------------------------------------------------------------
class RunLedger:
    """Structured JSON-lines record of a pricing run.

    Every event is one JSON object per line with at least ``event`` (the
    type) and ``t`` (seconds since the ledger was opened).  Event types
    written by the runtime:

    ``plan``
        One workload planned: ``dataset``, ``scheme``, ``planner``,
        ``n_queries``, ``seconds``.
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
