"""Pipelined (overlapped) execution of a query workload — the paper's
"exploit parallelism between client and server executions" future work.

The paper's measurements are strictly sequential: the client idles (``w4 =
0``) while the server computes and the radio transfers.  But a navigation
session issues *streams* of queries, and nothing stops the client from
working on query ``i+1`` while query ``i`` is in flight.  This module prices
a planned workload under that overlap with a two-resource list schedule:

* **CPU** — executes :class:`ClientComputeStep`\\ s (including protocol
  processing, which genuinely occupies the client CPU);
* **NET** — the radio + server pipeline, executing
  :class:`SendStep`/:class:`ServerComputeStep`/:class:`RecvStep` runs.  The
  paper's single-connection protocol processes one outstanding request at a
  time, so NET is a single serial resource too.

Within one query the steps keep their dependency order; across queries each
resource serves steps in workload order as it becomes free.  The schedule is
the classic greedy two-machine flow-shop order (queries are processed
FIFO, matching an interactive session).

Energy accounting mirrors the sequential pricer: compute and NIC tx/rx
energies are identical (the same work happens); what changes is how the
*time in between* is spent — the CPU blocks less (it is computing the next
query) and the NIC's idle window shrinks to the true outstanding-request
span.  The headline output is therefore a wall-clock (and hence total
cycles) reduction at essentially unchanged energy, quantified by the
pipelining bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.executor import (
    ClientComputeStep,
    Environment,
    Policy,
    QueryPlan,
    RecvStep,
    SendStep,
    ServerComputeStep,
    WaitStep,
    price_plan,
)
from repro.sim.metrics import CycleBreakdown, EnergyBreakdown
from repro.sim.nic import NIC, NICState
from repro.sim.protocol import packetize

__all__ = ["PipelinedResult", "price_pipelined_workload"]


@dataclass(frozen=True)
class PipelinedResult:
    """Outcome of pricing a workload with cross-query overlap."""

    energy: EnergyBreakdown
    cycles: CycleBreakdown
    wall_seconds: float
    #: The same workload priced sequentially (for the speedup headline).
    sequential_wall_seconds: float

    @property
    def speedup(self) -> float:
        """Sequential wall time over pipelined wall time (>= 1 when overlap
        exists, ~1 for communication-free workloads)."""
        return self.sequential_wall_seconds / self.wall_seconds


# Internal task representation: (resource, duration_s, energy_tags)
_CPU = 0
_NET = 1


def _tasks_for_plan(
    plan: QueryPlan, env: Environment, policy: Policy
) -> List[Tuple[int, float, str, float]]:
    """Flatten a plan into ``(resource, seconds, kind, energy_j)`` tasks.

    ``kind`` is one of ``compute|proto|tx|wait|rx`` — used to rebuild the
    energy/cycle buckets after scheduling.  Energy carried here is only the
    *activity* energy (compute events, NIC tx/rx power x time); state-time
    energies (CPU blocked, NIC idle/sleep) are derived from the schedule.
    """
    client = env.client_cpu
    net = policy.network
    nic = NIC(power_table=policy.nic_power, distance_m=net.distance_m)
    tasks: List[Tuple[int, float, str, float]] = []
    for step in plan.steps:
        if isinstance(step, ClientComputeStep):
            tasks.append(
                (_CPU, client.seconds(step.cost.cycles), "compute",
                 step.cost.energy_j)
            )
        elif isinstance(step, SendStep):
            msg = packetize(step.payload.nbytes, net)
            proto = client.protocol(msg)
            tasks.append(
                (_CPU, client.seconds(proto.cycles), "proto", proto.energy_j)
            )
            seconds = msg.wire_bits / net.bandwidth_bps
            e = nic._power_of(NICState.TRANSMIT) * seconds
            tasks.append((_NET, seconds, "tx", e))
        elif isinstance(step, ServerComputeStep):
            seconds = env.server_cpu.seconds(step.cycles)
            tasks.append((_NET, seconds, "wait", 0.0))
        elif isinstance(step, WaitStep):
            tasks.append((_NET, step.seconds, "wait", 0.0))
        elif isinstance(step, RecvStep):
            msg = packetize(step.payload.nbytes, net)
            seconds = msg.wire_bits / net.bandwidth_bps
            e = nic._power_of(NICState.RECEIVE) * seconds
            tasks.append((_NET, seconds, "rx", e))
            proto = client.protocol(msg)
            tasks.append(
                (_CPU, client.seconds(proto.cycles), "proto", proto.energy_j)
            )
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown plan step {step!r}")
    return tasks


def price_pipelined_workload(
    plans: Sequence[QueryPlan],
    env: Environment,
    policy: Policy = Policy(),
) -> PipelinedResult:
    """Price ``plans`` with cross-query overlap (see module docstring)."""
    if not plans:
        raise ValueError("price_pipelined_workload() requires at least one plan")

    # Event-driven non-preemptive list schedule.  Each query is a chain of
    # tasks; a task becomes available when its predecessor in the chain
    # finishes.  When the CPU chooses among available tasks it prefers
    # *protocol* work — issuing the next query's request keeps the radio and
    # the server fed, which is the whole point of pipelining; running a long
    # local refinement first would serialize the stream (the behaviour the
    # paper's sequential w4=0 model exhibits).
    chains = [_tasks_for_plan(p, env, policy) for p in plans]
    ptr = [0] * len(chains)
    avail = [0.0] * len(chains)  # when each chain's next task may start
    resource_free = [0.0, 0.0]  # CPU, NET
    cpu_busy = 0.0
    bucket_seconds = {"tx": 0.0, "wait": 0.0, "rx": 0.0}
    bucket_energy = {"compute": 0.0, "proto": 0.0, "tx": 0.0, "rx": 0.0}
    nic_busy_end = 0.0  # last instant the NIC finished real traffic
    makespan = 0.0

    remaining = sum(len(c) for c in chains)
    while remaining:
        # Candidate = head task of every unfinished chain.
        best_key = None
        best_i = -1
        for i, chain in enumerate(chains):
            if ptr[i] >= len(chain):
                continue
            resource, seconds, kind, energy = chain[ptr[i]]
            start = max(resource_free[resource], avail[i])
            # Earliest start wins; ties prefer protocol work, then FIFO.
            key = (start, 0 if kind == "proto" else 1, i)
            if best_key is None or key < best_key:
                best_key = key
                best_i = i
        i = best_i
        resource, seconds, kind, energy = chains[i][ptr[i]]
        start = max(resource_free[resource], avail[i])
        end = start + seconds
        resource_free[resource] = end
        avail[i] = end
        ptr[i] += 1
        remaining -= 1
        makespan = max(makespan, end)
        if resource == _CPU:
            cpu_busy += seconds
        else:
            bucket_seconds[kind] += seconds
            nic_busy_end = max(nic_busy_end, end)
        if energy:
            bucket_energy[kind] += energy

    # --- Energy ---------------------------------------------------------
    nic_power = policy.nic_power
    # The NIC idles over the whole span in which requests can be in flight
    # (up to its last traffic), minus the time it is actively tx/rx-ing;
    # after the final receive it sleeps out the rest of the makespan.
    active = bucket_seconds["tx"] + bucket_seconds["rx"]
    idle_s = max(0.0, nic_busy_end - active)
    sleep_s = max(0.0, makespan - nic_busy_end)
    blocked_s = max(0.0, makespan - cpu_busy)
    energy = EnergyBreakdown(
        processor=(
            bucket_energy["compute"]
            + bucket_energy["proto"]
            + env.client_cpu.blocked_energy_j(
                blocked_s, busy_wait=policy.cpu_busy_while_blocked
            )
        ),
        nic_tx=bucket_energy["tx"],
        nic_rx=bucket_energy["rx"],
        nic_idle=idle_s * nic_power.idle_w,
        nic_sleep=sleep_s * nic_power.sleep_w,
    )

    # --- Cycles (denominated in the client clock over the makespan) -----
    clock = env.client_cpu.clock_hz
    cycles = CycleBreakdown(
        processor=cpu_busy * clock,
        nic_tx=bucket_seconds["tx"] * clock,
        nic_rx=bucket_seconds["rx"] * clock,
        # Under overlap the residual is genuine idle waiting.
        wait=max(0.0, makespan - cpu_busy - bucket_seconds["tx"]
                 - bucket_seconds["rx"]) * clock,
    )

    sequential_wall = sum(
        price_plan(p, env, policy).wall_seconds for p in plans
    )
    return PipelinedResult(
        energy=energy,
        cycles=cycles,
        wall_seconds=makespan,
        sequential_wall_seconds=sequential_wall,
    )

