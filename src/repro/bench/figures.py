"""Generators that regenerate each figure of the paper's evaluation.

Every function runs the corresponding experiment — the same workloads, the
same schemes, the same parameter grid as the paper — and returns the sweep
structure (:meth:`repro.api.RunTable.by_scheme`, ``{scheme label:
[RunRow, ...]}``, or figure-specific rows)
that :mod:`repro.bench.report` renders as the paper-shaped table.

All sweeps route through :class:`repro.api.Session` and its batched grid
pricer: each workload x scheme is planned once and every bandwidth is
priced in one vectorized pass.  Pass a ``session`` to share the phase cache
and a run-ledger across figures; passing a bare environment still works and
creates a throwaway session.

The benchmark files under ``benchmarks/`` call these with full-scale
datasets and record wall-clock via pytest-benchmark; EXPERIMENTS.md captures
the printed output against the paper's reported values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Union

from repro.api import RunRow, Session
from repro.constants import BANDWIDTHS_MBPS, DEFAULT_CLIENT, MBPS, MHZ
from repro.core.executor import Environment, Policy
from repro.core.schemes import ADEQUATE_MEMORY_CONFIGS, Scheme, SchemeConfig
from repro.data.model import SegmentDataset
from repro.data.workloads import (
    DEFAULT_RUNS,
    nn_queries,
    point_queries,
    proximity_sequence,
    range_queries,
)
from repro.sim.cpu import ClientCPU

__all__ = [
    "POINT_NN_CONFIGS",
    "NN_CONFIGS",
    "fig4_point_queries",
    "fig5_range_queries",
    "fig6_nn_queries",
    "fig8_client_speed",
    "fig9_distance",
    "fig10_insufficient_memory",
    "fig_loss_sweep",
    "Fig10Row",
    "LOSS_RATES",
]

#: Configurations shown for point queries in Figure 4: the paper omits the
#: data-present variants because point-query selectivity is so small that
#: they are indistinguishable (section 6.1.1).
POINT_NN_CONFIGS: tuple = (
    SchemeConfig(Scheme.FULLY_CLIENT),
    SchemeConfig(Scheme.FULLY_SERVER, data_at_client=False),
    SchemeConfig(Scheme.FILTER_CLIENT_REFINE_SERVER, data_at_client=False),
    SchemeConfig(Scheme.FILTER_SERVER_REFINE_CLIENT, data_at_client=True),
)

#: Configurations for NN/k-NN queries (Figure 6): best-first search has no
#: filter/refine split, so only fully-at-client and fully-at-server (data
#: at the client) apply.
NN_CONFIGS: tuple = (
    SchemeConfig(Scheme.FULLY_CLIENT),
    SchemeConfig(Scheme.FULLY_SERVER, data_at_client=True),
)


def _session(source: Union[Environment, Session]) -> Session:
    """Figures accept a Session (shared caches/ledger) or a bare env."""
    return source if isinstance(source, Session) else Session(source)


def _sweep(
    session: Session,
    queries,
    configs: Sequence[SchemeConfig],
    base_policy: Policy,
    bandwidths_mbps: Sequence[float] = BANDWIDTHS_MBPS,
) -> Dict[str, List[RunRow]]:
    """The evaluation section's standard grid, via the batched engine."""
    policies = [base_policy.with_bandwidth(bw * MBPS) for bw in bandwidths_mbps]
    return session.run(queries, schemes=configs, policies=policies).by_scheme()


def fig4_point_queries(
    env: Union[Environment, Session],
    n_runs: int = DEFAULT_RUNS,
    base_policy: Policy = Policy(),
) -> Dict[str, List[RunRow]]:
    """Figure 4: point queries, PA, schemes x bandwidths at C/S=1/8, 1 km."""
    session = _session(env)
    qs = point_queries(session.dataset, n_runs)
    return _sweep(session, qs, POINT_NN_CONFIGS, base_policy)


def fig5_range_queries(
    env: Union[Environment, Session],
    n_runs: int = DEFAULT_RUNS,
    base_policy: Policy = Policy(),
) -> Dict[str, List[RunRow]]:
    """Figure 5 (PA) / Figure 7 (NYC): range queries, all six Table 1
    configurations x bandwidths."""
    session = _session(env)
    qs = range_queries(session.dataset, n_runs)
    return _sweep(session, qs, ADEQUATE_MEMORY_CONFIGS, base_policy)


def fig6_nn_queries(
    env: Union[Environment, Session],
    n_runs: int = DEFAULT_RUNS,
    base_policy: Policy = Policy(),
) -> Dict[str, List[RunRow]]:
    """Figure 6: NN queries — only the two 'fully at' schemes apply."""
    session = _session(env)
    qs = nn_queries(session.dataset, n_runs)
    return _sweep(session, qs, NN_CONFIGS, base_policy)


def fig8_client_speed(
    dataset: SegmentDataset,
    n_runs: int = DEFAULT_RUNS,
    clock_ratio: float = 0.5,
    base_policy: Policy = Policy(),
) -> Dict[str, List[RunRow]]:
    """Figure 8: the Figure 5 experiment with MhzC = clock_ratio * MhzS."""
    server_mhz = 1000.0
    client = ClientCPU(
        config=DEFAULT_CLIENT.with_clock(server_mhz * clock_ratio * MHZ)
    )
    env = Environment.create(dataset, client_cpu=client)
    session = Session(env)
    qs = range_queries(dataset, n_runs)
    return _sweep(session, qs, ADEQUATE_MEMORY_CONFIGS, base_policy)


def fig9_distance(
    env: Union[Environment, Session],
    n_runs: int = DEFAULT_RUNS,
    distance_m: float = 100.0,
) -> Dict[str, List[RunRow]]:
    """Figure 9: the Figure 5 energy experiment at 100 m transmit range."""
    return fig5_range_queries(
        env, n_runs, base_policy=Policy().with_distance(distance_m)
    )


#: Default frame-loss grid for the lossy-channel companion sweep: ideal
#: channel first (so the sweep embeds its own Figure 5 baseline), then
#: loss rates spanning a clean office link to a badly faded edge of range.
LOSS_RATES: tuple = (0.0, 0.01, 0.02, 0.05, 0.1)


def fig_loss_sweep(
    env: Union[Environment, Session],
    n_runs: int = DEFAULT_RUNS,
    loss_rates: Sequence[float] = LOSS_RATES,
    bandwidth_mbps: float = 2.0,
    burst_frames: Union[float, None] = None,
    base_policy: Policy = Policy(),
) -> Dict[str, List[RunRow]]:
    """Loss-sweep companion to Figure 5: range queries, fixed bandwidth,
    frame-loss rate on the x-axis.

    The paper's scheme rankings assume an ideal channel; this sweep shows
    how they shift as the link degrades — retransmissions tax the schemes
    that move the most bytes, so the data-shipping variants fall off first.
    The default 2 Mbps operating point is the paper's low-bandwidth regime,
    where the rankings are closest and loss flips them soonest.
    ``burst_frames`` switches the channel from i.i.d. Bernoulli losses to
    Gilbert-Elliott bursts of that mean length.
    """
    session = _session(env)
    qs = range_queries(session.dataset, n_runs)
    policies = [
        base_policy.with_bandwidth(bandwidth_mbps * MBPS).with_loss(
            rate, burst_frames=burst_frames
        )
        for rate in loss_rates
    ]
    return session.run(qs, schemes=ADEQUATE_MEMORY_CONFIGS, policies=policies).by_scheme()


@dataclass(frozen=True)
class Fig10Row:
    """One spatial-proximity point of the Figure 10 curves."""

    buffer_bytes: int
    y: int
    client_energy_j: float
    client_cycles: float
    server_energy_j: float
    server_cycles: float
    local_hits: int
    misses: int


def fig10_insufficient_memory(
    env: Union[Environment, Session],
    buffers: Sequence[int] = (1 << 20, 2 << 20),
    proximities: Sequence[int] = (0, 20, 40, 60, 80, 100, 120, 140, 160, 180, 200),
    bandwidth_mbps: float = 11.0,
    seed: int = 23,
) -> List[Fig10Row]:
    """Figure 10: cached-client vs fully-at-server over proximity sweeps.

    The paper does not state the bandwidth for this experiment; we use
    11 Mbps, at which the measured energy crossovers land nearest the
    published ones (EXPERIMENTS.md discusses the sensitivity).
    """
    session = _session(env)
    policy = Policy().with_bandwidth(bandwidth_mbps * MBPS)
    server_cfg = SchemeConfig(Scheme.FULLY_SERVER, data_at_client=False)
    # The fully-at-server baseline does not depend on the client buffer:
    # plan and price it once per proximity, cold, like every plan call.
    sequences = {}
    for y in proximities:
        qs = proximity_sequence(session.dataset, y=y, n_groups=1, seed=seed)
        server = session.price(session.plan(qs, server_cfg), policy)[0]
        sequences[y] = (qs, server)
    rows: List[Fig10Row] = []
    for budget in buffers:
        for y in proximities:
            qs, server = sequences[y]
            plans, cache_session = session.plan_cached(qs, budget)
            client = session.price(plans, policy)[0]
            rows.append(
                Fig10Row(
                    buffer_bytes=budget,
                    y=y,
                    client_energy_j=client.energy.total(),
                    client_cycles=client.cycles.total(),
                    server_energy_j=server.energy.total(),
                    server_cycles=server.cycles.total(),
                    local_hits=cache_session.local_hits,
                    misses=cache_session.misses,
                )
            )
    return rows
