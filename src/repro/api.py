"""The front door: one :class:`Session` per dataset, and its run tables.

The seed grew four scattered entry points in ``repro.core.experiment``
(``plan_workload``, ``price_workload``, ``bandwidth_sweep``,
``plan_cached_workload``); every figure, example and CLI command stitched
them together by hand.  Those shims have been removed after their
deprecation cycle; this module is the one facade::

    from repro.api import Session
    from repro.core.executor import Policy

    table = Session(dataset).run(
        queries,
        schemes=ADEQUATE_MEMORY_CONFIGS,
        policies=Policy.sweep(),        # the paper's bandwidth grid
    )
    for row in table:
        print(row.scheme, row.bandwidth_mbps, row.energy_j)

A :class:`Session` owns one environment and an optional
:class:`~repro.core.gridrun.RunLedger` that every phase reports into.
Nothing is cached between calls: every call computes its plans, through
the batched planner and grid pricer by default (each distinct query of a
call is traversed once, whatever schemes share it), or through the scalar
oracle (``planner="scalar"``, ``engine="scalar"``).  Hand a session to
:class:`repro.serve.QueryService` when single-user runs and multi-tenant
serving should share the environment and ledger::

    session = Session(dataset)
    service = QueryService(session, max_queue=256)
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.constants import MBPS
from repro.core.batchplan import plan_workload_batched
from repro.core.clientcache import ClientCacheSession
from repro.core.executor import (
    Environment,
    Policy,
    QueryPlan,
    RunResult,
    plan_query,
    price_plan,
)
from repro.core.gridrun import GridResult, RunLedger, price_grid
from repro.core.queries import Query
from repro.core.schemes import SchemeConfig
from repro.data.model import SegmentDataset
from repro.sim.metrics import NICDwell

__all__ = [
    "Session",
    "RunTable",
    "RunRow",
    "ENGINES",
    "PLANNERS",
]

#: Pricing engines a session can run: ``"batched"`` is the vectorized
#: grid pricer (the default), ``"scalar"`` the per-step oracle walk.
ENGINES = ("batched", "scalar")

#: Planners a session can use: ``"batched"`` traverses and refines the whole
#: workload at once (:mod:`repro.core.batchplan`, the default), ``"scalar"``
#: walks one query at a time through ``plan_query``.  Both produce
#: bit-identical plans; the differential suite holds them to that.
PLANNERS = ("batched", "scalar")


@dataclass(frozen=True)
class RunRow:
    """One (scheme, policy) cell of a :class:`RunTable`."""

    scheme: str
    policy: Policy
    result: RunResult
    #: Per-NIC-state dwell seconds/joules (batched engine only).
    dwell: Optional[NICDwell] = None

    @property
    def bandwidth_mbps(self) -> float:
        """The policy's bandwidth in Mbps."""
        return self.policy.network.bandwidth_bps / MBPS

    @property
    def distance_m(self) -> float:
        """The policy's transmit distance in meters."""
        return self.policy.network.distance_m

    @property
    def energy_j(self) -> float:
        """Total client energy over the workload."""
        return self.result.energy.total()

    @property
    def cycles(self) -> float:
        """Total end-to-end client cycles over the workload."""
        return self.result.cycles.total()

    @property
    def wall_seconds(self) -> float:
        """Wall-clock seconds over the workload."""
        return self.result.wall_seconds

    @property
    def loss_rate(self) -> float:
        """The policy's frame-loss rate (0 = the paper's ideal channel)."""
        return self.policy.network.loss_rate

    def to_record(self) -> dict:
        """This row as a flat dict (ledger ``run`` events use the same)."""
        rec = {
            "scheme": self.scheme,
            "bandwidth_mbps": self.bandwidth_mbps,
            "distance_m": self.distance_m,
            "energy_j": self.result.energy.as_dict(),
            "cycles": self.result.cycles.as_dict(),
            "wall_seconds": self.result.wall_seconds,
            "ops": {
                "candidates": self.result.n_candidates,
                "results": self.result.n_results,
                "messages": len(self.result.messages),
            },
        }
        if self.loss_rate > 0.0:
            rec["loss_rate"] = self.loss_rate
            rec["loss"] = self.result.loss.as_dict()
        if self.dwell is not None:
            rec["nic"] = self.dwell.as_dict()
        return rec


@dataclass(frozen=True)
class RunTable:
    """The grid a :meth:`Session.run` call priced, one row per cell.

    Rows are ordered scheme-major, policy-minor — the scheme order given to
    ``run()`` then the policy order within it.
    """

    rows: Tuple[RunRow, ...]

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> RunRow:
        return self.rows[i]

    @property
    def schemes(self) -> List[str]:
        """Scheme labels in first-appearance order."""
        seen: List[str] = []
        for row in self.rows:
            if row.scheme not in seen:
                seen.append(row.scheme)
        return seen

    def by_scheme(self) -> Dict[str, List[RunRow]]:
        """Rows grouped by scheme label, preserving order."""
        out: Dict[str, List[RunRow]] = {}
        for row in self.rows:
            out.setdefault(row.scheme, []).append(row)
        return out

    def to_records(self) -> List[dict]:
        """Every row as a flat dict (for ledgers and ad-hoc analysis)."""
        return [r.to_record() for r in self.rows]

    def best(self, metric: str = "energy_j") -> RunRow:
        """The row minimizing ``metric`` (any numeric RunRow property)."""
        if not self.rows:
            raise ValueError("empty RunTable has no best row")
        return min(self.rows, key=lambda r: getattr(r, metric))


def _as_queries(workload) -> List[Query]:
    if isinstance(workload, Query):
        return [workload]
    return list(workload)


def _as_policies(policies) -> List[Policy]:
    if policies is None:
        return Policy.sweep()
    if isinstance(policies, Policy):
        return [policies]
    return list(policies)


def _as_schemes(schemes) -> List[SchemeConfig]:
    if isinstance(schemes, SchemeConfig):
        return [schemes]
    out = list(schemes)
    if not out:
        raise ValueError("run() requires at least one scheme")
    return out


def _check_choice(kind: str, value: str, choices: Tuple[str, ...]) -> None:
    if value not in choices:
        raise ValueError(f"unknown {kind} {value!r}; choose from {choices}")


class Session:
    """Plan, price and record experiment grids over one dataset.

    ``source`` is a :class:`~repro.data.model.SegmentDataset` (an
    environment is created for it) or a ready
    :class:`~repro.core.executor.Environment` (for custom CPU models, as in
    the Figure 8 clock-ratio experiment).

    The session optionally carries a
    :class:`~repro.core.gridrun.RunLedger` every phase reports into.
    :class:`repro.serve.QueryService` takes a session to share its
    environment and ledger.
    """

    def __init__(
        self,
        source: Union[SegmentDataset, Environment],
        *,
        ledger: Optional[RunLedger] = None,
    ) -> None:
        if isinstance(source, Environment):
            self.env = source
        elif isinstance(source, SegmentDataset):
            self.env = Environment.create(source)
        else:
            raise TypeError(
                "expected a SegmentDataset or an Environment, got "
                f"{type(source).__name__}"
            )
        if ledger is not None and not isinstance(ledger, RunLedger):
            raise TypeError(
                f"ledger must be a RunLedger, got {type(ledger).__name__}"
            )
        self.dataset = self.env.dataset
        self.ledger = ledger

    # ------------------------------------------------------------------
    def record(self, event: str, **fields) -> None:
        """Record a ledger event, if this session has a ledger."""
        if self.ledger is not None:
            self.ledger.record(event, **fields)

    # ------------------------------------------------------------------
    def plan(
        self,
        workload: Union[Query, Sequence[Query]],
        scheme: SchemeConfig,
        *,
        planner: str = "batched",
    ) -> List[QueryPlan]:
        """Plan a workload under one scheme.

        The device caches start cold at the workload boundary.  ``planner``
        selects the batched or scalar implementation (:data:`PLANNERS`);
        both produce bit-identical plans and leave the same cache state.
        """
        return self.plan_grid(workload, scheme, planner=planner)[0]

    def plan_grid(
        self,
        workload: Union[Query, Sequence[Query]],
        schemes: Union[SchemeConfig, Sequence[SchemeConfig]],
        *,
        planner: str = "batched",
    ) -> List[List[QueryPlan]]:
        """Plan a workload under several schemes, sharing per-query work.

        The batched planner computes each distinct query's filter/refine
        phases once and assembles every scheme's plans from them.  Returns
        one plan list per scheme, in scheme order, and records one ledger
        ``plan`` event per scheme.
        """
        planned = self._plan_grid(
            _as_queries(workload), _as_schemes(schemes), planner
        )
        return [list(plans) for plans in planned]

    def _plan_grid(self, queries: List[Query], configs: List[SchemeConfig],
                   planner: str) -> List[Sequence[QueryPlan]]:
        """:meth:`plan_grid`, with batched plans left as columns."""
        _check_choice("planner", planner, PLANNERS)
        start = time.perf_counter()
        if planner == "batched":
            planned = plan_workload_batched(self.env, queries, configs)
        else:
            planned = []
            for config in configs:
                self.env.reset_caches()
                planned.append([plan_query(q, config, self.env) for q in queries])
        if self.ledger is not None:
            seconds = (time.perf_counter() - start) / len(configs)
            for config in configs:
                self.ledger.record(
                    "plan",
                    dataset=self.dataset.name,
                    scheme=config.label,
                    planner=planner,
                    n_queries=len(queries),
                    seconds=seconds,
                )
        return planned

    def price_grid(
        self,
        plans: Sequence[QueryPlan],
        policies: Union[Policy, Sequence[Policy], None] = None,
    ) -> GridResult:
        """The full plans x policies grid through the vectorized pricer.

        Unlike :meth:`price` this returns the raw
        :class:`~repro.core.gridrun.GridResult`, whose per-cell
        ``result(i, j)`` the service's per-query outcomes are built from.
        """
        return price_grid(plans, _as_policies(policies), self.env)

    def price(
        self,
        plans: Sequence[QueryPlan],
        policies: Union[Policy, Sequence[Policy], None] = None,
        *,
        engine: str = "batched",
    ) -> List[RunResult]:
        """Workload-summed results for each policy, in policy order.

        ``engine="batched"`` routes through the vectorized grid pricer;
        ``"scalar"`` walks every (plan, policy) pair through the oracle
        (bit-identical to the seed's ``price_workload``).
        """
        return [
            result
            for result, _ in self._price(list(plans), _as_policies(policies), engine)
        ]

    def _price(
        self,
        plans: List[QueryPlan],
        policies: List[Policy],
        engine: str,
        **fields,
    ) -> List[Tuple[RunResult, Optional[NICDwell]]]:
        """Each policy's workload-summed result and NIC dwell (batched
        engine only), recorded as one ledger ``price`` event carrying
        ``fields``."""
        _check_choice("engine", engine, ENGINES)
        start = time.perf_counter()
        if engine == "batched":
            grid = self.price_grid(plans, policies)
            priced = [
                (grid.combine_policy(j), grid.dwell(j))
                for j in range(len(policies))
            ]
        else:
            priced = [
                (RunResult.combine([price_plan(p, self.env, pol) for p in plans]), None)
                for pol in policies
            ]
        self.record(
            "price",
            engine=engine,
            **fields,
            n_plans=len(plans),
            n_policies=len(policies),
            seconds=time.perf_counter() - start,
        )
        return priced

    def run(
        self,
        workload: Union[Query, Sequence[Query]],
        *,
        schemes: Union[SchemeConfig, Sequence[SchemeConfig]],
        policies: Union[Policy, Sequence[Policy], None] = None,
        engine: str = "batched",
        planner: str = "batched",
    ) -> RunTable:
        """Plan and price the full schemes x policies grid.

        ``policies=None`` prices the paper's standard bandwidth sweep
        (:meth:`Policy.sweep`).  Planning goes through :meth:`plan_grid`,
        so the whole scheme grid shares one batched traversal of the
        workload.  Returns a :class:`RunTable`, scheme-major.
        """
        queries = _as_queries(workload)
        configs = _as_schemes(schemes)
        pols = _as_policies(policies)
        if not queries:
            raise ValueError("run() requires at least one query")
        if not pols:
            raise ValueError("run() requires at least one policy")
        _check_choice("engine", engine, ENGINES)
        grid_plans = self._plan_grid(queries, configs, planner)
        rows: List[RunRow] = []
        for config, plans in zip(configs, grid_plans):
            priced = self._price(plans, pols, engine, scheme=config.label)
            scheme_rows = [
                RunRow(scheme=config.label, policy=pol, result=result, dwell=dwell)
                for pol, (result, dwell) in zip(pols, priced)
            ]
            if self.ledger is not None:
                for row in scheme_rows:
                    self.record("run", **row.to_record())
            rows.extend(scheme_rows)
        return RunTable(rows=tuple(rows))

    def plan_cached(
        self,
        workload: Sequence[Query],
        budget_bytes: int,
    ) -> Tuple[List[QueryPlan], ClientCacheSession]:
        """Plan under the insufficient-memory cached-client scheme.

        Returns the plans plus the stateful
        :class:`~repro.core.clientcache.ClientCacheSession` (whose hit/miss
        statistics the Figure 10 bench reports).
        """
        queries = _as_queries(workload)
        start = time.perf_counter()
        self.env.reset_caches()
        cache_session = ClientCacheSession(self.env, budget_bytes)
        plans = cache_session.plan_sequence(list(queries))
        self.record(
            "plan",
            dataset=self.dataset.name,
            scheme=f"cached-client:{budget_bytes}B",
            planner="scalar",
            n_queries=len(queries),
            seconds=time.perf_counter() - start,
            local_hits=cache_session.local_hits,
            misses=cache_session.misses,
        )
        return plans, cache_session
