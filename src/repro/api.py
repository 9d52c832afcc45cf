"""The front door: ``Engine`` cores, ``Session`` facades, run tables.

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

Since the service arc, the machinery behind the facade lives in
:class:`Engine`: one environment plus everything the batched runtime needs
between calls — the phase-data cache (each distinct query is traversed
once, whatever schemes and calls reuse it) and an optional
:class:`~repro.core.gridrun.RunLedger` that every phase reports into.
Plans themselves are never cached: every call computes them.
:class:`Session` is a thin single-user wrapper over an :class:`Engine`;
:class:`repro.serve.QueryService` shares the same core for multi-tenant
serving.  Construct an :class:`Engine` once and hand it to both when a
session and a service should share the phase cache and ledger::

    engine = Engine(dataset)
    session = Session(engine)
    service = QueryService(engine, max_queue=256)
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.constants import MBPS
from repro.core.batchplan import PhaseDataCache, plan_workload_batched
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
    "Engine",
    "Session",
    "RunTable",
    "RunRow",
    "SweepCell",
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
class SweepCell:
    """One (scheme, policy) point of a sweep: the summed workload result."""

    config_label: str
    bandwidth_mbps: float
    distance_m: float
    result: RunResult

    @property
    def energy_j(self) -> float:
        """Total client energy over the workload."""
        return self.result.energy.total()

    @property
    def cycles(self) -> float:
        """Total end-to-end client cycles over the workload."""
        return self.result.cycles.total()


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

    def cell(self) -> SweepCell:
        """This row as the legacy sweep record."""
        return SweepCell(
            config_label=self.scheme,
            bandwidth_mbps=self.bandwidth_mbps,
            distance_m=self.distance_m,
            result=self.result,
        )

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

    def cells(self) -> Dict[str, List[SweepCell]]:
        """The legacy ``bandwidth_sweep`` shape (renderers consume this)."""
        return {
            label: [r.cell() for r in rows]
            for label, rows in self.by_scheme().items()
        }

    def to_records(self) -> List[dict]:
        """Every row as a flat dict (for ledgers and ad-hoc analysis)."""
        return [r.to_record() for r in self.rows]

    def best(self, metric: str = "energy_j") -> RunRow:
        """The row minimizing ``metric`` (any numeric RunRow property)."""
        if not self.rows:
            raise ValueError("empty RunTable has no best row")
        return min(self.rows, key=lambda r: getattr(r, metric))


class Engine:
    """The reusable plan/price/ledger core behind every front end.

    ``source`` is a :class:`~repro.data.model.SegmentDataset` (an
    environment is created for it) or a ready
    :class:`~repro.core.executor.Environment` (for custom CPU models, as in
    the Figure 8 clock-ratio experiment).

    The engine carries a :class:`~repro.core.batchplan.PhaseDataCache` so
    identical queries share one traversal, and optionally a
    :class:`~repro.core.gridrun.RunLedger` every phase reports into.  Both
    :class:`Session` (single user) and :class:`repro.serve.QueryService`
    (multi-tenant) are thin wrappers over an engine; sharing one engine
    shares its phase cache and ledger.
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
                f"{type(self).__name__}() takes a SegmentDataset or an "
                f"Environment, got {type(source).__name__}"
            )
        if ledger is not None and not isinstance(ledger, RunLedger):
            raise TypeError(
                f"ledger must be a RunLedger, got {type(ledger).__name__}"
            )
        self.dataset = self.env.dataset
        self.ledger = ledger
        self._phase_cache: Optional[PhaseDataCache] = None

    # ------------------------------------------------------------------
    @property
    def phase_cache(self) -> PhaseDataCache:
        """Per-query phase work, memoized across schemes and plan calls.

        Created lazily and handed to the batched planner so that identical
        queries — within a workload, across repeated ``plan``/``run``
        calls, or across a service fleet's clients — have their
        filter/refine phases computed once.
        """
        if self._phase_cache is None:
            self._phase_cache = PhaseDataCache()
        return self._phase_cache

    def record(self, event: str, **fields) -> None:
        """Record a ledger event, if this engine has a ledger."""
        if self.ledger is not None:
            self.ledger.record(event, **fields)

    # ------------------------------------------------------------------
    @staticmethod
    def _as_queries(workload) -> List[Query]:
        if isinstance(workload, Query):
            return [workload]
        return list(workload)

    @staticmethod
    def _as_policies(policies) -> List[Policy]:
        if policies is None:
            return Policy.sweep()
        if isinstance(policies, Policy):
            return [policies]
        return list(policies)

    @staticmethod
    def _as_schemes(schemes) -> List[SchemeConfig]:
        if isinstance(schemes, SchemeConfig):
            return [schemes]
        out = list(schemes)
        if not out:
            raise ValueError("run() requires at least one scheme")
        return out

    # ------------------------------------------------------------------
    def plan(
        self,
        workload: Union[Query, Sequence[Query]],
        scheme: SchemeConfig,
        *,
        reset_caches: bool = True,
        planner: str = "batched",
    ) -> List[QueryPlan]:
        """Plan a workload under one scheme.

        ``reset_caches=True`` (the default) cold-starts the device caches at
        the workload boundary, as the sweep harness always did;
        ``reset_caches=False`` plans against the environment's current warm
        state.  ``planner`` selects the batched or scalar implementation
        (:data:`PLANNERS`); both produce bit-identical plans and leave the
        same cache state.
        """
        return self.plan_grid(
            workload, scheme, reset_caches=reset_caches, planner=planner
        )[0]

    def plan_grid(
        self,
        workload: Union[Query, Sequence[Query]],
        schemes: Union[SchemeConfig, Sequence[SchemeConfig]],
        *,
        reset_caches: bool = True,
        planner: str = "batched",
    ) -> List[List[QueryPlan]]:
        """Plan a workload under several schemes, sharing per-query work.

        The batched planner computes each distinct query's filter/refine
        phases once (through :attr:`phase_cache`) and assembles every
        scheme's plans from them.  Returns one plan list per scheme, in
        scheme order, and records one ledger ``plan`` event per scheme.
        """
        queries = self._as_queries(workload)
        configs = self._as_schemes(schemes)
        if planner not in PLANNERS:
            raise ValueError(
                f"unknown planner {planner!r}; choose from {PLANNERS}"
            )
        start = time.perf_counter()
        if planner == "batched":
            planned = plan_workload_batched(
                self.env,
                queries,
                configs,
                reset_caches=reset_caches,
                phase_cache=self.phase_cache,
            )
        else:
            planned = []
            for config in configs:
                if reset_caches:
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
        return price_grid(list(plans), self._as_policies(policies), self.env)

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
        plans = list(plans)
        pols = self._as_policies(policies)
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; choose from {ENGINES}"
            )
        start = time.perf_counter()
        if engine == "batched":
            grid = self.price_grid(plans, pols)
            results = [grid.combine_policy(j) for j in range(len(pols))]
        else:
            results = [
                RunResult.combine([price_plan(p, self.env, pol) for p in plans])
                for pol in pols
            ]
        self.record(
            "price",
            engine=engine,
            n_plans=len(plans),
            n_policies=len(pols),
            seconds=time.perf_counter() - start,
        )
        return results


class Session:
    """Plan, price and record experiment grids over one dataset.

    ``source`` is a :class:`~repro.data.model.SegmentDataset`, a ready
    :class:`~repro.core.executor.Environment`, or an :class:`Engine` to
    share (its phase cache and ledger are adopted; the ``ledger`` keyword
    then must stay unset).  The session itself is a thin single-user
    wrapper: all caching and ledger machinery lives on :attr:`engine`.
    """

    def __init__(
        self,
        source: Union[SegmentDataset, Environment, Engine],
        *,
        ledger: Optional[RunLedger] = None,
    ) -> None:
        if isinstance(source, Engine):
            if ledger is not None:
                raise TypeError(
                    "the ledger is configured on the shared Engine; do not "
                    "pass it again"
                )
            self.engine = source
        elif isinstance(source, (SegmentDataset, Environment)):
            self.engine = Engine(source, ledger=ledger)
        else:
            raise TypeError(
                "Session() takes a SegmentDataset or an Environment (or a "
                f"shared Engine), got {type(source).__name__}"
            )

    # ------------------------------------------------------------------
    # Engine delegation: the session's state *is* the engine's state.
    @property
    def env(self) -> Environment:
        """The engine's environment."""
        return self.engine.env

    @property
    def dataset(self) -> SegmentDataset:
        """The engine's dataset."""
        return self.engine.dataset

    @property
    def ledger(self) -> Optional[RunLedger]:
        """The engine's ledger (``None`` when not recording)."""
        return self.engine.ledger

    @property
    def phase_cache(self) -> PhaseDataCache:
        """The engine's phase-data cache."""
        return self.engine.phase_cache

    # ------------------------------------------------------------------
    def plan(
        self,
        workload: Union[Query, Sequence[Query]],
        scheme: SchemeConfig,
        *,
        reset_caches: bool = True,
        planner: str = "batched",
    ) -> List[QueryPlan]:
        """Plan a workload under one scheme (see :meth:`Engine.plan`)."""
        return self.engine.plan(
            workload, scheme, reset_caches=reset_caches, planner=planner
        )

    def plan_grid(
        self,
        workload: Union[Query, Sequence[Query]],
        schemes: Union[SchemeConfig, Sequence[SchemeConfig]],
        *,
        reset_caches: bool = True,
        planner: str = "batched",
    ) -> List[List[QueryPlan]]:
        """Plan a scheme grid (see :meth:`Engine.plan_grid`)."""
        return self.engine.plan_grid(
            workload, schemes, reset_caches=reset_caches, planner=planner
        )

    def price(
        self,
        plans: Sequence[QueryPlan],
        policies: Union[Policy, Sequence[Policy], None] = None,
        *,
        engine: str = "batched",
    ) -> List[RunResult]:
        """Workload-summed results per policy (see :meth:`Engine.price`)."""
        return self.engine.price(plans, policies, engine=engine)

    def run(
        self,
        workload: Union[Query, Sequence[Query]],
        *,
        schemes: Union[SchemeConfig, Sequence[SchemeConfig]],
        policies: Union[Policy, Sequence[Policy], None] = None,
        engine: str = "batched",
        reset_caches: bool = True,
        planner: str = "batched",
    ) -> RunTable:
        """Plan and price the full schemes x policies grid.

        ``policies=None`` prices the paper's standard bandwidth sweep
        (:meth:`Policy.sweep`).  Planning goes through
        :meth:`Engine.plan_grid`, so the whole scheme grid shares one
        batched traversal of the workload.  Returns a :class:`RunTable`,
        scheme-major.
        """
        core = self.engine
        queries = core._as_queries(workload)
        configs = core._as_schemes(schemes)
        pols = core._as_policies(policies)
        if not queries:
            raise ValueError("run() requires at least one query")
        if not pols:
            raise ValueError("run() requires at least one policy")
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; choose from {ENGINES}"
            )
        grid_plans = core.plan_grid(
            queries, configs, reset_caches=reset_caches, planner=planner
        )
        rows: List[RunRow] = []
        for config, plans in zip(configs, grid_plans):
            if engine == "batched":
                start = time.perf_counter()
                grid = core.price_grid(plans, pols)
                priced = time.perf_counter() - start
                scheme_rows = [
                    RunRow(
                        scheme=config.label,
                        policy=pol,
                        result=grid.combine_policy(j),
                        dwell=grid.dwell(j),
                    )
                    for j, pol in enumerate(pols)
                ]
            else:
                start = time.perf_counter()
                scheme_rows = [
                    RunRow(
                        scheme=config.label,
                        policy=pol,
                        result=RunResult.combine(
                            [price_plan(p, core.env, pol) for p in plans]
                        ),
                    )
                    for pol in pols
                ]
                priced = time.perf_counter() - start
            if core.ledger is not None:
                core.record(
                    "price",
                    engine=engine,
                    scheme=config.label,
                    n_plans=len(plans),
                    n_policies=len(pols),
                    seconds=priced,
                )
                for row in scheme_rows:
                    core.record("run", **row.to_record())
            rows.extend(scheme_rows)
        return RunTable(rows=tuple(rows))

    def plan_cached(
        self,
        workload: Sequence[Query],
        budget_bytes: int,
        *,
        reset_caches: bool = True,
    ) -> Tuple[List[QueryPlan], ClientCacheSession]:
        """Plan under the insufficient-memory cached-client scheme.

        Returns the plans plus the stateful
        :class:`~repro.core.clientcache.ClientCacheSession` (whose hit/miss
        statistics the Figure 10 bench reports).
        """
        core = self.engine
        queries = core._as_queries(workload)
        start = time.perf_counter()
        if reset_caches:
            core.env.reset_caches()
        cache_session = ClientCacheSession(core.env, budget_bytes)
        plans = cache_session.plan_sequence(list(queries))
        core.record(
            "plan",
            dataset=core.dataset.name,
            scheme=f"cached-client:{budget_bytes}B",
            planner="scalar",
            n_queries=len(queries),
            seconds=time.perf_counter() - start,
            local_hits=cache_session.local_hits,
            misses=cache_session.misses,
        )
        return plans, cache_session
