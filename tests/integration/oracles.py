"""Reusable differential-oracle layer for (planner, pricer) pairings.

The repo's correctness story is *differential*: the batched engine is
pinned to the scalar per-query twin (``plan_query`` + ``price_plan``).
This module packages those comparisons so every suite — the engine
differential suite, the batchplan differential suite, the shard and
semantic-cache suites, hypothesis property tests — asserts the same
contract through the same helpers:

``assert_grids_identical``
    Every array of two :class:`~repro.core.gridrun.GridResult`\\ s equal
    via ``np.array_equal`` (bit-for-bit), plus the compiled shims' answer
    ids / op tallies / message shapes.
``assert_tables_identical`` / ``assert_tables_close``
    :class:`~repro.api.RunTable` equality — exact for engine twins that
    share summation order, 1e-9 relative for the scalar oracle (its
    documented agreement bound), discrete fields exact either way.
``assert_engine_differential``
    The two-way pin: batched plans ≡ scalar plans exactly, batched grids
    ≈ scalar cells to 1e-9, and the environment's simulated cache state
    (hits, misses, LRU set contents on both sides) left identical by both
    paths.
``run_ledger_shape``
    A ledger event stream reduced to its deterministic fields, so suites
    can require planner twins to emit the same observability records
    without comparing wall-clock timings.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

import numpy as np

from repro.api import RunTable, Session
from repro.bench.e2ebench import tables_match
from repro.core.batchplan import plan_workload_batched, plans_equal
from repro.core.executor import Environment, Policy, plan_query, price_plan
from repro.core.gridrun import GridResult, price_grid
from repro.core.queries import Query
from repro.core.schemes import SchemeConfig

__all__ = [
    "SCALAR_REL_TOL",
    "assert_engine_differential",
    "assert_grid_matches_cells",
    "assert_grids_identical",
    "assert_semcache_differential",
    "assert_shard_differential",
    "assert_tables_close",
    "assert_tables_identical",
    "cache_state",
    "run_ledger_shape",
    "run_table",
]

#: The engines' documented agreement bound vs the scalar pricer (summation
#: order differs; everything else is exact).
SCALAR_REL_TOL = 1e-9

#: Every numeric plane of a GridResult (all compared bit-for-bit).
_GRID_ARRAYS = (
    "energy_processor", "energy_tx", "energy_rx", "energy_idle",
    "energy_sleep", "cycles_processor", "cycles_tx", "cycles_rx",
    "cycles_wait", "wall_s", "dwell_tx_s", "dwell_rx_s", "dwell_idle_s",
    "dwell_sleep_s", "sleep_exits", "retx_tx_frames", "retx_rx_frames",
    "backoff_s",
)


def cache_state(env: Environment):
    """Everything planning mutates in the environment's simulators."""
    client = env.client_cpu.dcache
    server = env.server_cpu.l1
    return (
        client.hits, client.misses, [list(s) for s in client._sets],
        server.hits, server.misses, [list(s) for s in server._sets],
    )


def assert_grids_identical(grid: GridResult, oracle: GridResult) -> None:
    """Both grids bit-for-bit: every plane, and every compiled shim."""
    assert grid.shape == oracle.shape
    for name in _GRID_ARRAYS:
        a, b = getattr(grid, name), getattr(oracle, name)
        assert np.array_equal(a, b), f"GridResult.{name} differs"
    assert len(grid.compiled) == len(oracle.compiled)
    for c, o in zip(grid.compiled, oracle.compiled):
        assert np.array_equal(c.answer_ids, o.answer_ids)
        assert c.n_candidates == o.n_candidates
        assert c.n_results == o.n_results
        assert tuple(c.messages) == tuple(o.messages)


def assert_tables_identical(table: RunTable, oracle: RunTable) -> None:
    """Row-for-row bit-identity, including the NIC dwell records."""
    ok, worst = tables_match(table, oracle, rel_tol=0.0)
    assert ok, f"RunTables differ (worst rel err {worst:.3e})"
    for a, b in zip(table.rows, oracle.rows):
        assert (a.dwell is None) == (b.dwell is None)


def assert_tables_close(
    table: RunTable, oracle: RunTable, *, rel_tol: float = SCALAR_REL_TOL
) -> None:
    """Numerics to ``rel_tol``; answer ids, tallies and messages exact."""
    ok, worst = tables_match(table, oracle, rel_tol=rel_tol)
    assert ok, f"RunTables disagree beyond {rel_tol} (worst {worst:.3e})"


def run_table(
    env: Environment,
    queries: Sequence[Query],
    configs: Sequence[SchemeConfig],
    policies: Sequence[Policy],
    *,
    planner: str = "batched",
    engine: str = "batched",
    ledger=None,
):
    """One fresh-session run; returns ``(table, cache_state_after)``."""
    session = Session(env, ledger=ledger)
    table = session.run(
        list(queries),
        schemes=list(configs),
        policies=list(policies),
        engine=engine,
        planner=planner,
    )
    return table, cache_state(env)


def run_ledger_shape(records: Sequence[dict]) -> List[dict]:
    """Ledger events minus their non-deterministic fields.

    Drops wall-clock timings (``t``, ``seconds``) and cache-statistics
    fields that depend on how often an engine consults the plan cache;
    keeps everything that must be identical across planner twins —
    event types, schemes, planner/engine labels, workload sizes, and the
    ``run`` events' full numeric payload.
    """
    volatile = {"t", "seconds", "cache_hit", "cache_hits", "cache_misses",
                "cache_hit_rate", "planner", "engine"}
    return [
        {k: v for k, v in rec.items() if k not in volatile}
        for rec in records
    ]


def assert_grid_matches_cells(grid: GridResult, cells) -> None:
    """Every cell of ``grid`` against the scalar pricer's ``cells[i][j]``.

    Energy buckets, cycle buckets and wall time to :data:`SCALAR_REL_TOL`;
    op tallies, message shapes and answer ids exactly.
    """
    assert grid.shape == (len(cells), len(cells[0]))
    for i, per_policy in enumerate(cells):
        for j, want in enumerate(per_policy):
            got = grid.result(i, j)
            assert got.energy.total() == _approx(want.energy.total())
            for f in dataclasses.fields(want.energy):
                assert getattr(got.energy, f.name) == _approx(
                    getattr(want.energy, f.name)
                )
            for f in dataclasses.fields(want.cycles):
                assert getattr(got.cycles, f.name) == _approx(
                    getattr(want.cycles, f.name)
                )
            assert got.wall_seconds == _approx(want.wall_seconds)
            assert got.n_candidates == want.n_candidates
            assert got.n_results == want.n_results
            assert tuple(got.messages) == tuple(want.messages)
            assert np.array_equal(
                np.asarray(got.answer_ids), np.asarray(want.answer_ids)
            )


def assert_engine_differential(
    env: Environment,
    queries: Sequence[Query],
    configs: Sequence[SchemeConfig],
    policies: Optional[Sequence[Policy]] = None,
) -> None:
    """The two-way pin on one workload, from cold caches.

    1. Scalar twin: per-query plans (one cold-cache walk per scheme),
       cache state captured.
    2. Batched engine: one traversal into plans, one grid pricing per
       scheme.  Its plans must equal the scalar plans bit for bit
       (``plans_equal``), every grid cell must match the scalar pricer's
       cell (:func:`assert_grid_matches_cells`), and both paths must leave
       identical cache state.
    """
    queries = list(queries)
    configs = list(configs)
    policies = list(policies) if policies is not None else [Policy()]

    scalar_plans = []
    for cfg in configs:
        env.reset_caches()
        scalar_plans.append([plan_query(q, cfg, env) for q in queries])
    scalar_state = cache_state(env)

    batched_plans = plan_workload_batched(env, queries, configs)
    assert cache_state(env) == scalar_state
    assert len(batched_plans) == len(configs)
    for got, want in zip(batched_plans, scalar_plans):
        assert plans_equal(got, want)
        assert_grid_matches_cells(
            price_grid(got, policies, env),
            [[price_plan(p, env, pol) for pol in policies] for p in want],
        )


def _approx(value: float):
    import pytest

    return pytest.approx(value, rel=SCALAR_REL_TOL, abs=0.0)


def assert_shard_differential(
    env: Environment,
    queries: Sequence[Query],
    configs: Sequence[SchemeConfig],
    policies: Optional[Sequence[Policy]] = None,
    *,
    sharding=None,
) -> dict:
    """Pin sharded planning to the unsharded engines on one workload.

    Builds a fresh sharded environment over ``env``'s own dataset and tree
    (so the packed entry order is shared) and requires, from cold caches:

    1. **Batched twin** — ``plan_workload_batched`` through the shard
       store produces plans bit-identical to the unsharded batched planner
       (``plans_equal``: steps, op tallies, answer ids, messages) and
       leaves identical simulated cache state.
    2. **Priced grids** — ``price_grid`` over the sharded plans equals the
       unsharded grids bit for bit on every numeric plane.
    3. **Scalar energies** — each sharded cell agrees with the scalar
       per-query pricer within :data:`SCALAR_REL_TOL`.

    ``sharding`` is the :class:`~repro.core.shardstore.ShardConfig` to pin
    (default 8 shards, unbounded residency — pass a budgeted config to
    exercise LRU spills).  Returns the batched store's lifetime stats so
    callers can additionally assert pruning/eviction behavior.
    """
    from repro.core.shardstore import ShardConfig, ShardStore

    queries = list(queries)
    configs = list(configs)
    policies = list(policies) if policies is not None else [Policy()]
    if sharding is None:
        sharding = ShardConfig(n_shards=8)

    env.reset_caches()
    base_plans = plan_workload_batched(env, queries, configs)
    base_state = cache_state(env)
    base_grids = [price_grid(plans, policies, env) for plans in base_plans]

    env_sh = Environment.create(env.dataset, tree=env.tree)
    env_sh.shard_store = ShardStore.from_tree(env.tree, sharding)
    sh_plans = plan_workload_batched(env_sh, queries, configs)
    assert cache_state(env_sh) == base_state
    for got_cfg, want_cfg in zip(sh_plans, base_plans):
        assert plans_equal(got_cfg, want_cfg)
    sh_grids = [price_grid(plans, policies, env_sh) for plans in sh_plans]
    for got, want in zip(sh_grids, base_grids):
        assert_grids_identical(got, want)

    for cfg_i, cfg in enumerate(configs):
        env.reset_caches()
        for i, q in enumerate(queries):
            want = price_plan(plan_query(q, cfg, env), env, policies[0])
            got = sh_grids[cfg_i].result(i, 0)
            assert got.energy.total() == _approx(want.energy.total())
            assert got.cycles.total() == _approx(want.cycles.total())

    stats = env_sh.shard_store.stats_dict()
    assert stats["shards_touched"] >= 1
    return stats


def assert_semcache_differential(
    env: Environment,
    queries: Sequence[Query],
    configs: Sequence[SchemeConfig],
    policies: Optional[Sequence[Policy]] = None,
    *,
    capacity: int = 4096,
) -> None:
    """Pin semantic-cached planning to uncached planning on one workload.

    Runs the workload four ways and cross-checks them:

    1. **Uncached baseline** — ``plan_workload_batched`` with no cache,
       plans and final simulator state captured.
    2. **Cold semantic pass** — a fresh :class:`SemanticCache`.  Answers
       must be bit-identical to the baseline for every plan.  If the cold
       pass served nothing (``hits + refines == 0``, possible only when
       no within-batch containment fires), the plans and simulator state
       must equal the baseline bit for bit.
    3. **Warm semantic pass** — re-running the workload on the cold
       pass's final cache.  Answers again bit-identical; every cached
       (plan, policy) cell priced by the grid pricer and the scalar
       pricer agrees within :data:`SCALAR_REL_TOL`; miss-verdict and
       NN/k-NN plans are bit-identical to the uncached baseline (served
       plans legitimately carry smaller op tallies — the saved work).
    4. **Scalar semantic twin** — :func:`plan_one_semantic` per query on
       a clone of each pass's starting cache must reproduce that pass's
       plans bit for bit (``plans_equal``) and leave identical simulator
       state; the twin cache's verdict tallies must match the batched
       pass's.

    Op tallies are checked per occurrence against the uncached phase
    data: hits do zero traversal work and scan exactly ``nc`` cached
    ids; refines do zero node visits and at least ``nc`` MBR tests
    (the tested superset); misses are charged identically to the
    uncached planner.  Candidate and answer id arrays are bit-identical
    to uncached in every verdict class.
    """
    from repro.core.batchplan import compute_query_phases
    from repro.core.queries import QueryKind
    from repro.core.semcache import (
        SemanticCache,
        compute_query_phases_semantic,
        plan_one_semantic,
    )

    queries = list(queries)
    configs = list(configs)
    policies = list(policies) if policies is not None else [Policy()]

    # 1. Uncached baseline.
    base_plans = plan_workload_batched(env, queries, configs)
    base_state = cache_state(env)
    env.reset_caches()
    base_phases = compute_query_phases(env, queries)

    # 2/3. Cold then warm batched semantic passes.
    cold_cache = SemanticCache(capacity)
    cold_plans = plan_workload_batched(
        env, queries, configs, semantic_cache=cold_cache
    )
    cold_state = cache_state(env)
    cold_stats = cold_cache.stats_dict()
    warm_cache = cold_cache.clone()
    warm_plans = plan_workload_batched(
        env, queries, configs, semantic_cache=warm_cache
    )
    warm_state = cache_state(env)

    for plans in (cold_plans, warm_plans):
        assert len(plans) == len(configs)
        for got_cfg, want_cfg in zip(plans, base_plans):
            for got, want in zip(got_cfg, want_cfg):
                assert np.array_equal(got.answer_ids, want.answer_ids)
                assert got.n_results == want.n_results
    if cold_stats["hits"] + cold_stats["refines"] == 0:
        for got_cfg, want_cfg in zip(cold_plans, base_plans):
            assert plans_equal(got_cfg, want_cfg)
        assert cold_state == base_state

    # Priced energies: grid pricer vs scalar pricer on every cached
    # (plan, policy) cell, within SCALAR_REL_TOL.
    for sem_cfg in warm_plans:
        grid = price_grid(sem_cfg, policies, env)
        for i, plan in enumerate(sem_cfg):
            for j, pol in enumerate(policies):
                got = grid.result(i, j)
                want = price_plan(plan, env, pol)
                assert got.energy.total() == _approx(want.energy.total())
                assert got.n_results == want.n_results

    # 4. Scalar semantic twin, per pass.
    for start, batched_plans, want_state, batched_stats in (
        (SemanticCache(capacity), cold_plans, cold_state, cold_cache),
        (cold_cache.clone(), warm_plans, warm_state, warm_cache),
    ):
        twin = None
        for cfg_i, cfg in enumerate(configs):
            twin = start.clone()
            env.reset_caches()
            twin_plans = [
                plan_one_semantic(q, cfg, env, twin)[0] for q in queries
            ]
            assert plans_equal(twin_plans, batched_plans[cfg_i])
        if twin is not None:
            assert cache_state(env) == want_state
            for key in ("hits", "refines", "misses", "entries",
                        "insertions", "evictions"):
                assert twin.stats_dict()[key] == batched_stats.stats_dict()[key]

    # Per-occurrence verdict/tally pin against the uncached phase data.
    cold_verdicts: List[str] = []
    for start in (SemanticCache(capacity), cold_cache.clone()):
        env.reset_caches()
        phases, verdicts = compute_query_phases_semantic(
            env, queries, start
        )
        if not cold_verdicts:
            cold_verdicts = list(verdicts)
        for q, qp, base_qp, verdict in zip(
            queries, phases, base_phases, verdicts
        ):
            assert np.array_equal(qp.cand_ids, base_qp.cand_ids)
            assert np.array_equal(qp.answer_ids, base_qp.answer_ids)
            if q.kind is QueryKind.NEAREST_NEIGHBOR:
                assert verdict == ""
                continue
            c = qp.filter_trace.counter
            nc = int(qp.cand_ids.size)
            if verdict == "hit":
                assert c.nodes_visited == 0
                assert c.mbr_tests == 0
                assert c.entries_scanned == nc
            elif verdict == "refine":
                assert c.nodes_visited == 0
                assert c.mbr_tests >= nc
                assert c.entries_scanned == nc
            else:
                assert verdict == "miss"
                assert (
                    c.counts_dict()
                    == base_qp.filter_trace.counter.counts_dict()
                )

    # Misses and NN/k-NN queries plan bit-identically to uncached.
    for idx, v in enumerate(cold_verdicts):
        if v in ("miss", ""):
            for cfg_i in range(len(configs)):
                assert plans_equal(
                    [cold_plans[cfg_i][idx]], [base_plans[cfg_i][idx]]
                )
