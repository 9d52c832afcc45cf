"""Reusable differential-oracle layer for (planner, pricer) pairings.

The repo's correctness story is *differential*: the batched engine is
pinned to the scalar per-query twin (``plan_query`` + ``price_plan``).
This module packages those comparisons so every suite — the engine
differential suite, the batchplan differential suite, hypothesis property
tests — asserts the same contract through the same helpers:

``assert_grids_identical``
    Every array of two :class:`~repro.core.gridrun.GridResult`\\ s equal
    via ``np.array_equal`` (bit-for-bit), plus each plan's answer ids / op
    tallies / message log.
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
    """Both grids bit-for-bit: every plane, and every plan's answer ids,
    tallies and message log."""
    assert grid.shape == oracle.shape
    for name in _GRID_ARRAYS:
        a, b = getattr(grid, name), getattr(oracle, name)
        assert np.array_equal(a, b), f"GridResult.{name} differs"
    assert len(grid.plans) == len(oracle.plans)
    for i, (p, o) in enumerate(zip(grid.plans, oracle.plans)):
        assert np.array_equal(p.answer_ids, o.answer_ids)
        assert p.n_candidates == o.n_candidates
        assert p.n_results == o.n_results
        assert grid.messages[i] == oracle.messages[i]


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

    Drops wall-clock timings (``t``, ``seconds``) and the planner/engine
    labels; keeps everything that must be identical across planner twins —
    event types, schemes, workload sizes, and the ``run`` events' full
    numeric payload.
    """
    volatile = {"t", "seconds", "planner", "engine"}
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
