"""Differential suite: the batched engine vs the scalar oracle, end to end.

The batched engine (:func:`repro.core.batchplan.plan_workload_batched` +
:func:`repro.core.gridrun.price_grid`) promises plans **bit-identical** to
the scalar ``plan_query`` walk and priced grids within the engines' 1e-9
agreement bound of ``price_plan``.  Every test here runs both paths on one
workload through the shared oracle layer (:mod:`tests.integration.oracles`)
and demands exactly that — including the simulated cache state both leave
behind.

Covers the fig4/5/6/7 workload shapes, all four query kinds, repeated and
nested windows within one workload, lossy-link policy grids, warm-seeded
caches, degenerate and empty windows, k past the dataset size, the
Session/ledger surface, and hypothesis-random workloads over random
datasets.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.batchplan import plan_workload_batched, plans_equal
from repro.core.executor import Environment, Policy, plan_query, price_plan
from repro.core.gridrun import RunLedger, price_grid
from repro.core.queries import KNNQuery, PointQuery, RangeQuery
from repro.core.schemes import ADEQUATE_MEMORY_CONFIGS, Scheme, SchemeConfig
from repro.data import tiger
from repro.data.model import SegmentDataset
from repro.data.workloads import (
    knn_queries,
    nn_queries,
    point_queries,
    range_queries,
)
from repro.spatial.mbr import MBR
from tests.integration.oracles import (
    assert_engine_differential,
    assert_grid_matches_cells,
    assert_tables_close,
    assert_tables_identical,
    cache_state,
    run_ledger_shape,
    run_table,
)
from tests.integration.test_batchplan_differential import (
    nn_workloads,
    small_envs,
    window_workloads,
)

NN_CONFIGS = (
    SchemeConfig(Scheme.FULLY_CLIENT),
    SchemeConfig(Scheme.FULLY_SERVER, data_at_client=True),
)

#: Ideal-channel bandwidth sweep plus a lossy tail — both framings, so the
#: per-framing pricing loop and the retransmission columns are exercised.
LOSSY_POLICIES = tuple(Policy.sweep()) + tuple(
    Policy.sweep(loss_rates=(0.05,))
)


@pytest.fixture(scope="module")
def env() -> Environment:
    return Environment.create(tiger.pa_dataset(scale=0.05))


@pytest.fixture(scope="module")
def nyc_env() -> Environment:
    return Environment.create(tiger.nyc_dataset(scale=0.05))


# ----------------------------------------------------------------------
# The paper workload shapes, under lossy policy grids
# ----------------------------------------------------------------------
def test_fig4_point_workload(env):
    from repro.bench.figures import POINT_NN_CONFIGS

    assert_engine_differential(
        env, point_queries(env.dataset, 12, seed=4), POINT_NN_CONFIGS,
        LOSSY_POLICIES,
    )


def test_fig5_range_workload(env):
    assert_engine_differential(
        env, range_queries(env.dataset, 12, seed=5), ADEQUATE_MEMORY_CONFIGS,
        LOSSY_POLICIES,
    )


def test_fig6_nn_workload(env):
    assert_engine_differential(
        env, nn_queries(env.dataset, 12, seed=6), NN_CONFIGS, LOSSY_POLICIES
    )


def test_fig7_nyc_range_workload(nyc_env):
    assert_engine_differential(
        nyc_env, range_queries(nyc_env.dataset, 12, seed=7),
        ADEQUATE_MEMORY_CONFIGS, LOSSY_POLICIES,
    )


def test_knn_workload(env):
    assert_engine_differential(
        env, knn_queries(env.dataset, 12, seed=8), NN_CONFIGS, LOSSY_POLICIES
    )


def test_mixed_query_kinds_one_workload(env):
    ds = env.dataset
    mixed = (
        point_queries(ds, 4, seed=21)
        + range_queries(ds, 4, seed=22)
        + nn_queries(ds, 4, seed=23)
        + knn_queries(ds, 4, seed=25)
    )
    assert_engine_differential(env, mixed, NN_CONFIGS, LOSSY_POLICIES)


def test_repeated_nested_and_overlapping_windows(env):
    """Exact repeats, nested zooms, a point inside a window, overlapping slabs.

    Repeats within one workload share one phase-data entry, so their
    replayed cache slices (warm on the second occurrence) must still line
    up with the scalar walk step for step.
    """
    ext = env.dataset.extent
    w = ext.width / 8
    h = ext.height / 8
    x0 = ext.xmin + 2 * w
    y0 = ext.ymin + 2 * h
    outer = MBR(x0, y0, x0 + 2 * w, y0 + 2 * h)
    inner = MBR(x0 + w / 2, y0 + h / 2, x0 + w, y0 + h)
    left = MBR(x0, y0, x0 + w, y0 + 2 * h)
    right = MBR(x0 + w * 0.8, y0, x0 + 2 * w, y0 + 2 * h)
    spanning = MBR(x0 + w / 4, y0 + h / 4, x0 + 1.5 * w, y0 + 1.5 * h)
    queries = [
        RangeQuery(outer),
        RangeQuery(outer),  # exact repeat
        RangeQuery(inner),  # nested zoom
        PointQuery(inner.xmin, inner.ymin),  # point inside both windows
        RangeQuery(left),
        RangeQuery(right),  # overlaps left
        RangeQuery(spanning),  # straddles left and right
        RangeQuery(inner),  # repeat of the zoom
    ]
    assert_engine_differential(
        env, queries, ADEQUATE_MEMORY_CONFIGS, LOSSY_POLICIES
    )


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------
def test_empty_and_degenerate_windows(env):
    ext = env.dataset.extent
    off = ext.width + ext.height
    cx = (ext.xmin + ext.xmax) / 2.0
    cy = (ext.ymin + ext.ymax) / 2.0
    queries = [
        # Far outside the extent: zero candidates, zero answers.
        RangeQuery(MBR(ext.xmax + off, ext.ymax + off,
                       ext.xmax + 2 * off, ext.ymax + 2 * off)),
        PointQuery(ext.xmax + off, ext.ymax + off),
        RangeQuery(MBR(cx, cy, cx, cy)),  # zero-area point window
        RangeQuery(MBR(ext.xmin, cy, ext.xmax, cy)),  # zero-height slab
        RangeQuery(MBR(ext.xmin, ext.ymin, ext.xmax, ext.ymax)),  # everything
    ]
    assert_engine_differential(env, queries, ADEQUATE_MEMORY_CONFIGS)


def test_knn_k_exceeds_dataset():
    rng = np.random.default_rng(41)
    cx = rng.uniform(0, 100, 12)
    cy = rng.uniform(0, 100, 12)
    ds = SegmentDataset("tiny", cx, cy, cx + 3.0, cy + 3.0)
    small = Environment.create(ds)
    queries = [
        KNNQuery(10.0, 10.0, k=12),
        KNNQuery(50.0, 50.0, k=25),
        KNNQuery(90.0, 5.0, k=100),
    ]
    assert_engine_differential(small, queries, NN_CONFIGS, LOSSY_POLICIES)


def test_single_query_workload(env):
    assert_engine_differential(
        env, range_queries(env.dataset, 1, seed=9), ADEQUATE_MEMORY_CONFIGS
    )


def test_warm_cache_parity(env):
    """reset_caches=False continues the live cache state like the scalar walk.

    Two identically warmed twin environments: the batched engine runs warm
    on one, the scalar walk warm on the other; plans must coincide bit for
    bit, grid cells to the scalar pricer's, and final cache states exactly.
    """
    ds = env.dataset
    warmup = range_queries(ds, 5, seed=31)
    work = range_queries(ds, 10, seed=32) + knn_queries(ds, 5, seed=33)
    cfg = NN_CONFIGS[0]
    policies = list(Policy.sweep())

    def warmed() -> Environment:
        twin = Environment.create(ds)
        twin.reset_caches()
        for q in warmup:
            plan_query(q, cfg, twin)
        return twin

    env_batched, env_scalar = warmed(), warmed()
    [plans] = plan_workload_batched(
        env_batched, work, [cfg], reset_caches=False
    )
    scalar_plans = [plan_query(q, cfg, env_scalar) for q in work]
    assert plans_equal(plans, scalar_plans)
    assert_grid_matches_cells(
        price_grid(plans, policies, env_batched),
        [[price_plan(p, env_scalar, pol) for pol in policies]
         for p in scalar_plans],
    )
    assert cache_state(env_batched) == cache_state(env_scalar)


# ----------------------------------------------------------------------
# The Session / ledger surface
# ----------------------------------------------------------------------
def test_session_runtable_and_ledger_parity(env):
    """Session.run agrees across planners, engines and ledger records.

    The scalar planner feeding the batched pricer reproduces the batched
    planner's RunTable and ledger bit for bit (its plans are identical);
    the all-scalar reference agrees to the 1e-9 engine bound.
    """
    queries = range_queries(env.dataset, 10, seed=61)
    policies = list(Policy.sweep())
    led_b, led_s = RunLedger(), RunLedger()
    table_b, state_b = run_table(
        env, queries, ADEQUATE_MEMORY_CONFIGS, policies, ledger=led_b
    )
    table_s, state_s = run_table(
        env, queries, ADEQUATE_MEMORY_CONFIGS, policies,
        planner="scalar", ledger=led_s,
    )
    table_ref, state_ref = run_table(
        env, queries, ADEQUATE_MEMORY_CONFIGS, policies,
        planner="scalar", engine="scalar",
    )
    assert_tables_identical(table_s, table_b)
    assert_tables_close(table_ref, table_b)
    assert state_s == state_b == state_ref
    assert run_ledger_shape(led_s.records) == run_ledger_shape(led_b.records)
    assert {
        r["planner"] for r in led_s.records if r["event"] == "plan"
    } == {"scalar"}


# ----------------------------------------------------------------------
# Hypothesis: random workloads over random datasets
# ----------------------------------------------------------------------
@given(small_envs(), window_workloads())
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_hypothesis_random_windows(hyp_env, queries):
    assert_engine_differential(hyp_env, queries, ADEQUATE_MEMORY_CONFIGS)


@given(small_envs(), nn_workloads())
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_hypothesis_random_nn_batches(hyp_env, queries):
    assert_engine_differential(hyp_env, queries, NN_CONFIGS)
