"""Differential suite: semantic-cached planning vs the uncached planner.

:func:`repro.core.semcache.compute_query_phases_semantic` promises answers
**bit-identical** to uncached planning with op tallies that reflect the
saved traversal work exactly, and the batched and scalar semantic paths
promise to agree with each other bit for bit.  Every test here runs one
workload through :func:`tests.integration.oracles.
assert_semcache_differential`, which pins all of that — cold cache, warm
cache, scalar twin, priced energies to 1e-9 — in one call.

Covers the fig4/5/6/7 workload shapes, all four query kinds (NN/k-NN
route through the ordinary planner and must be untouched by the cache),
the locality browse workload the cache is built for, hand-built
hit/contain/cover window relations, lossy-link policies, eviction churn
at tiny capacities, and the capacity-0 degenerate (bit-identical to
uncached, including simulator state).
"""

from __future__ import annotations

import pytest

from repro.core.executor import Environment, Policy
from repro.core.queries import PointQuery, RangeQuery
from repro.core.schemes import ADEQUATE_MEMORY_CONFIGS, Scheme, SchemeConfig
from repro.data import tiger
from repro.data.workloads import (
    knn_queries,
    locality_workload,
    nn_queries,
    point_queries,
    range_queries,
)
from repro.spatial.mbr import MBR
from tests.integration.oracles import assert_semcache_differential

NN_CONFIGS = (
    SchemeConfig(Scheme.FULLY_CLIENT),
    SchemeConfig(Scheme.FULLY_SERVER, data_at_client=True),
)

#: One ideal-channel policy plus one lossy-link policy — enough to pin the
#: priced energies of cached plans on both channel models.
POLICIES = (Policy(), tuple(Policy.sweep(loss_rates=(0.05,)))[0])


@pytest.fixture(scope="module")
def env() -> Environment:
    return Environment.create(tiger.pa_dataset(scale=0.05))


@pytest.fixture(scope="module")
def nyc_env() -> Environment:
    return Environment.create(tiger.nyc_dataset(scale=0.05))


# ----------------------------------------------------------------------
# The paper workload shapes
# ----------------------------------------------------------------------
def test_fig4_point_workload(env):
    from repro.bench.figures import POINT_NN_CONFIGS

    assert_semcache_differential(
        env, point_queries(env.dataset, 12, seed=4), POINT_NN_CONFIGS,
        POLICIES,
    )


def test_fig5_range_workload(env):
    assert_semcache_differential(
        env, range_queries(env.dataset, 12, seed=5),
        ADEQUATE_MEMORY_CONFIGS, POLICIES,
    )


def test_fig6_nn_workload(env):
    assert_semcache_differential(
        env, nn_queries(env.dataset, 12, seed=6), NN_CONFIGS, POLICIES
    )


def test_fig7_nyc_range_workload(nyc_env):
    assert_semcache_differential(
        nyc_env, range_queries(nyc_env.dataset, 12, seed=7),
        ADEQUATE_MEMORY_CONFIGS, POLICIES,
    )


def test_knn_workload(env):
    assert_semcache_differential(
        env, knn_queries(env.dataset, 12, seed=8), NN_CONFIGS, POLICIES
    )


def test_mixed_query_kinds_one_workload(env):
    ds = env.dataset
    mixed = (
        point_queries(ds, 4, seed=21)
        + range_queries(ds, 4, seed=22)
        + nn_queries(ds, 4, seed=23)
        + knn_queries(ds, 4, seed=25)
    )
    assert_semcache_differential(env, mixed, NN_CONFIGS, POLICIES)


# ----------------------------------------------------------------------
# The cache's target workload and hand-built verdict shapes
# ----------------------------------------------------------------------
def test_locality_workload(env):
    assert_semcache_differential(
        env, locality_workload(env.dataset, 8, 2, seed=31), NN_CONFIGS,
        POLICIES,
    )


def test_repeat_nest_and_cover_windows(env):
    """Exact repeats, nested zooms, and a slab cover in one sequence."""
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
        RangeQuery(outer),            # exact repeat -> hit
        RangeQuery(inner),            # nested -> contain refine
        PointQuery(inner.xmin, inner.ymin),  # degenerate window in outer
        RangeQuery(left),
        RangeQuery(right),
        RangeQuery(spanning),         # covered by left|right -> cover
        RangeQuery(inner),            # repeat of a refined window -> hit
    ]
    assert_semcache_differential(env, queries, NN_CONFIGS, POLICIES)


# ----------------------------------------------------------------------
# Eviction churn and the disabled degenerate
# ----------------------------------------------------------------------
def test_tiny_capacity_eviction_churn(env):
    assert_semcache_differential(
        env,
        locality_workload(env.dataset, 8, 2, seed=33),
        NN_CONFIGS,
        POLICIES,
        capacity=2,
    )


def test_capacity_zero_is_uncached(env):
    """Capacity 0 never serves: the oracle's bit-identity leg must fire."""
    assert_semcache_differential(
        env,
        range_queries(env.dataset, 10, seed=13),
        ADEQUATE_MEMORY_CONFIGS,
        POLICIES,
        capacity=0,
    )
