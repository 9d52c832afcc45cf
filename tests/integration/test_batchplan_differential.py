"""Differential suite: batched multi-query planner vs the scalar walk.

The batched planner's contract is *bit-for-bit* reproduction of the scalar
path: identical candidate sets, answer ids, step costs (which embed the
OpCounter tallies priced through the replayed cache verdicts) and identical
simulated cache state left behind in the environment.  Every test here
plans the same workload both ways and asserts
:func:`repro.core.batchplan.plans_equal` plus cache-state equality.

Covers the fig4 (point), fig5 (range) and fig6 (NN) workload shapes, all
query kinds mixed in one workload, empty-result and degenerate windows,
and hypothesis-generated windows over a random dataset.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.figures import POINT_NN_CONFIGS
from repro.core.batchplan import plan_workload_batched, plans_equal
from repro.core.executor import Environment, plan_query
from repro.core.queries import KNNQuery, NNQuery, PointQuery, RangeQuery
from repro.core.schemes import ADEQUATE_MEMORY_CONFIGS, Scheme, SchemeConfig
from repro.data import tiger
from repro.data.model import SegmentDataset
from repro.data.workloads import knn_queries, nn_queries, point_queries, range_queries
from repro.sim import cache
from repro.spatial.mbr import MBR

NN_CONFIGS = (
    SchemeConfig(Scheme.FULLY_CLIENT),
    SchemeConfig(Scheme.FULLY_SERVER, data_at_client=True),
)

#: Configurations valid for every query kind (used by the mixed workload).
UNIVERSAL_CONFIGS = (
    SchemeConfig(Scheme.FULLY_CLIENT),
    SchemeConfig(Scheme.FULLY_SERVER, data_at_client=True),
)


@pytest.fixture(scope="module")
def env() -> Environment:
    return Environment.create(tiger.pa_dataset(scale=0.05))


def _cache_state(env: Environment):
    """Everything the planner mutates in the environment's simulators."""
    client = env.client_cpu.dcache
    server = env.server_cpu.l1
    return (
        client.hits, client.misses, [list(s) for s in client._sets],
        server.hits, server.misses, [list(s) for s in server._sets],
    )


def _assert_differential(env, queries, configs):
    """Plan both ways from cold caches; demand full equality."""
    scalar_grid = []
    for cfg in configs:
        env.reset_caches()
        scalar_grid.append([plan_query(q, cfg, env) for q in queries])
    scalar_state = _cache_state(env)

    batched_grid = plan_workload_batched(env, queries, configs)
    batched_state = _cache_state(env)

    assert len(batched_grid) == len(scalar_grid)
    for b, s in zip(batched_grid, scalar_grid):
        assert plans_equal(b, s)
    assert batched_state == scalar_state


# ----------------------------------------------------------------------
# The three paper workload shapes
# ----------------------------------------------------------------------
def test_fig4_point_workload(env):
    _assert_differential(
        env, point_queries(env.dataset, 30, seed=4), POINT_NN_CONFIGS
    )


def test_fig5_range_workload(env):
    _assert_differential(
        env, range_queries(env.dataset, 30, seed=5), ADEQUATE_MEMORY_CONFIGS
    )


def test_fig6_nn_workload(env):
    _assert_differential(
        env, nn_queries(env.dataset, 30, seed=6), NN_CONFIGS
    )


def test_knn_workload(env):
    _assert_differential(
        env, knn_queries(env.dataset, 30, seed=7), NN_CONFIGS
    )


def test_mixed_query_kinds_one_workload(env):
    ds = env.dataset
    mixed = (
        point_queries(ds, 5, seed=21)
        + range_queries(ds, 5, seed=22)
        + nn_queries(ds, 5, seed=23)
        + knn_queries(ds, 5, seed=25)
        + point_queries(ds, 5, seed=24)
    )
    _assert_differential(env, mixed, UNIVERSAL_CONFIGS)


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------
def test_empty_result_windows(env):
    ext = env.dataset.extent
    off = ext.width + ext.height
    queries = [
        # Far outside the extent: zero candidates, zero answers.
        RangeQuery(MBR(ext.xmax + off, ext.ymax + off,
                       ext.xmax + 2 * off, ext.ymax + 2 * off)),
        # A miss point query in the same dead corner.
        PointQuery(ext.xmax + off, ext.ymax + off),
        # A normal window after the empties (cache state must still match).
        RangeQuery(MBR(ext.xmin, ext.ymin,
                       ext.xmin + ext.width / 3, ext.ymin + ext.height / 3)),
    ]
    _assert_differential(env, queries, ADEQUATE_MEMORY_CONFIGS[:2])


def test_degenerate_windows(env):
    ext = env.dataset.extent
    cx = (ext.xmin + ext.xmax) / 2.0
    cy = (ext.ymin + ext.ymax) / 2.0
    queries = [
        RangeQuery(MBR(cx, cy, cx, cy)),  # zero-area point window
        RangeQuery(MBR(ext.xmin, cy, ext.xmax, cy)),  # zero-height slab
        RangeQuery(MBR(cx, ext.ymin, cx, ext.ymax)),  # zero-width slab
        RangeQuery(MBR(ext.xmin, ext.ymin, ext.xmax, ext.ymax)),  # everything
    ]
    _assert_differential(env, queries, ADEQUATE_MEMORY_CONFIGS)


def test_single_query_workload(env):
    _assert_differential(
        env, range_queries(env.dataset, 1, seed=9), ADEQUATE_MEMORY_CONFIGS
    )


def test_knn_k_exceeds_dataset():
    """k past the dataset size: every plan returns the whole dataset."""
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
    _assert_differential(small, queries, NN_CONFIGS)


def test_nn_distance_ties_colocated_segments():
    """Duplicated segments tie exactly in distance; tie-break replay and
    the answer order (distance, then id) must both survive batching."""
    rng = np.random.default_rng(42)
    cx = rng.uniform(0, 200, 40)
    cy = rng.uniform(0, 200, 40)
    x1 = np.concatenate([cx, cx[:15]])
    y1 = np.concatenate([cy, cy[:15]])
    x2 = np.concatenate([cx + 5.0, cx[:15] + 5.0])
    y2 = np.concatenate([cy + 5.0, cy[:15] + 5.0])
    dup = Environment.create(SegmentDataset("dup", x1, y1, x2, y2))
    queries = [
        KNNQuery(float(x), float(y), k=int(k))
        for x, y, k in zip(
            rng.uniform(0, 200, 12), rng.uniform(0, 200, 12),
            rng.integers(1, 20, 12),
        )
    ]
    _assert_differential(dup, queries, NN_CONFIGS)


def test_nn_query_points_on_endpoints(env):
    """Query points lying exactly on segment endpoints (zero distances)."""
    ds = env.dataset
    idx = [0, 7, 19, 101]
    queries = [NNQuery(float(ds.x1[i]), float(ds.y1[i])) for i in idx]
    queries += [KNNQuery(float(ds.x2[i]), float(ds.y2[i]), k=3) for i in idx]
    _assert_differential(env, queries, NN_CONFIGS)


def test_replay_without_a_compiler(env, monkeypatch, tmp_path):
    """Without a C compiler the replay warns once and runs through
    CacheSim: the plans and cache states are still the scalar path's."""
    monkeypatch.setenv("HOME", str(tmp_path))  # no cached library
    monkeypatch.setattr(cache, "_kernel_fn", None)
    monkeypatch.setattr(shutil, "which", lambda name: None)
    ds = env.dataset
    with pytest.warns(RuntimeWarning, match="CacheSim") as record:
        _assert_differential(
            env, range_queries(ds, 8, seed=71), ADEQUATE_MEMORY_CONFIGS
        )
        _assert_differential(
            env, nn_queries(ds, 4, seed=72) + knn_queries(ds, 4, seed=73), NN_CONFIGS
        )
    assert sum("lru.c" in str(w.message) for w in record) == 1


# ----------------------------------------------------------------------
# Hypothesis: random windows over a random dataset
# ----------------------------------------------------------------------
@st.composite
def small_envs(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31))
    n = draw(st.integers(min_value=5, max_value=80))
    rng = np.random.default_rng(seed)
    cx = rng.uniform(0, 1000, n)
    cy = rng.uniform(0, 1000, n)
    dx = rng.normal(0, 20.0, n)
    dy = rng.normal(0, 20.0, n)
    ds = SegmentDataset("hyp", cx - dx, cy - dy, cx + dx, cy + dy)
    return Environment.create(ds)


@st.composite
def window_workloads(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    queries = []
    for _ in range(k):
        x1, x2 = sorted((draw(st.floats(-100, 1100)),
                         draw(st.floats(-100, 1100))))
        y1, y2 = sorted((draw(st.floats(-100, 1100)),
                         draw(st.floats(-100, 1100))))
        queries.append(RangeQuery(MBR(x1, y1, x2, y2)))
    return queries


@st.composite
def nn_workloads(draw):
    """Mixed NN/k-NN batches, k occasionally past any dataset size."""
    k = draw(st.integers(min_value=1, max_value=6))
    queries = []
    for _ in range(k):
        x = draw(st.floats(-100, 1100))
        y = draw(st.floats(-100, 1100))
        if draw(st.booleans()):
            queries.append(NNQuery(x, y))
        else:
            queries.append(KNNQuery(x, y, k=draw(st.integers(1, 100))))
    return queries


@given(small_envs(), window_workloads())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_hypothesis_random_windows(hyp_env, queries):
    _assert_differential(hyp_env, queries, ADEQUATE_MEMORY_CONFIGS)


@given(small_envs(), nn_workloads())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_hypothesis_random_nn_batches(hyp_env, queries):
    _assert_differential(hyp_env, queries, NN_CONFIGS)
