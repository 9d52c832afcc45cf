"""Differential suite: sharded planning vs the unsharded engines.

Every test routes one workload through
:func:`tests.integration.oracles.assert_shard_differential`, which pins
the shard store's batched path to the monolithic planners —
plans (steps, tallies, answer ids), priced grids bit for bit, scalar
energies to 1e-9, and simulator cache state — from cold caches.

Covers the fig4/5/6/7 workload shapes, mixed query kinds, the locality
browse workload pruning is built for, budget-limited residency over a
dataset larger than the budget (LRU spills mid-workload), composition
with the semantic cache and with the query service, and the ledger's
shard fields.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Engine, Session
from repro.core.executor import Environment, Policy
from repro.core.gridrun import RunLedger
from repro.core.schemes import ADEQUATE_MEMORY_CONFIGS, Scheme, SchemeConfig
from repro.core.shardstore import ShardConfig, ShardStore
from repro.data import tiger
from repro.data.workloads import (
    knn_queries,
    locality_workload,
    nn_queries,
    oversized_dataset,
    point_queries,
    range_queries,
)
from tests.integration.oracles import assert_shard_differential

NN_CONFIGS = (
    SchemeConfig(Scheme.FULLY_CLIENT),
    SchemeConfig(Scheme.FULLY_SERVER, data_at_client=True),
)

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

    assert_shard_differential(
        env, point_queries(env.dataset, 12, seed=4), POINT_NN_CONFIGS,
        POLICIES,
    )


def test_fig5_range_workload(env):
    assert_shard_differential(
        env, range_queries(env.dataset, 12, seed=5),
        ADEQUATE_MEMORY_CONFIGS, POLICIES,
    )


def test_fig6_nn_workload(env):
    assert_shard_differential(
        env, nn_queries(env.dataset, 12, seed=6), NN_CONFIGS, POLICIES
    )


def test_fig7_nyc_range_workload(nyc_env):
    assert_shard_differential(
        nyc_env, range_queries(nyc_env.dataset, 12, seed=7),
        ADEQUATE_MEMORY_CONFIGS, POLICIES,
    )


def test_knn_workload(env):
    assert_shard_differential(
        env, knn_queries(env.dataset, 10, seed=8), NN_CONFIGS, POLICIES
    )


def test_mixed_kinds_one_workload(env):
    work = (
        point_queries(env.dataset, 4, seed=1)
        + range_queries(env.dataset, 4, seed=2)
        + nn_queries(env.dataset, 3, seed=3)
        + knn_queries(env.dataset, 3, seed=4)
    )
    assert_shard_differential(env, work, ADEQUATE_MEMORY_CONFIGS[:2])


# ----------------------------------------------------------------------
# Locality: the workload pruning exists for
# ----------------------------------------------------------------------
def test_locality_workload_prunes_shards(env):
    stats = assert_shard_differential(
        env,
        locality_workload(env.dataset, 8, 2, seed=31),
        ADEQUATE_MEMORY_CONFIGS[:1],
        sharding=ShardConfig(n_shards=16),
    )
    assert stats["shards_pruned"] >= 1


def test_shard_count_sweep(env):
    work = range_queries(env.dataset, 8, seed=9)
    for n in (1, 3, 16):
        assert_shard_differential(
            env, work, ADEQUATE_MEMORY_CONFIGS[:1],
            sharding=ShardConfig(n_shards=n),
        )


# ----------------------------------------------------------------------
# Out-of-core: dataset larger than the residency budget
# ----------------------------------------------------------------------
def test_budget_limited_oversized_dataset():
    ds = oversized_dataset(10_000, seed=13)
    env = Environment.create(ds)
    probe = ShardStore.from_tree(env.tree, ShardConfig(n_shards=12))
    budget = int(probe._shard_nbytes.max()) * 2
    assert budget < int(probe._shard_nbytes.sum())
    work = (
        range_queries(ds, 10, seed=14)
        + nn_queries(ds, 4, seed=15)
        + point_queries(ds, 4, seed=16)
    )
    stats = assert_shard_differential(
        env, work, ADEQUATE_MEMORY_CONFIGS[:2],
        sharding=ShardConfig(
            n_shards=12, budget_bytes=budget, on_overflow="spill"
        ),
    )
    assert stats["shard_evictions"] > 0
    assert stats["resident_bytes"] <= budget


# ----------------------------------------------------------------------
# Composition with the API surface
# ----------------------------------------------------------------------
def test_session_sharding_matches_unsharded(env):
    work = range_queries(env.dataset, 10, seed=21)
    base = Session(Environment.create(env.dataset, tree=env.tree)).run(
        work, schemes=ADEQUATE_MEMORY_CONFIGS[:2]
    )
    sharded = Session(
        Environment.create(env.dataset, tree=env.tree),
        sharding=ShardConfig(n_shards=8),
    ).run(work, schemes=ADEQUATE_MEMORY_CONFIGS[:2])
    from repro.bench.e2ebench import tables_match

    ok, worst = tables_match(sharded, base, rel_tol=0.0)
    assert ok, f"sharded RunTable differs (worst rel err {worst:.3e})"


def test_session_rejects_sharding_on_engine_source(env):
    engine = Engine(Environment.create(env.dataset, tree=env.tree))
    with pytest.raises(TypeError, match="sharding"):
        Session(engine, sharding=ShardConfig(n_shards=4))


def test_semcache_composes_with_sharding(env):
    """Semantic-cached planning over a sharded engine stays bit-identical
    to the uncached unsharded baseline, repeats served from the cache."""
    from repro.core.batchplan import plan_workload_batched
    from repro.core.semcache import SemanticCache

    work = locality_workload(env.dataset, 6, 2, seed=41)
    env.reset_caches()
    base = plan_workload_batched(env, work, ADEQUATE_MEMORY_CONFIGS[:1])

    env_sh = Environment.create(env.dataset, tree=env.tree)
    env_sh.shard_store = ShardStore.from_tree(env.tree, ShardConfig(n_shards=8))
    cache = SemanticCache(256)
    got = plan_workload_batched(
        env_sh, work, ADEQUATE_MEMORY_CONFIGS[:1], semantic_cache=cache
    )
    for got_cfg, want_cfg in zip(got, base):
        for g, w in zip(got_cfg, want_cfg):
            assert np.array_equal(g.answer_ids, w.answer_ids)
    stats = cache.stats_dict()
    assert stats["hits"] + stats["refines"] > 0


def test_ledger_records_shard_fields(env):
    ledger = RunLedger()
    session = Session(
        Environment.create(env.dataset, tree=env.tree),
        sharding=ShardConfig(n_shards=8), ledger=ledger,
    )
    session.run(
        range_queries(env.dataset, 6, seed=51),
        schemes=ADEQUATE_MEMORY_CONFIGS[:1],
    )
    plans = [r for r in ledger.records if r.get("event") == "plan"]
    assert plans
    rec = plans[-1]
    assert rec["shards_total"] == 8
    assert 0 <= rec["shards_pruned"] < rec["shards_total"]
    assert rec["shards_pruned"] + rec["shards_touched"] == rec["shards_total"]
    from repro.bench.report import summarize_ledger

    text = summarize_ledger(ledger.records)
    assert "shards" in text and "pruned at plan time" in text
