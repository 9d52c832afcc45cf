"""Batched grid pricer vs the scalar oracle, plan cache, ledger."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import MBPS, NetworkConfig
from repro.core.executor import Environment, Policy, plan_query, price_plan
from repro.core.gridrun import (
    PlanCache,
    RunLedger,
    compile_plan,
    dataset_fingerprint,
    framing_key,
    price_grid,
    price_workload_grid,
    read_ledger,
    scheme_key,
    workload_key,
)
from repro.core.schemes import ADEQUATE_MEMORY_CONFIGS, Scheme, SchemeConfig
from repro.data import tiger
from repro.data.workloads import nn_queries, point_queries, range_queries

FS = SchemeConfig(Scheme.FULLY_SERVER, data_at_client=True)


@pytest.fixture(scope="module")
def grid_env(pa_small, pa_small_tree) -> Environment:
    """Module-shared environment (hypothesis needs a stable fixture)."""
    return Environment.create(pa_small, tree=pa_small_tree)


@pytest.fixture(scope="module")
def plan_pool(grid_env):
    """A mixed pool of plans: every scheme, every query kind."""
    ds = grid_env.dataset
    pool = []
    for qs in (
        range_queries(ds, 3, seed=11),
        point_queries(ds, 2, seed=12),
        nn_queries(ds, 2, seed=13),
    ):
        for cfg in ADEQUATE_MEMORY_CONFIGS:
            if qs[0].kind.value.startswith("n") and cfg.scheme in (
                Scheme.FILTER_CLIENT_REFINE_SERVER,
                Scheme.FILTER_SERVER_REFINE_CLIENT,
            ):
                continue
            grid_env.reset_caches()
            pool.extend(plan_query(q, cfg, grid_env) for q in qs)
    return pool


def _policy(bw_mbps, dist, nic_sleep, busy, low, mtu, loss, burst, retx_t0):
    return Policy(
        network=NetworkConfig(
            bandwidth_bps=bw_mbps * MBPS,
            distance_m=dist,
            mtu_bytes=mtu,
            loss_rate=loss,
            loss_burst_frames=burst,
            retx_timeout_s=retx_t0,
        ),
        nic_sleep=nic_sleep,
        busy_wait=busy,
        cpu_lowpower=low,
    )


policy_strategy = st.builds(
    _policy,
    bw_mbps=st.floats(min_value=0.05, max_value=30.0, allow_nan=False),
    dist=st.floats(min_value=1.0, max_value=5000.0, allow_nan=False),
    nic_sleep=st.booleans(),
    busy=st.booleans(),
    low=st.booleans(),
    mtu=st.sampled_from([576, 1500, 2272]),
    loss=st.one_of(
        st.just(0.0), st.floats(min_value=0.0, max_value=0.5, allow_nan=False)
    ),
    burst=st.one_of(
        st.none(), st.floats(min_value=1.0, max_value=12.0, allow_nan=False)
    ),
    retx_t0=st.floats(min_value=0.0, max_value=0.1, allow_nan=False),
)


def _assert_cell_matches(ref, got, rel=1e-9):
    for name in ("processor", "nic_tx", "nic_rx", "nic_idle", "nic_sleep"):
        assert math.isclose(
            getattr(got.energy, name),
            getattr(ref.energy, name),
            rel_tol=rel,
            abs_tol=1e-12,
        ), name
    for name in ("processor", "nic_tx", "nic_rx", "wait"):
        assert math.isclose(
            getattr(got.cycles, name),
            getattr(ref.cycles, name),
            rel_tol=rel,
            abs_tol=1e-12,
        ), name
    assert math.isclose(
        got.wall_seconds, ref.wall_seconds, rel_tol=rel, abs_tol=1e-12
    )
    for name in ("retx_tx_frames", "retx_rx_frames", "backoff_s"):
        assert math.isclose(
            getattr(got.loss, name),
            getattr(ref.loss, name),
            rel_tol=rel,
            abs_tol=1e-12,
        ), name
    assert got.messages == ref.messages
    assert np.array_equal(got.answer_ids, ref.answer_ids)


class TestBatchedMatchesScalar:
    @settings(max_examples=30, deadline=None)
    @given(
        policies=st.lists(policy_strategy, min_size=1, max_size=4),
        data=st.data(),
    )
    def test_property_grid_equals_oracle(
        self, grid_env, plan_pool, policies, data
    ):
        """Every cell of a randomized (plans x policies) grid matches the
        scalar ``price_plan`` within 1e-9 relative tolerance."""
        idx = data.draw(
            st.lists(
                st.integers(0, len(plan_pool) - 1),
                min_size=1,
                max_size=5,
                unique=True,
            )
        )
        plans = [plan_pool[i] for i in idx]
        grid = price_grid(plans, policies, grid_env)
        assert grid.shape == (len(plans), len(policies))
        for i, plan in enumerate(plans):
            for j, pol in enumerate(policies):
                ref = price_plan(plan, grid_env, pol)
                _assert_cell_matches(ref, grid.result(i, j))

    def test_workload_sum_matches_oracle_sum(self, grid_env, plan_pool):
        plans = plan_pool[:6]
        policies = Policy.sweep()
        results = price_workload_grid(plans, policies, grid_env)
        for j, pol in enumerate(policies):
            ref_e = sum(
                price_plan(p, grid_env, pol).energy.total() for p in plans
            )
            assert results[j].energy.total() == pytest.approx(ref_e, rel=1e-9)

    def test_dwell_energy_consistent(self, grid_env, plan_pool):
        """Per-state dwell joules re-sum to the energy buckets."""
        grid = price_grid(plan_pool[:4], [Policy()], grid_env)
        d = grid.dwell(0)
        r = grid.combine_policy(0)
        assert d.transmit_j == pytest.approx(r.energy.nic_tx)
        assert d.idle_j == pytest.approx(r.energy.nic_idle)
        assert d.total_seconds() == pytest.approx(r.wall_seconds)

    def test_compile_reused_across_framings(self, grid_env, plan_pool):
        """Policies sharing a wire framing share compiled plans."""
        cache: dict = {}
        pols = [Policy(), Policy(nic_sleep=False), Policy(busy_wait=True)]
        price_grid(plan_pool[:3], pols, grid_env, compile_cache=cache)
        assert len(cache) == 3  # one entry per plan, single framing
        other = Policy(network=NetworkConfig(mtu_bytes=576))
        price_grid(plan_pool[:3], pols + [other], grid_env, compile_cache=cache)
        assert len(cache) == 6  # second framing recompiles each plan

    def test_empty_inputs_rejected(self, grid_env, plan_pool):
        with pytest.raises(ValueError):
            price_grid([], [Policy()], grid_env)
        with pytest.raises(ValueError):
            price_grid(plan_pool[:1], [], grid_env)

    def test_compiled_wait_matches_oracle(self, grid_env, plan_pool):
        c = compile_plan(plan_pool[0], grid_env, Policy().network)
        assert c.wait_s == c.idle_wait_s + c.sleep_wait_s
        assert framing_key(Policy().network) == framing_key(
            Policy().with_bandwidth(11 * MBPS).network
        )


class TestPlanCache:
    def test_same_workload_and_scheme_hits(self, grid_env):
        qs = range_queries(grid_env.dataset, 3, seed=21)
        fp = dataset_fingerprint(grid_env.dataset)
        cache = PlanCache()
        assert cache.get(fp, qs, FS) is None
        grid_env.reset_caches()
        plans = [plan_query(q, FS, grid_env) for q in qs]
        cache.put(fp, qs, FS, plans)
        assert cache.get(fp, qs, FS) is plans
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_different_scheme_misses(self, grid_env):
        qs = range_queries(grid_env.dataset, 2, seed=22)
        fp = dataset_fingerprint(grid_env.dataset)
        cache = PlanCache()
        cache.put(fp, qs, FS, [])
        other = SchemeConfig(Scheme.FULLY_CLIENT)
        assert cache.get(fp, qs, other) is None
        assert scheme_key(FS) != scheme_key(other)

    def test_mutated_dataset_misses(self):
        ds_a = tiger.pa_dataset(scale=0.01, seed=5)
        ds_b = tiger.pa_dataset(scale=0.01, seed=5)
        assert dataset_fingerprint(ds_a) == dataset_fingerprint(ds_b)
        qs = range_queries(ds_a, 2, seed=23)
        cache = PlanCache()
        cache.put(dataset_fingerprint(ds_a), qs, FS, ["sentinel"])
        ds_b.x1[0] += 1.0  # a single moved vertex must invalidate
        assert dataset_fingerprint(ds_a) != dataset_fingerprint(ds_b)
        assert cache.get(dataset_fingerprint(ds_b), qs, FS) is None

    def test_workload_order_matters(self, grid_env):
        qs = range_queries(grid_env.dataset, 3, seed=24)
        assert workload_key(qs) != workload_key(list(reversed(qs)))

    def test_lru_eviction(self):
        cache = PlanCache(max_entries=2)
        for i in range(3):
            cache.put(f"fp{i}", [], FS, [i])
        assert len(cache) == 2
        assert cache.get("fp0", [], FS) is None  # evicted
        assert cache.get("fp2", [], FS) == [2]

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(max_entries=0)


class TestRunLedger:
    def test_round_trip_and_timing(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunLedger(path=path) as ledger:
            ledger.record("note", msg="hello")
            with ledger.timed("bench", name="x") as extra:
                extra["cells"] = 7
            assert len(ledger.records) == 2
        records = read_ledger(path)
        assert [r["event"] for r in records] == ["note", "bench"]
        assert records[1]["cells"] == 7
        assert records[1]["seconds"] >= 0.0
        assert all("t" in r for r in records)

    def test_in_memory_only(self):
        ledger = RunLedger()
        ledger.record("note", k=1)
        ledger.close()
        assert ledger.records[0]["k"] == 1

    def test_appends_to_existing_file(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunLedger(path=path) as ledger:
            ledger.record("note", run=1)
        with RunLedger(path=path) as ledger:
            ledger.record("note", run=2)
        assert [r["run"] for r in read_ledger(path)] == [1, 2]
