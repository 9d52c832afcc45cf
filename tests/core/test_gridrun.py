"""Batched grid pricer vs the scalar oracle, ledger."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import MBPS, NetworkConfig
from repro.core.broadcast import BroadcastClient, BroadcastSchedule
from repro.core.clientcache import ClientCacheSession
from repro.core.executor import (
    Environment,
    Policy,
    WaitStep,
    plan_query,
    price_plan,
)
from repro.core.freshness import FreshClientSession, UpdateStream
from repro.core.gridrun import (
    PlanColumns,
    RunLedger,
    _compile_for,
    framing_key,
    price_grid,
    read_ledger,
)
from repro.core.queries import RangeQuery
from repro.core.schemes import ADEQUATE_MEMORY_CONFIGS, Scheme
from repro.data.workloads import (
    knn_queries,
    nn_queries,
    point_queries,
    proximity_sequence,
    range_queries,
)
from repro.spatial.mbr import MBR
from tests.integration.oracles import _GRID_ARRAYS


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


@pytest.fixture(scope="module")
def mixed_batch(grid_env):
    """Plans of every step template the planners produce, in one batch.

    Every Table 1 configuration (data present and absent) over point,
    range, NN and k-NN queries; cached-client plans for a shipment, a local
    hit and a fully-at-server fallback; broadcast plans with sleeping and
    with listening waits; and a freshness version check.
    """
    ds = grid_env.dataset
    plans = []
    for qs in (
        point_queries(ds, 2, seed=31),
        range_queries(ds, 2, seed=32),
        nn_queries(ds, 2, seed=33),
        knn_queries(ds, 2, seed=34),
    ):
        for cfg in ADEQUATE_MEMORY_CONFIGS:
            if qs[0].kind.value.startswith("n") and cfg.scheme in (
                Scheme.FILTER_CLIENT_REFINE_SERVER,
                Scheme.FILTER_SERVER_REFINE_CLIENT,
            ):
                continue
            grid_env.reset_caches()
            plans.extend(plan_query(q, cfg, grid_env) for q in qs)
    cached = ClientCacheSession(grid_env, 256 * 1024)
    plans += cached.plan_sequence(proximity_sequence(ds, y=3, n_groups=2, seed=35))
    assert cached.misses and cached.local_hits
    tiny = ClientCacheSession(grid_env, 4 * 1024)
    plans.append(tiny.plan(RangeQuery(ds.extent)))
    assert tiny.fallbacks == 1
    schedule = BroadcastSchedule(grid_env, n_chunks=8)
    for air_index in (True, False):
        client = BroadcastClient(schedule, air_index=air_index)
        plans += client.plan_workload(range_queries(ds, 3, seed=36))
    # An empty answer under the air index sleeps to the index slot and
    # receives the index: the step types of a listening wait for a chunk,
    # told apart only by the wait's radio flag.
    e = ds.extent
    nowhere = RangeQuery(MBR(e.xmax + 1.0, e.ymax + 1.0, e.xmax + 2.0, e.ymax + 2.0))
    plans.append(BroadcastClient(schedule, air_index=True).plan(nowhere, phase_s=1.0))
    flags: dict = {}
    for p in plans:
        for s in p.steps:
            if isinstance(s, WaitStep):
                flags.setdefault(tuple(map(type, p.steps)), set()).add(s.radio_listening)
    assert {True, False} in flags.values()
    fresh = FreshClientSession(
        grid_env, 192 * 1024, UpdateStream(len(grid_env.tree.entry_ids), 0.5)
    )
    plans.append(fresh._verify_plan(point_queries(ds, 1, seed=37)[0]))
    return plans


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
        grid = price_grid(plans, policies, grid_env)
        for j, pol in enumerate(policies):
            ref_e = sum(
                price_plan(p, grid_env, pol).energy.total() for p in plans
            )
            assert grid.combine_policy(j).energy.total() == pytest.approx(
                ref_e, rel=1e-9
            )

    def test_dwell_energy_consistent(self, grid_env, plan_pool):
        """Per-state dwell joules re-sum to the energy buckets."""
        grid = price_grid(plan_pool[:4], [Policy()], grid_env)
        d = grid.dwell(0)
        r = grid.combine_policy(0)
        assert d.transmit_j == pytest.approx(r.energy.nic_tx)
        assert d.idle_j == pytest.approx(r.energy.nic_idle)
        assert d.total_seconds() == pytest.approx(r.wall_seconds)

    def test_empty_inputs_rejected(self, grid_env, plan_pool):
        with pytest.raises(ValueError):
            price_grid([], [Policy()], grid_env)
        with pytest.raises(ValueError):
            price_grid(plan_pool[:1], [], grid_env)

    def test_compiled_wait_matches_oracle(self, grid_env, mixed_batch):
        """The compiled wait columns are the scalar walk's wait seconds,
        split by whether the radio listens."""
        agg = _compile_for(
            PlanColumns.from_plans(mixed_batch), grid_env, Policy().network
        )
        clock = grid_env.client_cpu.clock_hz
        for i, plan in enumerate(mixed_batch):
            ref = price_plan(plan, grid_env, Policy())
            wait_s = agg.idle_wait_s[i] + agg.sleep_wait_s[i]
            assert wait_s * clock == pytest.approx(ref.cycles.wait, rel=1e-12)
            asleep = sum(
                s.seconds
                for s in plan.steps
                if isinstance(s, WaitStep) and not s.radio_listening
            )
            assert agg.sleep_wait_s[i] == asleep
        assert agg.sleep_wait_s.any() and agg.idle_wait_s.any()
        assert framing_key(Policy().network) == framing_key(
            Policy().with_bandwidth(11 * MBPS).network
        )

    def test_mixed_batch_matches_oracle_and_single_cells(
        self, grid_env, mixed_batch
    ):
        """Every cell of a batch mixing all step templates equals the
        scalar walk to 1e-9, and equals bit for bit the same plan priced
        alone under the same policy alone, whatever the order."""
        lossy = Policy().with_loss(0.05)
        small_mtu = Policy(network=NetworkConfig(mtu_bytes=576))
        policies = [
            Policy(),
            Policy(nic_sleep=False),
            Policy(busy_wait=True),
            lossy,
            small_mtu,
            Policy(network=small_mtu.network, nic_sleep=False, busy_wait=True),
            small_mtu.with_loss(0.05),
        ]
        grid = price_grid(mixed_batch, policies, grid_env)
        for i, plan in enumerate(mixed_batch):
            for j, pol in enumerate(policies):
                _assert_cell_matches(
                    price_plan(plan, grid_env, pol), grid.result(i, j)
                )
        cells = [(i, j) for i in range(len(mixed_batch)) for j in range(len(policies))]
        order = np.random.default_rng(7).permutation(len(cells))
        alone = {name: np.zeros_like(getattr(grid, name)) for name in _GRID_ARRAYS}
        for k in order:
            i, j = cells[k]
            single = price_grid([mixed_batch[i]], [policies[j]], grid_env)
            for name in _GRID_ARRAYS:
                alone[name][i, j] = getattr(single, name)[0, 0]
            assert single.result(0, 0).messages == grid.result(i, j).messages
        for name in _GRID_ARRAYS:
            assert np.array_equal(alone[name], getattr(grid, name)), name


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
