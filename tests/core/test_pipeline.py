"""Pipelined workload pricing (cross-query overlap)."""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.core.executor import Policy, price_plan
from repro.core.pipeline import (
    plan_and_price_pipelined,
    price_pipelined_workload,
)
from repro.core.schemes import Scheme, SchemeConfig
from repro.data.workloads import knn_queries, range_queries

FC = SchemeConfig(Scheme.FULLY_CLIENT)
FS_PRESENT = SchemeConfig(Scheme.FULLY_SERVER, data_at_client=True)
FS_RC = SchemeConfig(Scheme.FILTER_SERVER_REFINE_CLIENT, data_at_client=True)


class TestSchedule:
    def test_speedup_at_least_one(self, env_small, pa_small):
        qs = range_queries(pa_small, 10, seed=73)
        for cfg in (FC, FS_PRESENT, FS_RC):
            plans = Session(env_small).plan(qs, cfg)
            r = price_pipelined_workload(plans, env_small, Policy())
            assert r.speedup >= 1.0 - 1e-9, cfg.label

    def test_no_overlap_for_fully_client(self, env_small, pa_small):
        """A communication-free workload has one busy resource: no gain."""
        qs = range_queries(pa_small, 8, seed=73)
        plans = Session(env_small).plan(qs, FC)
        r = price_pipelined_workload(plans, env_small, Policy())
        assert r.speedup == pytest.approx(1.0, rel=1e-6)

    def test_overlap_helps_communication_schemes(self, env_small, pa_small):
        """Mixed CPU/NET schemes must overlap: wall < sequential."""
        qs = range_queries(pa_small, 10, seed=73)
        plans = Session(env_small).plan(qs, FS_RC)
        r = price_pipelined_workload(plans, env_small, Policy())
        assert r.speedup > 1.05

    def test_makespan_lower_bound(self, env_small, pa_small):
        """Wall time can never beat the busiest single resource."""
        qs = range_queries(pa_small, 10, seed=73)
        plans = Session(env_small).plan(qs, FS_PRESENT)
        r = price_pipelined_workload(plans, env_small, Policy())
        clock = env_small.client_cpu.clock_hz
        cpu_s = r.cycles.processor / clock
        net_s = (r.cycles.nic_tx + r.cycles.nic_rx) / clock
        assert r.wall_seconds >= max(cpu_s, net_s) - 1e-9

    def test_single_query_matches_sequential(self, env_small, pa_small):
        """One query has nothing to overlap with: wall times agree up to
        the sleep-exit latencies the sequential pricer charges."""
        q = range_queries(pa_small, 1, seed=73)[0]
        plans = Session(env_small).plan([q], FS_PRESENT)
        r = price_pipelined_workload(plans, env_small, Policy())
        seq = price_plan(plans[0], env_small, Policy())
        assert r.wall_seconds == pytest.approx(seq.wall_seconds, abs=2e-3)

    def test_empty_workload_raises(self, env_small):
        with pytest.raises(ValueError):
            price_pipelined_workload([], env_small, Policy())


class TestEnergy:
    def test_activity_energy_matches_sequential(self, env_small, pa_small):
        """Tx/Rx energy is schedule-invariant (same bits, same power)."""
        qs = range_queries(pa_small, 10, seed=73)
        plans = Session(env_small).plan(qs, FS_PRESENT)
        pipe = price_pipelined_workload(plans, env_small, Policy())
        seq_tx = seq_rx = 0.0
        for p in plans:
            r = price_plan(p, env_small, Policy())
            seq_tx += r.energy.nic_tx
            seq_rx += r.energy.nic_rx
        assert pipe.energy.nic_tx == pytest.approx(seq_tx, rel=0.02)
        assert pipe.energy.nic_rx == pytest.approx(seq_rx, rel=1e-6)

    def test_total_energy_close_to_sequential(self, env_small, pa_small):
        """Pipelining buys time, not energy: totals within ~20%."""
        qs = range_queries(pa_small, 10, seed=73)
        plans = Session(env_small).plan(qs, FS_PRESENT)
        pipe = price_pipelined_workload(plans, env_small, Policy())
        seq_total = sum(
            price_plan(p, env_small, Policy()).energy.total() for p in plans
        )
        assert pipe.energy.total() == pytest.approx(seq_total, rel=0.2)

    def test_buckets_nonnegative(self, env_small, pa_small):
        qs = range_queries(pa_small, 6, seed=73)
        plans = Session(env_small).plan(qs, FS_RC)
        r = price_pipelined_workload(plans, env_small, Policy())
        assert min(r.energy.as_dict().values()) >= 0.0
        assert min(r.cycles.as_dict().values()) >= 0.0


class TestNNPipeline:
    """k-NN workloads stream through the batched planner identically."""

    def test_knn_batched_matches_scalar_planner(self, env_small, pa_small):
        qs = knn_queries(pa_small, 6, seed=77)
        batched = plan_and_price_pipelined(env_small, qs, FS_PRESENT)
        scalar = plan_and_price_pipelined(
            env_small, qs, FS_PRESENT, planner="scalar"
        )
        assert batched.wall_seconds == scalar.wall_seconds
        assert batched.energy.total() == scalar.energy.total()

    def test_unknown_planner_raises(self, env_small, pa_small):
        with pytest.raises(ValueError, match="unknown planner"):
            plan_and_price_pipelined(
                env_small, range_queries(pa_small, 2), FC, planner="nope"
            )
