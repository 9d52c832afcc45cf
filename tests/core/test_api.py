"""Session facade: engine/planner equivalence, validation, RunTable."""

from __future__ import annotations

import pytest

from repro.api import RunRow, RunTable, Session, SweepCell
from repro.constants import (
    BANDWIDTHS_MBPS,
    MBPS,
    NetworkConfig,
    NICPowerTable,
)
from repro.core.executor import WAIT_POLICIES, Policy
from repro.core.gridrun import RunLedger
from repro.core.batchplan import plans_equal
from repro.core.queries import KNNQuery
from repro.core.schemes import ADEQUATE_MEMORY_CONFIGS, Scheme, SchemeConfig
from repro.data.workloads import (
    knn_queries,
    nn_queries,
    proximity_sequence,
    range_queries,
)

FS = SchemeConfig(Scheme.FULLY_SERVER, data_at_client=True)
FC = SchemeConfig(Scheme.FULLY_CLIENT)
NAN = float("nan")
INF = float("inf")


class TestEngineEquivalence:
    """Scalar and batched planners/pricers stay interchangeable."""

    def test_serial_and_batched_planners_agree(self, env_small, pa_small):
        qs = range_queries(pa_small, 4, seed=31)
        session = Session(env_small)
        batched = session.plan(qs, FS)
        serial = Session(env_small).plan(qs, FS, planner="scalar")
        assert len(batched) == len(serial) == len(qs)
        assert plans_equal(batched, serial)

    def test_scalar_and_batched_engines_agree(self, env_small, pa_small):
        qs = range_queries(pa_small, 4, seed=31)
        session = Session(env_small)
        plans = session.plan(qs, FS)
        for policy in Policy.sweep():
            scalar = session.price(plans, policy, engine="scalar")[0]
            batched = session.price(plans, policy, engine="batched")[0]
            assert batched.energy.total() == pytest.approx(
                scalar.energy.total(), rel=1e-9
            )
            assert batched.cycles.total() == pytest.approx(
                scalar.cycles.total(), rel=1e-9
            )

    def test_run_matches_per_policy_scalar_pricing(self, env_small, pa_small):
        qs = range_queries(pa_small, 3, seed=32)
        configs = ADEQUATE_MEMORY_CONFIGS[:2]
        policies = [
            Policy().with_bandwidth(bw * MBPS) for bw in BANDWIDTHS_MBPS
        ]
        session = Session(env_small)
        table = session.run(qs, schemes=configs, policies=policies)
        cells = table.cells()
        assert set(cells) == {cfg.label for cfg in configs}
        for cfg in configs:
            plans = session.plan(qs, cfg)
            oracle = session.price(plans, policies, engine="scalar")
            for bw, cell, ref in zip(BANDWIDTHS_MBPS, cells[cfg.label], oracle):
                assert cell.bandwidth_mbps == bw
                assert cell.energy_j == pytest.approx(
                    ref.energy.total(), rel=1e-9
                )
                assert cell.cycles == pytest.approx(
                    ref.cycles.total(), rel=1e-9
                )

    def test_plan_cached_deterministic(self, env_small, pa_small):
        qs = proximity_sequence(pa_small, y=4, n_groups=2, seed=33)
        plans_a, cache_a = Session(env_small).plan_cached(qs, 256 * 1024)
        plans_b, cache_b = Session(env_small).plan_cached(qs, 256 * 1024)
        assert len(plans_a) == len(plans_b) == len(qs)
        assert cache_a.local_hits == cache_b.local_hits
        assert cache_a.misses == cache_b.misses


class TestPolicyConstruction:
    def test_sweep_default_is_paper_grid(self):
        policies = Policy.sweep()
        assert [p.network.bandwidth_bps / MBPS for p in policies] == list(
            BANDWIDTHS_MBPS
        )

    def test_sweep_custom_bandwidths_and_distances(self):
        policies = Policy.sweep(
            bandwidths_mbps=(2, 11), distances_m=(100.0, 1000.0)
        )
        assert len(policies) == 4
        assert {p.network.distance_m for p in policies} == {100.0, 1000.0}

    def test_sweep_wait_policies(self):
        for name, flags in WAIT_POLICIES.items():
            p = Policy.sweep(bandwidths_mbps=(2,), wait=name)[0]
            assert p.busy_wait == flags["busy_wait"]
            assert p.cpu_lowpower == flags["cpu_lowpower"]

    def test_unknown_wait_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown wait policy"):
            Policy().with_wait("spinny")
        with pytest.raises(ValueError, match="unknown wait policy"):
            Policy.sweep(wait="spinny")

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ValueError, match="bandwidth_bps"):
            NetworkConfig(bandwidth_bps=-2.0 * MBPS)
        with pytest.raises(ValueError, match="bandwidth_bps"):
            Policy().with_bandwidth(0.0)
        for bad in (NAN, INF):
            with pytest.raises(ValueError, match="bandwidth_bps"):
                NetworkConfig(bandwidth_bps=bad)
            with pytest.raises(ValueError, match="bandwidth_bps"):
                Policy().with_bandwidth(bad)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError, match="distance_m"):
            NetworkConfig(distance_m=-1.0)
        with pytest.raises(ValueError, match="distance_m"):
            Policy().with_distance(-5.0)
        for bad in (NAN, INF):
            with pytest.raises(ValueError, match="distance_m"):
                NetworkConfig(distance_m=bad)
            with pytest.raises(ValueError, match="distance_m"):
                Policy().with_distance(bad)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="transmit_1km_w"):
            NICPowerTable(transmit_1km_w=-1.5)
        with pytest.raises(ValueError, match="receive_w"):
            NICPowerTable(receive_w=-0.1)
        for name in ("transmit_1km_w", "transmit_100m_w", "receive_w",
                     "idle_w", "sleep_w", "sleep_exit_latency_s"):
            for bad in (NAN, INF):
                with pytest.raises(ValueError, match=name):
                    NICPowerTable(**{name: bad})

    @pytest.mark.parametrize(
        "field,bad",
        [
            ("retx_backoff", NAN),
            ("retx_backoff", INF),
            ("retx_timeout_s", NAN),
            ("retx_timeout_s", INF),
            ("retx_timeout_cap_s", NAN),
            ("retx_timeout_cap_s", INF),
            ("per_byte_instructions", NAN),
            ("per_byte_instructions", INF),
            ("mtu_bytes", True),
            ("mtu_bytes", 1500.0),
            ("tcp_header_bytes", True),
            ("per_frame_instructions", False),
        ],
    )
    def test_non_finite_and_bool_network_fields_rejected(self, field, bad):
        with pytest.raises(ValueError, match=field):
            NetworkConfig(**{field: bad})

    def test_keyword_only(self):
        with pytest.raises(TypeError):
            NetworkConfig(2.0 * MBPS)  # noqa: B026 - positional forbidden
        with pytest.raises(TypeError):
            NICPowerTable(1.5)
        with pytest.raises(TypeError):
            Policy(NetworkConfig())

    def test_policy_type_validation(self):
        with pytest.raises(TypeError):
            Policy(network="11mbps")
        with pytest.raises(TypeError):
            Policy(nic_sleep="yes")


class TestSessionRun:
    def test_run_table_shape_and_order(self, env_small, pa_small):
        qs = range_queries(pa_small, 2, seed=34)
        configs = [FC, FS]
        table = Session(env_small).run(qs, schemes=configs)
        assert isinstance(table, RunTable)
        assert len(table) == 2 * len(BANDWIDTHS_MBPS)
        assert table.schemes == [FC.label, FS.label]
        assert isinstance(table[0], RunRow)
        by_scheme = table.by_scheme()
        assert [r.bandwidth_mbps for r in by_scheme[FS.label]] == list(
            BANDWIDTHS_MBPS
        )

    def test_single_query_single_scheme_single_policy(self, env_small, pa_small):
        q = range_queries(pa_small, 1, seed=35)[0]
        table = Session(env_small).run(q, schemes=FS, policies=Policy())
        assert len(table) == 1
        assert table[0].energy_j > 0
        assert table[0].dwell is not None
        assert isinstance(table[0].cell(), SweepCell)

    def test_best_row(self, env_small, pa_small):
        qs = range_queries(pa_small, 2, seed=35)
        table = Session(env_small).run(qs, schemes=[FC, FS])
        best = table.best("energy_j")
        assert best.energy_j == min(r.energy_j for r in table)

    def test_ledger_events(self, env_small, pa_small):
        qs = range_queries(pa_small, 2, seed=37)
        ledger = RunLedger()
        session = Session(env_small, ledger=ledger)
        session.run(qs, schemes=FS, policies=Policy())
        events = [r["event"] for r in ledger.records]
        assert events == ["plan", "price", "run"]
        run_rec = ledger.records[-1]
        assert run_rec["scheme"] == FS.label
        assert "nic" in run_rec and "sleep_exits" in run_rec["nic"]
        assert run_rec["ops"]["results"] >= 0

    def test_bad_engine_rejected(self, env_small, pa_small):
        qs = range_queries(pa_small, 1, seed=38)
        session = Session(env_small)
        with pytest.raises(ValueError, match="unknown engine"):
            session.run(qs, schemes=FS, engine="quantum")
        with pytest.raises(ValueError, match="unknown engine"):
            session.price([], Policy(), engine="quantum")

    @pytest.mark.parametrize("planner,engine", [("batched", "batched"),
                                                ("scalar", "scalar")])
    def test_empty_workload_or_policies_rejected(self, env_small, pa_small,
                                                  planner, engine):
        qs = range_queries(pa_small, 1, seed=39)
        session = Session(env_small)
        kw = dict(schemes=FS, planner=planner, engine=engine)
        with pytest.raises(ValueError, match=r"run\(\).*query"):
            session.run([], policies=Policy(), **kw)
        with pytest.raises(ValueError, match=r"run\(\).*policy"):
            session.run(qs, policies=[], **kw)
        with pytest.raises(ValueError, match=r"run\(\).*scheme"):
            session.run(qs, schemes=[], policies=Policy())
        assert session.plan_grid([], FS) == [[]]

    def test_bad_source_rejected(self):
        with pytest.raises(TypeError, match="SegmentDataset or an Environment"):
            Session(42)

    def test_session_from_dataset(self, pa_small):
        session = Session(pa_small)
        assert session.dataset is pa_small
        assert session.env.dataset is pa_small


class TestNNWorkloads:
    """NN/k-NN workloads through the Session facade's batched planner."""

    def test_plan_grid_nn_knn_batched_vs_scalar(self, env_small, pa_small):
        qs = nn_queries(pa_small, 4, seed=51) + knn_queries(pa_small, 4, seed=52)
        schemes = [FC, FS]
        batched = Session(env_small).plan_grid(qs, schemes)
        scalar = Session(env_small).plan_grid(qs, schemes, planner="scalar")
        for b, s in zip(batched, scalar):
            assert plans_equal(b, s)

    def test_plan_single_knn_query(self, env_small):
        [plan] = Session(env_small).plan(KNNQuery(0.0, 0.0, k=5), FC)
        assert plan.n_results == 5

    def test_run_knn_grid(self, env_small, pa_small):
        qs = knn_queries(pa_small, 3, seed=53)
        table = Session(env_small).run(
            qs, schemes=[FC, FS], policies=Policy()
        )
        assert len(table) == 2
        assert all(r.energy_j > 0 for r in table)


class TestPlanMaterialization:
    """plan_grid's refusal of unknown planners."""

    def test_unknown_planner_still_generic_error(self, env_small, pa_small):
        qs = range_queries(pa_small, 1, seed=62)
        with pytest.raises(ValueError, match="unknown planner"):
            Session(env_small).plan_grid(qs, [FS], planner="magic")

    def test_cli_surfaces_allowed_planners(self, env_small, pa_small):
        from repro.api import PLANNERS

        qs = range_queries(pa_small, 1, seed=63)
        with pytest.raises(ValueError) as exc:
            Session(env_small).plan_grid(qs, [FS], planner="fused")
        assert PLANNERS == ("batched", "scalar")
        assert "'batched'" in str(exc.value) and "'scalar'" in str(exc.value)
