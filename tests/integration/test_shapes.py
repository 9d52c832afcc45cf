"""The paper's qualitative results, asserted at full dataset scale.

Each test pins one of the evaluation section's claims (DESIGN.md section 4
lists them).  These run on the full PA/NYC datasets because the crossover
bandwidths only emerge at published cardinality; everything here is still
fast (plans are built once and re-priced per bandwidth).
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.constants import BANDWIDTHS_MBPS, DEFAULT_CLIENT, MBPS, MHZ
from repro.core.executor import Environment, Policy
from repro.core.schemes import ADEQUATE_MEMORY_CONFIGS, Scheme, SchemeConfig
from repro.data.workloads import (
    nn_queries,
    point_queries,
    proximity_sequence,
    range_queries,
)
from repro.sim.cpu import ClientCPU

FC = SchemeConfig(Scheme.FULLY_CLIENT)
FS_ABSENT = SchemeConfig(Scheme.FULLY_SERVER, data_at_client=False)
FS_PRESENT = SchemeConfig(Scheme.FULLY_SERVER, data_at_client=True)
FC_RS = SchemeConfig(Scheme.FILTER_CLIENT_REFINE_SERVER, data_at_client=True)
FC_RS_ABSENT = SchemeConfig(Scheme.FILTER_CLIENT_REFINE_SERVER, data_at_client=False)
FS_RC = SchemeConfig(Scheme.FILTER_SERVER_REFINE_CLIENT, data_at_client=True)


def _by_bw(cells):
    return {c.bandwidth_mbps: c for c in cells}


@pytest.fixture(scope="module")
def range_sweep_pa(pa_full_env, pa_full):
    qs = range_queries(pa_full, 100)
    return Session(pa_full_env).run(
        qs, schemes=ADEQUATE_MEMORY_CONFIGS
    ).by_scheme()


class TestFig4PointQueries:
    """Point queries: partitioning never pays (paper section 6.1.1)."""

    @pytest.fixture(scope="class")
    def sweep(self, pa_full_env, pa_full):
        qs = point_queries(pa_full, 100)
        configs = [FC, FS_ABSENT, FC_RS_ABSENT, FS_RC]
        return Session(pa_full_env).run(qs, schemes=configs).by_scheme()

    def test_fully_client_wins_energy_everywhere(self, sweep):
        fc = sweep[FC.label][0].energy_j
        for cfg in (FS_ABSENT, FC_RS_ABSENT, FS_RC):
            for cell in sweep[cfg.label]:
                assert cell.energy_j > fc, f"{cfg.label} @ {cell.bandwidth_mbps}"

    def test_fully_client_wins_cycles_everywhere(self, sweep):
        fc = sweep[FC.label][0].cycles
        for cfg in (FS_ABSENT, FC_RS_ABSENT, FS_RC):
            for cell in sweep[cfg.label]:
                assert cell.cycles > fc, f"{cfg.label} @ {cell.bandwidth_mbps}"

    def test_schemes_roughly_equal(self, sweep):
        """'we do not find any significant differences between them'."""
        for bw_idx in range(len(BANDWIDTHS_MBPS)):
            es = [
                sweep[cfg.label][bw_idx].energy_j
                for cfg in (FS_ABSENT, FC_RS_ABSENT, FS_RC)
            ]
            assert max(es) < 2.0 * min(es)

    def test_tx_dominates_energy(self, sweep):
        for cfg in (FS_ABSENT, FS_RC):
            for cell in sweep[cfg.label]:
                e = cell.result.energy
                assert e.nic_tx > 0.5 * e.total(), f"{cfg.label}"

    def test_monotone_decreasing_in_bandwidth(self, sweep):
        for cfg in (FS_ABSENT, FC_RS_ABSENT, FS_RC):
            es = [c.energy_j for c in sweep[cfg.label]]
            cs = [c.cycles for c in sweep[cfg.label]]
            assert es == sorted(es, reverse=True)
            assert cs == sorted(cs, reverse=True)


class TestFig5RangeQueriesPA:
    """Range queries on PA: partitioning pays, with metric-dependent winners."""

    def test_fs_present_wins_cycles_at_2mbps(self, range_sweep_pa):
        fc = _by_bw(range_sweep_pa[FC.label])
        fs = _by_bw(range_sweep_pa[FS_PRESENT.label])
        assert fs[2.0].cycles < fc[2.0].cycles

    def test_fs_present_energy_crossover_above_6mbps(self, range_sweep_pa):
        """'it takes over 6 Mbps before it becomes more energy-efficient'."""
        fc = _by_bw(range_sweep_pa[FC.label])
        fs = _by_bw(range_sweep_pa[FS_PRESENT.label])
        assert fs[2.0].energy_j > fc[2.0].energy_j
        assert fs[6.0].energy_j > fc[6.0].energy_j
        assert fs[11.0].energy_j < fc[11.0].energy_j

    def test_filter_client_cycles_crossover_near_4mbps(self, range_sweep_pa):
        """(b) 'beats the cycles of fully at client beyond 4 Mbps'."""
        fc = _by_bw(range_sweep_pa[FC.label])
        b = _by_bw(range_sweep_pa[FC_RS.label])
        assert b[2.0].cycles > fc[2.0].cycles
        assert b[6.0].cycles < fc[6.0].cycles

    def test_filter_client_energy_never_beats_fully_client(self, range_sweep_pa):
        """(b)'s candidate transmit is ruinous on energy at these bandwidths."""
        fc = _by_bw(range_sweep_pa[FC.label])
        b = _by_bw(range_sweep_pa[FC_RS.label])
        for bw in BANDWIDTHS_MBPS:
            assert b[bw].energy_j > fc[bw].energy_j

    def test_energy_and_performance_pick_different_hybrids(self, range_sweep_pa):
        """(b) wins cycles, (c) wins energy — at every bandwidth >= 4 Mbps."""
        b = _by_bw(range_sweep_pa[FC_RS.label])
        c = _by_bw(range_sweep_pa[FS_RC.label])
        for bw in (4.0, 6.0, 8.0, 11.0):
            assert b[bw].cycles < c[bw].cycles, f"@{bw}"
            assert c[bw].energy_j < b[bw].energy_j, f"@{bw}"

    def test_data_present_saves_more_cycles_than_energy(self, range_sweep_pa):
        """Keeping data at the client cuts only the receive leg; Tx power
        dominance means the relative cycle saving exceeds the energy one."""
        absent = _by_bw(range_sweep_pa[FS_ABSENT.label])
        present = _by_bw(range_sweep_pa[FS_PRESENT.label])
        for bw in BANDWIDTHS_MBPS:
            cycle_gain = absent[bw].cycles / present[bw].cycles
            energy_gain = absent[bw].energy_j / present[bw].energy_j
            assert cycle_gain > energy_gain > 1.0, f"@{bw}"

    def test_fs_absent_magnitudes_near_paper(self, range_sweep_pa):
        """Fig 5(a) left bars at 2 Mbps: ~2.5 J and ~1.3e9 cycles."""
        cell = _by_bw(range_sweep_pa[FS_ABSENT.label])[2.0]
        assert 1.5 < cell.energy_j < 3.5
        assert 0.9e9 < cell.cycles < 2.0e9

    def test_filter_client_tx_energy_near_paper(self, range_sweep_pa):
        """Fig 5(b) at 2 Mbps is ~9 J, almost all transmit."""
        cell = _by_bw(range_sweep_pa[FC_RS_ABSENT.label])[2.0]
        assert 6.0 < cell.energy_j < 13.0
        assert cell.result.energy.nic_tx > 0.7 * cell.energy_j


class TestFig6NNQueries:
    """NN queries behave like point queries (tiny selectivity)."""

    @pytest.fixture(scope="class")
    def sweep(self, pa_full_env, pa_full):
        qs = nn_queries(pa_full, 100)
        return Session(pa_full_env).run(qs, schemes=[FC, FS_PRESENT]).by_scheme()

    def test_fully_client_wins_both_metrics(self, sweep):
        fc = sweep[FC.label][0]
        for cell in sweep[FS_PRESENT.label]:
            assert cell.energy_j > fc.energy_j
            assert cell.cycles > fc.cycles


class TestFig7NYCSensitivity:
    """NYC: smaller filter selectivity -> smaller hybrid message volumes."""

    @pytest.fixture(scope="class")
    def sweeps(self, pa_full, nyc_full, range_sweep_pa):
        nyc_env = Environment.create(nyc_full)
        qs = range_queries(nyc_full, 100)
        nyc = Session(nyc_env).run(qs, schemes=ADEQUATE_MEMORY_CONFIGS).by_scheme()
        return range_sweep_pa, nyc

    def test_nyc_selectivity_below_pa(self, sweeps):
        pa, nyc = sweeps
        pa_cand = pa[FC.label][0].result.n_candidates
        nyc_cand = nyc[FC.label][0].result.n_candidates
        assert nyc_cand < pa_cand
        # ...but comparable in order of magnitude (paper's volumes are ~0.7x).
        assert nyc_cand > 0.25 * pa_cand

    def test_nyc_filter_client_tx_lower(self, sweeps):
        """'the transmission energy or cycles in Filtering-at-Client for
        NYC is lower than those for PA'."""
        pa, nyc = sweeps
        for bw_idx in range(len(BANDWIDTHS_MBPS)):
            assert (
                nyc[FC_RS.label][bw_idx].result.energy.nic_tx
                < pa[FC_RS.label][bw_idx].result.energy.nic_tx
            )
            assert (
                nyc[FC_RS.label][bw_idx].result.cycles.nic_tx
                < pa[FC_RS.label][bw_idx].result.cycles.nic_tx
            )

    def test_nyc_filter_server_rx_lower(self, sweeps):
        """'the receive energy or cycles in Filtering-at-Server is lower
        for NYC'."""
        pa, nyc = sweeps
        for bw_idx in range(len(BANDWIDTHS_MBPS)):
            assert (
                nyc[FS_RC.label][bw_idx].result.energy.nic_rx
                < pa[FS_RC.label][bw_idx].result.energy.nic_rx
            )

    def test_same_orderings_hold_on_nyc(self, sweeps):
        """'the trends are similar': the headline Fig 5 orderings."""
        _, nyc = sweeps
        fc = _by_bw(nyc[FC.label])
        fs = _by_bw(nyc[FS_PRESENT.label])
        b = _by_bw(nyc[FC_RS.label])
        c = _by_bw(nyc[FS_RC.label])
        assert fs[2.0].cycles < fc[2.0].cycles
        assert fs[2.0].energy_j > fc[2.0].energy_j
        for bw in (6.0, 8.0, 11.0):
            assert b[bw].cycles < c[bw].cycles
            assert c[bw].energy_j < b[bw].energy_j


class TestFig8ClientSpeed:
    """A faster client helps client-heavy schemes on time, not energy."""

    @pytest.fixture(scope="class")
    def envs(self, pa_full):
        slow = Environment.create(
            pa_full, client_cpu=ClientCPU(config=DEFAULT_CLIENT.with_clock(125 * MHZ))
        )
        fast = Environment.create(
            pa_full, client_cpu=ClientCPU(config=DEFAULT_CLIENT.with_clock(500 * MHZ))
        )
        return slow, fast

    def test_fully_client_time_shrinks_with_clock(self, envs, pa_full):
        slow, fast = envs
        qs = range_queries(pa_full, 30)
        slow_session, fast_session = Session(slow), Session(fast)
        rs = slow_session.price(slow_session.plan(qs, FC), Policy())[0]
        rf = fast_session.price(fast_session.plan(qs, FC), Policy())[0]
        assert rf.wall_seconds == pytest.approx(rs.wall_seconds / 4, rel=0.01)
        # Cycle counts are clock-invariant (Fig. 8 caption).
        assert rf.cycles.processor == pytest.approx(rs.cycles.processor, rel=1e-9)

    def test_energy_nearly_unchanged_by_clock(self, envs, pa_full):
        """'saving on performance with little impact on energy'."""
        slow, fast = envs
        qs = range_queries(pa_full, 30)
        slow_session, fast_session = Session(slow), Session(fast)
        for cfg in (FC, FS_PRESENT):
            rs = slow_session.price(slow_session.plan(qs, cfg), Policy())[0]
            rf = fast_session.price(fast_session.plan(qs, cfg), Policy())[0]
            # The paper: 'the overall energy is not significantly affected'.
            # Second-order effects (blocked power scales with clock, NIC
            # sleep time shrinks with compute time) move totals by ~15-20%.
            assert rf.energy.total() == pytest.approx(rs.energy.total(), rel=0.25)


class TestFig9Distance:
    """100 m vs 1 km: Tx-heavy schemes become far more competitive."""

    def test_tx_energy_scales_with_distance_power(self, pa_full_env, pa_full):
        qs = range_queries(pa_full, 30)
        session = Session(pa_full_env)
        plans = session.plan(qs, FC_RS)
        far, near = session.price(
            plans,
            [Policy().with_distance(1000.0), Policy().with_distance(100.0)],
        )
        assert far.energy.nic_tx / near.energy.nic_tx == pytest.approx(
            3.0891 / 1.0891, rel=1e-6
        )
        assert near.cycles.total() == pytest.approx(far.cycles.total(), rel=1e-9)

    def test_filter_client_becomes_energy_competitive_at_100m(
        self, pa_full_env, pa_full
    ):
        """At 1 km, (b) never beats fully-client energy; at 100 m it gets
        within striking distance at 11 Mbps (the paper: 'much more
        competitive')."""
        qs = range_queries(pa_full, 100)
        session = Session(pa_full_env)
        plans_b = session.plan(qs, FC_RS)
        plans_fc = session.plan(qs, FC)
        pol = Policy().with_bandwidth(11 * MBPS)
        b_far, b_near = session.price(
            plans_b, [pol.with_distance(1000.0), pol.with_distance(100.0)]
        )
        fc = session.price(plans_fc, pol)[0]
        ratio_far = b_far.energy.total() / fc.energy.total()
        ratio_near = b_near.energy.total() / fc.energy.total()
        assert ratio_near < ratio_far / 2


class TestFig10InsufficientMemory:
    """Cached client vs fully-at-server under a proximity workload."""

    @pytest.fixture(scope="class")
    def curves(self, pa_full):
        env = Environment.create(pa_full)
        api = Session(env)
        policy = Policy().with_bandwidth(11 * MBPS)
        out = {}
        for budget in (1 << 20, 2 << 20):
            rows = []
            for y in (0, 40, 80, 120, 160, 200):
                qs = proximity_sequence(pa_full, y=y, n_groups=1, seed=23)
                plans, session = api.plan_cached(qs, budget)
                client = api.price(plans, policy)[0]
                server_plans = api.plan(qs, FS_ABSENT)
                server = api.price(server_plans, policy)[0]
                rows.append((y, client, server, session))
            out[budget] = rows
        return out

    def _energy_crossover(self, rows):
        for y, client, server, _ in rows:
            if client.energy.total() < server.energy.total():
                return y
        return None

    def test_client_becomes_energy_efficient_beyond_threshold(self, curves):
        for budget, rows in curves.items():
            y0, client0, server0, _ = rows[0]
            assert client0.energy.total() > server0.energy.total()
            assert self._energy_crossover(rows) is not None, f"budget {budget}"

    def test_threshold_grows_with_buffer_size(self, curves):
        """Paper: 115 local queries at 1 MB -> 200 at 2 MB."""
        x1 = self._energy_crossover(curves[1 << 20])
        x2 = self._energy_crossover(curves[2 << 20])
        assert x1 is not None and x2 is not None
        assert x2 > x1

    def test_server_wins_cycles_across_the_spectrum(self, curves):
        """'fully at server is a clear winner across the spectrum for
        performance'."""
        for budget, rows in curves.items():
            for y, client, server, _ in rows:
                assert server.cycles.total() < client.cycles.total(), (
                    f"budget {budget}, y={y}"
                )

    def test_locality_actually_hits(self, curves):
        for budget, rows in curves.items():
            _, _, _, session = rows[-1]
            assert session.local_hits >= 190  # y=200 group mostly local
