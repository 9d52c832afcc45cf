"""Configuration tables: published values and internal consistency."""

from __future__ import annotations

import math

import pytest

from repro import constants as C


class TestSweepGrids:
    def test_bandwidths_match_paper(self):
        assert C.BANDWIDTHS_MBPS == (2.0, 4.0, 6.0, 8.0, 11.0)

    def test_clock_ratios_match_paper(self):
        assert C.CLIENT_CLOCK_RATIOS == (1 / 8, 1 / 4, 1 / 2, 1 / 1)

    def test_distances_match_paper(self):
        assert C.DISTANCES_M == (100.0, 1000.0)

    def test_buffers_match_paper(self):
        assert C.BUFFER_SIZES_BYTES == (1 << 20, 2 << 20)


class TestClientConfig:
    def test_table3_values(self):
        c = C.DEFAULT_CLIENT
        assert c.clock_hz == 125e6  # MhzS / 8
        assert c.icache_bytes == 16 * 1024
        assert c.dcache_bytes == 8 * 1024
        assert c.cache_assoc == 4
        assert c.cache_line_bytes == 32
        assert c.memory_latency_cycles == 100
        assert c.memory_bytes == 32 << 20
        assert c.supply_voltage == 3.3

    def test_power_scales_with_clock(self):
        c = C.DEFAULT_CLIENT
        assert c.power_at(250e6) == pytest.approx(2 * c.power_at(125e6))

    def test_with_clock_preserves_everything_else(self):
        c = C.DEFAULT_CLIENT.with_clock(500e6)
        assert c.clock_hz == 500e6
        assert c.dcache_bytes == C.DEFAULT_CLIENT.dcache_bytes

    def test_lowpower_fraction_in_unit_interval(self):
        assert 0 < C.DEFAULT_CLIENT.lowpower_fraction < 1


    @pytest.mark.parametrize(
        "field,value",
        [
            ("clock_hz", 0),
            ("clock_hz", math.nan),
            ("clock_hz", math.inf),
            ("clock_hz", True),
            ("supply_voltage", math.nan),
            ("supply_voltage", 0.0),
            ("nominal_power_w", -0.07),
            ("lowpower_fraction", -0.12),
            ("lowpower_fraction", 1.5),
            ("lowpower_fraction", math.nan),
            ("memory_latency_cycles", -100),
            ("memory_latency_cycles", 100.0),
            ("cache_assoc", True),
            ("cache_line_bytes", 0),
        ],
    )
    def test_rejects_unphysical_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            C.ClientConfig(**{field: value})


class TestServerConfig:
    def test_table4_values(self):
        s = C.DEFAULT_SERVER
        assert s.clock_hz == 1e9
        assert s.issue_width == 4
        assert s.memory_bytes == 128 << 20
        assert 1.0 <= s.effective_ipc <= s.issue_width

    def test_client_server_clock_ratio_default(self):
        assert C.DEFAULT_SERVER.clock_hz / C.DEFAULT_CLIENT.clock_hz == 8.0

    @pytest.mark.parametrize(
        "field,value",
        [
            ("clock_hz", 0),
            ("clock_hz", math.nan),
            ("clock_hz", -1e9),
            ("effective_ipc", math.nan),
            ("effective_ipc", 0.0),
            ("effective_ipc", math.inf),
            ("issue_width", 4.0),
            ("issue_width", True),
            ("memory_bytes", -1),
        ],
    )
    def test_rejects_unphysical_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            C.ServerConfig(**{field: value})


class TestCostModel:
    def test_fp_asymmetry(self):
        m = C.DEFAULT_COSTS
        assert m.client_fp_emulation_cycles >= 50 * m.server_fp_cycles

    def test_refinement_costlier_than_filtering_per_unit(self):
        """One exact range test must dwarf one MBR test on the client —
        the premise of offloading refinement first."""
        m = C.DEFAULT_COSTS
        refine = m.instr_per_refine_setup + (
            m.fp_per_range_refine * m.client_fp_emulation_cycles
        )
        filt = m.instr_per_mbr_test + m.fp_per_mbr_test * m.client_fp_emulation_cycles
        assert refine > 50 * filt

    def test_byte_model_ordering(self):
        m = C.DEFAULT_COSTS
        assert m.object_id_bytes < m.index_entry_bytes < m.segment_record_bytes

    def test_energies_positive(self):
        m = C.DEFAULT_COSTS
        assert min(
            m.energy_per_cycle_j,
            m.energy_per_icache_access_j,
            m.energy_per_dcache_access_j,
            m.energy_per_memory_access_j,
        ) > 0
        # A DRAM access must cost far more than a cache hit.
        assert m.energy_per_memory_access_j > 10 * m.energy_per_dcache_access_j

    def test_fp_cycle_helpers(self):
        m = C.DEFAULT_COSTS
        assert m.client_cycles_for_fp(10) == 10 * m.client_fp_emulation_cycles
        assert m.server_cycles_for_fp(10) == 10 * m.server_fp_cycles

    @pytest.mark.parametrize(
        "field,value",
        [
            ("segment_record_bytes", 0),
            ("object_id_bytes", 0),
            ("object_id_bytes", -16),
            ("instr_per_node_visit", -40),
            ("instr_per_node_visit", 40.5),
            ("client_fp_emulation_cycles", True),
            ("server_fp_cycles", math.nan),
            ("energy_per_cycle_j", -0.35e-9),
            ("energy_per_memory_access_j", math.inf),
            ("energy_per_dcache_access_j", math.nan),
            ("request_bytes", -1),
        ],
    )
    def test_rejects_unphysical_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            C.CostModel(**{field: value})

    def test_zero_costs_are_allowed(self):
        assert C.CostModel(fp_per_mbr_test=0, energy_per_cycle_j=0.0).fp_per_mbr_test == 0


class TestNetworkConfig:
    def test_mtu_fits_headers(self):
        n = C.DEFAULT_NETWORK
        assert n.mtu_bytes > n.tcp_header_bytes + n.ip_header_bytes

    def test_default_operating_point(self):
        n = C.DEFAULT_NETWORK
        assert n.bandwidth_bps == 2 * C.MBPS
        assert n.distance_m == 1000.0
