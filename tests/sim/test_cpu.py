"""Client CPU cost/energy model."""

from __future__ import annotations

import pytest

from repro.constants import DEFAULT_CLIENT, DEFAULT_COSTS, CostModel
from repro.sim.cpu import ClientCPU, ComputeCost, instruction_counts
from repro.sim.protocol import packetize
from repro.sim.trace import REGION_DATA, REGION_INDEX, OpCounter


def _range_counter(n_nodes=10, n_cand=50, trace=True) -> OpCounter:
    c = OpCounter(record_trace=trace)
    for i in range(n_nodes):
        c.visit_node(i, 508)
    c.mbr_tests = n_nodes * 25
    c.entries_scanned = n_cand
    for i in range(n_cand):
        c.refine_candidate(i, 76)
    c.range_refine_tests = n_cand
    c.results_produced = n_cand
    return c


class TestInstructionCounts:
    def test_zero_counter(self):
        int_i, fp = instruction_counts(OpCounter(), DEFAULT_COSTS)
        assert int_i == 0 and fp == 0

    def test_linear_in_counts(self):
        a = _range_counter(10, 50)
        b = _range_counter(20, 100)
        ia, fa = instruction_counts(a, DEFAULT_COSTS)
        ib, fb = instruction_counts(b, DEFAULT_COSTS)
        assert ib == pytest.approx(2 * ia)
        assert fb == pytest.approx(2 * fa)

    def test_query_kind_pricing_differs(self):
        """A range refinement test costs more FP than a point test."""
        pt = OpCounter()
        pt.point_refine_tests = 100
        rg = OpCounter()
        rg.range_refine_tests = 100
        _, fp_pt = instruction_counts(pt, DEFAULT_COSTS)
        _, fp_rg = instruction_counts(rg, DEFAULT_COSTS)
        assert fp_rg > fp_pt


class TestCompute:
    def test_fp_emulation_dominates(self):
        """The client's software-FP factor must make refinement the bulk of
        the cycles — the asymmetry the paper's partitioning exploits."""
        cpu = ClientCPU()
        counter = _range_counter()
        int_i, fp = instruction_counts(counter, DEFAULT_COSTS)
        cost = cpu.compute(counter)
        assert cost.instructions == pytest.approx(
            int_i + fp * DEFAULT_COSTS.client_fp_emulation_cycles
        )
        assert fp * DEFAULT_COSTS.client_fp_emulation_cycles > int_i

    def test_cycles_include_miss_stalls(self):
        cpu = ClientCPU()
        cost = cpu.compute(_range_counter())
        assert cost.cycles == pytest.approx(
            cost.instructions
            + cost.dcache_misses * DEFAULT_CLIENT.memory_latency_cycles
        )

    def test_cache_warmup_reduces_cost(self):
        """Replaying the same trace twice: the second pass hits."""
        cpu = ClientCPU()
        first = cpu.compute(_range_counter())
        second = cpu.compute(_range_counter())
        assert second.dcache_misses < first.dcache_misses
        assert second.cycles < first.cycles
        assert second.energy_j < first.energy_j

    def test_reset_cache_restores_cold_cost(self):
        cpu = ClientCPU()
        first = cpu.compute(_range_counter())
        cpu.compute(_range_counter())
        cpu.reset_cache()
        third = cpu.compute(_range_counter())
        assert third.dcache_misses == first.dcache_misses

    def test_traceless_counter_uses_fallback(self):
        cpu = ClientCPU()
        cost = cpu.compute(_range_counter(trace=False))
        assert cost.dcache_accesses > 0
        assert cost.cycles > 0

    @pytest.mark.parametrize(
        "rate", [float("nan"), float("inf"), -0.5, 3.0, True, "0.1"]
    )
    def test_bad_fallback_miss_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="fallback_miss_rate"):
            ClientCPU(use_cache_sim=False, fallback_miss_rate=rate)

    def test_fallback_miss_rate_bounds_accepted(self):
        for rate in (0, 0.0, 1.0):
            cost = ClientCPU(use_cache_sim=False, fallback_miss_rate=rate).compute(
                _range_counter()
            )
            assert cost.dcache_misses == (0 if rate == 0 else cost.dcache_accesses)

    def test_energy_positive_and_composed(self):
        cpu = ClientCPU()
        cost = cpu.compute(_range_counter())
        floor = (
            cost.cycles * DEFAULT_COSTS.energy_per_cycle_j
            + cost.instructions * DEFAULT_COSTS.energy_per_icache_access_j
        )
        assert cost.energy_j >= floor

    def test_zero_counter_costs_nothing(self):
        cpu = ClientCPU()
        cost = cpu.compute(OpCounter())
        assert cost.cycles == 0
        assert cost.energy_j == 0

    def test_implied_power_plausible(self):
        """Average compute power should be within 3x of the nominal figure
        the analytic model uses (keeps the two models consistent)."""
        cpu = ClientCPU()
        cost = cpu.compute(_range_counter(50, 400))
        seconds = cost.cycles / cpu.clock_hz
        implied_w = cost.energy_j / seconds
        nominal = DEFAULT_CLIENT.nominal_power_w
        assert nominal / 3 < implied_w < nominal * 3


class TestProtocolPricing:
    def test_scales_with_payload(self):
        cpu = ClientCPU()
        small = cpu.protocol(packetize(100))
        big = cpu.protocol(packetize(100_000))
        assert big.cycles > small.cycles
        assert big.energy_j > small.energy_j

    def test_deterministic_and_stateless(self):
        cpu = ClientCPU()
        a = cpu.protocol(packetize(50_000))
        b = cpu.protocol(packetize(50_000))
        assert a == b


class TestBlockedEnergy:
    def test_lowpower_below_busywait(self):
        cpu = ClientCPU()
        assert cpu.blocked_energy_j(1.0) < cpu.blocked_energy_j(1.0, busy_wait=True)

    def test_busywait_is_nominal_power(self):
        cpu = ClientCPU()
        assert cpu.blocked_energy_j(2.0, busy_wait=True) == pytest.approx(
            2.0 * DEFAULT_CLIENT.nominal_power_w
        )

    def test_lowpower_fraction(self):
        cpu = ClientCPU()
        assert cpu.blocked_energy_j(1.0) == pytest.approx(
            DEFAULT_CLIENT.nominal_power_w * DEFAULT_CLIENT.lowpower_fraction
        )

    def test_negative_duration_raises(self):
        with pytest.raises(ValueError):
            ClientCPU().blocked_energy_j(-1.0)


class TestClockScaling:
    def test_seconds_inverse_to_clock(self):
        from repro.constants import MHZ

        slow = ClientCPU(config=DEFAULT_CLIENT.with_clock(125 * MHZ))
        fast = ClientCPU(config=DEFAULT_CLIENT.with_clock(500 * MHZ))
        assert slow.seconds(1e8) == pytest.approx(4 * fast.seconds(1e8))

    def test_cycles_unchanged_by_clock(self):
        """Cycle counts are clock-invariant (only their duration changes) —
        the paper's Figure 8 relies on this."""
        from repro.constants import MHZ

        slow = ClientCPU(config=DEFAULT_CLIENT.with_clock(125 * MHZ))
        fast = ClientCPU(config=DEFAULT_CLIENT.with_clock(500 * MHZ))
        assert (
            slow.compute(_range_counter()).cycles
            == fast.compute(_range_counter()).cycles
        )


class TestComputeCostAlgebra:
    def test_add(self):
        a = ComputeCost(1, 2, 3.0, 4, 5)
        b = ComputeCost(10, 20, 30.0, 40, 50)
        s = a + b
        assert (s.instructions, s.cycles, s.energy_j) == (11, 22, 33.0)
        assert (s.dcache_accesses, s.dcache_misses) == (44, 55)

    def test_zero_identity(self):
        a = ComputeCost(1, 2, 3.0, 4, 5)
        assert a + ComputeCost.zero() == a
