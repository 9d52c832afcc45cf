"""Server CPU model: the client/server asymmetry."""

from __future__ import annotations

import pytest

from repro.constants import DEFAULT_SERVER
from repro.sim.cpu import ClientCPU, replay_trace
from repro.sim.server import ServerCost, ServerCPU
from repro.sim.trace import OpCounter

from tests.sim.test_cpu import _range_counter


class TestServerCycles:
    def test_far_cheaper_than_client_on_refinement(self):
        """Native FP + superscalar issue: the server runs the same counter
        at a small fraction of the client's cycles.  This asymmetry is the
        premise of offloading refinement."""
        server = ServerCPU()
        client = ClientCPU()
        counter = _range_counter(20, 200)
        s = server.compute(counter)
        counter2 = _range_counter(20, 200)
        c = client.compute(counter2)
        assert s.cycles < c.cycles / 20

    def test_wait_cycles_much_smaller_than_transfer(self):
        """At 1 GHz the server's w2 converts to few client cycles — the
        paper's figures show negligible wait bars."""
        server = ServerCPU()
        s = server.compute(_range_counter(20, 200))
        wait_seconds = server.seconds(s.cycles)
        assert wait_seconds < 0.001  # sub-millisecond per query

    def test_ipc_scaling(self):
        low_ipc = ServerCPU(config=DEFAULT_SERVER.__class__(effective_ipc=1.0))
        high_ipc = ServerCPU(config=DEFAULT_SERVER.__class__(effective_ipc=4.0))
        c1 = low_ipc.compute(_range_counter(trace=False))
        c2 = high_ipc.compute(_range_counter(trace=False))
        assert c2.cycles == pytest.approx(c1.cycles / 4.0, rel=0.2)

    def test_zero_counter(self):
        assert ServerCPU().compute(OpCounter()).cycles == 0

    def test_cache_warmup(self):
        server = ServerCPU()
        first = server.compute(_range_counter())
        second = server.compute(_range_counter())
        assert second.l1_misses < first.l1_misses
        server.reset_cache()
        third = server.compute(_range_counter())
        assert third.l1_misses == first.l1_misses

    def test_traceless_fallback(self):
        cost = ServerCPU().compute(_range_counter(trace=False))
        assert cost.l1_accesses > 0

    @pytest.mark.parametrize(
        "rate", [float("nan"), float("-inf"), -0.5, 3.0, False, None]
    )
    def test_bad_fallback_miss_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="fallback_miss_rate"):
            ServerCPU(fallback_miss_rate=rate)


class TestServerCostAlgebra:
    def test_add_and_zero(self):
        a = ServerCost(1, 2, 3, 4)
        b = ServerCost(10, 20, 30, 40)
        assert a + b == ServerCost(11, 22, 33, 44)
        assert a + ServerCost.zero() == a

    def test_seconds(self):
        assert ServerCPU().seconds(1e9) == pytest.approx(1.0)


def _cache_of(cpu):
    return cpu.dcache if isinstance(cpu, ClientCPU) else cpu.l1


class TestSharedReplay:
    """Both CPU models replay through one address map and price the replay
    through their own ``compute_replayed``."""

    @pytest.mark.parametrize("make", [ClientCPU, ServerCPU])
    def test_compute_is_replay_then_compute_replayed(self, make):
        counter = _range_counter()
        cost = make().compute(counter)
        twin = make()
        hits, misses = replay_trace(_cache_of(twin), counter, twin.costs)
        assert twin.compute_replayed(counter, hits, misses) == cost

    @pytest.mark.parametrize("make", [ClientCPU, ServerCPU])
    @pytest.mark.parametrize("region", [3, -1])
    def test_unknown_trace_region_rejected(self, make, region):
        counter = OpCounter()
        counter.touch(region, 0, 8)
        with pytest.raises(ValueError, match="unknown trace region"):
            make().compute(counter)
