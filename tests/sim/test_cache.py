"""Set-associative LRU cache simulator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.cache import CacheSim


class TestGeometry:
    def test_sets_computed(self):
        c = CacheSim(8 * 1024, 4, 32)
        assert c.n_sets == 64

    def test_invalid_geometry_raises(self):
        with pytest.raises(ValueError):
            CacheSim(0, 4, 32)
        with pytest.raises(ValueError):
            CacheSim(1000, 3, 32)  # not divisible
        # bool is an int subclass, and floats would index sets by float.
        for geometry in [(64, True, 32), (True, 1, 1), (64.0, 2, 32), (64, 2, 32.0)]:
            with pytest.raises(ValueError):
                CacheSim(*geometry)


class TestBehaviour:
    def test_cold_miss_then_hit(self):
        c = CacheSim(1024, 2, 32)
        assert not c.access_line(0)
        assert c.access_line(0)
        assert (c.hits, c.misses) == (1, 1)

    def test_lru_eviction(self):
        # 2-way set: lines 0, n_sets, 2*n_sets map to set 0.
        c = CacheSim(128, 2, 32)  # 2 sets
        n = c.n_sets
        c.access_line(0)
        c.access_line(n)      # set 0 now holds {0, n}
        c.access_line(2 * n)  # evicts LRU (0)
        assert not c.access_line(0)   # 0 was evicted
        assert c.access_line(2 * n)   # still resident

    def test_lru_refresh_on_hit(self):
        c = CacheSim(128, 2, 32)
        n = c.n_sets
        c.access_line(0)
        c.access_line(n)
        c.access_line(0)       # refresh 0 -> LRU is now n
        c.access_line(2 * n)   # evicts n
        assert c.access_line(0)
        assert not c.access_line(n)

    def test_access_spans_lines(self):
        c = CacheSim(1024, 2, 32)
        h, m = c.access(0, 64)  # exactly two lines
        assert (h, m) == (0, 2)
        h, m = c.access(16, 32)  # straddles lines 0 and 1, both resident
        assert (h, m) == (2, 0)

    def test_zero_byte_access_is_noop(self):
        c = CacheSim(1024, 2, 32)
        assert c.access(0, 0) == (0, 0)
        assert c.accesses == 0

    def test_reset(self):
        c = CacheSim(1024, 2, 32)
        c.access(0, 128)
        c.reset()
        assert c.accesses == 0
        assert not c.access_line(0)  # cold again

    def test_run_trace(self):
        c = CacheSim(1024, 2, 32)
        h, m = c.run_trace([(0, 32), (0, 32), (32, 32)])
        assert (h, m) == (1, 2)

    def test_miss_rate(self):
        c = CacheSim(1024, 2, 32)
        assert c.miss_rate == 0.0
        c.access(0, 32)
        c.access(0, 32)
        assert c.miss_rate == pytest.approx(0.5)


class TestProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1 << 20),
                st.integers(min_value=1, max_value=256),
            ),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_hits_plus_misses_equals_line_touches(self, trace):
        c = CacheSim(2048, 4, 32)
        expected = sum(
            (addr + nb - 1) // 32 - addr // 32 + 1 for addr, nb in trace
        )
        c.run_trace(trace)
        assert c.hits + c.misses == expected

    @given(
        st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=300)
    )
    @settings(max_examples=40, deadline=None)
    def test_small_working_set_always_fits(self, lines):
        """A working set smaller than one way-set worth of lines never
        conflicts in a fully covering cache."""
        c = CacheSim(64 * 32, 64, 32)  # fully associative, 64 lines
        for line in lines:
            c.access_line(line)
        # Each distinct line misses exactly once (compulsory misses only).
        assert c.misses == len(set(lines))

    @given(
        st.lists(
            st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=200
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_higher_associativity_never_misses_more(self, lines):
        """LRU is a stack algorithm: with the same set mapping, adding ways
        can only remove misses (the inclusion property)."""
        small = CacheSim(1024, 4, 32)  # 8 sets, 4 ways
        big = CacheSim(4096, 16, 32)  # 8 sets, 16 ways — same mapping
        for line in lines:
            small.access_line(line)
            big.access_line(line)
        assert big.misses <= small.misses
