"""Micro-benchmarks of the substrate hot paths.

These are honest pytest-benchmark timings (multiple rounds) of the pieces
that dominate the figure benches' wall clock: Hilbert encoding, packed
bulk-load, the three query traversals, and the D-cache replay.  Useful for
tracking performance regressions in the library itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import QueryEngine
from repro.data.workloads import nn_queries, point_queries, range_queries
from repro.sim.cache import CacheSim
from repro.sim.cpu import ClientCPU
from repro.sim.trace import OpCounter
from repro.spatial.hilbert import hilbert_sort_keys
from repro.spatial.rtree import PackedRTree


@pytest.fixture(scope="module")
def pa_tree(pa_full):
    return PackedRTree.build(pa_full)


@pytest.fixture(scope="module")
def pa_engine(pa_full, pa_tree):
    return QueryEngine(pa_full, pa_tree)


def test_micro_hilbert_encode(benchmark, pa_full):
    cx, cy = pa_full.centers()
    keys = benchmark(hilbert_sort_keys, cx, cy, pa_full.extent)
    assert len(keys) == pa_full.size


def test_micro_bulk_load(benchmark, pa_full):
    tree = benchmark(PackedRTree.build, pa_full)
    assert tree.node_count > 5000


def test_micro_range_filter(benchmark, pa_full, pa_tree):
    rects = [q.rect for q in range_queries(pa_full, 50)]

    def run():
        total = 0
        for rect in rects:
            total += len(pa_tree.range_filter(rect))
        return total

    total = benchmark(run)
    assert total > 0


def test_micro_point_filter(benchmark, pa_full, pa_tree):
    windows = [q.window for q in point_queries(pa_full, 200)]

    def run():
        total = 0
        for window in windows:
            total += len(pa_tree.range_filter(window))
        return total

    assert benchmark(run) > 0


def test_micro_nearest_neighbor(benchmark, pa_full, pa_tree):
    pts = [(q.x, q.y) for q in nn_queries(pa_full, 100)]

    def run():
        acc = 0
        for x, y in pts:
            acc += pa_tree.nearest_neighbor(x, y)
        return acc

    assert benchmark(run) >= 0


def test_micro_full_query_with_instrumentation(benchmark, pa_full, pa_engine):
    qs = range_queries(pa_full, 20)

    def run():
        n = 0
        for q in qs:
            counter = OpCounter()
            out = pa_engine.answer(q, counter)
            n += len(out.ids)
        return n

    assert benchmark(run) > 0


def test_micro_cache_replay(benchmark, pa_full, pa_engine):
    q = range_queries(pa_full, 1)[0]
    counter = OpCounter()
    pa_engine.answer(q, counter)
    cpu = ClientCPU()

    def run():
        cpu.reset_cache()
        return cpu.compute(counter)

    cost = benchmark(run)
    assert cost.cycles > 0


def test_micro_cache_sim_throughput(benchmark):
    rng = np.random.default_rng(7)
    trace = [(int(a), 32) for a in rng.integers(0, 1 << 20, 20_000)]

    def run():
        c = CacheSim(8 * 1024, 4, 32)
        return c.run_trace(trace)

    hits, misses = benchmark(run)
    # Each 32-byte access at an arbitrary byte address touches 1 or 2 lines.
    assert 20_000 <= hits + misses <= 40_000
