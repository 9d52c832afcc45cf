"""Differential suite: the batched best-first engine vs the scalar search.

:func:`repro.spatial.batchtraverse.batch_nearest`'s contract is bit-for-bit
equality with :meth:`repro.spatial.rtree.PackedRTree.nearest_neighbors`
per query: same answer ids in the same order, same OpCounter tallies, and
the same ordered visit/refine log (every index-node touch and candidate
fetch in exact scalar pop order).  Every test here runs both and compares
everything: wide and narrow batches, ties, buffers that fill and resume,
and the scalar fallback without a C compiler.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.data.model import SegmentDataset
from repro.sim.trace import OpCounter, REGION_DATA
from repro.spatial import batchtraverse
from repro.spatial.batchtraverse import batch_nearest
from repro.spatial.rtree import PackedRTree


def _random_dataset(seed: int, n: int) -> SegmentDataset:
    rng = np.random.default_rng(seed)
    cx = rng.uniform(0, 1000, n)
    cy = rng.uniform(0, 1000, n)
    dx = rng.normal(0, 15.0, n)
    dy = rng.normal(0, 15.0, n)
    return SegmentDataset("batchnn", cx - dx, cy - dy, cx + dx, cy + dy)


def _assert_matches(tree: PackedRTree, px, py, ks) -> None:
    """Run both searches for every query; demand full equality."""
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    ks = np.asarray(ks, dtype=np.int64)
    res = batch_nearest(tree, px, py, ks)
    for i in range(px.size):
        c = OpCounter(record_trace=True)
        ans = tree.nearest_neighbors(float(px[i]), float(py[i]), int(ks[i]), c)
        assert list(ans) == res.answers_of(i).tolist(), f"answers, query {i}"
        assert c.nodes_visited == res.nodes_visited[i], f"nodes, query {i}"
        assert c.mbr_tests == res.mbr_tests[i], f"mbr_tests, query {i}"
        assert c.candidates_refined == res.candidates_refined[i], (
            f"refined, query {i}"
        )
        assert c.heap_ops == res.heap_ops[i], f"heap_ops, query {i}"
        assert c.results_produced == res.results_produced[i], (
            f"results, query {i}"
        )
        ids = [a.object_id for a in c.trace]
        entry = [a.region == REGION_DATA for a in c.trace]
        log_entry, log_ids = res.log_of(i)
        assert ids == log_ids.tolist(), f"trace ids, query {i}"
        assert entry == log_entry.tolist(), f"trace regions, query {i}"


@pytest.fixture(scope="module")
def tree() -> PackedRTree:
    return PackedRTree.build(_random_dataset(7, 400))


def test_wide_batch_varied_k(tree):
    """A wide batch with mixed depths."""
    rng = np.random.default_rng(11)
    n = 48
    px = rng.uniform(-50, 1050, n)
    py = rng.uniform(-50, 1050, n)
    ks = rng.integers(1, 10, n)
    _assert_matches(tree, px, py, ks)


def test_narrow_batch_scalar_tail(tree):
    """Batches of one, two and a few queries."""
    rng = np.random.default_rng(12)
    for n in (1, 2, 8):
        px = rng.uniform(0, 1000, n)
        py = rng.uniform(0, 1000, n)
        _assert_matches(tree, px, py, np.full(n, 3))


def test_k_exceeds_dataset(tree):
    """k past the dataset size returns everything, still bit-identical."""
    n_seg = tree.dataset.x1.size
    px = np.array([10.0, 500.0, 990.0])
    py = np.array([10.0, 500.0, 990.0])
    _assert_matches(tree, px, py, [n_seg, n_seg + 7, 2 * n_seg])


def test_colocated_segments_distance_ties():
    """Duplicate and co-located segments force exact distance ties; the
    tie-break replay (insertion order into the best-heap) must match."""
    base = _random_dataset(13, 60)
    ds = SegmentDataset(
        "ties",
        np.concatenate([base.x1, base.x1[:20], base.x1[:10]]),
        np.concatenate([base.y1, base.y1[:20], base.y1[:10]]),
        np.concatenate([base.x2, base.x2[:20], base.x2[:10]]),
        np.concatenate([base.y2, base.y2[:20], base.y2[:10]]),
    )
    tree = PackedRTree.build(ds)
    rng = np.random.default_rng(14)
    n = 30
    px = rng.uniform(0, 1000, n)
    py = rng.uniform(0, 1000, n)
    ks = rng.integers(1, 25, n)
    _assert_matches(tree, px, py, ks)


def test_query_points_on_endpoints(tree):
    """Query points sitting exactly on segment endpoints (distance 0)."""
    ds = tree.dataset
    idx = np.arange(0, ds.x1.size, 17)
    px = np.concatenate([ds.x1[idx], ds.x2[idx]])
    py = np.concatenate([ds.y1[idx], ds.y2[idx]])
    ks = np.tile([1, 4], idx.size)
    _assert_matches(tree, px, py, ks)


def test_empty_batch(tree):
    res = batch_nearest(
        tree, np.empty(0), np.empty(0), np.empty(0, dtype=np.int64)
    )
    assert res.ans_offsets.tolist() == res.log_offsets.tolist() == [0]
    assert res.ans_ids.size == res.log_ids.size == res.nodes_visited.size == 0


def test_validation_errors(tree):
    with pytest.raises(ValueError, match="k must be >= 1"):
        batch_nearest(tree, [0.0], [0.0], [0])
    with pytest.raises(ValueError, match="aligned"):
        batch_nearest(tree, [0.0, 1.0], [0.0], [1])
    with pytest.raises(ValueError, match="aligned"):
        batch_nearest(tree, [[0.0]], [[0.0]], [[1]])
    for ks in ([2.5], [True]):
        with pytest.raises(ValueError, match="ks must be integers"):
            batch_nearest(tree, [0.0], [0.0], ks)
    for x, y in ((np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0), (0.0, -np.inf)):
        with pytest.raises(ValueError, match="finite"):
            batch_nearest(tree, [x], [y], [1])


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n_seg=st.integers(min_value=1, max_value=120),
    n_q=st.integers(min_value=1, max_value=24),
)
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_hypothesis_random_batches(seed, n_seg, n_q):
    """Random datasets, query points and depths."""
    ds = _random_dataset(seed, n_seg)
    tree = PackedRTree.build(ds)
    rng = np.random.default_rng(seed + 1)
    px = rng.uniform(-100, 1100, n_q)
    py = rng.uniform(-100, 1100, n_q)
    ks = rng.integers(1, n_seg + 3, n_q)
    _assert_matches(tree, px, py, ks)


def test_full_buffers_grow_and_resume(monkeypatch):
    """A search longer than the initial log and heap: the batch stops at the
    unfinished query, the full buffer grows, and the batch resumes there."""
    # 1,500-entry leaves: expanding one pushes more items than the heap holds.
    tree = PackedRTree.build(_random_dataset(16, 2000), node_capacity=1500)
    grow = batchtraverse._grow
    grown = []

    def spy(buf, used):
        grown.append(buf.dtype)
        return grow(buf, used)

    monkeypatch.setattr(batchtraverse, "_grow", spy)
    _assert_matches(tree, [500.0, 20.0, 980.0], [500.0, 20.0, 5.0], [3, 2000, 5])
    # The log grows its flags and ids together; the heap is int64 too.
    n_log = grown.count(np.dtype(bool))
    assert n_log >= 1 and grown.count(np.dtype(np.int64)) > n_log


def test_without_a_compiler_runs_the_scalar_search_after_one_warning(
    monkeypatch, tmp_path, tree
):
    monkeypatch.setenv("HOME", str(tmp_path))  # no cached library
    monkeypatch.setattr(batchtraverse, "_lib", None)
    monkeypatch.setattr(shutil, "which", lambda name: None)
    rng = np.random.default_rng(17)
    px = rng.uniform(0, 1000, 12)
    py = rng.uniform(0, 1000, 12)
    ks = rng.integers(1, 6, 12)
    with pytest.warns(RuntimeWarning, match="scalar PackedRTree") as record:
        _assert_matches(tree, px, py, ks)
        _assert_matches(tree, px, py, ks)
    assert len(record) == 1
