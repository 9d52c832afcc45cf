"""batch_filter vs the scalar PackedRTree traversal — exactness unit tests.

The batched planner replays index-node access traces through the cache
models, so :func:`repro.spatial.batchtraverse.batch_filter` must reproduce
not just the scalar candidate *sets* but the scalar DFS node *order* and
the per-query MBR-test tallies.  These tests pin all three against the
scalar filters (which record their own order via ``OpCounter``).
"""

from __future__ import annotations

import shutil
import warnings

import numpy as np
import pytest

from repro import native
from repro.core.queries import PointQuery
from repro.sim.trace import REGION_INDEX, OpCounter
from repro.spatial import batchtraverse
from repro.spatial import bruteforce as bf
from repro.spatial.batchtraverse import batch_filter, batch_nearest
from repro.spatial.mbr import MBR
from repro.spatial.rtree import PackedRTree


def _random_dataset(seed: int, n: int):
    from repro.data.model import SegmentDataset

    rng = np.random.default_rng(seed)
    cx = rng.uniform(0, 1000, n)
    cy = rng.uniform(0, 1000, n)
    dx = rng.normal(0, 15.0, n)
    dy = rng.normal(0, 15.0, n)
    return SegmentDataset("t", cx - dx, cy - dy, cx + dx, cy + dy)


@pytest.fixture(scope="module")
def tree() -> PackedRTree:
    return PackedRTree.build(_random_dataset(3, 400), node_capacity=8)


def _scalar_visits(tree: PackedRTree, rect: MBR):
    """Scalar candidates + DFS-preorder visited nodes + MBR-test tally."""
    counter = OpCounter(record_trace=True)
    cands = tree.range_filter(rect, counter)
    visited = [a.object_id for a in counter.iter_trace()
               if a.region == REGION_INDEX]
    return cands, np.asarray(visited, dtype=np.int64), counter.mbr_tests


def _windows(tree: PackedRTree, seed: int, n: int):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-50, 1050, (n, 2))
    ys = rng.uniform(-50, 1050, (n, 2))
    return [MBR(min(x), min(y), max(x), max(y)) for x, y in zip(xs, ys)]


def _run_batch(tree, rects):
    return batch_filter(
        tree,
        np.array([r.xmin for r in rects]),
        np.array([r.ymin for r in rects]),
        np.array([r.xmax for r in rects]),
        np.array([r.ymax for r in rects]),
    )


def test_candidates_match_scalar_order(tree):
    rects = _windows(tree, 7, 40)
    res = _run_batch(tree, rects)
    assert res.n_queries == len(rects)
    for i, rect in enumerate(rects):
        cands, _, _ = _scalar_visits(tree, rect)
        assert np.array_equal(res.candidates_of(i), cands)


def test_visited_nodes_match_scalar_dfs_preorder(tree):
    rects = _windows(tree, 8, 40)
    res = _run_batch(tree, rects)
    for i, rect in enumerate(rects):
        _, visited, _ = _scalar_visits(tree, rect)
        assert np.array_equal(res.nodes_of(i), visited)


def test_mbr_test_tallies_match_scalar(tree):
    rects = _windows(tree, 9, 40)
    res = _run_batch(tree, rects)
    for i, rect in enumerate(rects):
        _, _, tests = _scalar_visits(tree, rect)
        assert res.mbr_tests[i] == tests


def test_point_queries_as_degenerate_windows(tree):
    rng = np.random.default_rng(10)
    # Twenty segment endpoints join the random points, so some points hit.
    px = np.r_[rng.uniform(0, 1000, 40), tree.dataset.x1[:20]]
    py = np.r_[rng.uniform(0, 1000, 40), tree.dataset.y1[:20]]
    res = batch_filter(tree, px, py, px, py)
    for i in range(len(px)):
        x, y = float(px[i]), float(py[i])
        cands, visited, tests = _scalar_visits(tree, PointQuery(x, y).window)
        assert np.array_equal(res.candidates_of(i), cands)
        assert np.array_equal(res.nodes_of(i), visited)
        assert res.mbr_tests[i] == tests
        # The window test of a degenerate MBR is point containment.
        assert np.array_equal(np.sort(cands), bf.point_filter(tree.dataset, x, y))


def test_no_match_window_visits_root_only(tree):
    res = _run_batch(tree, [MBR(5000.0, 5000.0, 6000.0, 6000.0)])
    assert res.candidates_of(0).size == 0
    assert np.array_equal(res.nodes_of(0), np.array([tree.root]))


def test_whole_extent_window_matches_everything(tree):
    res = _run_batch(tree, [MBR(-100.0, -100.0, 1100.0, 1100.0)])
    cands, visited, _ = _scalar_visits(tree, MBR(-100.0, -100.0, 1100.0, 1100.0))
    assert np.array_equal(res.candidates_of(0), cands)
    assert np.array_equal(res.nodes_of(0), visited)
    assert len(res.candidates_of(0)) == len(tree.entry_ids)


def test_empty_workload(tree):
    res = batch_filter(
        tree, np.empty(0), np.empty(0), np.empty(0), np.empty(0)
    )
    assert res.n_queries == 0
    assert res.visited.size == 0
    assert res.cand_ids.size == 0


@pytest.mark.parametrize(
    "bounds, match",
    [
        (([0.0, 1.0], [0.0], [2.0], [2.0]), "aligned"),
        (([[0.0]], [[0.0]], [[2.0]], [[2.0]]), "aligned"),
        (([3.0], [0.0], [2.0], [2.0]), "xmin <= xmax"),
        (([0.0], [3.0], [2.0], [2.0]), "ymin <= ymax"),
        (([np.nan], [0.0], [2.0], [2.0]), "no NaN"),
        (([0.0], [0.0], [2.0], [np.nan]), "no NaN"),
    ],
    ids=["misaligned", "2-d", "xmin>xmax", "ymin>ymax", "nan-xmin", "nan-ymax"],
)
def test_malformed_windows_raise(tree, bounds, match):
    with pytest.raises(ValueError, match=match):
        batch_filter(tree, *bounds)


@pytest.mark.parametrize("capacity", [2, 4, 25])
def test_capacity_sweep(capacity):
    ds = _random_dataset(11, 150)
    t = PackedRTree.build(ds, node_capacity=capacity)
    rects = _windows(t, 12, 15)
    res = _run_batch(t, rects)
    for i, rect in enumerate(rects):
        cands, visited, tests = _scalar_visits(t, rect)
        assert np.array_equal(res.candidates_of(i), cands)
        assert np.array_equal(res.nodes_of(i), visited)
        assert res.mbr_tests[i] == tests


def test_full_buffers_grow_and_resume(monkeypatch):
    """A whole-extent window needs more visited and candidate slots than a
    batch starts with: the batch stops at it, grows, and resumes there."""
    t = PackedRTree.build(_random_dataset(13, 3000), node_capacity=4)
    grow = batchtraverse._grow
    grown = []

    def spy(buf, used):
        grown.append(buf.size)
        return grow(buf, used)

    monkeypatch.setattr(batchtraverse, "_grow", spy)
    rects = [MBR(100.0, 100.0, 200.0, 150.0), MBR(-100.0, -100.0, 1100.0, 1100.0)]
    res = _run_batch(t, rects)
    assert len(grown) >= 2  # the visited log and the candidates
    for i, rect in enumerate(rects):
        cands, visited, tests = _scalar_visits(t, rect)
        assert np.array_equal(res.candidates_of(i), cands)
        assert np.array_equal(res.nodes_of(i), visited)
        assert res.mbr_tests[i] == tests
    assert res.candidates_of(1).size == 3000


def test_without_a_compiler_runs_the_scalar_filter_after_one_warning(
    monkeypatch, tmp_path, tree
):
    monkeypatch.setenv("HOME", str(tmp_path))  # no cached library
    monkeypatch.setattr(batchtraverse, "_lib", None)
    monkeypatch.setattr(shutil, "which", lambda name: None)
    rects = _windows(tree, 14, 10)
    with pytest.warns(RuntimeWarning, match="scalar PackedRTree") as record:
        _run_batch(tree, rects)
        res = _run_batch(tree, rects)
    assert len(record) == 1
    for i, rect in enumerate(rects):
        cands, visited, tests = _scalar_visits(tree, rect)
        assert np.array_equal(res.candidates_of(i), cands)
        assert np.array_equal(res.nodes_of(i), visited)
        assert res.mbr_tests[i] == tests


@pytest.mark.skipif(
    not any(map(shutil.which, native.COMPILERS)), reason="no C compiler on PATH"
)
def test_compiled_kernels_run_when_a_compiler_is_on_path(monkeypatch, tmp_path, tree):
    """Built afresh, the kernels answer with the scalar searches disabled."""
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setattr(batchtraverse, "_lib", None)
    rect = MBR(200.0, 200.0, 400.0, 300.0)
    cands, visited, _ = _scalar_visits(tree, rect)
    nearest = tree.nearest_neighbors(500.0, 500.0, 3)
    monkeypatch.setattr(PackedRTree, "range_filter", None)
    monkeypatch.setattr(PackedRTree, "nearest_neighbors", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = _run_batch(tree, [rect])
        nn = batch_nearest(tree, [500.0], [500.0], [3])
    assert np.array_equal(res.candidates_of(0), cands)
    assert np.array_equal(res.nodes_of(0), visited)
    assert np.array_equal(nn.answers_of(0), nearest)
    assert [f.suffix for f in (tmp_path / ".cache/repro").iterdir()] == [".so"]
