"""Property and unit suite for the semantic candidate cache.

Four hypothesis pins, per the module's exactness contract:

* random window sequences (repeats, zooms, shifted overlaps, points) served
  through a :class:`SemanticCache` produce candidate and answer arrays
  **bit-identical** to the uncached planner, per occurrence;
* a containment refine reproduces a fresh traversal's candidate set
  exactly (checked against :func:`batch_filter` directly);
* ``intersect_candidates`` / ``union_candidates`` match brute-force Python
  set algebra, including the ascending packed-position order;
* heavy eviction (capacity 1-3) never changes answers, and capacity 0
  behaves exactly like no cache at all (every verdict a miss, phase
  counters and memory-touch traces identical to uncached);
* the vectorized cache's decision layer (verdicts, source choices, LRU
  motion, eviction order, pinning) mirrors :class:`NaiveSemanticCache`
  under identical serve/insert streams.

Plus direct unit tests of validation, dataset binding, cloning, pinning,
and eviction order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.batchplan import compute_query_phases
from repro.core.executor import Environment
from repro.core.queries import PointQuery, RangeQuery
from repro.core.semcache import (
    MAX_UNION_SOURCES,
    CacheEntry,
    SemanticCache,
    _hilbert_bucket,
    compute_query_phases_semantic,
    intersect_candidates,
    union_candidates,
)
from repro.data.model import SegmentDataset
from repro.spatial.batchtraverse import batch_filter
from repro.spatial.mbr import MBR

HYP = dict(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class NaiveSemanticCache:
    """Pure-Python reference for the cache's *decision* layer.

    Same verdicts, source choices, recency motion, insertion and eviction
    order as :class:`SemanticCache` — implemented with linear scans over a
    recency-ordered list, no NumPy.  Stores window geometry only (the
    candidate-set algebra is pinned separately against brute-force set
    ops); the hypothesis suite drives both caches with identical
    serve/insert sequences and asserts identical behaviour.
    """

    def __init__(
        self,
        capacity: int = 4096,
        *,
        pin_bucket_bits: int = 6,
        pin_hits: int = 4,
        extent=None,
    ) -> None:
        self.capacity = capacity
        self.pin_bucket_bits = pin_bucket_bits
        self.pin_hits = pin_hits
        self.extent = extent
        # (rect, seq, bucket), LRU first / MRU last.
        self._entries: List[Tuple[tuple, int, int]] = []
        self._seq = 0
        self._bucket_hits: Dict[int, int] = {}
        self._hot: set = set()

    def rects(self) -> List[tuple]:
        """Entry rects in recency order (LRU first)."""
        return [rect for rect, _seq, _b in self._entries]

    def match(self, rect) -> Tuple[str, str, Tuple[tuple, ...]]:
        for r, _seq, _b in self._entries:
            if r == rect:
                return "hit", "exact", (rect,)
        if not self._entries:
            return "miss", "", ()
        xmin, ymin, xmax, ymax = rect
        containing = []
        for r, seq, _b in self._entries:
            if r[0] <= xmin and r[1] <= ymin and r[2] >= xmax and r[3] >= ymax:
                area = (r[2] - r[0]) * (r[3] - r[1])
                containing.append((area, seq, r))
        if containing:
            containing.sort(key=lambda t: (t[0], t[1]))
            return "refine", "contain", tuple(r for _a, _s, r in containing[:2])
        cover = self._cover(rect, transpose=False)
        if cover is None:
            cover = self._cover(rect, transpose=True)
        if cover is not None:
            return "refine", "cover", cover
        return "miss", "", ()

    def _cover(self, rect, *, transpose: bool) -> Optional[Tuple[tuple, ...]]:
        xmin, ymin, xmax, ymax = rect
        if transpose:
            xmin, ymin, xmax, ymax = ymin, xmin, ymax, xmax
        spanning = []
        for r, seq, _b in self._entries:
            lo = (r[1], r[0], r[3], r[2]) if transpose else r
            if (
                lo[1] <= ymin
                and lo[3] >= ymax
                and lo[0] <= xmax
                and lo[2] >= xmin
            ):
                spanning.append((lo[0], -lo[2], seq, r))
        if not spanning:
            return None
        spanning.sort()
        chosen: List[tuple] = []
        covered = xmin
        i, n = 0, len(spanning)
        while covered < xmax:
            best = None
            best_end = covered
            while i < n and spanning[i][0] <= covered:
                end = -spanning[i][1]
                if end > best_end:
                    best_end = end
                    best = spanning[i][3]
                i += 1
            if best is None:
                return None
            chosen.append(best)
            covered = best_end
            if len(chosen) > MAX_UNION_SOURCES:
                return None
        return tuple(chosen) if chosen else None

    def serve(self, rect) -> Tuple[str, str, Tuple[tuple, ...]]:
        verdict, mode, keys = self.match(rect)
        for k in keys:
            for pos, (r, seq, b) in enumerate(self._entries):
                if r == k:
                    self._entries.append(self._entries.pop(pos))
                    break
        if verdict != "miss":
            b = _hilbert_bucket(rect, self.extent, self.pin_bucket_bits)
            count = self._bucket_hits.get(b, 0) + 1
            self._bucket_hits[b] = count
            if count >= self.pin_hits:
                self._hot.add(b)
        return verdict, mode, keys

    def insert(self, rect) -> bool:
        if self.capacity <= 0:
            return False
        for pos, (r, _seq, _b) in enumerate(self._entries):
            if r == rect:
                self._entries.append(self._entries.pop(pos))
                return False
        bucket = _hilbert_bucket(rect, self.extent, self.pin_bucket_bits)
        self._entries.append((rect, self._seq, bucket))
        self._seq += 1
        while len(self._entries) > self.capacity:
            victim = None
            for pos, (_r, _seq, b) in enumerate(self._entries):
                if b not in self._hot:
                    victim = pos
                    break
            self._entries.pop(victim if victim is not None else 0)
        return True


@st.composite
def small_envs(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31))
    n = draw(st.integers(min_value=5, max_value=80))
    rng = np.random.default_rng(seed)
    cx = rng.uniform(0, 1000, n)
    cy = rng.uniform(0, 1000, n)
    dx = rng.normal(0, 20.0, n)
    dy = rng.normal(0, 20.0, n)
    ds = SegmentDataset("hyp", cx - dx, cy - dy, cx + dx, cy + dy)
    return Environment.create(ds)


def _window(draw):
    x1, x2 = sorted((draw(st.floats(-100, 1100)), draw(st.floats(-100, 1100))))
    y1, y2 = sorted((draw(st.floats(-100, 1100)), draw(st.floats(-100, 1100))))
    return MBR(x1, y1, x2, y2)


@st.composite
def related_window_workloads(draw):
    """Window sequences with repeats, zooms, shifts, and point lookups —
    the relations the cache's verdict classes key on."""
    queries = [RangeQuery(_window(draw))]
    k = draw(st.integers(min_value=1, max_value=8))
    for _ in range(k):
        kind = draw(st.integers(0, 4))
        prev = queries[draw(st.integers(0, len(queries) - 1))]
        base = (
            prev.rect
            if isinstance(prev, RangeQuery)
            else MBR(prev.x, prev.y, prev.x, prev.y)
        )
        if kind == 0:
            queries.append(RangeQuery(_window(draw)))
        elif kind == 1:  # exact repeat
            queries.append(prev)
        elif kind == 2:  # strictly-contained zoom
            fx0 = draw(st.floats(0.0, 0.4))
            fx1 = draw(st.floats(0.6, 1.0))
            fy0 = draw(st.floats(0.0, 0.4))
            fy1 = draw(st.floats(0.6, 1.0))
            w = base.xmax - base.xmin
            h = base.ymax - base.ymin
            queries.append(RangeQuery(MBR(
                base.xmin + fx0 * w, base.ymin + fy0 * h,
                base.xmin + fx1 * w, base.ymin + fy1 * h,
            )))
        elif kind == 3:  # shifted overlap
            w = base.xmax - base.xmin
            dx = draw(st.floats(-0.5, 0.5)) * max(w, 1.0)
            queries.append(RangeQuery(MBR(
                base.xmin + dx, base.ymin, base.xmax + dx, base.ymax,
            )))
        else:  # point inside the base window
            fx = draw(st.floats(0.0, 1.0))
            fy = draw(st.floats(0.0, 1.0))
            queries.append(PointQuery(
                base.xmin + fx * (base.xmax - base.xmin),
                base.ymin + fy * (base.ymax - base.ymin),
            ))
    return queries


# ----------------------------------------------------------------------
# Hypothesis: semantic phases ≡ uncached planning
# ----------------------------------------------------------------------
@given(small_envs(), related_window_workloads())
@settings(**HYP)
def test_hypothesis_semantic_matches_uncached(env, queries):
    base = compute_query_phases(env, queries)
    cache = SemanticCache(64)
    phases, verdicts = compute_query_phases_semantic(env, queries, cache)
    assert len(phases) == len(base) == len(verdicts)
    for qp, want, v in zip(phases, base, verdicts):
        assert v in ("hit", "refine", "miss")
        assert np.array_equal(qp.cand_ids, want.cand_ids)
        assert np.array_equal(qp.answer_ids, want.answer_ids)


@given(small_envs(), related_window_workloads(),
       st.integers(min_value=1, max_value=3))
@settings(**HYP)
def test_hypothesis_eviction_never_changes_answers(env, queries, capacity):
    base = compute_query_phases(env, queries)
    cache = SemanticCache(capacity)
    phases, _ = compute_query_phases_semantic(env, queries, cache)
    assert len(cache) <= capacity
    for qp, want in zip(phases, base):
        assert np.array_equal(qp.cand_ids, want.cand_ids)
        assert np.array_equal(qp.answer_ids, want.answer_ids)


@given(small_envs(), related_window_workloads())
@settings(**HYP)
def test_hypothesis_capacity_zero_is_disabled(env, queries):
    base = compute_query_phases(env, queries)
    cache = SemanticCache(0)
    phases, verdicts = compute_query_phases_semantic(env, queries, cache)
    assert all(v == "miss" for v in verdicts)
    assert len(cache) == 0
    assert cache.hit_rate == 0.0
    for qp, want in zip(phases, base):
        a, b = qp.filter_trace, want.filter_trace
        assert a.counter.counts_dict() == b.counter.counts_dict()
        assert np.array_equal(a.regions, b.regions)
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.nbytes, b.nbytes)
        assert np.array_equal(qp.answer_ids, want.answer_ids)


@given(small_envs(), st.data())
@settings(**HYP)
def test_hypothesis_containment_refine_equals_fresh_traversal(env, data):
    """A zoomed window served by refine carries a fresh traversal's exact
    candidate set (same ids, same packed order)."""
    outer = _window(data.draw)
    w = outer.xmax - outer.xmin
    h = outer.ymax - outer.ymin
    inner = MBR(
        outer.xmin + 0.1 * w, outer.ymin + 0.1 * h,
        outer.xmin + 0.9 * w, outer.ymin + 0.9 * h,
    )
    cache = SemanticCache(16)
    phases, verdicts = compute_query_phases_semantic(
        env, [RangeQuery(outer), RangeQuery(inner)], cache
    )
    assert verdicts[0] == "miss"
    assert verdicts[1] == ("hit" if inner == outer else "refine")
    fresh = batch_filter(
        env.tree,
        np.array([inner.xmin]), np.array([inner.ymin]),
        np.array([inner.xmax]), np.array([inner.ymax]),
    )
    assert np.array_equal(phases[1].cand_ids, fresh.cand_ids)


# ----------------------------------------------------------------------
# Hypothesis: candidate-set algebra ≡ brute-force set ops
# ----------------------------------------------------------------------
@st.composite
def candidate_containers(draw):
    """2-4 containers over one position universe with a shared id map."""
    universe = draw(st.lists(
        st.integers(min_value=0, max_value=500),
        min_size=0, max_size=60, unique=True,
    ))
    ids_of = {p: p * 7 + 3 for p in universe}
    n = draw(st.integers(min_value=2, max_value=4))
    containers = []
    for _ in range(n):
        subset = sorted(
            p for p in universe if draw(st.booleans())
        )
        pos = np.array(subset, dtype=np.int64)
        ids = np.array([ids_of[p] for p in subset], dtype=np.int64)
        containers.append((pos, ids))
    return containers


@given(candidate_containers())
@settings(**HYP)
def test_hypothesis_intersect_equals_set_algebra(containers):
    (pa, ia), (pb, ib) = containers[0], containers[1]
    P, I = intersect_candidates(pa, ia, pb, ib)
    want = sorted(set(pa.tolist()) & set(pb.tolist()))
    assert P.tolist() == want
    assert I.tolist() == [p * 7 + 3 for p in want]
    assert np.all(np.diff(P) > 0) or P.size <= 1


@given(candidate_containers())
@settings(**HYP)
def test_hypothesis_union_equals_set_algebra(containers):
    P, I = union_candidates(containers)
    want = sorted(set().union(*(p.tolist() for p, _ in containers)))
    assert P.tolist() == want
    assert I.tolist() == [p * 7 + 3 for p in want]


# ----------------------------------------------------------------------
# Hypothesis: the vectorized decision layer mirrors the naive one
# ----------------------------------------------------------------------
@st.composite
def rect_streams(draw):
    """Serve streams over a coarse grid so repeats/containment/overlap are
    frequent enough to exercise every verdict and the eviction path."""
    k = draw(st.integers(min_value=1, max_value=25))
    rects = []
    for _ in range(k):
        x0 = draw(st.integers(0, 6))
        y0 = draw(st.integers(0, 6))
        w = draw(st.integers(1, 4))
        h = draw(st.integers(1, 4))
        rects.append((float(x0), float(y0), float(x0 + w), float(y0 + h)))
    return rects


@given(rect_streams(), st.integers(min_value=1, max_value=5))
@settings(**HYP)
def test_hypothesis_naive_mirror(rects, capacity):
    extent = MBR(0.0, 0.0, 10.0, 10.0)
    vec = SemanticCache(capacity, pin_bucket_bits=4, pin_hits=3,
                        extent=extent)
    naive = NaiveSemanticCache(capacity, pin_bucket_bits=4, pin_hits=3,
                               extent=extent)
    for rect in rects:
        got = vec.serve(rect)
        want = naive.serve(rect)
        assert got == want
        if got[0] != "hit":
            vec.insert(rect, CacheEntry(rect))
            naive.insert(rect)
        assert list(vec._entries.keys()) == naive.rects()
        assert vec._hot == naive._hot


# ----------------------------------------------------------------------
# Unit: validation, binding, cloning, pinning, eviction order
# ----------------------------------------------------------------------
def test_constructor_validation():
    with pytest.raises(ValueError, match="capacity"):
        SemanticCache(-1)
    with pytest.raises(ValueError, match="pin_bucket_bits"):
        SemanticCache(4, pin_bucket_bits=33)
    with pytest.raises(ValueError, match="pin_hits"):
        SemanticCache(4, pin_hits=0)


def test_bind_rejects_a_different_dataset():
    rng = np.random.default_rng(7)
    a = SegmentDataset("a", *rng.uniform(0, 10, (4, 4)))
    b = SegmentDataset("b", *rng.uniform(0, 10, (4, 4)))
    cache = SemanticCache(4)
    cache.bind(a)
    cache.bind(a)  # idempotent
    with pytest.raises(ValueError, match="different dataset"):
        cache.bind(b)


def test_clone_is_independent():
    extent = MBR(0.0, 0.0, 10.0, 10.0)
    cache = SemanticCache(8, extent=extent)
    cache.insert((0.0, 0.0, 1.0, 1.0), CacheEntry((0.0, 0.0, 1.0, 1.0)))
    cache.serve((0.0, 0.0, 1.0, 1.0))
    clone = cache.clone()
    assert clone.stats_dict() == cache.stats_dict()
    clone.serve((0.0, 0.0, 1.0, 1.0))
    clone.insert((2.0, 2.0, 3.0, 3.0), CacheEntry((2.0, 2.0, 3.0, 3.0)))
    assert cache.hits == 1
    assert len(cache) == 1
    assert clone.hits == 2
    assert len(clone) == 2


def test_stats_dict_shape():
    keys = set(SemanticCache(4).stats_dict())
    assert keys == {
        "entries", "capacity", "payload_bytes", "hits", "refines",
        "misses", "hit_rate", "insertions", "evictions", "pinned_buckets",
        "nodes_visited", "refine_tests", "served_candidates",
    }


def test_lru_eviction_order():
    extent = MBR(0.0, 0.0, 10.0, 10.0)
    cache = SemanticCache(2, extent=extent)
    ra = (0.0, 0.0, 1.0, 1.0)
    rb = (5.0, 5.0, 6.0, 6.0)
    rc = (8.0, 8.0, 9.0, 9.0)
    cache.insert(ra, CacheEntry(ra))
    cache.insert(rb, CacheEntry(rb))
    cache.serve(ra)  # A becomes MRU
    cache.insert(rc, CacheEntry(rc))
    assert set(cache._entries) == {ra, rc}
    assert cache.evictions == 1


def test_pinned_bucket_survives_eviction():
    extent = MBR(0.0, 0.0, 10.0, 10.0)
    cache = SemanticCache(2, pin_bucket_bits=4, pin_hits=2, extent=extent)
    hot = (1.0, 1.0, 1.5, 1.5)
    cache.insert(hot, CacheEntry(hot))
    cache.serve(hot)
    cache.serve(hot)  # bucket reaches pin_hits -> hot
    assert cache.pinned_buckets == 1
    far1 = (8.0, 8.0, 9.0, 9.0)
    far2 = (6.0, 1.0, 7.0, 2.0)
    cache.insert(far1, CacheEntry(far1))
    cache.insert(far2, CacheEntry(far2))  # evicts far1, not the hot entry
    assert hot in cache._entries
    assert far1 not in cache._entries


def test_insert_duplicate_is_a_noop():
    extent = MBR(0.0, 0.0, 10.0, 10.0)
    cache = SemanticCache(4, extent=extent)
    r = (0.0, 0.0, 1.0, 1.0)
    assert cache.insert(r, CacheEntry(r))
    assert not cache.insert(r, CacheEntry(r))
    assert cache.insertions == 1


def test_capacity_zero_insert_refused():
    cache = SemanticCache(0, extent=MBR(0.0, 0.0, 1.0, 1.0))
    assert not cache.insert((0.0, 0.0, 1.0, 1.0),
                            CacheEntry((0.0, 0.0, 1.0, 1.0)))
    assert len(cache) == 0
