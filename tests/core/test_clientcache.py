"""Insufficient-memory cached-client session."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.clientcache import ClientCacheSession, materialize_entry_range
from repro.core.executor import (
    ClientComputeStep,
    Policy,
    RecvStep,
    SendStep,
    ServerComputeStep,
    price_plan,
)
from repro.core.queries import NNQuery, PointQuery, RangeQuery
from repro.data.workloads import proximity_sequence, range_queries
from repro.spatial import bruteforce as bf
from repro.spatial.geometry import point_segment_distance_sq
from repro.spatial.mbr import MBR
from repro.spatial.rtree import PackedRTree


BUDGET = 256 * 1024


def _anchored_window(ds, i, frac=0.01):
    cx = float(ds.x1[i] + ds.x2[i]) / 2.0
    cy = float(ds.y1[i] + ds.y2[i]) / 2.0
    w = ds.extent.width * frac
    h = ds.extent.height * frac
    return RangeQuery(MBR(cx - w, cy - h, cx + w, cy + h))


class TestSessionBasics:
    def test_first_query_misses(self, env_small, pa_small):
        session = ClientCacheSession(env_small, BUDGET)
        q = _anchored_window(pa_small, pa_small.size // 2)
        plan = session.plan(q)
        assert session.misses == 1 and session.local_hits == 0
        kinds = [type(s) for s in plan.steps]
        assert kinds == [SendStep, ServerComputeStep, RecvStep, ClientComputeStep]

    def test_repeat_query_hits_locally(self, env_small, pa_small):
        session = ClientCacheSession(env_small, BUDGET)
        q = _anchored_window(pa_small, pa_small.size // 2, frac=0.005)
        session.plan(q)
        plan2 = session.plan(q)
        assert session.local_hits == 1
        assert all(isinstance(s, ClientComputeStep) for s in plan2.steps)

    def test_far_jump_evicts_and_misses(self, env_small, pa_small):
        # Anchor the two windows on the spatially extreme segments, with a
        # budget far below the dataset size, so the second query cannot be
        # covered by the first shipment.
        session = ClientCacheSession(env_small, 32 * 1024)
        west = int(np.argmin(pa_small.x1))
        east = int(np.argmax(pa_small.x1))
        session.plan(_anchored_window(pa_small, west, frac=0.002))
        session.plan(_anchored_window(pa_small, east, frac=0.002))
        assert session.misses == 2

    def test_budget_respected(self, env_small, pa_small):
        session = ClientCacheSession(env_small, BUDGET)
        session.plan(_anchored_window(pa_small, pa_small.size // 2, frac=0.005))
        assert session.region is not None
        assert session.region.total_bytes <= BUDGET

    def test_invalid_budget_raises(self, env_small):
        with pytest.raises(ValueError):
            ClientCacheSession(env_small, 0)


class TestAnswerEquivalence:
    def test_range_answers_match_master(self, env_small, pa_small):
        session = ClientCacheSession(env_small, BUDGET)
        for q in proximity_sequence(pa_small, y=6, n_groups=3, seed=41):
            plan = session.plan(q)
            want = bf.range_query(pa_small, q.rect)
            assert np.array_equal(np.sort(plan.answer_ids), np.sort(want)), (
                f"query {q} (hits={session.local_hits}, misses={session.misses})"
            )
        assert session.local_hits > 0  # locality must actually pay off

    def test_point_query_equivalence(self, env_small, pa_small):
        session = ClientCacheSession(env_small, BUDGET)
        i = pa_small.size // 2
        # Warm the cache with a window around segment i, then a point query
        # on its endpoint should be answered locally and exactly.
        session.plan(_anchored_window(pa_small, i, frac=0.01))
        q = PointQuery(float(pa_small.x1[i]), float(pa_small.y1[i]))
        plan = session.plan(q)
        want = bf.point_query(pa_small, q.x, q.y, q.eps)
        assert np.array_equal(np.sort(plan.answer_ids), np.sort(want))

    def test_nn_certified_local_answer_is_exact(self, env_small, pa_small):
        session = ClientCacheSession(env_small, BUDGET)
        i = pa_small.size // 2
        session.plan(_anchored_window(pa_small, i, frac=0.01))
        cx = float(pa_small.x1[i] + pa_small.x2[i]) / 2.0
        cy = float(pa_small.y1[i] + pa_small.y2[i]) / 2.0
        q = NNQuery(cx, cy)
        plan = session.plan(q)
        assert plan.n_results == 1
        got = int(plan.answer_ids[0])
        want = bf.nearest_neighbor(pa_small, cx, cy)
        d_got = point_segment_distance_sq(cx, cy, *pa_small.segment(got))
        d_want = point_segment_distance_sq(cx, cy, *pa_small.segment(want))
        assert d_got == pytest.approx(d_want, rel=1e-12, abs=1e-12)

    def test_nn_outside_coverage_goes_to_server(self, env_small, pa_small):
        session = ClientCacheSession(env_small, BUDGET)
        session.plan(_anchored_window(pa_small, 0, frac=0.004))
        ext = pa_small.extent
        q = NNQuery(ext.xmax - 1.0, ext.ymax - 1.0)
        plan = session.plan(q)
        assert session.misses == 2  # did not trust the local cache
        want = bf.nearest_neighbor(pa_small, q.x, q.y)
        d_got = point_segment_distance_sq(
            q.x, q.y, *pa_small.segment(int(plan.answer_ids[0]))
        )
        d_want = point_segment_distance_sq(q.x, q.y, *pa_small.segment(want))
        assert d_got == pytest.approx(d_want, rel=1e-12, abs=1e-12)


class TestFallback:
    def test_oversized_query_falls_back_to_server(self, env_small, pa_small):
        # A budget so small that the whole-extent query's candidates cannot
        # fit: the session must serve it fully at the server, correctly.
        session = ClientCacheSession(env_small, 4 * 1024)
        q = RangeQuery(pa_small.extent)
        plan = session.plan(q)
        assert session.fallbacks == 1
        want = bf.range_query(pa_small, q.rect)
        assert np.array_equal(np.sort(plan.answer_ids), np.sort(want))
        assert session.region is None  # nothing cached


class TestPricing:
    def test_miss_costs_more_than_hit(self, env_small, pa_small):
        session = ClientCacheSession(env_small, BUDGET)
        q = _anchored_window(pa_small, pa_small.size // 2, frac=0.005)
        miss_plan = session.plan(q)
        hit_plan = session.plan(q)
        policy = Policy()
        miss = price_plan(miss_plan, env_small, policy)
        hit = price_plan(hit_plan, env_small, policy)
        assert miss.energy.total() > 5 * hit.energy.total()
        assert miss.cycles.total() > hit.cycles.total()
        assert hit.energy.nic_tx == 0.0  # hits never touch the radio


class TestMaterializeEntryRange:
    def test_matches_subset_build(self, pa_small_tree):
        tree = pa_small_tree
        lo, hi = 25, 650
        global_ids, dataset, sub_tree = materialize_entry_range(
            tree, lo, hi, name="probe"
        )
        assert np.array_equal(global_ids, tree.entry_ids[lo:hi])
        assert dataset.size == hi - lo
        assert dataset.name == "probe"
        rebuilt = PackedRTree.build(
            tree.dataset.subset(tree.entry_ids[lo:hi], name="probe"),
            node_capacity=tree.node_capacity,
        )
        assert np.array_equal(sub_tree.node_xmin, rebuilt.node_xmin)
        assert np.array_equal(sub_tree.entry_ids, rebuilt.entry_ids)

    def test_bounds_validation(self, pa_small_tree):
        n = pa_small_tree.entry_ids.size
        for lo, hi in [(-1, 5), (5, 5), (8, 2), (0, n + 1)]:
            with pytest.raises(ValueError):
                materialize_entry_range(pa_small_tree, lo, hi)
