"""Query workload generators (paper sections 5.4 / 6.2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.queries import NNQuery, PointQuery, RangeQuery
from repro.data.workloads import (
    client_fleet,
    fleet_query_stream,
    knn_queries,
    nn_queries,
    point_queries,
    proximity_sequence,
    range_queries,
)
from repro.spatial import bruteforce as bf


class TestPointQueries:
    def test_count_and_type(self, pa_small):
        qs = point_queries(pa_small, 30)
        assert len(qs) == 30
        assert all(isinstance(q, PointQuery) for q in qs)

    def test_anchored_on_endpoints_guarantees_hits(self, pa_small):
        """The paper picks segment endpoints, so every query has answers."""
        for q in point_queries(pa_small, 25, seed=3):
            assert len(bf.point_query(pa_small, q.x, q.y, q.eps)) >= 1

    def test_deterministic(self, pa_small):
        assert point_queries(pa_small, 5, seed=1) == point_queries(pa_small, 5, seed=1)

    def test_invalid_count(self, pa_small):
        with pytest.raises(ValueError):
            point_queries(pa_small, 0)


class TestRangeQueries:
    def test_count_and_type(self, pa_small):
        qs = range_queries(pa_small, 30)
        assert len(qs) == 30
        assert all(isinstance(q, RangeQuery) for q in qs)

    def test_windows_inside_extent(self, pa_small):
        for q in range_queries(pa_small, 40, seed=5):
            assert pa_small.extent.contains(q.rect)

    def test_area_range_respected(self, pa_small):
        lo, hi = 0.0001, 0.001
        ext_area = pa_small.extent.area()
        for q in range_queries(pa_small, 40, seed=5, min_area_frac=lo, max_area_frac=hi):
            frac = q.rect.area() / ext_area
            # Clamping at the extent boundary can only shrink the window.
            assert frac <= hi * 1.0001
            assert frac >= lo * 0.2

    def test_aspect_ratio_range(self, pa_small):
        for q in range_queries(pa_small, 40, seed=5):
            ar = q.rect.width / q.rect.height
            assert 0.2 <= ar <= 5.0  # 0.25..4 modulo boundary clamping

    def test_density_weighted_placement(self, pa_small):
        """Most windows land where the data is: the mean candidate count
        must far exceed what uniform placement would give."""
        qs = range_queries(pa_small, 50, seed=7)
        hits = [len(bf.range_filter(pa_small, q.rect)) for q in qs]
        assert np.mean(hits) > 0.5  # non-degenerate
        nonempty = sum(1 for h in hits if h > 0)
        assert nonempty >= 45  # density anchoring: almost never empty

    def test_invalid_fracs(self, pa_small):
        with pytest.raises(ValueError):
            range_queries(pa_small, 5, min_area_frac=0.1, max_area_frac=0.01)
        with pytest.raises(ValueError):
            range_queries(pa_small, 5, min_area_frac=0.0)


class TestNNQueries:
    def test_count_type_extent(self, pa_small):
        qs = nn_queries(pa_small, 30)
        assert len(qs) == 30
        for q in qs:
            assert isinstance(q, NNQuery)
            assert pa_small.extent.contains_point(q.x, q.y)


class TestProximitySequence:
    def test_group_structure(self, pa_small):
        qs = proximity_sequence(pa_small, y=5, n_groups=3, seed=9)
        assert len(qs) == 3 * (1 + 5)
        assert all(isinstance(q, RangeQuery) for q in qs)

    def test_y_zero_gives_anchors_only(self, pa_small):
        qs = proximity_sequence(pa_small, y=0, n_groups=4, seed=9)
        assert len(qs) == 4

    def test_followups_cluster_around_anchor(self, pa_small):
        qs = proximity_sequence(
            pa_small, y=8, n_groups=1, seed=11, local_radius_frac=0.01
        )
        anchor = qs[0].rect.center()
        radius = 0.01 * min(pa_small.extent.width, pa_small.extent.height)
        for q in qs[1:]:
            c = q.rect.center()
            d = np.hypot(c[0] - anchor[0], c[1] - anchor[1])
            # Center offset bounded by the radius plus the window halfwidth
            # and boundary clamping.
            assert d <= radius + max(q.rect.width, q.rect.height) + 1e-6

    def test_invalid_params(self, pa_small):
        with pytest.raises(ValueError):
            proximity_sequence(pa_small, y=-1)
        with pytest.raises(ValueError):
            proximity_sequence(pa_small, y=1, n_groups=0)


_GENERATORS = {
    "point": point_queries,
    "range": range_queries,
    "nn": nn_queries,
    "knn": knn_queries,
    "proximity": lambda ds, n, y=2, **kw: proximity_sequence(ds, y, n_groups=n, **kw),
    "fleet": lambda ds, n, **kw: client_fleet(n, **kw),
    "stream": lambda ds, n, duration_s=1.0: fleet_query_stream(
        ds, client_fleet(3), duration_s=duration_s, hot_pool=n
    ),
}


@pytest.mark.parametrize(
    "make, kwargs, error",
    [(kind, {"n": bad}, TypeError) for kind in _GENERATORS
     for bad in (True, 2.5, float("nan"))]
    + [
        ("knn", {"max_k": True}, TypeError),
        ("knn", {"max_k": 2.5}, TypeError),
        ("knn", {"max_k": 0}, ValueError),
        ("range", {"min_area_frac": float("nan")}, ValueError),
        ("range", {"max_area_frac": float("inf")}, ValueError),
        ("proximity", {"y": True}, TypeError),
        ("proximity", {"y": float("nan")}, TypeError),
        ("proximity", {"y": -1}, ValueError),
        ("proximity", {"local_radius_frac": -1}, ValueError),
        ("proximity", {"local_radius_frac": float("nan")}, ValueError),
        ("proximity", {"min_area_frac": 0}, ValueError),
        ("proximity", {"min_area_frac": 0.001, "max_area_frac": 0.0001}, ValueError),
        ("fleet", {"rate_qps": (1.0, float("inf"))}, ValueError),
        ("stream", {"duration_s": float("inf")}, ValueError),
        ("stream", {"duration_s": float("nan")}, ValueError),
    ],
)
def test_generator_entry_checks(pa_small, make, kwargs, error):
    """Bad counts and fractions fail at the generator's entry, typed."""
    args = {"n": 3, **kwargs}
    with pytest.raises(error):
        _GENERATORS[make](pa_small, **args)
