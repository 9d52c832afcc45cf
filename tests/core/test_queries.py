"""Query types."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.queries import (
    KNNQuery,
    NNQuery,
    PointQuery,
    QueryKind,
    RangeQuery,
)
from repro.spatial.mbr import MBR


class TestKinds:
    def test_point(self):
        q = PointQuery(1.0, 2.0)
        assert q.kind is QueryKind.POINT
        assert q.kind.has_phases
        assert q.focus() == (1.0, 2.0)

    def test_range(self):
        q = RangeQuery(MBR(0, 0, 2, 4))
        assert q.kind is QueryKind.RANGE
        assert q.kind.has_phases
        assert q.focus() == (1.0, 2.0)

    def test_nn_has_no_phases(self):
        q = NNQuery(3.0, 4.0)
        assert q.kind is QueryKind.NEAREST_NEIGHBOR
        assert not q.kind.has_phases
        assert q.focus() == (3.0, 4.0)

    def test_queries_are_hashable_values(self):
        assert PointQuery(1, 2) == PointQuery(1, 2)
        assert len({NNQuery(0, 0), NNQuery(0, 0), NNQuery(1, 0)}) == 2

    def test_point_default_eps_positive(self):
        assert PointQuery(0, 0).eps > 0


class TestValidation:
    """Malformed queries fail at construction, as malformed MBRs do."""

    @pytest.mark.parametrize("cls", [PointQuery, NNQuery, KNNQuery])
    @pytest.mark.parametrize("x,y", [(math.inf, 0.0), (0.0, -math.inf),
                                     (math.nan, 0.0), (math.nan, math.nan)])
    def test_non_finite_point_rejected(self, cls, x, y):
        with pytest.raises(ValueError, match="finite point"):
            cls(x, y)

    @pytest.mark.parametrize("eps", [-5.0, math.inf, math.nan])
    def test_point_bad_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="eps"):
            PointQuery(1.0, 2.0, eps=eps)

    def test_point_zero_eps_allowed(self):
        assert PointQuery(1.0, 2.0, eps=0.0).eps == 0.0

    @pytest.mark.parametrize("k", [2.5, 3.0, True, "3"])
    def test_knn_non_integral_k_rejected(self, k):
        with pytest.raises(TypeError, match="k must be an integer"):
            KNNQuery(1.0, 2.0, k=k)

    def test_knn_numpy_integer_k_allowed(self):
        assert KNNQuery(1.0, 2.0, k=np.int64(3)).k == 3
