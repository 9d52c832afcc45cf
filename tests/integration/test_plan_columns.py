"""Plan columns: the batched planner's output, priced without plan objects.

:func:`repro.core.batchplan.plan_workload_batched` returns one
:class:`~repro.core.gridrun.PlanColumns` per configuration, and
:func:`repro.core.gridrun.price_grid` reads only columns; plans are built
only when one is read.  This suite pins the contract:

* pricing the columns equals pricing the materialized plans (converted
  back through ``PlanColumns.from_plans``) bit for bit, for every
  configuration, query kind and degenerate workload, under the
  policies that exercise every pricing branch;
* the columns behave as a read-only sequence of plans equal to the
  scalar planner's;
* the default ``Session.run`` and ``QueryService.serve`` paths build no
  plan object at all.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Session
from repro.constants import NetworkConfig
from repro.core import batchplan
from repro.core.batchplan import plan_workload_batched, plans_equal
from repro.core.executor import Environment, Policy, QueryPlan, plan_query
from repro.core.gridrun import PlanColumns, price_grid
from repro.core.queries import KNNQuery, PointQuery, RangeQuery
from repro.core.schemes import ADEQUATE_MEMORY_CONFIGS, Scheme
from repro.data import tiger
from repro.data.model import SegmentDataset
from repro.data.workloads import (
    client_fleet,
    fleet_query_stream,
    knn_queries,
    nn_queries,
    point_queries,
    range_queries,
)
from repro.serve import QueryService
from repro.spatial.mbr import MBR
from tests.integration.oracles import assert_grids_identical

NN_LEGAL = [
    c
    for c in ADEQUATE_MEMORY_CONFIGS
    if c.scheme in (Scheme.FULLY_CLIENT, Scheme.FULLY_SERVER)
]

#: The bandwidth sweep plus loss, an idling NIC, busy-waiting and a small
#: MTU (a second wire framing).
POLICIES = Policy.sweep() + [
    Policy().with_loss(0.05),
    Policy(nic_sleep=False),
    Policy(busy_wait=True),
    Policy(network=NetworkConfig(mtu_bytes=576)),
]


@pytest.fixture(scope="module")
def env() -> Environment:
    return Environment.create(tiger.pa_dataset(scale=0.05))


def _nowhere(ds) -> list:
    """Queries whose answers are empty: windows and points off the map."""
    e = ds.extent
    return [
        RangeQuery(MBR(e.xmax + 1.0, e.ymax + 1.0, e.xmax + 2.0, e.ymax + 2.0)),
        PointQuery(e.xmin - 5.0, e.ymin - 5.0),
    ]


def _assert_columns_price_as_plans(env, queries, configs):
    for cols in plan_workload_batched(env, queries, configs):
        assert isinstance(cols, PlanColumns)
        assert_grids_identical(
            price_grid(cols, POLICIES, env), price_grid(list(cols), POLICIES, env)
        )


@pytest.mark.parametrize(
    "make",
    [
        lambda ds: point_queries(ds, 6, seed=61) + _nowhere(ds),
        lambda ds: range_queries(ds, 6, seed=62) + _nowhere(ds),
        lambda ds: range_queries(ds, 1, seed=63),
    ],
    ids=["point", "range", "one-query"],
)
def test_point_range_columns_price_as_plans(env, make):
    _assert_columns_price_as_plans(env, make(env.dataset), ADEQUATE_MEMORY_CONFIGS)


@pytest.mark.parametrize(
    "make",
    [
        lambda ds: nn_queries(ds, 6, seed=64),
        lambda ds: knn_queries(ds, 6, seed=65, max_k=8),
    ],
    ids=["nn", "knn"],
)
def test_nn_columns_price_as_plans(env, make):
    _assert_columns_price_as_plans(env, make(env.dataset), NN_LEGAL)


def test_knn_past_dataset_size_columns_price_as_plans():
    rng = np.random.default_rng(66)
    cx, cy = rng.uniform(0, 100, 9), rng.uniform(0, 100, 9)
    tiny = Environment.create(SegmentDataset("tiny", cx, cy, cx + 3.0, cy + 3.0))
    queries = [KNNQuery(10.0, 10.0, k=9), KNNQuery(50.0, 50.0, k=40)]
    _assert_columns_price_as_plans(tiny, queries, NN_LEGAL)


def test_columns_are_a_sequence_of_the_scalar_plans(env):
    queries = point_queries(env.dataset, 3, seed=67) + range_queries(
        env.dataset, 4, seed=68
    )
    configs = ADEQUATE_MEMORY_CONFIGS
    planned = plan_workload_batched(env, queries, configs)
    for config, cols in zip(configs, planned):
        env.reset_caches()
        scalar = [plan_query(q, config, env) for q in queries]
        assert len(cols) == len(queries)
        assert plans_equal(list(cols), scalar)
        assert plans_equal(list(cols), list(cols))  # built afresh, equal
        assert plans_equal([cols[-1], cols[-len(queries)]], [scalar[-1], scalar[0]])
        for bad in (len(queries), -len(queries) - 1):
            with pytest.raises(IndexError):
                cols[bad]
        with pytest.raises(TypeError):
            cols[0:2]
    converted = PlanColumns.from_plans(scalar)
    assert len(converted) == len(scalar)
    assert all(a is b for a, b in zip(converted, scalar))
    assert converted[-1] is scalar[-1]


def _count_calls(monkeypatch):
    """Count ``_assemble_plan`` calls and ``QueryPlan`` constructions."""
    counts = {"assemble": 0, "plan": 0}
    assemble = batchplan._assemble_plan
    init = QueryPlan.__init__

    def counting_assemble(*args, **kwargs):
        counts["assemble"] += 1
        return assemble(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        counts["plan"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(batchplan, "_assemble_plan", counting_assemble)
    monkeypatch.setattr(QueryPlan, "__init__", counting_init)
    return counts


def test_session_run_and_serve_build_no_plans(env, monkeypatch):
    counts = _count_calls(monkeypatch)
    table = Session(env).run(
        point_queries(env.dataset, 4, seed=69) + range_queries(env.dataset, 4, seed=70),
        schemes=ADEQUATE_MEMORY_CONFIGS,
        policies=POLICIES,
    )
    assert len(table) == len(ADEQUATE_MEMORY_CONFIGS) * len(POLICIES)
    fleet = client_fleet(8, seed=71)
    requests = fleet_query_stream(env.dataset, fleet, duration_s=2.0, seed=72)
    report = QueryService(env).serve(requests, fleet)
    assert report.n_served > 0
    assert counts == {"assemble": 0, "plan": 0}
    # Reading a plan builds it, through the one assembler.
    plan_workload_batched(env, range_queries(env.dataset, 2, seed=73), [NN_LEGAL[1]])[0][1]
    assert counts == {"assemble": 1, "plan": 1}
