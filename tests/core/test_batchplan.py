"""Unit tests for the batched multi-query planner's plumbing.

The bit-for-bit planner equality itself is covered by
``tests/integration/test_batchplan_differential.py``; this module pins the
surrounding machinery: phase dedup of repeated queries, the Session
``plan_grid``/``planner=`` surface and its ledger records, and the
explicit query keys.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Session
from repro.core import batchplan
from repro.core.batchplan import (
    ANSWER,
    DISPLAY_DATA,
    DISPLAY_IDS,
    FILTER,
    REFINE,
    compute_query_phases,
    plan_workload_batched,
    plans_equal,
)
from repro.core.executor import Environment, _display_counter, plan_query
from repro.core.gridrun import RunLedger
from repro.core.queries import (
    KNNQuery,
    NNQuery,
    PointQuery,
    QueryKind,
    RangeQuery,
    query_key,
)
from repro.core.schemes import ADEQUATE_MEMORY_CONFIGS
from repro.data import tiger
from repro.data.model import SegmentDataset
from repro.data.workloads import range_queries
from repro.sim.cpu import REGION_BASES, region_strides
from repro.sim.trace import OpCounter
from repro.spatial.mbr import MBR

CONFIGS = list(ADEQUATE_MEMORY_CONFIGS[:3])


@pytest.fixture(scope="module")
def env() -> Environment:
    return Environment.create(tiger.pa_dataset(scale=0.05))


@pytest.fixture(scope="module")
def workload(env):
    return range_queries(env.dataset, 12, seed=41)


# ----------------------------------------------------------------------
# Phase table
# ----------------------------------------------------------------------
def _accesses(counter, costs):
    """A scalar counter's trace as ``(byte address, nbytes)`` pairs."""
    strides = region_strides(costs)
    return [
        (REGION_BASES[a.region] + a.object_id * strides[a.region], a.nbytes)
        for a in counter.trace
    ]


def test_phase_table_rows_equal_the_scalar_phases():
    """Every row of the table, phase kind by phase kind: the scalar
    search's accesses (byte address and size, in order) and op counts."""
    rng = np.random.default_rng(45)
    cx, cy = rng.uniform(0, 100, 40), rng.uniform(0, 100, 40)
    tiny = Environment.create(SegmentDataset("tiny", cx, cy, cx + 4.0, cy + 3.0))
    ds = tiny.dataset
    e = ds.extent
    # A window and a point whose candidates the refinement partly rejects.
    window = range_queries(ds, 1, seed=53, min_area_frac=0.05, max_area_frac=0.2)[0]
    nn = NNQuery(50.0, 50.0)
    queries = [
        window,
        PointQuery(float(ds.x1[3]), float(ds.y1[3])),  # on a segment
        PointQuery(float(cx[5]) + 2.0, float(cy[5]) + 0.2),  # in its box, off it
        RangeQuery(MBR(e.xmax + 1.0, e.ymax + 1.0, e.xmax + 2.0, e.ymax + 2.0)),  # no candidates
        nn,
        KNNQuery(20.0, 70.0, k=4),
        KNNQuery(80.0, 10.0, k=ds.x1.size + 5),  # k past the dataset
        window,  # duplicates share a row
        nn,
    ]
    table = compute_query_phases(tiny, queries)
    assert len(table) == len(queries)
    assert table.rows[0] == table.rows[7] and table.rows[4] == table.rows[8]
    assert len(set(table.rows.tolist())) == 7 == table.is_nn.size
    engine, costs = tiny.engine, ds.costs
    for i, q in enumerate(queries):
        r = table.rows[i]
        row = table[i]
        if q.kind is QueryKind.NEAREST_NEIGHBOR:
            answer = engine.nearest(q)
            expected = {ANSWER: answer.counter, FILTER: OpCounter(), REFINE: OpCounter()}
            assert row.cand_ids.size == 0
        else:
            filt, answer = engine.filter(q), engine.answer(q)
            expected = {
                ANSWER: answer.counter,
                FILTER: filt.counter,
                REFINE: engine.refine(q, filt.ids).counter,
            }
            np.testing.assert_array_equal(row.cand_ids, filt.ids)
        np.testing.assert_array_equal(row.answer_ids, answer.ids)
        assert row.is_nn == (q.kind is QueryKind.NEAREST_NEIGHBOR)
        expected[DISPLAY_DATA] = _display_counter(answer.ids, costs, True)
        expected[DISPLAY_IDS] = _display_counter(answer.ids, costs, False)
        for kind, counter in expected.items():
            span = slice(table.starts[kind, r], table.ends[kind, r])
            got = list(zip(table.addrs[span].tolist(), table.nbytes[span].tolist()))
            assert got == _accesses(counter, costs), (i, kind)
            assert table.counts[kind, r].tolist() == list(
                counter.counts_dict().values()
            ), (i, kind)
    assert table[0].cand_ids.size > table[0].answer_ids.size > 0
    assert table[2].cand_ids.size > table[2].answer_ids.size == 0
    # The empty window refines nothing: every refine count stays zero.
    assert table[3].cand_ids.size == 0
    assert not table.counts[REFINE, table.rows[3]].any()
    assert table[6].answer_ids.size == ds.x1.size


# ----------------------------------------------------------------------
# Phase dedup
# ----------------------------------------------------------------------
def test_duplicate_queries_share_one_row(env, monkeypatch):
    q = range_queries(env.dataset, 1, seed=43)[0]
    computed = []
    compute = batchplan._compute_phases

    def counting(env, todo):
        computed.append(len(todo))
        return compute(env, todo)

    monkeypatch.setattr(batchplan, "_compute_phases", counting)
    plans = plan_workload_batched(env, [q, q, q], CONFIGS)
    # One distinct query -> one computed row, shared three ways...
    assert computed == [1]
    # ...but the *plans* still differ per occurrence (later occurrences see
    # warmer caches), exactly as the scalar walk prices them.
    for config, per_config in zip(CONFIGS, plans):
        env.reset_caches()
        scalar = [plan_query(q, config, env) for _ in range(3)]
        assert plans_equal(per_config, scalar)


# ----------------------------------------------------------------------
# Session surface
# ----------------------------------------------------------------------
def test_session_planner_scalar_matches_batched(env, workload):
    batched = Session(env).plan(workload, CONFIGS[0])
    scalar = Session(env).plan(workload, CONFIGS[0], planner="scalar")
    assert plans_equal(batched, scalar)


def test_session_rejects_unknown_planner(env, workload):
    with pytest.raises(ValueError, match="planner"):
        Session(env).plan(workload, CONFIGS[0], planner="quantum")


def test_plan_grid_one_ledger_event_per_scheme(env, workload):
    ledger = RunLedger()
    session = Session(env, ledger=ledger)
    grid = session.plan_grid(workload, CONFIGS)
    assert len(grid) == len(CONFIGS)
    events = [r for r in ledger.records if r["event"] == "plan"]
    assert len(events) == len(CONFIGS)
    assert all(e["planner"] == "batched" for e in events)
    assert [e["scheme"] for e in events] == [c.label for c in CONFIGS]


# ----------------------------------------------------------------------
# Explicit query keys
# ----------------------------------------------------------------------
def test_query_key_distinguishes_kinds_and_fields():
    p = PointQuery(1.0, 2.0)
    r = RangeQuery(MBR(1.0, 2.0, 3.0, 4.0))
    assert query_key(p) != query_key(r)
    assert query_key(p) == query_key(PointQuery(1.0, 2.0))
    assert query_key(p) != query_key(PointQuery(1.0, 2.5))


def test_invalid_pair_raises_the_scalar_error_before_any_work(env, monkeypatch):
    """An NN query under filter-client/refine-server in a mixed workload:
    the same ValueError as the scalar planner, and no phase computed."""
    queries = range_queries(env.dataset, 2, seed=44) + [NNQuery(*env.dataset.extent.center())]
    config = ADEQUATE_MEMORY_CONFIGS[3]
    with pytest.raises(ValueError) as scalar:
        [plan_query(q, config, env) for q in queries]
    calls = []
    monkeypatch.setattr(batchplan, "_compute_phases", lambda *args: calls.append(args))
    with pytest.raises(ValueError) as batched:
        plan_workload_batched(env, queries, [ADEQUATE_MEMORY_CONFIGS[0], config])
    assert str(batched.value) == str(scalar.value)
    assert calls == []
