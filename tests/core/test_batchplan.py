"""Unit tests for the batched multi-query planner's plumbing.

The bit-for-bit planner equality itself is covered by
``tests/integration/test_batchplan_differential.py``; this module pins the
surrounding machinery: the plan-dedup :class:`PhaseDataCache`, the Session
``plan_grid``/``planner=`` surface and its ledger records, warm planning,
and the explicit query cache keys.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import PLANNERS, Session
from repro.core.batchplan import (
    PhaseDataCache,
    plan_workload_batched,
    plans_equal,
)
from repro.core.executor import Environment, plan_query
from repro.core.gridrun import RunLedger
from repro.core.queries import PointQuery, RangeQuery, query_key
from repro.core.schemes import ADEQUATE_MEMORY_CONFIGS
from repro.data import tiger
from repro.data.workloads import point_queries, range_queries
from repro.spatial.mbr import MBR
from tests.integration.oracles import cache_state

CONFIGS = list(ADEQUATE_MEMORY_CONFIGS[:3])


@pytest.fixture(scope="module")
def env() -> Environment:
    return Environment.create(tiger.pa_dataset(scale=0.05))


@pytest.fixture(scope="module")
def workload(env):
    return range_queries(env.dataset, 12, seed=41)


# ----------------------------------------------------------------------
# PhaseDataCache — the plan-dedup layer
# ----------------------------------------------------------------------
def test_phase_cache_dedups_repeated_queries(env, workload):
    cache = PhaseDataCache()
    plan_workload_batched(env, workload, CONFIGS, phase_cache=cache)
    assert cache.misses == len(workload)
    assert cache.hits == 0
    assert len(cache) == len(workload)

    # Same workload again: every phase comes from the cache.
    plan_workload_batched(env, workload, CONFIGS, phase_cache=cache)
    assert cache.hits == len(workload)
    assert cache.misses == len(workload)
    assert cache.hit_rate == 0.5


def test_phase_cache_duplicate_queries_in_one_workload(env):
    q = range_queries(env.dataset, 1, seed=43)[0]
    cache = PhaseDataCache()
    plans = plan_workload_batched(env, [q, q, q], CONFIGS, phase_cache=cache)
    # One distinct query -> one phase computation, shared three ways...
    assert len(cache) == 1
    # ...but the *plans* still differ per occurrence (later occurrences see
    # warmer caches), exactly as the scalar walk prices them.
    for config, per_config in zip(CONFIGS, plans):
        env.reset_caches()
        scalar = [plan_query(q, config, env) for _ in range(3)]
        assert plans_equal(per_config, scalar)


def test_phase_cache_plans_match_uncached(env, workload):
    cached = plan_workload_batched(
        env, workload, CONFIGS, phase_cache=PhaseDataCache()
    )
    # Warm cache from a prior pass, then replan through it.
    cache = PhaseDataCache()
    plan_workload_batched(env, workload, CONFIGS, phase_cache=cache)
    warm = plan_workload_batched(env, workload, CONFIGS, phase_cache=cache)
    for a, b in zip(cached, warm):
        assert plans_equal(a, b)


def test_phase_cache_fifo_bound():
    cache = PhaseDataCache(max_entries=2)
    cache.put(("a",), "A")
    cache.put(("b",), "B")
    cache.put(("c",), "C")  # evicts ("a",)
    assert len(cache) == 2
    assert cache.get(("a",)) is None
    assert cache.get(("c",)) == "C"
    with pytest.raises(ValueError):
        PhaseDataCache(max_entries=0)


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


def test_plan_warm_matches_scalar_warm_plans(env, workload):
    """``reset_caches=False`` continues from the live caches: the batched
    planner returns the scalar planner's warm plans and leaves the same
    cache state."""
    # Small point queries keep their lines resident between plan calls.
    qs = workload[:1] + point_queries(env.dataset, 6, seed=44)
    out = {}
    for planner in PLANNERS:
        session = Session(env)
        session.plan(qs, CONFIGS[0], planner=planner)
        warm = [
            session.plan(qs, config, reset_caches=False, planner=planner)
            for config in CONFIGS
        ]
        out[planner] = (warm, cache_state(env))
    (batched, batched_state), (scalar, scalar_state) = out["batched"], out["scalar"]
    for config, b, s in zip(CONFIGS, batched, scalar):
        assert plans_equal(b, s)
        # The caches really were warm: cold plans of the scheme differ.
        assert not plans_equal(b, Session(env).plan(qs, config))
    assert batched_state == scalar_state


# ----------------------------------------------------------------------
# Explicit cache keys
# ----------------------------------------------------------------------
def test_query_key_distinguishes_kinds_and_fields():
    p = PointQuery(1.0, 2.0)
    r = RangeQuery(MBR(1.0, 2.0, 3.0, 4.0))
    assert query_key(p) != query_key(r)
    assert query_key(p) == query_key(PointQuery(1.0, 2.0))
    assert query_key(p) != query_key(PointQuery(1.0, 2.5))
