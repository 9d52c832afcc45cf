"""The speedup harness behind ``repro bench`` and the speedup gates."""

from __future__ import annotations

import pytest

from repro.bench import speedup
from repro.core.executor import Policy


def test_time_regions_keeps_each_sides_fastest_region(monkeypatch):
    """Sides alternate region by region; each region runs back-to-back
    passes until MIN_REGION_S has passed; the region with the least wall
    per pass is kept, not the last one."""
    now = [0.0]
    monkeypatch.setattr(speedup.time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(speedup, "MIN_REGION_S", 0.5)
    costs = {
        "a": iter([0.25, 0.25, 0.125, 0.125, 0.125, 0.125]),
        "b": iter([0.375, 0.375, 0.5]),
    }
    order = []

    def side(name):
        def once():
            order.append(name)
            now[0] += next(costs[name])

        return once

    best = speedup.time_regions({"a": side("a"), "b": side("b")}, 2)
    assert order == ["a", "a", "b", "b"] + ["a"] * 4 + ["b"]
    assert best == {"a": (0.5, 4), "b": (0.75, 2)}


def test_time_regions_needs_a_round():
    with pytest.raises(ValueError, match="rounds"):
        speedup.time_regions({"a": lambda: None}, 0)


def test_measure_rejects_an_unknown_stage(env_small):
    queries, configs = speedup.kind_workload(env_small, "range", 2)
    with pytest.raises(ValueError, match="stage"):
        speedup.measure("compile", env_small, queries, configs)


@pytest.mark.parametrize("stage", list(speedup.STAGES))
def test_measure_record_schema(env_small, monkeypatch, stage):
    """Every stage checks parity on the untimed pass and returns the one
    record schema; the plan stage is exact and prices no policy."""
    monkeypatch.setattr(speedup, "MIN_REGION_S", 0.01)
    queries, configs = speedup.kind_workload(env_small, "range", 4)
    policies = Policy.sweep(bandwidths_mbps=(2, 11))
    record = speedup.measure(stage, env_small, queries, configs, policies, repeats=1)
    assert set(record) == {
        "benchmark", "stage", "dataset", "n_queries", "n_configs",
        "n_policies", "repeats", "rel_tol", "min_region_s",
        "scalar_seconds", "batched_seconds", "speedup", "parity",
        "max_rel_err", "scalar_region_seconds", "scalar_passes",
        "batched_region_seconds", "batched_passes",
    }
    assert record["benchmark"] == f"{stage}_speedup"
    assert record["parity"] is True
    assert record["max_rel_err"] <= record["rel_tol"]
    assert record["min_region_s"] == 0.01
    assert (record["n_policies"], record["rel_tol"]) == (
        (0, 0.0) if stage == "plan" else (2, 1e-9)
    )
    assert record["speedup"] == pytest.approx(
        record["scalar_seconds"] / record["batched_seconds"]
    )
    assert record["scalar_seconds"] == pytest.approx(
        record["scalar_region_seconds"] / record["scalar_passes"]
    )
    text = speedup.render(record)
    assert f"{stage}_speedup" in text and "parity       : True" in text


def test_measure_records_only_the_parity_pass(env_small, monkeypatch):
    from repro.core.gridrun import RunLedger

    monkeypatch.setattr(speedup, "MIN_REGION_S", 0.01)
    queries, configs = speedup.kind_workload(env_small, "range", 4)
    ledger = RunLedger()
    speedup.measure("price", env_small, queries, configs, ledger=ledger, repeats=2)
    events = [r["event"] for r in ledger.records]
    # Plans made once, then one price event per scheme and side.
    assert events == ["plan"] * len(configs) + ["price"] * 2 * len(configs)


def test_measure_kinds_reports_the_slowest_kind_and_any_parity_failure(monkeypatch):
    rows = {
        "nn": {"speedup": 9.0, "parity": True, "max_rel_err": 0.0, "n_configs": 2},
        "range": {"speedup": 4.0, "parity": True, "max_rel_err": 1e-12, "n_configs": 6},
        "knn": {"speedup": 7.0, "parity": False, "max_rel_err": float("inf"),
                "n_configs": 2},
    }
    monkeypatch.setattr(speedup, "kind_workload", lambda env, kind, runs: (kind, []))
    monkeypatch.setattr(
        speedup, "measure",
        lambda stage, env, kind, configs, **options: dict(rows[kind], stage=stage),
    )
    record = speedup.measure_kinds("e2e", None, list(rows), runs=3)
    assert record["benchmark"] == "e2e_speedup_kinds"
    assert record["speedup"] == 4.0 and record["n_configs"] == 6
    assert record["parity"] is False
    assert record["max_rel_err"] == float("inf")
    assert record["kinds"] == {k: dict(r, stage="e2e") for k, r in rows.items()}

    rows["knn"].update(parity=True, max_rel_err=0.0)
    record = speedup.measure_kinds("e2e", None, ["nn", "knn"], runs=3)
    assert record["parity"] is True and record["speedup"] == 7.0


def test_measure_kinds_needs_a_kind(env_small):
    with pytest.raises(ValueError, match="kind"):
        speedup.measure_kinds("plan", env_small, [])
    with pytest.raises(ValueError, match="unknown query kind"):
        speedup.kind_workload(env_small, "join", 3)
