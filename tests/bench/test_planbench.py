"""The region timer the plan, grid-pricing and end-to-end gates share."""

from __future__ import annotations

import pytest

from repro.bench import planbench


def test_time_regions_keeps_each_sides_fastest_region(monkeypatch):
    """Sides alternate region by region; each region runs back-to-back
    passes until MIN_REGION_S has passed; the region with the least wall
    per pass is kept, not the last one."""
    now = [0.0]
    monkeypatch.setattr(planbench.time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(planbench, "MIN_REGION_S", 0.5)
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

    best = planbench.time_regions({"a": side("a"), "b": side("b")}, 2)
    assert order == ["a", "a", "b", "b"] + ["a"] * 4 + ["b"]
    assert best == {"a": (0.5, 4), "b": (0.75, 2)}


def test_time_regions_needs_a_round():
    with pytest.raises(ValueError, match="rounds"):
        planbench.time_regions({"a": lambda: None}, 0)
