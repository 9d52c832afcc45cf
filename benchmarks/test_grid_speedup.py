"""Batched grid pricer vs the scalar oracle on the Figure 5 sweep.

The acceptance bar for the batched runtime: pricing the fig5 bandwidth
sweep (six Table 1 configurations x five bandwidths over a 100-query range
workload on full-scale PA) through :func:`repro.core.gridrun.price_grid`
must run at least 14x faster wall-clock than the per-step scalar walk,
with every field of every per-policy result agreeing to 1e-9.

The ``price`` stage of :func:`repro.bench.speedup.measure` plans the
workload once, before timing starts, so both engines price identical plans
through ``Session.price`` (the grid plus its per-policy workload sums, or
``price_plan`` per cell plus ``RunResult.combine``) and the timed regions
hold pricing alone.

The machine-readable record lands in ``benchmarks/results/BENCH_grid.json``.
"""

from __future__ import annotations

from repro.bench import speedup
from repro.core.schemes import ADEQUATE_MEMORY_CONFIGS
from repro.data.workloads import DEFAULT_RUNS, range_queries

SPEEDUP_FLOOR = 14.0


def test_fig5_sweep_batched_speedup(pa_env, save_report, save_json):
    qs = range_queries(pa_env.dataset, DEFAULT_RUNS)
    record = speedup.measure("price", pa_env, qs, ADEQUATE_MEMORY_CONFIGS, repeats=3)
    record = save_json("BENCH_grid", dict(record, sweep="fig5", scale=1.0))
    save_report("grid_speedup", speedup.render(record))

    assert record["parity"], (
        f"batched pricing disagrees with the scalar oracle beyond "
        f"{record['rel_tol']:g} (worst {record['max_rel_err']:.2e})"
    )
    assert record["speedup"] >= SPEEDUP_FLOOR, (
        f"batched pricing only {record['speedup']:.1f}x faster "
        f"({record['batched_seconds'] * 1e3:.2f} ms vs "
        f"{record['scalar_seconds'] * 1e3:.2f} ms scalar per pass)"
    )
