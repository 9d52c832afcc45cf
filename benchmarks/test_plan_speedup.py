"""Batched multi-query planner vs the scalar plan_query loop on fig5 PA.

The acceptance bar for the batched planner: planning the 100-query
full-scale PA range workload under all six Table 1 adequate-memory
configurations through :func:`repro.core.batchplan.plan_workload_batched`
must be at least **30x** faster wall-clock than the per-query scalar walk,
with every plan bit-identical (candidate ids, answer ids, step costs),
both checked by the ``plan`` stage of :func:`repro.bench.speedup.measure`.

The machine-readable record lands in ``benchmarks/results/BENCH_plan.json``.
"""

from __future__ import annotations

from repro.bench import speedup
from repro.core.schemes import ADEQUATE_MEMORY_CONFIGS
from repro.data.workloads import DEFAULT_RUNS, range_queries

PLAN_SPEEDUP_FLOOR = 30.0


def test_fig5_workload_batched_plan_speedup(pa_env, save_report, save_json):
    qs = range_queries(pa_env.dataset, DEFAULT_RUNS)
    record = speedup.measure("plan", pa_env, qs, ADEQUATE_MEMORY_CONFIGS, repeats=3)
    record = save_json("BENCH_plan", dict(record, sweep="fig5", scale=1.0))
    save_report("plan_speedup", speedup.render(record))

    assert record["parity"], "batched plans differ from scalar plans"
    assert record["speedup"] >= PLAN_SPEEDUP_FLOOR, (
        f"batched planning only {record['speedup']:.2f}x faster "
        f"({record['batched_seconds']:.3f}s vs "
        f"{record['scalar_seconds']:.3f}s scalar)"
    )
