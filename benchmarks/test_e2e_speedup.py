"""Batched engine vs the scalar pipeline, end to end, on fig5 PA.

The acceptance bar for the batched engine: the full workload→RunTable
pipeline — 100 full-scale PA range queries under all six Table 1
adequate-memory configurations, priced over the standard bandwidth sweep —
through ``Session.run()`` must be at least **30x** faster wall-clock than
the per-query scalar planner+pricer, with the RunTables within 1e-9 of the
scalar oracle (checked on the untimed first pass by the ``e2e`` stage of
:func:`repro.bench.speedup.measure`).

Each side is timed in regions of at least
:data:`repro.bench.speedup.MIN_REGION_S` seconds of back-to-back passes
(a batched pass takes tens of milliseconds, too short to time alone), and
the fastest of the regions counts.

The machine-readable record lands in ``benchmarks/results/BENCH_e2e.json``.
"""

from __future__ import annotations

from repro.bench import speedup
from repro.core.schemes import ADEQUATE_MEMORY_CONFIGS
from repro.data.workloads import DEFAULT_RUNS, range_queries

E2E_SPEEDUP_FLOOR = 30.0


def test_fig5_workload_batched_e2e_speedup(pa_env, save_report, save_json):
    qs = range_queries(pa_env.dataset, DEFAULT_RUNS)
    record = speedup.measure("e2e", pa_env, qs, ADEQUATE_MEMORY_CONFIGS, repeats=3)
    record = save_json("BENCH_e2e", dict(record, sweep="fig5", scale=1.0))
    save_report("e2e_speedup", speedup.render(record))

    assert record["batched_region_seconds"] >= speedup.MIN_REGION_S
    assert record["parity"], (
        f"batched disagrees with the scalar oracle beyond "
        f"{record['rel_tol']:g} (worst {record['max_rel_err']:.2e})"
    )
    assert record["speedup"] >= E2E_SPEEDUP_FLOOR, (
        f"batched end-to-end only {record['speedup']:.2f}x faster "
        f"({record['batched_seconds']:.3f}s vs "
        f"{record['scalar_seconds']:.3f}s scalar)"
    )
