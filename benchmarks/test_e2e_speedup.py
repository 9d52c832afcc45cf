"""Batched engine vs the scalar pipeline, end to end, on fig5 PA.

The acceptance bar for the batched engine: the full workload→RunTable
pipeline — 100 full-scale PA range queries under all six Table 1
adequate-memory configurations, priced over the standard bandwidth sweep —
through ``Session.run()`` must be at least **10x** faster wall-clock than
the per-query scalar planner+pricer, with the RunTables within 1e-9 of the
scalar oracle (checked on the warm-up pass inside
:func:`repro.bench.e2ebench.measure_e2e_speedup`).

Each side is timed in regions of at least
:data:`repro.bench.planbench.MIN_REGION_S` seconds of back-to-back passes
(a batched pass takes tens of milliseconds, too short to time alone), and
the fastest of the regions counts.

The machine-readable record lands in ``benchmarks/results/BENCH_e2e.json``.
"""

from __future__ import annotations

from repro.bench.e2ebench import measure_e2e_speedup, render_e2e_speedup
from repro.bench.planbench import MIN_REGION_S
from repro.bench.provenance import stamp_record
from repro.core.schemes import ADEQUATE_MEMORY_CONFIGS
from repro.data.workloads import DEFAULT_RUNS, range_queries

E2E_SPEEDUP_FLOOR = 10.0


def test_fig5_workload_batched_e2e_speedup(pa_env, save_report, save_json):
    qs = range_queries(pa_env.dataset, DEFAULT_RUNS)
    record = measure_e2e_speedup(
        pa_env, qs, ADEQUATE_MEMORY_CONFIGS, repeats=3
    )
    record["sweep"] = "fig5"
    record["scale"] = 1.0
    record = stamp_record(record)
    save_report("e2e_speedup", render_e2e_speedup(record))
    save_json("BENCH_e2e", record)

    assert record["batched_region_seconds"] >= MIN_REGION_S
    assert record["tables_match"], (
        f"batched disagrees with the scalar oracle beyond "
        f"{record['rel_tol']:g} (worst {record['max_rel_err_vs_scalar']:.2e})"
    )
    assert record["batched_vs_scalar"] >= E2E_SPEEDUP_FLOOR, (
        f"batched end-to-end only {record['batched_vs_scalar']:.2f}x faster "
        f"({record['batched_seconds']:.3f}s vs "
        f"{record['scalar_seconds']:.3f}s scalar)"
    )
