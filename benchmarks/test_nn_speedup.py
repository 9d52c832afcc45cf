"""Batched best-first NN/k-NN planner vs the scalar loop on fig6 PA.

The acceptance bar for the batched NN engine: planning the 100-query
full-scale PA nearest-neighbor workload under both NN-admissible schemes
through :func:`repro.core.batchplan.plan_workload_batched` must be at least
**12x** faster wall-clock than the per-query scalar walk, with every plan
bit-identical (answer ids, op tallies, priced energy/cycles), both checked
by the ``plan`` stage of :func:`repro.bench.speedup.measure`.

Each planner is timed in regions of at least
:data:`repro.bench.speedup.MIN_REGION_S` seconds of back-to-back passes (a
batched pass takes a few milliseconds, too short to time alone), and the
fastest of the regions counts.

The machine-readable record lands in ``benchmarks/results/BENCH_nn.json``;
a k-NN row rides along so depth-``k`` searches are timed too.
"""

from __future__ import annotations

from repro.bench import speedup
from repro.bench.figures import NN_CONFIGS
from repro.data.workloads import DEFAULT_RUNS, nn_queries

NN_SPEEDUP_FLOOR = 12.0
KNN_SPEEDUP_FLOOR = 12.0


def test_fig6_workload_batched_nn_speedup(pa_env, save_report, save_json):
    qs = nn_queries(pa_env.dataset, DEFAULT_RUNS)
    record = speedup.measure("plan", pa_env, qs, NN_CONFIGS, repeats=5)
    record = save_json("BENCH_nn", dict(record, sweep="fig6", scale=1.0))
    save_report("nn_speedup", speedup.render(record))

    assert record["parity"], "batched NN plans differ from scalar plans"
    assert record["batched_region_seconds"] >= speedup.MIN_REGION_S
    assert record["speedup"] >= NN_SPEEDUP_FLOOR, (
        f"batched NN planning only {record['speedup']:.2f}x faster "
        f"({record['batched_seconds']:.3f}s vs "
        f"{record['scalar_seconds']:.3f}s scalar)"
    )


def test_knn_workload_batched_speedup(pa_env, save_report, save_json):
    """k-NN (varied k) must beat the scalar walk by the same margin; a
    slowdown or plan mismatch fails here before it can hide."""
    record = speedup.measure_kinds(
        "plan", pa_env, ["knn"], runs=DEFAULT_RUNS, repeats=3
    )
    record = save_json("BENCH_knn", dict(record, scale=1.0))
    save_report("knn_speedup", speedup.render(record))

    assert record["parity"], "batched k-NN plans differ from scalar"
    assert record["kinds"]["knn"]["batched_region_seconds"] >= speedup.MIN_REGION_S
    assert record["speedup"] >= KNN_SPEEDUP_FLOOR, (
        f"batched k-NN planning only {record['speedup']:.2f}x faster"
    )
