"""Batched grid pricer vs the scalar oracle on the Figure 5 sweep.

The acceptance bar for the batched runtime: pricing the fig5 bandwidth
sweep (six Table 1 configurations x five bandwidths over a 100-query range
workload on full-scale PA) through :func:`repro.core.gridrun.price_grid`
must run at least 14x faster wall-clock than the per-step scalar walk,
with both engines agreeing to 1e-9.

Both sides price the same plans, planned once up front, through
``Session.price`` (the grid plus its per-policy workload sums, or
``price_plan`` per cell plus ``RunResult.combine``).  A round times
back-to-back passes of one side until
:data:`repro.bench.planbench.MIN_REGION_S` has passed
(:func:`repro.bench.planbench.time_regions`); each side keeps its fastest
round's seconds per pass, over :data:`ROUNDS` rounds with the two sides
interleaved.
"""

from __future__ import annotations

from functools import partial

from repro.api import Session
from repro.bench.planbench import MIN_REGION_S, time_regions
from repro.bench.provenance import stamp_record
from repro.core.executor import Policy
from repro.core.schemes import ADEQUATE_MEMORY_CONFIGS
from repro.data.workloads import DEFAULT_RUNS, range_queries

SPEEDUP_FLOOR = 14.0
ROUNDS = 3


def test_fig5_sweep_batched_speedup(pa_env, save_report, save_json):
    qs = range_queries(pa_env.dataset, DEFAULT_RUNS)
    policies = Policy.sweep()
    session = Session(pa_env)
    # Plan once up front so both engines price identical plans and the
    # timed regions hold pricing alone.
    plans = [session.plan(qs, cfg) for cfg in ADEQUATE_MEMORY_CONFIGS]

    def price_once(engine: str):
        return [session.price(p, policies, engine=engine) for p in plans]

    batched = price_once("batched")
    scalar = price_once("scalar")
    worst = max(
        abs(getattr(b, metric).total() - getattr(s, metric).total())
        / getattr(s, metric).total()
        for b_row, s_row in zip(batched, scalar)
        for b, s in zip(b_row, s_row)
        for metric in ("energy", "cycles")
    )

    best = time_regions(
        {engine: partial(price_once, engine) for engine in ("scalar", "batched")},
        ROUNDS,
    )
    scalar_s = best["scalar"][0] / best["scalar"][1]
    batched_s = best["batched"][0] / best["batched"][1]
    speedup = scalar_s / batched_s
    cells = len(qs) * len(ADEQUATE_MEMORY_CONFIGS) * len(policies)

    record = {
        "benchmark": "grid_speedup",
        "dataset": pa_env.dataset.name,
        "sweep": "fig5",
        "n_queries": len(qs),
        "n_configs": len(ADEQUATE_MEMORY_CONFIGS),
        "n_policies": len(policies),
        "rounds": ROUNDS,
        "min_region_s": MIN_REGION_S,
        "scalar_seconds": scalar_s,
        "batched_seconds": batched_s,
        "speedup": speedup,
        "speedup_floor": SPEEDUP_FLOOR,
        "max_rel_err": worst,
    }
    for engine, (wall, passes) in best.items():
        record[f"{engine}_region_seconds"] = wall
        record[f"{engine}_passes"] = passes
    record = stamp_record(record)
    save_json("BENCH_grid", record)
    prov = record["provenance"]
    save_report(
        "grid_speedup",
        "\n".join(
            [
                "grid_speedup: batched grid pricer vs scalar price_plan walk",
                f"  workload : fig5 sweep on {pa_env.dataset.name}, {len(qs)} queries"
                f" x {len(ADEQUATE_MEMORY_CONFIGS)} configs x {len(policies)}"
                f" policies = {cells} cells",
                *(
                    f"  {engine:<8} : {wall / passes * 1e3:8.2f} ms per pass"
                    f" ({passes} passes in {wall:.2f} s, best of {ROUNDS})"
                    for engine, (wall, passes) in best.items()
                ),
                f"  speedup  : {speedup:.1f}x (floor {SPEEDUP_FLOOR:.0f}x)",
                f"  max rel err (energy, cycles): {worst:.1e}",
                f"  commit   : {prov['git_sha']}"
                f"{' with uncommitted changes' if prov['git_dirty'] else ''}"
                f" ({prov['timestamp_utc']}, {prov['platform']})",
            ]
        ),
    )

    assert worst < 1e-9
    assert speedup >= SPEEDUP_FLOOR, (
        f"batched pricing only {speedup:.1f}x faster "
        f"({batched_s * 1e3:.2f} ms vs {scalar_s * 1e3:.2f} ms scalar per pass)"
    )
