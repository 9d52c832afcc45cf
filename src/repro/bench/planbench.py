"""Planning-speed benchmark: batched multi-query planner vs the scalar walk.

One measurement routine shared by the ``repro planbench`` CLI command, the
``benchmarks/test_plan_speedup.py`` gate and the CI bench-smoke step, so all
three report the same methodology:

* both planners run once untimed first (the first large-allocation pass pays
  page-fault warm-up that is not planner work);
* then ``repeats`` timed rounds, scalar and batched interleaved in the same
  process, taking the **minimum** per planner (the standard noise-robust
  statistic for a deterministic workload).  A round times as many
  back-to-back passes as fill :data:`MIN_REGION_S`, so that a fast planner
  is not timed over too short a region (:func:`time_regions`, which the
  end-to-end and grid-pricing gates use too);
* the batched plans are checked bit-for-bit against the scalar plans with
  :func:`repro.core.batchplan.plans_equal` before any timing is reported.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Sequence, Tuple

from repro.api import Session
from repro.bench.figures import NN_CONFIGS, POINT_NN_CONFIGS
from repro.core.batchplan import plan_workload_batched, plans_equal
from repro.core.executor import Environment, QueryPlan
from repro.core.queries import Query
from repro.core.schemes import ADEQUATE_MEMORY_CONFIGS, SchemeConfig

__all__ = [
    "MIN_REGION_S",
    "NN_CONFIGS",
    "PLAN_KINDS",
    "measure_plan_speedup",
    "measure_plan_speedup_kinds",
    "render_plan_speedup",
    "render_plan_speedup_kinds",
    "time_regions",
]

#: Query kinds the per-kind planbench can time (the ``--kinds`` selector).
PLAN_KINDS: tuple = ("point", "range", "nn", "knn")

#: Shortest timed region, in seconds: a round repeats a planner's pass
#: until this much wall has passed (a batched NN pass takes milliseconds).
MIN_REGION_S = 0.5


def time_regions(
    sides: Dict[str, Callable[[], object]], rounds: int
) -> Dict[str, Tuple[float, int]]:
    """Each side's fastest timed region over ``rounds`` interleaved rounds.

    In every round each side, in turn, runs back-to-back passes of its
    callable until :data:`MIN_REGION_S` seconds have passed.  Returns, per
    side, the ``(wall seconds, passes)`` of its region with the least wall
    per pass.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    best = {side: (float("inf"), 1) for side in sides}
    for _ in range(rounds):
        for side, once in sides.items():
            passes = 0
            t0 = time.perf_counter()
            while True:
                once()
                passes += 1
                wall = time.perf_counter() - t0
                if wall >= MIN_REGION_S:
                    break
            if wall / passes < best[side][0] / best[side][1]:
                best[side] = (wall, passes)
    return best


def measure_plan_speedup(
    env: Environment,
    queries: Sequence[Query],
    configs: Sequence[SchemeConfig],
    *,
    repeats: int = 3,
) -> Dict[str, object]:
    """Time scalar vs batched planning of ``queries`` x ``configs``.

    Returns a machine-readable record (the ``BENCH_plan.json`` payload)::

        {"benchmark": "plan_speedup", "dataset": ..., "n_queries": ...,
         "n_configs": ..., "repeats": ..., "scalar_seconds": ...,
         "batched_seconds": ..., "speedup": ..., "plans_equal": ...,
         "min_region_s": ..., "scalar_region_seconds": ...,
         "scalar_passes": ..., "batched_region_seconds": ...,
         "batched_passes": ...}

    ``*_seconds`` are per pass, in each planner's fastest round, whose wall
    and passes are ``*_region_seconds`` and ``*_passes``.

    ``plans_equal`` is verified on the warm-up pass; the timed rounds replan
    from scratch each time (``reset_caches=True`` semantics on both sides).
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    queries = list(queries)
    configs = list(configs)

    session = Session(env)

    def scalar_once() -> List[List[QueryPlan]]:
        return session.plan_grid(queries, configs, planner="scalar")

    def batched_once() -> List[List[QueryPlan]]:
        return plan_workload_batched(env, queries, configs)

    # Warm-up (untimed) + the differential check.
    scalar_grid = scalar_once()
    batched_grid = batched_once()
    equal = all(
        plans_equal(b, s) for b, s in zip(batched_grid, scalar_grid)
    )

    best = time_regions({"scalar": scalar_once, "batched": batched_once}, repeats)
    scalar_s = best["scalar"][0] / best["scalar"][1]
    batched_s = best["batched"][0] / best["batched"][1]

    record = {
        "benchmark": "plan_speedup",
        "dataset": env.dataset.name,
        "n_queries": len(queries),
        "n_configs": len(configs),
        "repeats": repeats,
        "scalar_seconds": scalar_s,
        "batched_seconds": batched_s,
        "speedup": scalar_s / batched_s if batched_s > 0 else float("inf"),
        "plans_equal": equal,
        "min_region_s": MIN_REGION_S,
    }
    for side, (wall, passes) in best.items():
        record[f"{side}_region_seconds"] = wall
        record[f"{side}_passes"] = passes
    return record


def _kind_workload(env: Environment, kind: str, runs: int):
    """The (queries, configs) pair one ``--kinds`` entry times."""
    from repro.data.workloads import (
        knn_queries, nn_queries, point_queries, range_queries,
    )

    if kind == "point":
        return point_queries(env.dataset, runs), list(POINT_NN_CONFIGS)
    if kind == "range":
        return range_queries(env.dataset, runs), list(ADEQUATE_MEMORY_CONFIGS)
    if kind == "nn":
        return nn_queries(env.dataset, runs), list(NN_CONFIGS)
    if kind == "knn":
        return knn_queries(env.dataset, runs), list(NN_CONFIGS)
    raise ValueError(f"unknown query kind {kind!r}; expected one of {PLAN_KINDS}")


def measure_plan_speedup_kinds(
    env: Environment,
    kinds: Sequence[str],
    *,
    runs: int = 100,
    repeats: int = 3,
) -> Dict[str, object]:
    """Per-kind scalar-vs-batched timing, one row per query kind.

    Each kind gets its own workload (paper generators) and its own scheme
    grid, measured independently with :func:`measure_plan_speedup`, so a
    regression in one query kind cannot hide behind another's speedup.
    Returns the ``BENCH_nn.json``-style record::

        {"benchmark": "plan_speedup_kinds", "dataset": ..., "runs": ...,
         "repeats": ..., "kinds": {"nn": {<measure_plan_speedup row>}, ...},
         "plans_equal": <all kinds>, "min_speedup": <worst kind>}
    """
    kinds = list(kinds)
    if not kinds:
        raise ValueError("kinds must name at least one query kind")
    rows: Dict[str, Dict[str, object]] = {}
    for kind in kinds:
        queries, configs = _kind_workload(env, kind, runs)
        rows[kind] = measure_plan_speedup(env, queries, configs, repeats=repeats)
    return {
        "benchmark": "plan_speedup_kinds",
        "dataset": env.dataset.name,
        "runs": runs,
        "repeats": repeats,
        "kinds": rows,
        "plans_equal": all(r["plans_equal"] for r in rows.values()),
        "min_speedup": min(r["speedup"] for r in rows.values()),
    }


def render_plan_speedup(record: Dict[str, object]) -> str:
    """One human-readable block for a :func:`measure_plan_speedup` record."""
    lines = [
        "plan_speedup: batched multi-query planner vs the scalar planner",
        f"  dataset      : {record['dataset']}"
        f"  ({record['n_queries']} queries x {record['n_configs']} configs,"
        f" min of {record['repeats']})",
        f"  scalar       : {record['scalar_seconds']:.3f} s",
        f"  batched      : {record['batched_seconds']:.3f} s",
        f"  speedup      : {record['speedup']:.2f}x",
        f"  plans equal  : {record['plans_equal']}",
    ]
    return "\n".join(lines)


def render_plan_speedup_kinds(record: Dict[str, object]) -> str:
    """Per-kind table for a :func:`measure_plan_speedup_kinds` record."""
    lines = [
        "plan_speedup_kinds: batched planner vs scalar loop, per query kind",
        f"  dataset : {record['dataset']}"
        f"  ({record['runs']} queries/kind, min of {record['repeats']})",
        "  kind   scalar_s  batched_s  speedup  plans_equal",
    ]
    for kind, row in record["kinds"].items():
        lines.append(
            f"  {kind:<6} {row['scalar_seconds']:>8.3f} "
            f"{row['batched_seconds']:>10.3f} "
            f"{row['speedup']:>7.2f}x  {row['plans_equal']}"
        )
    return "\n".join(lines)
