"""Speedup harness: the batched engine against the scalar oracle.

One harness behind the ``repro bench`` command, the speedup gates under
``benchmarks/`` and CI's bench smoke steps, so all of them report one
methodology and one record.  A *stage* names what both sides do:

``plan``
    ``Session.plan_grid(planner="scalar")`` against
    :func:`~repro.core.batchplan.plan_workload_batched`.  Parity is
    :func:`~repro.core.batchplan.plans_equal`, bit for bit.
``price``
    The plans are made once, before timing starts; each side runs
    ``Session.price(plans, policies, engine=side)`` per scheme.  Parity:
    every field of every per-policy ``RunResult`` agrees within
    ``rel_tol``, discrete fields exactly.
``e2e``
    ``Session.run(..., planner=side, engine=side)``, workload to
    ``RunTable``.  Parity is :func:`~repro.bench.e2ebench.tables_match`.

:func:`measure` runs each side once untimed first.  That pass is the
parity check, and it pays the page-fault warm-up of the first large
allocations, which is not engine work.  Then :func:`time_regions` times
``repeats`` interleaved rounds, and each side keeps its fastest region.

Every record has one schema: ``benchmark`` (``<stage>_speedup``, or
``<stage>_speedup_kinds`` with a ``kinds`` map of per-kind records),
``stage``, ``dataset``, ``n_queries``, ``n_configs``, ``n_policies``,
``repeats``, ``rel_tol``, ``min_region_s``, ``scalar_seconds`` and
``batched_seconds`` (per pass, in the side's fastest region),
``speedup``, ``parity``, ``max_rel_err``, and ``<side>_region_seconds``
and ``<side>_passes`` (that region's wall and passes).  A kinds record
carries its slowest kind's fields, with ``parity`` and ``max_rel_err``
taken over every kind.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.api import Session
from repro.bench.e2ebench import _max_rel, tables_match
from repro.bench.figures import NN_CONFIGS, POINT_NN_CONFIGS
from repro.core.batchplan import plan_workload_batched, plans_equal
from repro.core.executor import Environment, Policy
from repro.core.gridrun import RunLedger
from repro.core.queries import Query
from repro.core.schemes import ADEQUATE_MEMORY_CONFIGS, SchemeConfig
from repro.data.workloads import knn_queries, nn_queries, point_queries, range_queries

__all__ = [
    "KINDS",
    "MIN_REGION_S",
    "STAGES",
    "kind_workload",
    "measure",
    "measure_kinds",
    "render",
    "time_regions",
]

#: What each stage's two sides do, as the title of its report.
STAGES: Dict[str, str] = {
    "plan": "planning",
    "price": "pricing planned workloads",
    "e2e": "workload -> RunTable",
}

#: Each query kind's paper workload generator and scheme grid
#: (:func:`kind_workload`; the ``--kinds`` selector).
_KIND_WORKLOADS = {
    "point": (point_queries, POINT_NN_CONFIGS),
    "range": (range_queries, ADEQUATE_MEMORY_CONFIGS),
    "nn": (nn_queries, NN_CONFIGS),
    "knn": (knn_queries, NN_CONFIGS),
}
KINDS = tuple(_KIND_WORKLOADS)

#: Shortest timed region, in seconds: a round repeats a side's pass until
#: this much wall has passed (a batched NN pass takes milliseconds).
MIN_REGION_S = 0.5

_SIDES = ("scalar", "batched")


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


def kind_workload(env: Environment, kind: str, runs: int):
    """The paper workload of ``runs`` queries of one kind and its scheme
    grid, as ``(queries, configs)``."""
    if kind not in _KIND_WORKLOADS:
        raise ValueError(f"unknown query kind {kind!r}; expected one of {KINDS}")
    make, configs = _KIND_WORKLOADS[kind]
    return make(env.dataset, runs), list(configs)


def _passes(stage: str, session: Session, queries, configs, policies):
    """Each side's pass of ``stage`` on ``session``: what the stage times."""
    if stage == "plan":
        return {
            "scalar": lambda: session.plan_grid(queries, configs, planner="scalar"),
            "batched": lambda: plan_workload_batched(session.env, queries, configs),
        }
    if stage == "price":
        plans = session.plan_grid(queries, configs)
        return {
            side: lambda side=side: [
                session.price(p, policies, engine=side) for p in plans
            ]
            for side in _SIDES
        }
    return {
        side: lambda side=side: session.run(
            queries, schemes=configs, policies=policies, engine=side, planner=side
        )
        for side in _SIDES
    }


def _parity(stage: str, batched, scalar, rel_tol: float) -> Tuple[bool, float]:
    """Whether the batched side's output matches the scalar oracle's, and
    the worst relative error between them."""
    if stage == "plan":
        ok = all(plans_equal(b, s) for b, s in zip(batched, scalar))
        return ok, 0.0 if ok else float("inf")
    if stage == "price":
        worst = _max_rel(batched, scalar)
        return worst <= rel_tol, worst
    return tables_match(batched, scalar, rel_tol=rel_tol)


def measure(
    stage: str,
    env: Environment,
    queries: Sequence[Query],
    configs: Sequence[SchemeConfig],
    policies: Optional[Sequence[Policy]] = None,
    *,
    repeats: int = 3,
    rel_tol: float = 1e-9,
    ledger: Optional[RunLedger] = None,
) -> Dict[str, object]:
    """Time ``stage`` batched against scalar on one workload.

    ``policies=None`` prices the standard bandwidth sweep; the ``plan``
    stage prices nothing and is exact, so its record reads 0 policies and
    ``rel_tol`` 0.  ``ledger`` records the parity pass.  Returns the
    record described in the module docstring.
    """
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}; expected one of {tuple(STAGES)}")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    policies = list(policies) if policies is not None else Policy.sweep()
    if stage == "plan":
        policies, rel_tol = [], 0.0

    session = Session(env, ledger=ledger)
    passes = _passes(stage, session, queries, configs, policies)
    out = {side: once() for side, once in passes.items()}
    parity, worst = _parity(stage, out["batched"], out["scalar"], rel_tol)
    session.ledger = None  # the timed passes record nothing
    best = time_regions(passes, repeats)
    seconds = {side: wall / n for side, (wall, n) in best.items()}

    record = {
        "benchmark": f"{stage}_speedup",
        "stage": stage,
        "dataset": env.dataset.name,
        "n_queries": len(queries),
        "n_configs": len(configs),
        "n_policies": len(policies),
        "repeats": repeats,
        "rel_tol": rel_tol,
        "min_region_s": MIN_REGION_S,
        "scalar_seconds": seconds["scalar"],
        "batched_seconds": seconds["batched"],
        "speedup": seconds["scalar"] / seconds["batched"],
        "parity": bool(parity),
        "max_rel_err": worst,
    }
    for side, (wall, n) in best.items():
        record[f"{side}_region_seconds"] = wall
        record[f"{side}_passes"] = n
    return record


def measure_kinds(
    stage: str,
    env: Environment,
    kinds: Sequence[str],
    *,
    runs: int = 100,
    **options,
) -> Dict[str, object]:
    """:func:`measure` once per query kind, on that kind's paper workload
    of ``runs`` queries and its scheme grid (:func:`kind_workload`), so a
    regression in one kind cannot hide behind another's speedup.

    ``options`` are :func:`measure`'s.  Returns the slowest kind's record
    as ``<stage>_speedup_kinds``, with every kind's record under
    ``kinds``, and ``parity`` and ``max_rel_err`` over all kinds.
    """
    kinds = list(kinds)
    if not kinds:
        raise ValueError("kinds must name at least one query kind")
    rows = {
        kind: measure(stage, env, *kind_workload(env, kind, runs), **options)
        for kind in kinds
    }
    return {
        **min(rows.values(), key=lambda r: r["speedup"]),
        "benchmark": f"{stage}_speedup_kinds",
        "kinds": rows,
        "parity": all(r["parity"] for r in rows.values()),
        "max_rel_err": max(r["max_rel_err"] for r in rows.values()),
    }


def render(record: Dict[str, object]) -> str:
    """A :func:`measure` or :func:`measure_kinds` record as a text block."""
    stage = record["stage"]
    if "kinds" in record:
        lines = [
            f"{record['benchmark']}: batched vs scalar, {STAGES[stage]}, per query kind",
            f"  dataset      : {record['dataset']}"
            f"  ({record['n_queries']} queries/kind, best of {record['repeats']})",
            "  kind     scalar_s  batched_s   speedup  parity",
            *(
                f"  {kind:<6} {row['scalar_seconds']:>10.4f} "
                f"{row['batched_seconds']:>10.4f} "
                f"{row['speedup']:>8.2f}x  {row['parity']}"
                for kind, row in record["kinds"].items()
            ),
            f"  slowest      : {record['speedup']:.2f}x",
        ]
    else:
        policies = record["n_policies"]
        lines = [
            f"{record['benchmark']}: batched vs scalar, {STAGES[stage]}",
            f"  dataset      : {record['dataset']}"
            f"  ({record['n_queries']} queries x {record['n_configs']} configs"
            f"{f' x {policies} policies' if policies else ''},"
            f" best of {record['repeats']})",
            *(
                f"  {side:<12} : {record[f'{side}_seconds']:.4f} s per pass"
                f" ({record[f'{side}_passes']} passes in"
                f" {record[f'{side}_region_seconds']:.2f} s)"
                for side in _SIDES
            ),
            f"  speedup      : {record['speedup']:.2f}x",
        ]
    lines.append(
        f"  parity       : {record['parity']}"
        f"  (worst rel err {record['max_rel_err']:.2e},"
        f" tolerance {record['rel_tol']:g})"
    )
    prov = record.get("provenance")
    if prov is not None:
        lines.append(
            f"  commit       : {prov['git_sha']}"
            f"{' with uncommitted changes' if prov['git_dirty'] else ''}"
            f" ({prov['timestamp_utc']}, {prov['platform']})"
        )
    return "\n".join(lines)
