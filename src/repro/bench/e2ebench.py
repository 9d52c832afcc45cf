"""End-to-end workload→RunTable benchmark: the batched engine vs scalar.

Where :mod:`repro.bench.planbench` times *planning* alone, this measures the
whole pipeline a caller actually pays for — :meth:`repro.api.Session.run`
from a raw workload to a finished :class:`~repro.api.RunTable` — under two
engine/planner pairings:

``scalar``
    ``planner="scalar", engine="scalar"`` — the per-query reference: one
    :func:`~repro.core.executor.plan_query` walk and one
    :func:`~repro.core.executor.price_plan` call per (query, scheme, policy).
``batched``
    ``planner="batched", engine="batched"`` — batched traversal into plan
    objects, then the vectorized grid pricer.

Methodology matches planbench: every side runs once untimed (page-fault
warm-up is not engine work) and that warm-up pass doubles as the parity
check — batched must match the scalar reference to ``rel_tol``; then
``repeats`` timed rounds interleaved in one process, each timing one
side's back-to-back passes over a region of at least
:data:`~repro.bench.planbench.MIN_REGION_S` seconds
(:func:`~repro.bench.planbench.time_regions`), fastest region per side.
Each pass constructs a fresh :class:`~repro.api.Session` (a fresh phase
cache) so no pass amortizes another's warm state; the environment itself is
shared because ``Session.run`` resets the cache sims per workload.

One measurement routine shared by ``repro planbench --e2e``, the
``benchmarks/test_e2e_speedup.py`` gate (which archives
``BENCH_e2e.json``) and the CI bench-smoke step.
"""

from __future__ import annotations

import dataclasses
from functools import partial
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.api import RunTable, Session
from repro.bench.planbench import MIN_REGION_S, _kind_workload, time_regions
from repro.core.executor import Environment, Policy
from repro.core.queries import Query
from repro.core.schemes import SchemeConfig

__all__ = [
    "E2E_SIDES",
    "measure_e2e_speedup",
    "measure_e2e_speedup_kinds",
    "render_e2e_speedup",
    "render_e2e_speedup_kinds",
    "run_table_once",
    "tables_match",
]

#: Side name -> the (planner, engine) pair :meth:`Session.run` gets.
E2E_SIDES: Dict[str, Tuple[str, str]] = {
    "scalar": ("scalar", "scalar"),
    "batched": ("batched", "batched"),
}


def run_table_once(
    env: Environment,
    queries: Sequence[Query],
    configs: Sequence[SchemeConfig],
    policies: Sequence[Policy],
    *,
    planner: str = "batched",
    engine: str = "batched",
) -> RunTable:
    """One cold workload→RunTable pass.

    Nothing is cached between calls, so a timed pass is the full cost of
    planning and pricing the workload, not an incremental re-price.
    """
    return Session(env).run(
        list(queries),
        schemes=list(configs),
        policies=list(policies),
        engine=engine,
        planner=planner,
    )


def _max_rel(a, b) -> float:
    """Worst relative difference across a value tree.

    Recurses through dataclasses, tuples/lists and numpy arrays; floats
    contribute ``|a-b| / max(|a|,|b|)``; discrete leaves (ints, strings,
    bools, int arrays) must match exactly and contribute ``inf`` when they
    do not, so one bad verdict can never average away.
    """
    if a is None or b is None:
        return 0.0 if a is b else float("inf")
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape:
            return float("inf")
        if np.issubdtype(a.dtype, np.floating) or np.issubdtype(
            b.dtype, np.floating
        ):
            denom = np.maximum(np.abs(a), np.abs(b))
            diff = np.abs(a.astype(np.float64) - b.astype(np.float64))
            with np.errstate(invalid="ignore", divide="ignore"):
                rel = np.where(denom > 0.0, diff / denom, diff)
            return float(rel.max()) if rel.size else 0.0
        return 0.0 if np.array_equal(a, b) else float("inf")
    if isinstance(a, bool) or isinstance(b, bool):
        return 0.0 if a == b else float("inf")
    if isinstance(a, float) or isinstance(b, float):
        if a == b:
            return 0.0
        denom = max(abs(a), abs(b))
        return abs(a - b) / denom if denom > 0.0 else float("inf")
    if isinstance(a, (int, str)):
        return 0.0 if a == b else float("inf")
    if dataclasses.is_dataclass(a):
        if type(a) is not type(b):
            return float("inf")
        return max(
            (
                _max_rel(getattr(a, f.name), getattr(b, f.name))
                for f in dataclasses.fields(a)
            ),
            default=0.0,
        )
    if isinstance(a, (tuple, list)):
        if not isinstance(b, (tuple, list)) or len(a) != len(b):
            return float("inf")
        return max((_max_rel(x, y) for x, y in zip(a, b)), default=0.0)
    return 0.0 if a == b else float("inf")


def tables_match(
    table: RunTable, oracle: RunTable, *, rel_tol: float = 0.0
) -> Tuple[bool, float]:
    """Compare two RunTables row for row; returns ``(ok, max_rel_err)``.

    Rows must line up by (scheme, policy); every numeric field of each
    row's :class:`~repro.core.executor.RunResult` must agree to
    ``rel_tol`` relative error (``0.0`` = bit-identical) and every
    discrete field (answer ids, op tallies, message shapes) exactly.
    NIC dwell is compared only when both sides carry one — the scalar
    engine reports none.
    """
    if len(table.rows) != len(oracle.rows):
        return False, float("inf")
    worst = 0.0
    for a, b in zip(table.rows, oracle.rows):
        if a.scheme != b.scheme or a.policy != b.policy:
            return False, float("inf")
        worst = max(worst, _max_rel(a.result, b.result))
        if a.dwell is not None and b.dwell is not None:
            worst = max(worst, _max_rel(a.dwell, b.dwell))
    return worst <= rel_tol, worst


def measure_e2e_speedup(
    env: Environment,
    queries: Sequence[Query],
    configs: Sequence[SchemeConfig],
    policies: Optional[Sequence[Policy]] = None,
    *,
    repeats: int = 3,
    rel_tol: float = 1e-9,
) -> Dict[str, object]:
    """Time scalar vs batched end-to-end on one workload.

    Returns the ``BENCH_e2e.json`` payload::

        {"benchmark": "e2e_speedup", "dataset": ..., "n_queries": ...,
         "n_configs": ..., "n_policies": ..., "repeats": ..., "rel_tol": ...,
         "scalar_seconds": ..., "batched_seconds": ...,
         "batched_vs_scalar": ..., "tables_match": ...,
         "max_rel_err_vs_scalar": ..., "min_region_s": ...,
         "scalar_region_seconds": ..., "scalar_passes": ...,
         "batched_region_seconds": ..., "batched_passes": ...}

    ``*_seconds`` are per pass, in each side's fastest region, whose wall
    and passes are ``*_region_seconds`` and ``*_passes``.  Parity is
    established on the warm-up pass: batched vs the scalar reference
    within ``rel_tol``.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    queries = list(queries)
    configs = list(configs)
    policies = list(policies) if policies is not None else Policy.sweep()

    # Warm-up (untimed) + the differential checks.
    tables = {
        side: run_table_once(
            env, queries, configs, policies, planner=planner, engine=engine
        )
        for side, (planner, engine) in E2E_SIDES.items()
    }
    parity_ok, scalar_err = tables_match(
        tables["batched"], tables["scalar"], rel_tol=rel_tol
    )

    best = time_regions(
        {
            side: partial(
                run_table_once,
                env,
                queries,
                configs,
                policies,
                planner=planner,
                engine=engine,
            )
            for side, (planner, engine) in E2E_SIDES.items()
        },
        repeats,
    )
    seconds = {side: wall / passes for side, (wall, passes) in best.items()}

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else float("inf")

    record = {
        "benchmark": "e2e_speedup",
        "dataset": env.dataset.name,
        "n_queries": len(queries),
        "n_configs": len(configs),
        "n_policies": len(policies),
        "repeats": repeats,
        "rel_tol": rel_tol,
        "scalar_seconds": seconds["scalar"],
        "batched_seconds": seconds["batched"],
        "batched_vs_scalar": ratio(seconds["scalar"], seconds["batched"]),
        "tables_match": bool(parity_ok),
        "max_rel_err_vs_scalar": scalar_err,
        "min_region_s": MIN_REGION_S,
    }
    for side, (wall, passes) in best.items():
        record[f"{side}_region_seconds"] = wall
        record[f"{side}_passes"] = passes
    return record


def measure_e2e_speedup_kinds(
    env: Environment,
    kinds: Sequence[str],
    *,
    runs: int = 100,
    repeats: int = 3,
    rel_tol: float = 1e-9,
) -> Dict[str, object]:
    """Per-kind end-to-end timing, one :func:`measure_e2e_speedup` per kind.

    Each kind gets the same paper workload and scheme grid the per-kind
    planbench uses (:func:`repro.bench.planbench._kind_workload`), priced
    over the standard bandwidth sweep.  Returns::

        {"benchmark": "e2e_speedup_kinds", "dataset": ..., "runs": ...,
         "repeats": ..., "kinds": {"range": {<measure_e2e_speedup row>}, ...},
         "tables_match": <all kinds>, "min_speedup": <worst batched_vs_scalar>}
    """
    kinds = list(kinds)
    if not kinds:
        raise ValueError("kinds must name at least one query kind")
    rows: Dict[str, Dict[str, object]] = {}
    for kind in kinds:
        queries, configs = _kind_workload(env, kind, runs)
        rows[kind] = measure_e2e_speedup(
            env, queries, configs, repeats=repeats, rel_tol=rel_tol
        )
    return {
        "benchmark": "e2e_speedup_kinds",
        "dataset": env.dataset.name,
        "runs": runs,
        "repeats": repeats,
        "kinds": rows,
        "tables_match": all(r["tables_match"] for r in rows.values()),
        "min_speedup": min(r["batched_vs_scalar"] for r in rows.values()),
    }


def render_e2e_speedup(record: Dict[str, object]) -> str:
    """One human-readable block for a :func:`measure_e2e_speedup` record."""
    lines = [
        "e2e_speedup: workload -> RunTable, batched engine vs scalar",
        f"  dataset      : {record['dataset']}"
        f"  ({record['n_queries']} queries x {record['n_configs']} configs"
        f" x {record['n_policies']} policies, best of {record['repeats']})",
        *(
            f"  {side:<12} : {record[f'{side}_seconds']:.4f} s per pass"
            f" ({record[f'{side}_passes']} passes in"
            f" {record[f'{side}_region_seconds']:.2f} s)"
            for side in E2E_SIDES
        ),
        f"  speedup      : {record['batched_vs_scalar']:.2f}x",
        f"  tables match : {record['tables_match']}"
        f"  (worst rel err vs scalar: {record['max_rel_err_vs_scalar']:.2e})",
    ]
    prov = record.get("provenance")
    if prov is not None:
        lines.append(
            f"  commit       : {prov['git_sha']}"
            f"{' with uncommitted changes' if prov['git_dirty'] else ''}"
            f" ({prov['timestamp_utc']}, {prov['platform']})"
        )
    return "\n".join(lines)


def render_e2e_speedup_kinds(record: Dict[str, object]) -> str:
    """Per-kind table for a :func:`measure_e2e_speedup_kinds` record."""
    lines = [
        "e2e_speedup_kinds: workload -> RunTable per query kind",
        f"  dataset : {record['dataset']}"
        f"  ({record['runs']} queries/kind, min of {record['repeats']})",
        "  kind   scalar_s  batched_s  speedup  tables_match",
    ]
    for kind, row in record["kinds"].items():
        lines.append(
            f"  {kind:<6} {row['scalar_seconds']:>8.3f} "
            f"{row['batched_seconds']:>10.3f} "
            f"{row['batched_vs_scalar']:>7.2f}x  {row['tables_match']}"
        )
    return "\n".join(lines)
