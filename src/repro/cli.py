"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Dataset and index statistics for the synthetic PA/NYC atlases.
``query``
    Run one query under every applicable scheme and print the energy and
    latency of each (a one-shot version of the road-atlas example).
``figure``
    Regenerate a paper figure's table (fig4..fig10) at a chosen dataset
    scale and print it.
``bench``
    Time the batched grid pricer against the scalar oracle on a figure
    sweep; ``--ledger PATH`` writes the structured JSON-lines run-ledger.
``serve``
    Run the multi-tenant query service over a generated client fleet and
    print throughput, admission, and latency/energy percentiles.
``semcache``
    Measure the cross-query semantic candidate cache on the locality-skewed
    browse workload: verifies answers are bit-identical to uncached
    planning, reports hit/refine/miss tallies, and gates the node-visit and
    client-energy reductions (exits 1 on a miss of either).
``taxonomy``
    Print the Table 1 work-partitioning taxonomy.

Every command accepts ``--scale`` to trade fidelity for speed; the figure
benches under ``benchmarks/`` remain the authoritative full-scale
reproduction.  All experiment commands route through the
:class:`repro.api.Session` facade.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.api import Session
from repro.constants import MBPS
from repro.core.executor import Environment, Policy
from repro.core.queries import NNQuery, PointQuery, RangeQuery
from repro.core.schemes import ADEQUATE_MEMORY_CONFIGS, Scheme, SchemeConfig
from repro.data import tiger
from repro.spatial.mbr import MBR
from repro.spatial.stats import tree_stats

__all__ = ["main", "build_parser"]


def _load_env(dataset: str, scale: float) -> Environment:
    name = dataset.upper()
    if name == "PA":
        ds = tiger.pa_dataset(scale=scale)
    elif name == "NYC":
        ds = tiger.nyc_dataset(scale=scale)
    else:
        raise SystemExit(f"unknown dataset {dataset!r} (use PA or NYC)")
    return Environment.create(ds)


def _policy(args: argparse.Namespace) -> Policy:
    return (
        Policy()
        .with_bandwidth(args.bandwidth * MBPS)
        .with_distance(args.distance)
    )


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def cmd_info(args: argparse.Namespace) -> int:
    env = _load_env(args.dataset, args.scale)
    ds = env.dataset
    print(f"dataset : {ds.name} x{args.scale:g} -> {ds.size} segments")
    print(f"extent  : {ds.extent.width / 1000:.1f} x {ds.extent.height / 1000:.1f} km")
    print(f"data    : {ds.data_bytes() / 1e6:.2f} MB ({ds.costs.segment_record_bytes} B/record)")
    print(f"index   : {tree_stats(env.tree)}")
    return 0


def cmd_taxonomy(args: argparse.Namespace) -> int:
    from repro.bench.report import render_rows
    from repro.core.schemes import table1_rows

    print(render_rows(table1_rows(), "Table 1: Work Partitioning and Data Placement Choices"))
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    session = Session(_load_env(args.dataset, args.scale))
    ds = session.dataset
    if args.kind == "point":
        i = args.anchor if args.anchor is not None else ds.size // 2
        q = PointQuery(float(ds.x1[i]), float(ds.y1[i]))
        configs = [
            SchemeConfig(Scheme.FULLY_CLIENT),
            SchemeConfig(Scheme.FULLY_SERVER, data_at_client=True),
            SchemeConfig(Scheme.FILTER_CLIENT_REFINE_SERVER, data_at_client=True),
            SchemeConfig(Scheme.FILTER_SERVER_REFINE_CLIENT, data_at_client=True),
        ]
    elif args.kind == "range":
        i = args.anchor if args.anchor is not None else ds.size // 2
        cx = float(ds.x1[i] + ds.x2[i]) / 2
        cy = float(ds.y1[i] + ds.y2[i]) / 2
        half = args.window_km * 500.0  # km -> m, half-width
        q = RangeQuery(MBR(cx - half, cy - half, cx + half, cy + half))
        configs = list(ADEQUATE_MEMORY_CONFIGS)
    else:
        i = args.anchor if args.anchor is not None else ds.size // 2
        q = NNQuery(float(ds.x1[i]), float(ds.y1[i]))
        configs = [
            SchemeConfig(Scheme.FULLY_CLIENT),
            SchemeConfig(Scheme.FULLY_SERVER, data_at_client=True),
        ]
    policy = _policy(args)
    print(
        f"{args.kind} query on {ds.name} x{args.scale:g} at "
        f"{args.bandwidth:g} Mbps, {args.distance:g} m"
    )
    for row in session.run(q, schemes=configs, policies=policy):
        r = row.result
        print(
            f"  {row.scheme:62s} {r.energy.total() * 1e3:10.4f} mJ"
            f"  {r.wall_seconds * 1e3:9.2f} ms  ({r.n_results} results)"
        )
    return 0


_FIGURES = {
    "fig4": ("point queries", "fig4_point_queries"),
    "fig5": ("range queries (PA)", "fig5_range_queries"),
    "fig6": ("nearest-neighbor queries", "fig6_nn_queries"),
    "fig7": ("range queries (NYC)", "fig5_range_queries"),
    "fig9": ("range queries at 100 m", "fig9_distance"),
    "fig10": ("insufficient memory", "fig10_insufficient_memory"),
    "loss": ("range queries on a lossy link", "fig_loss_sweep"),
}


def cmd_figure(args: argparse.Namespace) -> int:
    from repro.bench import figures as figs
    from repro.bench.report import render_fig10, render_loss_sweep, render_sweep

    which = args.name
    if which == "fig8":
        from repro.bench.figures import fig8_client_speed

        ds = (
            tiger.pa_dataset(scale=args.scale)
            if args.dataset.upper() == "PA"
            else tiger.nyc_dataset(scale=args.scale)
        )
        sweep = fig8_client_speed(ds, n_runs=args.runs)
        print(render_sweep(sweep, "Figure 8: Range Queries, C/S=1/2"))
        return 0
    if which not in _FIGURES:
        raise SystemExit(
            f"unknown figure {which!r}; choose from "
            f"{', '.join(sorted(set(_FIGURES) | {'fig8'}))}"
        )
    dataset = "NYC" if which == "fig7" else args.dataset
    session = Session(_load_env(dataset, args.scale))
    title, fn_name = _FIGURES[which]
    fn = getattr(figs, fn_name)
    if which == "fig10":
        rows = fn(session)
        print(render_fig10(rows, f"Figure 10: {title}"))
    elif which == "loss":
        sweep = fn(
            session,
            n_runs=args.runs,
            bandwidth_mbps=args.bandwidth,
            burst_frames=args.burst_frames,
        )
        print(
            render_loss_sweep(
                sweep, f"loss: {title} (x{args.scale:g} scale)"
            )
        )
    else:
        sweep = fn(session, n_runs=args.runs)
        print(render_sweep(sweep, f"{which}: {title} (x{args.scale:g} scale)"))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.report import summarize_ledger
    from repro.core.gridrun import RunLedger
    from repro.data.workloads import nn_queries, point_queries, range_queries

    env = _load_env(args.dataset, args.scale)
    workloads = {
        "fig4": (point_queries, None),
        "fig5": (range_queries, ADEQUATE_MEMORY_CONFIGS),
        "fig6": (nn_queries, None),
    }
    gen, configs = workloads[args.sweep]
    if configs is None:
        from repro.bench.figures import POINT_NN_CONFIGS

        configs = (
            POINT_NN_CONFIGS
            if args.sweep == "fig4"
            else (
                SchemeConfig(Scheme.FULLY_CLIENT),
                SchemeConfig(Scheme.FULLY_SERVER, data_at_client=True),
            )
        )
    qs = gen(env.dataset, args.runs)
    if args.loss > 0.0:
        policies = Policy.sweep(
            loss_rates=(args.loss,), loss_burst_frames=args.burst_frames
        )
    else:
        policies = Policy.sweep()
    with RunLedger(path=args.ledger) as ledger:
        session = Session(env, ledger=ledger)
        # Plan once so both engines price identical cached plans, then time
        # each engine's pricing pass (the ledger's price events carry the
        # same figures).
        for cfg in configs:
            session.plan(qs, cfg)
        table = session.run(qs, schemes=configs, policies=policies)
        scalar = session.run(
            qs, schemes=configs, policies=policies, engine="scalar"
        )
        batched_s = sum(
            r["seconds"]
            for r in ledger.records
            if r["event"] == "price" and r["engine"] == "batched"
        )
        scalar_s = sum(
            r["seconds"]
            for r in ledger.records
            if r["event"] == "price" and r["engine"] == "scalar"
        )
        worst = max(
            abs(b.energy_j - s.energy_j) / s.energy_j
            for b, s in zip(table, scalar)
        )
        ledger.record(
            "speedup",
            label=f"{args.sweep} bandwidth sweep",
            batched_s=batched_s,
            scalar_s=scalar_s,
            speedup=scalar_s / batched_s if batched_s > 0 else float("inf"),
            max_rel_err=worst,
        )
        print(summarize_ledger(ledger.records))
    if args.ledger:
        print(f"ledger  : {args.ledger}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.bench.provenance import stamp_record
    from repro.core.gridrun import RunLedger
    from repro.data.workloads import client_fleet, fleet_query_stream
    from repro.serve import QueryService

    env = _load_env(args.dataset, args.scale)
    rate = (args.rate, args.rate) if args.rate is not None else (0.5, 2.0)
    fleet = client_fleet(args.clients, seed=args.seed, rate_qps=rate)
    requests = fleet_query_stream(
        env.dataset, fleet, duration_s=args.duration, seed=args.seed + 1
    )
    sharding = None
    if args.shards:
        from repro.core.shardstore import ShardConfig

        sharding = ShardConfig(
            n_shards=args.shards,
            budget_bytes=(
                int(args.shard_budget_mb * (1 << 20))
                if args.shard_budget_mb is not None
                else None
            ),
        )
    with RunLedger(path=args.ledger) as ledger:
        service = QueryService(
            env,
            max_queue=args.max_queue,
            max_batch=args.max_batch,
            batch_window_s=args.window,
            ledger=ledger,
            sharding=sharding,
        )
        report = service.serve(requests, fleet, planner=args.planner)
    s = report.summary()
    print(
        f"served {s['n_served']}/{s['n_requests']} requests from "
        f"{args.clients} clients in {s['n_batches']} batches "
        f"({args.planner} planner)"
    )
    print(
        f"rejected: {s['n_rejected_queue']} queue-full, "
        f"{s['n_rejected_battery']} battery-exhausted"
    )
    print(f"throughput : {s['qps']:.1f} q/s over {s['makespan_s']:.1f} s simulated")
    print(
        f"latency    : p50 {s['p50_latency_s'] * 1e3:.2f} ms, "
        f"p99 {s['p99_latency_s'] * 1e3:.2f} ms"
    )
    print(
        f"energy     : p50 {s['p50_energy_j'] * 1e3:.3f} mJ, "
        f"p99 {s['p99_energy_j'] * 1e3:.3f} mJ, "
        f"total {s['total_energy_j']:.3f} J"
    )
    if report.shard is not None:
        sh = report.shard
        print(
            f"sharding   : {sh['shards_pruned']}/{sh['shards_total']} shards "
            f"pruned ({report.shard_prune_rate:.0%}), "
            f"{sh['shards_resident']} resident, {sh['shard_loads']} loads, "
            f"{sh['shard_evictions']} evictions"
        )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(stamp_record(dict(s)), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"json    : {args.json}")
    if args.ledger:
        print(f"ledger  : {args.ledger}")
    return 0


def _sweep_workload(env: Environment, sweep: str, runs: int):
    """The (queries, configs) pair a planbench ``--sweep`` entry times."""
    from repro.bench.planbench import NN_CONFIGS
    from repro.data.workloads import nn_queries, point_queries, range_queries

    if sweep == "fig5":
        return range_queries(env.dataset, runs), list(ADEQUATE_MEMORY_CONFIGS)
    if sweep == "fig4":
        from repro.bench.figures import POINT_NN_CONFIGS

        return point_queries(env.dataset, runs), list(POINT_NN_CONFIGS)
    return nn_queries(env.dataset, runs), list(NN_CONFIGS)


def cmd_planbench(args: argparse.Namespace) -> int:
    import json

    from repro.bench.planbench import (
        PLAN_KINDS,
        measure_plan_speedup,
        measure_plan_speedup_kinds,
        render_plan_speedup,
        render_plan_speedup_kinds,
    )
    from repro.bench.provenance import stamp_record

    env = _load_env(args.dataset, args.scale)
    kinds = None
    if args.kinds:
        kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
        unknown = [k for k in kinds if k not in PLAN_KINDS]
        if unknown:
            print(
                f"FAIL: unknown query kind(s) {', '.join(unknown)}; "
                f"expected any of {', '.join(PLAN_KINDS)}",
                file=sys.stderr,
            )
            return 1
    if args.e2e:
        from repro.bench.e2ebench import (
            measure_e2e_speedup,
            measure_e2e_speedup_kinds,
            render_e2e_speedup,
            render_e2e_speedup_kinds,
        )

        if kinds is not None:
            record = measure_e2e_speedup_kinds(
                env, kinds, runs=args.runs, repeats=args.repeat
            )
            render = render_e2e_speedup_kinds
            worst = record["min_speedup"]
        else:
            qs, configs = _sweep_workload(env, args.sweep, args.runs)
            record = measure_e2e_speedup(env, qs, configs, repeats=args.repeat)
            record["sweep"] = args.sweep
            render = render_e2e_speedup
            worst = record["batched_vs_scalar"]
        parity = record["tables_match"]
        parity_fail = "FAIL: batched RunTables differ from the scalar oracle"
        slow_fail = "FAIL: batched engine slower than scalar end to end"
    elif kinds is not None:
        record = measure_plan_speedup_kinds(
            env, kinds, runs=args.runs, repeats=args.repeat
        )
        render = render_plan_speedup_kinds
        worst = record["min_speedup"]
        parity = record["plans_equal"]
        parity_fail = "FAIL: batched plans differ from scalar plans"
        slow_fail = "FAIL: batched planner slower than scalar"
    else:
        qs, configs = _sweep_workload(env, args.sweep, args.runs)
        record = measure_plan_speedup(env, qs, configs, repeats=args.repeat)
        record["sweep"] = args.sweep
        render = render_plan_speedup
        worst = record["speedup"]
        parity = record["plans_equal"]
        parity_fail = "FAIL: batched plans differ from scalar plans"
        slow_fail = "FAIL: batched planner slower than scalar"
    record["scale"] = args.scale
    print(render(record))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(stamp_record(record), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"json    : {args.json}")
    if not parity:
        print(parity_fail, file=sys.stderr)
        return 1
    if worst < 1.0:
        print(f"{slow_fail} ({worst:.2f}x)", file=sys.stderr)
        return 1
    return 0


def cmd_semcache(args: argparse.Namespace) -> int:
    import json

    import numpy as np

    from repro.bench.provenance import stamp_record
    from repro.core.batchplan import compute_query_phases
    from repro.core.semcache import SemanticCache, compute_query_phases_semantic
    from repro.data.workloads import locality_workload

    env = _load_env(args.dataset, args.scale)
    queries = locality_workload(
        env.dataset, args.groups, args.zoom, seed=args.seed
    )
    config = SchemeConfig(Scheme.FULLY_CLIENT)
    policy = _policy(args)

    # Charged filter-phase node visits per query occurrence, both paths.
    env.reset_caches()
    uncached = compute_query_phases(env, queries)
    nodes_uncached = sum(
        int(qp.filter_trace.counter.nodes_visited) for qp in uncached
    )
    cache = SemanticCache(args.capacity)
    env.reset_caches()
    semantic, verdicts = compute_query_phases_semantic(env, queries, cache)
    nodes_semantic = sum(
        int(qp.filter_trace.counter.nodes_visited) for qp in semantic
    )
    answers_equal = len(uncached) == len(semantic) and all(
        np.array_equal(a.answer_ids, b.answer_ids)
        for a, b in zip(semantic, uncached)
    )

    # Priced client energy through the facade, fresh caches per run.
    base_row = Session(env).run(
        queries, schemes=config, policies=policy
    ).rows[0]
    sem_row = Session(env, semantic_cache=SemanticCache(args.capacity)).run(
        queries, schemes=config, policies=policy
    ).rows[0]
    node_reduction = (
        1.0 - nodes_semantic / nodes_uncached if nodes_uncached else 0.0
    )
    energy_reduction = (
        1.0 - sem_row.energy_j / base_row.energy_j if base_row.energy_j else 0.0
    )
    stats = cache.stats_dict()
    record = {
        "workload": "locality",
        "dataset": env.dataset.name,
        "scale": args.scale,
        "n_queries": len(queries),
        "groups": args.groups,
        "zoom_depth": args.zoom,
        "seed": args.seed,
        "capacity": args.capacity,
        "scheme": config.label,
        "bandwidth_mbps": args.bandwidth,
        "answers_equal": answers_equal,
        "nodes_uncached": nodes_uncached,
        "nodes_semantic": nodes_semantic,
        "node_reduction": node_reduction,
        "energy_uncached_j": base_row.energy_j,
        "energy_semantic_j": sem_row.energy_j,
        "energy_reduction": energy_reduction,
        "verdicts": {
            v: sum(1 for x in verdicts if x == v)
            for v in ("hit", "refine", "miss")
        },
        "cache": stats,
    }
    print(f"semantic candidate cache -- {env.dataset.name} locality workload")
    print(f"queries : {len(queries)}  (groups={args.groups}, zoom={args.zoom})")
    print(
        "verdicts: "
        f"{record['verdicts']['hit']} hit / "
        f"{record['verdicts']['refine']} refine / "
        f"{record['verdicts']['miss']} miss  "
        f"(hit rate {stats['hit_rate']:.1%})"
    )
    print(
        f"nodes   : {nodes_uncached} uncached -> {nodes_semantic} cached  "
        f"({node_reduction:.1%} fewer R-tree node visits)"
    )
    print(
        f"energy  : {base_row.energy_j:.4f} J -> {sem_row.energy_j:.4f} J  "
        f"({energy_reduction:.1%} less client energy)"
    )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(stamp_record(record), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"json    : {args.json}")
    if not answers_equal:
        print(
            "FAIL: semantic-cached answers differ from uncached planning",
            file=sys.stderr,
        )
        return 1
    if node_reduction < 0.3:
        print(
            f"FAIL: node-visit reduction {node_reduction:.1%} below the "
            "30% gate",
            file=sys.stderr,
        )
        return 1
    if sem_row.energy_j >= base_row.energy_j:
        print(
            "FAIL: semantic cache did not reduce client energy",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_shard(args: argparse.Namespace) -> int:
    import json
    import time

    import numpy as np

    from repro.bench.provenance import stamp_record
    from repro.core.batchplan import compute_query_phases
    from repro.core.executor import Environment
    from repro.core.shardstore import ShardConfig, ShardStore
    from repro.data.workloads import locality_workload

    env = _load_env(args.dataset, args.scale)
    queries = locality_workload(
        env.dataset, args.groups, args.zoom, seed=args.seed
    )

    budget = (
        int(args.budget_mb * (1 << 20)) if args.budget_mb is not None else None
    )
    env_sharded = Environment.create(env.dataset, env.tree)
    env_sharded.shard_store = ShardStore.from_tree(
        env.tree, ShardConfig(n_shards=args.shards, budget_bytes=budget)
    )

    def timed(env_):
        t0 = time.perf_counter()
        phases = compute_query_phases(env_, queries)
        return phases, time.perf_counter() - t0

    # Warm both paths (shard materialization, allocator state), then
    # interleave the timed rounds so a frequency wobble hits both sides.
    base_phases, _ = timed(env)
    shard_phases, _ = timed(env_sharded)
    base_wall = shard_wall = float("inf")
    for _ in range(args.repeat):
        _, w = timed(env)
        base_wall = min(base_wall, w)
        _, w = timed(env_sharded)
        shard_wall = min(shard_wall, w)
    stats = env_sharded.shard_store.stats_dict()
    prune_rate = (
        stats["shards_pruned"] / stats["shards_total"]
        if stats["shards_total"]
        else 0.0
    )
    slowdown = shard_wall / base_wall if base_wall > 0 else float("inf")
    answers_equal = len(base_phases) == len(shard_phases) and all(
        np.array_equal(a.answer_ids, b.answer_ids)
        for a, b in zip(shard_phases, base_phases)
    )

    record = {
        "workload": "locality",
        "dataset": env.dataset.name,
        "scale": args.scale,
        "n_queries": len(queries),
        "groups": args.groups,
        "zoom_depth": args.zoom,
        "seed": args.seed,
        "n_shards": args.shards,
        "budget_bytes": budget or 0,
        "repeat": args.repeat,
        "answers_equal": answers_equal,
        "prune_rate": prune_rate,
        "wall_unsharded_s": base_wall,
        "wall_sharded_s": shard_wall,
        "slowdown": slowdown,
        "min_prune_rate": args.min_prune,
        "max_slowdown": args.max_slowdown,
        "shard": stats,
    }
    print(f"hilbert shard pruning -- {env.dataset.name} locality workload")
    print(f"queries : {len(queries)}  (groups={args.groups}, zoom={args.zoom})")
    print(
        f"shards  : {stats['shards_pruned']}/{stats['shards_total']} pruned "
        f"at plan time ({prune_rate:.1%}), {stats['shard_loads']} loads, "
        f"{stats['shard_evictions']} evictions"
    )
    print(
        f"wall    : {base_wall * 1e3:.1f} ms unsharded -> "
        f"{shard_wall * 1e3:.1f} ms sharded ({slowdown:.2f}x)"
    )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(stamp_record(record), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"json    : {args.json}")
    if not answers_equal:
        print(
            "FAIL: sharded answers differ from unsharded planning",
            file=sys.stderr,
        )
        return 1
    if prune_rate < args.min_prune:
        print(
            f"FAIL: prune rate {prune_rate:.1%} below the "
            f"{args.min_prune:.0%} gate",
            file=sys.stderr,
        )
        return 1
    if slowdown > args.max_slowdown:
        print(
            f"FAIL: sharded planning {slowdown:.2f}x slower than unsharded "
            f"(gate {args.max_slowdown:.2f}x)",
            file=sys.stderr,
        )
        return 1
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests).

    This is the single argparse tree behind both the ``repro`` console
    script and ``python -m repro``.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Work partitioning for mobile spatial queries (IPPS 2003 reproduction)",
    )
    parser.add_argument("--dataset", default="PA", help="PA or NYC")
    parser.add_argument(
        "--scale", type=float, default=0.1,
        help="dataset scale, 1.0 = published cardinality",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="dataset and index statistics")
    sub.add_parser("taxonomy", help="print the Table 1 taxonomy")

    q = sub.add_parser("query", help="run one query under every scheme")
    q.add_argument("kind", choices=("point", "range", "nn"))
    q.add_argument("--bandwidth", type=float, default=2.0, help="Mbps")
    q.add_argument("--distance", type=float, default=1000.0, help="meters")
    q.add_argument("--window-km", type=float, default=3.0,
                   help="range window side (km)")
    q.add_argument("--anchor", type=int, default=None,
                   help="segment id to anchor the query on")

    f = sub.add_parser("figure", help="regenerate a paper figure's table")
    f.add_argument("name", help="fig4..fig10, or 'loss' for the lossy-link sweep")
    f.add_argument("--runs", type=int, default=100, help="queries per workload")
    f.add_argument("--bandwidth", type=float, default=2.0,
                   help="fixed bandwidth (Mbps) for the loss sweep")
    f.add_argument("--burst-frames", type=float, default=None,
                   help="mean loss-burst length for the loss sweep "
                        "(default: i.i.d. losses)")

    b = sub.add_parser(
        "bench",
        help="time batched vs scalar pricing; --ledger PATH records the run",
    )
    b.add_argument("--sweep", default="fig5", choices=("fig4", "fig5", "fig6"),
                   help="which figure sweep to time")
    b.add_argument("--runs", type=int, default=25, help="queries per workload")
    b.add_argument("--loss", type=float, default=0.0,
                   help="frame-loss rate for the sweep's policies "
                        "(0 = ideal channel)")
    b.add_argument("--burst-frames", type=float, default=None,
                   help="mean loss-burst length (default: i.i.d. losses)")
    b.add_argument("--ledger", metavar="PATH", default=None,
                   help="write the JSON-lines run-ledger to PATH")

    sv = sub.add_parser(
        "serve",
        help="serve a generated client fleet through the multi-tenant service",
    )
    sv.add_argument("--clients", type=int, default=50,
                    help="number of simulated clients in the fleet")
    sv.add_argument("--rate", type=float, default=None, metavar="QPS",
                    help="per-client arrival rate (default: mixed 0.5-2 q/s)")
    sv.add_argument("--duration", type=float, default=10.0,
                    help="arrival-window length (simulated seconds)")
    sv.add_argument("--planner", default="batched",
                    choices=("batched", "serial"),
                    help="micro-batched service or serial per-client baseline")
    sv.add_argument("--max-queue", type=int, default=256,
                    help="bounded arrival-queue capacity")
    sv.add_argument("--max-batch", type=int, default=64,
                    help="micro-batch size cap")
    sv.add_argument("--window", type=float, default=0.05,
                    help="batch-formation window (seconds)")
    sv.add_argument("--seed", type=int, default=23, help="fleet/stream seed")
    sv.add_argument("--shards", type=int, default=0,
                    help="Hilbert key-range shards (0 = monolithic index)")
    sv.add_argument("--shard-budget-mb", type=float, default=None,
                    help="resident-shard memory budget in MiB "
                         "(default: unbounded)")
    sv.add_argument("--ledger", metavar="PATH", default=None,
                    help="write the JSON-lines run-ledger to PATH")
    sv.add_argument("--json", metavar="PATH", default=None,
                    help="write the machine-readable summary to PATH")

    pb = sub.add_parser(
        "planbench",
        help="time batched vs scalar planning; --json PATH writes BENCH_plan.json",
    )
    pb.add_argument("--sweep", default="fig5", choices=("fig4", "fig5", "fig6"),
                    help="which figure workload to plan")
    pb.add_argument("--kinds", default=None, metavar="K1,K2",
                    help="comma-separated query kinds (point,range,nn,knn); "
                         "reports one speedup row per kind and overrides "
                         "--sweep")
    pb.add_argument("--e2e", action="store_true",
                    help="time the whole workload->RunTable pipeline "
                         "(plan + price) vs the scalar reference instead "
                         "of planning alone")
    pb.add_argument("--runs", type=int, default=100, help="queries per workload")
    pb.add_argument("--repeat", type=int, default=3,
                    help="timed rounds per planner (min is reported)")
    pb.add_argument("--json", metavar="PATH", default=None,
                    help="write the machine-readable record to PATH")

    sc = sub.add_parser(
        "semcache",
        help="measure the semantic candidate cache on the locality workload; "
             "--json PATH writes BENCH_semcache.json",
    )
    sc.add_argument("--groups", type=int, default=40,
                    help="hotspot groups in the locality workload")
    sc.add_argument("--zoom", type=int, default=3,
                    help="zoom-in queries per group")
    sc.add_argument("--capacity", type=int, default=4096,
                    help="semantic-cache capacity in entries")
    sc.add_argument("--seed", type=int, default=31, help="workload seed")
    sc.add_argument("--bandwidth", type=float, default=2.0, help="Mbps")
    sc.add_argument("--distance", type=float, default=1000.0, help="meters")
    sc.add_argument("--json", metavar="PATH", default=None,
                    help="write the machine-readable record to PATH")

    sh = sub.add_parser(
        "shard",
        help="measure Hilbert key-range shard pruning on the locality "
             "workload; --json PATH writes BENCH_shard.json",
    )
    sh.add_argument("--groups", type=int, default=40,
                    help="hotspot groups in the locality workload")
    sh.add_argument("--zoom", type=int, default=3,
                    help="zoom-in queries per group")
    sh.add_argument("--shards", type=int, default=16,
                    help="Hilbert key-range shard count")
    sh.add_argument("--budget-mb", type=float, default=None,
                    help="resident-shard budget in MiB (default: unbounded)")
    sh.add_argument("--seed", type=int, default=31, help="workload seed")
    sh.add_argument("--repeat", type=int, default=5,
                    help="timed rounds per engine (min is reported)")
    sh.add_argument("--min-prune", type=float, default=0.5,
                    help="gate: minimum plan-time shard prune rate")
    sh.add_argument("--max-slowdown", type=float, default=1.1,
                    help="gate: maximum sharded/unsharded wall ratio")
    sh.add_argument("--json", metavar="PATH", default=None,
                    help="write the machine-readable record to PATH")
    return parser


_COMMANDS = {
    "info": cmd_info,
    "taxonomy": cmd_taxonomy,
    "query": cmd_query,
    "figure": cmd_figure,
    "bench": cmd_bench,
    "serve": cmd_serve,
    "planbench": cmd_planbench,
    "semcache": cmd_semcache,
    "shard": cmd_shard,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
