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
    Time the batched engine against the scalar oracle on a figure sweep
    or per query kind, planning, pricing or end to end
    (:mod:`repro.bench.speedup`); exits 1 when the batched side's results
    differ or it is slower.  ``--ledger PATH`` writes the structured
    JSON-lines run-ledger.
``serve``
    Run the multi-tenant query service over a generated client fleet and
    print throughput, admission, and latency/energy percentiles.
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
from repro.bench.figures import NN_CONFIGS
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
        configs = NN_CONFIGS
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


#: The query kind of each figure sweep that ``bench --sweep`` times.
_SWEEP_KINDS = {"fig4": "point", "fig5": "range", "fig6": "nn"}


def cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro.bench import speedup
    from repro.bench.provenance import stamp_record
    from repro.bench.report import summarize_ledger
    from repro.core.gridrun import RunLedger

    kinds = None
    if args.kinds:
        kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
        unknown = [k for k in kinds if k not in speedup.KINDS]
        if unknown:
            print(
                f"FAIL: unknown query kind(s) {', '.join(unknown)}; "
                f"expected any of {', '.join(speedup.KINDS)}",
                file=sys.stderr,
            )
            return 1
    env = _load_env(args.dataset, args.scale)
    if args.loss > 0.0:
        policies = Policy.sweep(
            loss_rates=(args.loss,), loss_burst_frames=args.burst_frames
        )
    else:
        policies = Policy.sweep()
    with RunLedger(path=args.ledger) as ledger:
        if kinds is not None:
            record = speedup.measure_kinds(
                args.stage, env, kinds, runs=args.runs, policies=policies,
                repeats=args.repeat, ledger=ledger,
            )
            label = f"{args.stage} {','.join(kinds)}"
        else:
            qs, configs = speedup.kind_workload(
                env, _SWEEP_KINDS[args.sweep], args.runs
            )
            record = speedup.measure(
                args.stage, env, qs, configs, policies,
                repeats=args.repeat, ledger=ledger,
            )
            record["sweep"] = args.sweep
            label = f"{args.stage} {args.sweep} sweep"
        record["scale"] = args.scale
        ledger.record(
            "speedup",
            label=label,
            batched_s=record["batched_seconds"],
            scalar_s=record["scalar_seconds"],
            speedup=record["speedup"],
            max_rel_err=record["max_rel_err"],
        )
    print(speedup.render(record))
    print(summarize_ledger(ledger.records))
    if args.ledger:
        print(f"ledger  : {args.ledger}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(stamp_record(record), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"json    : {args.json}")
    if not record["parity"]:
        print(
            f"FAIL: batched {args.stage} results differ from the scalar oracle"
            f" (worst rel err {record['max_rel_err']:.2e})",
            file=sys.stderr,
        )
        return 1
    if record["speedup"] < 1.0:
        print(
            f"FAIL: batched {args.stage} slower than scalar"
            f" ({record['speedup']:.2f}x)",
            file=sys.stderr,
        )
        return 1
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
    with RunLedger(path=args.ledger) as ledger:
        service = QueryService(
            env,
            max_queue=args.max_queue,
            max_batch=args.max_batch,
            batch_window_s=args.window,
            ledger=ledger,
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
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(stamp_record(dict(s)), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"json    : {args.json}")
    if args.ledger:
        print(f"ledger  : {args.ledger}")
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
        help="time batched vs scalar planning, pricing or end to end; "
             "--ledger PATH records the run",
    )
    b.add_argument("--stage", default="price", choices=("plan", "price", "e2e"),
                   help="what both sides do: plan, price planned workloads, "
                        "or run workload -> RunTable")
    b.add_argument("--sweep", default="fig5", choices=("fig4", "fig5", "fig6"),
                   help="which figure workload to time")
    b.add_argument("--kinds", default=None, metavar="K1,K2",
                   help="comma-separated query kinds (point,range,nn,knn); "
                        "reports one speedup row per kind and overrides "
                        "--sweep")
    b.add_argument("--runs", type=int, default=25, help="queries per workload")
    b.add_argument("--repeat", type=int, default=3,
                   help="timed rounds per side (the fastest is reported)")
    b.add_argument("--loss", type=float, default=0.0,
                   help="frame-loss rate for the sweep's policies "
                        "(0 = ideal channel)")
    b.add_argument("--burst-frames", type=float, default=None,
                   help="mean loss-burst length (default: i.i.d. losses)")
    b.add_argument("--ledger", metavar="PATH", default=None,
                   help="write the JSON-lines run-ledger to PATH")
    b.add_argument("--json", metavar="PATH", default=None,
                   help="write the machine-readable record to PATH")

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
    sv.add_argument("--ledger", metavar="PATH", default=None,
                    help="write the JSON-lines run-ledger to PATH")
    sv.add_argument("--json", metavar="PATH", default=None,
                    help="write the machine-readable summary to PATH")

    return parser


_COMMANDS = {
    "info": cmd_info,
    "taxonomy": cmd_taxonomy,
    "query": cmd_query,
    "figure": cmd_figure,
    "bench": cmd_bench,
    "serve": cmd_serve,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
