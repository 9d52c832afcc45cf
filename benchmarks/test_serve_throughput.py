"""Multi-tenant service: micro-batched vs serial per-client serving.

The acceptance bar for the query service (this PR's tentpole gate): serving
a 120-client heterogeneous fleet's 30-second arrival stream over full-scale
PA through the cross-client micro-batching path must be at least **11x**
faster wall-clock than serving the identical dispatch sequence one query at
a time through the scalar planner/pricer — while producing the same
verdicts and answers for every request (energies agree to the grid pricer's
1e-9 tolerance; the exhaustive per-field differential lives in
``tests/serve/test_differential.py``).

Each planner is timed over ``REPEATS`` fresh services and scored by its
*minimum* wall time, the standard estimator for noisy shared hosts — the
minimum is the run least perturbed by unrelated load.

The machine-readable record lands in
``benchmarks/results/BENCH_serve.json``.
"""

from __future__ import annotations

from repro.bench.provenance import stamp_record
from repro.data.workloads import client_fleet, fleet_query_stream
from repro.serve import QueryService

SERVE_SPEEDUP_FLOOR = 11.0
N_CLIENTS = 120
DURATION_S = 30.0
REPEATS = 3
SERVICE_KNOBS = dict(max_queue=4096, max_batch=1024, batch_window_s=3.0)


def _render(record: dict) -> str:
    lines = [
        "Multi-tenant serve throughput: micro-batched vs serial "
        f"({record['n_clients']} clients, {record['n_requests']} requests)",
        "",
        f"{'planner':10s} {'wall_s (min of ' + str(REPEATS) + ')':>22s} "
        f"{'qps':>10s} {'p50 lat':>10s} {'p99 lat':>10s}",
    ]
    for planner in ("batched", "serial"):
        s = record[planner]
        lines.append(
            f"{planner:10s} {record[planner + '_seconds']:>22.3f} "
            f"{s['qps']:>10.1f} {s['p50_latency_s']:>9.2f}s "
            f"{s['p99_latency_s']:>9.2f}s"
        )
    lines += [
        "",
        f"speedup          : {record['speedup']:.2f}x "
        f"(gate >= {SERVE_SPEEDUP_FLOOR:.1f}x)",
        f"outcomes equal   : {record['outcomes_equal']}",
        f"max energy relerr: {record['max_energy_rel_err']:.2e}",
        f"served/rejected  : {record['batched']['n_served']} / "
        f"{record['batched']['n_rejected_queue']} queue, "
        f"{record['batched']['n_rejected_battery']} battery",
    ]
    return "\n".join(lines)


def _outcomes_match(batched, serial):
    """Verdicts and answers request-for-request; worst energy divergence."""
    if len(batched) != len(serial):
        return False, float("inf")
    worst = 0.0
    for b, s in zip(batched.outcomes, serial.outcomes):
        if (
            b.client_id != s.client_id
            or b.verdict != s.verdict
            or b.answer_ids != s.answer_ids
        ):
            return False, float("inf")
        if b.served and s.result.energy.total() > 0:
            ref = s.result.energy.total()
            worst = max(worst, abs(b.result.energy.total() - ref) / ref)
    return True, worst


def test_serve_microbatching_speedup(pa_env, save_report, save_json):
    fleet = client_fleet(N_CLIENTS, seed=5)
    requests = fleet_query_stream(
        pa_env.dataset, fleet, duration_s=DURATION_S, seed=7, hot_fraction=0.6
    )

    reports = {"batched": [], "serial": []}
    # Alternate planners across repeats so slow drift in host load hits
    # both sides equally; score each by its fastest (least-perturbed) run.
    for _ in range(REPEATS):
        for planner in ("batched", "serial"):
            service = QueryService(pa_env, **SERVICE_KNOBS)
            reports[planner].append(
                service.serve(requests, fleet, planner=planner)
            )

    best = {
        planner: min(runs, key=lambda r: r.wall_seconds)
        for planner, runs in reports.items()
    }
    equal, worst_rel = _outcomes_match(best["batched"], best["serial"])
    speedup = best["serial"].wall_seconds / best["batched"].wall_seconds

    record = {
        "n_clients": N_CLIENTS,
        "duration_s": DURATION_S,
        "repeats": REPEATS,
        "n_requests": len(requests),
        "service": dict(SERVICE_KNOBS),
        "batched": best["batched"].summary(),
        "serial": best["serial"].summary(),
        "batched_seconds": best["batched"].wall_seconds,
        "serial_seconds": best["serial"].wall_seconds,
        "batched_seconds_all": [r.wall_seconds for r in reports["batched"]],
        "serial_seconds_all": [r.wall_seconds for r in reports["serial"]],
        "speedup": speedup,
        "outcomes_equal": equal,
        "max_energy_rel_err": worst_rel,
    }
    # Stamped before this test writes its own outputs, so the record names
    # the tree it was measured on.
    record = stamp_record(record)
    save_report("serve_throughput", _render(record))
    save_json("BENCH_serve", record)

    assert equal, "batched service outcomes differ from serial serving"
    assert worst_rel < 1e-9, f"energy divergence {worst_rel:.2e} exceeds 1e-9"
    assert speedup >= SERVE_SPEEDUP_FLOOR, (
        f"micro-batched serving only {speedup:.2f}x faster "
        f"({best['batched'].wall_seconds:.3f}s vs "
        f"{best['serial'].wall_seconds:.3f}s serial)"
    )
