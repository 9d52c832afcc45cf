#!/usr/bin/env python3
"""The repository benchmark: paper sweeps and fleet serving, host throughput.

Run from the repository root::

    python3 perfbench/run.py --workload sweep_range --seed 1 --seconds 30 --trace 0

Workloads (``perfbench/workloads.py``):

``sweep_range``
    Figure 5 shape: density-weighted range queries over full-scale PA, all
    six Table-1 configurations x ``Policy.sweep()``.
``sweep_point_nn``
    Figures 4/6 shape: equal thirds point, NN and k-NN queries under the
    three NN-legal configurations x ``Policy.sweep()``.
``serve_fleet``
    A fixed 120-client fleet's arrival streams (five of 6 s) replayed
    through ``QueryService`` defaults, as a closed loop on the host (one
    caller; the simulated clock does not pace it).

Each run builds the dataset and environment (``setup_s``, median of
several builds), runs one untimed warm-up pass over every chunk, checks it
against the scalar reference on a fixed subsample, then cycles through the
chunks for ``--seconds``, comparing every timed pass with the warm-up pass
bit for bit.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports per-layer metrics (see
``perfbench/layers.py``).  The last line of standard output is the JSON
result.  Simulated energies and latencies are outputs of the model, checked
exactly, and never reported as performance.

The default seed is 1; seed 2 is kept back for confirming a claimed gain.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
CONFIRM_SEED = 2
SETUP_REPEATS = 15
SPANS_DIR = ROOT / ".perfbench_out"

END_TO_END = {
    "setup_s": "s",
    "plans_per_s": "1/s",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src``, never from elsewhere."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def setup(repeats: int = SETUP_REPEATS, scale: float = 1.0):
    """Build the PA dataset and its environment ``repeats`` times.

    Returns the last environment and the median build seconds at nominal
    host speed.
    """
    from perfbench.hostspeed import HostSpeed
    from repro.core.executor import Environment
    from repro.data import tiger

    host = HostSpeed()
    factor = host.factor()
    times = []
    env = None
    for _ in range(repeats):
        env = None  # drop the previous build before timing the next
        gc.collect()
        t0 = time.perf_counter()
        env = Environment.create(tiger.pa_dataset(scale=scale))
        seconds = time.perf_counter() - t0
        after = host.factor()
        times.append(seconds / ((factor + after) / 2))
        factor = after
    return env, statistics.median(times)


class _Tally:
    """Operations attempted and failed over one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def _timed_pass(workload, env, i, ref, tally: _Tally):
    """One pass over chunk ``i``: its seconds, or ``None`` when it raised."""
    ops = workload.ops(i, ref[i])
    gc.collect()
    t0 = time.perf_counter()
    try:
        out = workload.run(env, workload.chunks[i])
    except Exception as exc:  # counted as failed operations, run goes on
        print(f"pass on chunk {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        tally.add(ops, ops)
        return None
    seconds = time.perf_counter() - t0
    tally.add(ops, workload.failed(i, workload.fingerprint(i, out), ref[i]))
    return seconds


def measure(workload, env, seconds: float, trace: bool):
    """Warm up, check, and time ``workload`` for about ``seconds``.

    Passes visit the chunks round-robin until the deadline, and at least
    once each; in trace mode every visit runs an untraced and a traced pass,
    in alternating order.  Each pass's seconds are divided by the mean host
    slowdown factor measured just before and just after it.  Returns
    ``(tally, per-chunk (requests, plans), untraced pass seconds per chunk,
    traced pass seconds per chunk, tracer or None, absent sites)``.
    """
    from perfbench.hostspeed import HostSpeed
    from perfbench.layers import TARGETS
    from perfbench.tracer import Tracer, installed

    # Untimed warm-up.  Only digests of its outputs are kept, so that peak
    # RSS is one pass's working set rather than every chunk's output.
    tally = _Tally()
    counts, ref = [], []
    for i, chunk in enumerate(workload.chunks):
        out = workload.run(env, chunk)
        if i == 0:
            tally.add(*workload.reference_check(env, out))
        counts.append(workload.count(i, out))
        ref.append(workload.fingerprint(i, out))
        del out

    n = len(workload.chunks)
    times = {False: [[] for _ in range(n)], True: [[] for _ in range(n)]}
    tracer = Tracer() if trace else None
    absent: list = []
    host = HostSpeed()
    factors = [host.factor()]
    deadline = time.perf_counter() + seconds
    visit = 0
    while visit < n or time.perf_counter() < deadline:
        i = visit % n
        order = (False, True) if (visit // n) % 2 == 0 else (True, False)
        for with_trace in order if trace else (False,):
            if with_trace:
                with installed(tracer, TARGETS) as absent:
                    dt = _timed_pass(workload, env, i, ref, tally)
                if dt is not None:
                    tracer.pass_s.append(dt)
            else:
                dt = _timed_pass(workload, env, i, ref, tally)
            factors.append(host.factor())
            if dt is not None:
                times[with_trace][i].append(dt / statistics.fmean(factors[-2:]))
        visit += 1
    print(
        f"host slowdown factor over the run: median {statistics.median(factors):.3f}, "
        f"range {min(factors):.3f}-{max(factors):.3f}",
        file=sys.stderr,
    )
    return tally, counts, times[False], times[True], tracer, absent


def chunk_seconds(times) -> float:
    """Summed over chunks: the median of each chunk's normalized passes.

    Every pass over a chunk does identical work (its output is checked bit
    for bit), and its seconds are already scaled to nominal host speed
    (``perfbench/hostspeed.py``), which takes out the slow phases other
    tenants cause, whole runs included.  What is left is jitter shorter
    than a pass, in both directions, so the median.
    """
    if any(not t for t in times):
        raise RuntimeError("a chunk has no successful timed pass")
    return sum(statistics.median(t) for t in times)


def end_to_end(counts, plain, setup_s: float) -> dict:
    """The end-to-end metrics: all chunks' work over their summed times."""
    wall = chunk_seconds(plain)
    return {
        "setup_s": setup_s,
        "plans_per_s": sum(c[1] for c in counts) / wall,
        "requests_per_s": sum(c[0] for c in counts) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workload_name, plain, traced, tracer, absent) -> dict:
    """The per-layer metrics; fails when an expected present site never fired."""
    from perfbench.layers import EXPECTED, layer_metrics

    unfired = [
        site
        for site in EXPECTED[workload_name]
        if site not in absent and tracer.fired.get(site, 0) == 0
    ]
    if unfired:
        raise RuntimeError(f"expected spans never fired: {', '.join(unfired)}")
    overhead = chunk_seconds(traced) / chunk_seconds(plain) - 1.0
    # Span times are as measured, so they are divided by the passes' wall
    # time as measured, not by the normalized seconds.
    return layer_metrics(tracer, len(tracer.pass_s), sum(tracer.pass_s), overhead)


def _write_spans(tracer, path: Path) -> None:
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s.__dict__) + "\n")


def run(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """One benchmark run; returns the result object (the last output line)."""
    from repro.bench.provenance import stamp_record
    from perfbench.layers import PER_LAYER
    from perfbench.workloads import build

    env, setup_s = setup(scale=scale)
    workload = build(name, env.dataset, seed)
    tally, counts, plain, traced, tracer, absent = measure(
        workload, env, seconds, trace
    )

    record = stamp_record(
        {"benchmark": "perfbench", "workload": name, "seed": seed, "nproc": os.cpu_count()}
    )
    print("provenance:", json.dumps(record, sort_keys=True))
    print(
        f"{name}: {len(workload.chunks)} chunk(s), {sum(map(len, plain))} untraced "
        f"and {sum(map(len, traced))} traced passes after an untimed warm-up"
    )
    print(
        "untraced pass seconds per chunk, at nominal host speed:",
        json.dumps(plain),
        file=sys.stderr,
    )
    if trace:
        metrics = per_layer(name, plain, traced, tracer, absent)
        units = PER_LAYER
        traced_s = sum(tracer.pass_s)
        for layer, s in sorted(tracer.self_s.items(), key=lambda kv: -kv[1]):
            print(f"  self-time share {layer:<28s} {s / traced_s:7.1%}")
        for site in absent:
            print(f"  absent: {site}")
        for site, err in tracer.hook_errors.items():
            print(f"  counter unavailable at {site}: {err}")
        _write_spans(tracer, SPANS_DIR / f"{name}-seed{seed}.spans.jsonl")
    else:
        metrics = end_to_end(counts, plain, setup_s)
        units = END_TO_END
    for key, value in metrics.items():
        print(f"  {key:<32s} {value:14.6g} {units[key]}")
    print(
        f"  error_rate {tally.failed / max(tally.attempted, 1):.6g} "
        f"({tally.failed} of {tally.attempted} operations failed)"
    )
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"workload seed (default {DEFAULT_SEED}; {CONFIRM_SEED} confirms a claimed gain)",
    )
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    _use_checkout_source()
    sys.exit(main())
