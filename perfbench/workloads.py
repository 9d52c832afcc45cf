"""The benchmark's workloads: inputs from a seed, one pass, output checks.

Every input is generated here from the workload seed with the public
``repro.data.workloads`` generators, and the program is driven only through
``Session(env).run(...)`` and ``QueryService(env).serve(...)`` with default
planners and knobs.  Each pass gets a fresh ``Session``/``QueryService``
(fresh plan, phase and compile caches); the ``Environment`` is shared.

Each workload is cut into chunks that the timed loop cycles through, so a
run times many short passes (the host is noisy; a median needs samples)
while averaging over many paper-sized inputs (the cost of a range query
varies with window size and local density by orders of magnitude).

An *operation* is one (query, scheme) plan priced across the policy sweep
on the sweeps, and one request on ``serve_fleet``.  A pass is compared with
the warm-up pass through exact digests of its outputs, one per *group*: a
RunTable row's scheme on the sweeps (a disagreeing row fails every
operation it sums), one request on ``serve_fleet``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.api import RunTable, Session
from repro.bench.e2ebench import tables_match
from repro.core.executor import Environment, Policy
from repro.core.schemes import ADEQUATE_MEMORY_CONFIGS, Scheme
from repro.data import workloads as gen
from repro.serve import QueryService

__all__ = ["WORKLOADS", "Workload", "build", "digest", "outcome_mismatch"]

WORKLOADS = ("sweep_range", "sweep_point_nn", "serve_fleet")

#: Relative tolerance of the scalar reference (the repo's oracle contract).
REF_TOL = 1e-9

RANGE_CHUNKS = 12
RANGE_PER_CHUNK = 100
#: Log-area strata per range chunk: the paper's log-uniform window sizes,
#: drawn stratified so that seeds differ in where windows land rather than
#: in how many of the largest windows they happened to draw.
RANGE_STRATA = 4
RANGE_AREA = (0.000015, 0.0015)

POINT_NN_CHUNKS = 4
POINT_NN_PER_KIND = 100

FLEET_CLIENTS = 120
#: The client population is part of the workload's definition, like the
#: sweeps' scheme grid: a fixed fleet (the one ``BENCH_serve`` uses), so
#: seeds vary the arrival stream and not how many clients run range-heavy
#: mixes.
FLEET_SEED = 5
#: Five independent 6 s streams (about 3,900 requests in all), each with
#: its own hot-query pool, so that a run's cost averages over five pools
#: rather than hanging on the few largest windows of one.
FLEET_STREAMS = 5
FLEET_STREAM_S = 6.0
FLEET_HOT_FRACTION = 0.6

#: The Table-1 configurations that can run NN/k-NN queries.
NN_CONFIGS = tuple(
    c
    for c in ADEQUATE_MEMORY_CONFIGS
    if c.scheme in (Scheme.FULLY_CLIENT, Scheme.FULLY_SERVER)
)


def subseed(seed: int, *path: int) -> int:
    """A generator seed derived from the workload seed and a path."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def _feed(h, obj) -> None:
    if obj is None or isinstance(obj, (bool, int, str)):
        h.update(f"{type(obj).__name__}:{obj!r};".encode())
    elif isinstance(obj, float):
        h.update(f"f:{obj.hex()};".encode())
    elif isinstance(obj, np.ndarray):
        h.update(f"a:{obj.dtype.str}:{obj.shape};".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, np.generic):
        _feed(h, obj.item())
    elif dataclasses.is_dataclass(obj):
        h.update(f"d:{type(obj).__name__}(".encode())
        for f in dataclasses.fields(obj):
            if f.compare:
                _feed(h, getattr(obj, f.name))
        h.update(b")")
    elif isinstance(obj, (tuple, list)) and all(type(x) is int for x in obj):
        h.update(f"i{obj!r};".encode())
    elif isinstance(obj, (tuple, list)):
        h.update(f"t{len(obj)}(".encode())
        for x in obj:
            _feed(h, x)
        h.update(b")")
    else:
        h.update(f"{type(obj).__name__}:{obj!r};".encode())


def digest(obj) -> bytes:
    """An exact digest: equal digests mean bit-identical values."""
    h = hashlib.blake2b(digest_size=16)
    _feed(h, obj)
    return h.digest()


@dataclass
class Workload:
    """Inputs plus how to run, count and fingerprint one pass over a chunk."""

    chunks: List[object]
    run: Callable[[Environment, object], object]
    #: ``(chunk index, output) -> (requests, plans)`` of a pass.
    count: Callable[[int, object], Tuple[int, int]]
    #: ``(chunk index, output) -> [(group, digest)]`` of a pass.
    fingerprint: Callable[[int, object], List[Tuple[object, bytes]]]
    #: Operations in each fingerprint group of chunk ``i``.
    ops_per_group: Callable[[int], int]
    #: ``(env, warm-up output of chunk 0) -> (operations checked, failed)``
    #: against the scalar reference on a fixed subsample.
    reference_check: Callable[[Environment, object], Tuple[int, int]]

    def ops(self, i: int, fingerprint: list) -> int:
        """Operations one pass over chunk ``i`` performs."""
        return len({g for g, _ in fingerprint}) * self.ops_per_group(i)

    def failed(self, i: int, got: list, ref: list) -> int:
        """Operations of chunk ``i`` whose output differs from ``ref``."""
        if len(got) != len(ref):
            return self.ops(i, ref)
        bad = {g for (g, a), (_, b) in zip(ref, got) if a != b}
        return len(bad) * self.ops_per_group(i)


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
def _range_chunk(ds, seed: int, chunk: int) -> list:
    lo, hi = (math.log(a) for a in RANGE_AREA)
    edges = np.exp(np.linspace(lo, hi, RANGE_STRATA + 1))
    per = RANGE_PER_CHUNK // RANGE_STRATA
    out = []
    for s in range(RANGE_STRATA):
        out += gen.range_queries(
            ds,
            per,
            seed=subseed(seed, 1, chunk, s),
            min_area_frac=float(edges[s]),
            max_area_frac=float(edges[s + 1]),
        )
    return out


def _point_nn_chunk(ds, seed: int, chunk: int) -> list:
    n = POINT_NN_PER_KIND
    return (
        gen.point_queries(ds, n, seed=subseed(seed, 2, chunk, 0))
        + gen.nn_queries(ds, n, seed=subseed(seed, 2, chunk, 1))
        + gen.knn_queries(ds, n, seed=subseed(seed, 2, chunk, 2), max_k=8)
    )


def _row_fingerprint(table: RunTable) -> List[Tuple[object, bytes]]:
    return [
        (row.scheme, digest((row.scheme, row.policy, row.result, row.dwell)))
        for row in table
    ]


def _sweep(
    chunks: List[list],
    configs: Sequence,
    sample: Callable[[int], List[int]],
) -> Workload:
    """A sweep over ``configs`` x ``Policy.sweep()``; ``sample(i)`` indexes
    the queries of chunk ``i`` that the scalar reference re-plans."""
    policies = Policy.sweep()
    configs = list(configs)

    def run(env: Environment, queries: list) -> RunTable:
        return Session(env).run(queries, schemes=configs, policies=policies)

    def count(i: int, table: RunTable) -> Tuple[int, int]:
        return len(chunks[i]), len(chunks[i]) * len(configs)

    def reference_check(env: Environment, warm: RunTable) -> Tuple[int, int]:
        picked = [c[j] for i, c in enumerate(chunks) for j in sample(i)]
        fast = run(env, picked)
        ref = Session(env).run(
            picked, schemes=configs, policies=policies, planner="scalar", engine="scalar"
        )
        checked = len(picked) * len(configs)
        if len(fast) != len(ref):
            return checked, checked
        bad = {
            a.scheme
            for a, b in zip(fast.rows, ref.rows)
            if not tables_match(RunTable((a,)), RunTable((b,)), rel_tol=REF_TOL)[0]
        }
        return checked, len(picked) * len(bad)

    return Workload(
        chunks,
        run,
        count,
        lambda i, table: _row_fingerprint(table),
        lambda i: len(chunks[i]),
        reference_check,
    )


# ----------------------------------------------------------------------
# Fleet serving
# ----------------------------------------------------------------------
_EXACT_FIELDS = ("client_id", "verdict", "scheme", "batch", "answer_ids", "n_results")
_ENERGY_FIELDS = (
    "start_s",
    "queue_wait_s",
    "server_s",
    "latency_s",
    "energy_j",
    "contention_j",
)


def _rel(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def outcome_mismatch(a, b, rel_tol: float) -> bool:
    """Whether two outcomes of one request disagree beyond ``rel_tol``.

    Verdicts and answer ids must match exactly; times and energies to
    ``rel_tol`` relative error.
    """
    if any(getattr(a, f) != getattr(b, f) for f in _EXACT_FIELDS):
        return True
    return any(_rel(getattr(a, f), getattr(b, f)) > rel_tol for f in _ENERGY_FIELDS)


def _fleet(ds, seed: int) -> Workload:
    fleet = gen.client_fleet(FLEET_CLIENTS, seed=FLEET_SEED)
    streams = [
        gen.fleet_query_stream(
            ds,
            fleet,
            duration_s=FLEET_STREAM_S,
            seed=subseed(seed, 3, k),
            hot_fraction=FLEET_HOT_FRACTION,
        )
        for k in range(FLEET_STREAMS)
    ]

    def run(env: Environment, requests: list):
        return QueryService(env).serve(requests, fleet)

    def count(i: int, report) -> Tuple[int, int]:
        return len(report.outcomes), report.n_served

    def fingerprint(i: int, report) -> List[Tuple[object, bytes]]:
        # The digest covers every field QueryOutcome equality compares.
        return [(k, digest(o)) for k, o in enumerate(report.outcomes)]

    def reference_check(env: Environment, warm) -> Tuple[int, int]:
        ref = QueryService(env).serve(streams[0], fleet, planner="serial").outcomes
        got = warm.outcomes
        if len(ref) != len(got):
            return len(got), len(got)
        return len(got), sum(outcome_mismatch(a, b, REF_TOL) for a, b in zip(got, ref))

    return Workload(
        streams, run, count, fingerprint, lambda i: 1, reference_check
    )


def build(name: str, ds, seed: int) -> Workload:
    """The named workload's inputs for ``seed`` over dataset ``ds``."""
    if name == "sweep_range":
        chunks = [_range_chunk(ds, seed, c) for c in range(RANGE_CHUNKS)]
        per = RANGE_PER_CHUNK // RANGE_STRATA
        # One window per chunk, cycling through the strata.
        return _sweep(chunks, ADEQUATE_MEMORY_CONFIGS, lambda i: [per * (i % RANGE_STRATA)])
    if name == "sweep_point_nn":
        chunks = [_point_nn_chunk(ds, seed, c) for c in range(POINT_NN_CHUNKS)]
        n = POINT_NN_PER_KIND
        # The first point, NN and k-NN query of each chunk.
        return _sweep(chunks, NN_CONFIGS, lambda i: [0, n, 2 * n])
    if name == "serve_fleet":
        return _fleet(ds, seed)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
