"""The program's layers: which bindings to trace and what each one counts.

Each layer of ``repro`` is wrapped at every binding its callers resolve at
call time, so one call gives exactly one span:

==========================  ==============================================
layer                        bindings
==========================  ==============================================
``spatial.phases``           ``compute_query_phases`` in ``batchplan``,
                             ``colplan`` and ``serve``;
                             ``compute_query_phases_sharded`` and
                             ``_compute_phases`` where bound
``sim.cache.lru_run``        ``BatchedLRU.run``
``core.batchplan.replay``    ``_replay_workload`` in ``batchplan``, ``colplan``
``core.batchplan.assemble``  ``plan_workload_batched`` in ``api``, ``gridrun``
``core.colplan.compile``     ``compile_slots``, ``plan_and_price_columnar``
``core.gridrun.compile``     ``_compile_for`` in ``gridrun``
``core.gridrun.price``       ``price_grid`` in ``api``; ``_price_framing_into``
                             in ``gridrun`` and ``colplan``
``serve.replay_batch``       ``QueryService._replay_batch``
``serve.self``               ``QueryService.serve``
``api.self``                 ``Session.run``
==========================  ==============================================
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

from perfbench.tracer import Target, Tracer

__all__ = ["TARGETS", "EXPECTED", "PER_LAYER", "layer_metrics"]


def _arg(args: tuple, kwargs: dict, i: int, name: str):
    return args[i] if len(args) > i else kwargs.get(name)


def _phases_before(tracer: Tracer, args, kwargs):
    cache = _arg(args, kwargs, 2, "cache")
    return None if cache is None else (cache.hits, cache.misses)


def _phases_after(tracer: Tracer, args, kwargs, result, state) -> None:
    c = tracer.counts
    cache = _arg(args, kwargs, 2, "cache")
    if state is not None:
        c["phase_cache_hits"] += cache.hits - state[0]
        c["phase_cache_lookups"] += (cache.hits + cache.misses) - sum(state)
    for qp in result:
        if not qp.is_nn:
            c["candidates"] += qp.cand_ids.size
            c["results"] += qp.answer_ids.size


def _computed_after(tracer: Tracer, args, kwargs, result, state) -> None:
    tracer.counts["queries_computed"] += len(_arg(args, kwargs, 1, "todo"))


def _lru_after(tracer: Tracer, args, kwargs, result, state) -> None:
    lru = args[0]
    c = tracer.counts
    n_streams = len(lru._streams)
    c["lru_streams"] += n_streams
    for handle in range(n_streams):
        hits = lru.hits_of(handle)
        c["lru_lines"] += hits.size
        c["lru_hits"] += int(hits.sum())


def _assemble_after(tracer: Tracer, args, kwargs, result, state) -> None:
    tracer.counts["plans_assembled"] += sum(len(plans) for plans in result)


def _price_after(tracer: Tracer, args, kwargs, result, state) -> None:
    c = tracer.counts
    c["price_calls"] += 1
    c["cells_priced"] += len(args[0]) * len(args[1])


def _batch_before(tracer: Tracer, args, kwargs) -> None:
    from repro.core.queries import query_key

    reqs = _arg(args, kwargs, 1, "batch_reqs")
    tracer.begin_batch(len(reqs), len({query_key(r.query) for r in reqs}))


def _serve_after(tracer: Tracer, args, kwargs, result, state) -> None:
    tracer.end_batches()


_PHASES = "spatial.phases"
_PRICE = "core.gridrun.price"

TARGETS: List[Target] = [
    Target("repro.api:Session.run", "api.self"),
    Target("repro.serve:QueryService.serve", "serve.self", after=_serve_after),
    Target(
        "repro.serve:QueryService._replay_batch",
        "serve.replay_batch",
        before=_batch_before,
    ),
    *(
        Target(site, _PHASES, before=_phases_before, after=_phases_after)
        for site in (
            "repro.core.batchplan:compute_query_phases",
            "repro.core.colplan:compute_query_phases",
            "repro.serve:compute_query_phases",
        )
    ),
    Target("repro.core.colplan:compute_query_phases_sharded", _PHASES),
    Target("repro.core.batchplan:_compute_phases", _PHASES, after=_computed_after),
    Target("repro.core.colplan:_compute_phases", _PHASES, after=_computed_after),
    Target("repro.sim.cache:BatchedLRU.run", "sim.cache.lru_run", after=_lru_after),
    Target("repro.core.batchplan:_replay_workload", "core.batchplan.replay"),
    Target("repro.core.colplan:_replay_workload", "core.batchplan.replay"),
    Target(
        "repro.api:plan_workload_batched",
        "core.batchplan.assemble",
        after=_assemble_after,
    ),
    Target(
        "repro.core.gridrun:plan_workload_batched",
        "core.batchplan.assemble",
        after=_assemble_after,
    ),
    Target("repro.core.colplan:compile_slots", "core.colplan.compile"),
    Target("repro.core.colplan:plan_and_price_columnar", "core.colplan.compile"),
    Target("repro.core.gridrun:_compile_for", "core.gridrun.compile"),
    Target("repro.api:price_grid", _PRICE, after=_price_after),
    Target("repro.core.gridrun:_price_framing_into", _PRICE),
    Target("repro.core.colplan:_price_framing_into", _PRICE),
]

_SWEEP_SITES = (
    "repro.api:Session.run",
    "repro.api:plan_workload_batched",
    "repro.core.batchplan:compute_query_phases",
    "repro.core.batchplan:_compute_phases",
    "repro.core.batchplan:_replay_workload",
    "repro.sim.cache:BatchedLRU.run",
    "repro.api:price_grid",
    "repro.core.gridrun:_compile_for",
    "repro.core.gridrun:_price_framing_into",
)

#: Sites that must fire at least once on each workload (when present).
EXPECTED: Dict[str, Sequence[str]] = {
    "sweep_range": _SWEEP_SITES,
    "sweep_point_nn": _SWEEP_SITES,
    "serve_fleet": (
        "repro.serve:QueryService.serve",
        "repro.serve:QueryService._replay_batch",
        "repro.serve:compute_query_phases",
        "repro.core.batchplan:_compute_phases",
        "repro.sim.cache:BatchedLRU.run",
        "repro.api:price_grid",
        "repro.core.gridrun:_compile_for",
        "repro.core.gridrun:_price_framing_into",
    ),
}

#: Per-layer metric name -> unit, in report order.
PER_LAYER: Dict[str, str] = {
    "spatial.phases_s": "s",
    "spatial.queries_computed": "count",
    "spatial.phase_cache_hit_rate": "ratio",
    "spatial.candidates_per_result": "ratio",
    "sim.cache.lru_run_s": "s",
    "sim.cache.lines_replayed": "count",
    "sim.cache.streams": "count",
    "sim.cache.hit_rate": "ratio",
    "sim.cache.lines_per_s": "1/s",
    "core.batchplan.replay_build_s": "s",
    "core.batchplan.assemble_s": "s",
    "core.batchplan.plans_assembled": "count",
    "core.colplan.compile_s": "s",
    "core.gridrun.compile_s": "s",
    "core.gridrun.price_s": "s",
    "core.gridrun.price_calls": "count",
    "core.gridrun.cells_priced": "count",
    "serve.replay_batch_s": "s",
    "serve.self_s": "s",
    "serve.batches": "count",
    "serve.batch_size_mean": "count",
    "serve.distinct_frac": "ratio",
    "serve.batch_p50_ms": "ms",
    "serve.batch_p95_ms": "ms",
    "api.self_s": "s",
    "trace.pass_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "ratio",
}

#: Time metric -> the tracer layer whose self time it reports.
_LAYER_TIME = {
    "spatial.phases_s": "spatial.phases",
    "sim.cache.lru_run_s": "sim.cache.lru_run",
    "core.batchplan.replay_build_s": "core.batchplan.replay",
    "core.batchplan.assemble_s": "core.batchplan.assemble",
    "core.colplan.compile_s": "core.colplan.compile",
    "core.gridrun.compile_s": "core.gridrun.compile",
    "core.gridrun.price_s": _PRICE,
    "serve.replay_batch_s": "serve.replay_batch",
    "serve.self_s": "serve.self",
    "api.self_s": "api.self",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer, n_passes: int, traced_s: float, overhead_frac: float
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from ``n_passes`` traced passes.

    Times and counts are per pass (a pass is one ``Session.run`` over one
    workload chunk, or one ``QueryService.serve`` over the whole stream);
    ``traced_s`` is the summed wall time of those passes.
    """
    c = tracer.counts
    per = 1.0 / n_passes
    out = {name: tracer.self_s.get(layer, 0.0) * per for name, layer in _LAYER_TIME.items()}
    lru_s = tracer.self_s.get("sim.cache.lru_run", 0.0)
    out.update(
        {
            "spatial.queries_computed": c["queries_computed"] * per,
            "spatial.phase_cache_hit_rate": _ratio(
                c["phase_cache_hits"], c["phase_cache_lookups"]
            ),
            "spatial.candidates_per_result": _ratio(c["candidates"], c["results"]),
            "sim.cache.lines_replayed": c["lru_lines"] * per,
            "sim.cache.streams": c["lru_streams"] * per,
            "sim.cache.hit_rate": _ratio(c["lru_hits"], c["lru_lines"]),
            "sim.cache.lines_per_s": _ratio(c["lru_lines"], lru_s),
            "core.batchplan.plans_assembled": c["plans_assembled"] * per,
            "core.gridrun.price_calls": c["price_calls"] * per,
            "core.gridrun.cells_priced": c["cells_priced"] * per,
            "serve.batches": len(tracer.batch_sizes) * per,
            "serve.batch_size_mean": _ratio(
                sum(tracer.batch_sizes), len(tracer.batch_sizes)
            ),
            "serve.distinct_frac": _ratio(
                sum(tracer.batch_distinct), sum(tracer.batch_sizes)
            ),
            "serve.batch_p50_ms": _quantile(tracer.batch_ms, 50),
            "serve.batch_p95_ms": _quantile(tracer.batch_ms, 95),
            "trace.pass_s": traced_s * per,
            "trace.unattributed_s": (traced_s - sum(tracer.self_s.values())) * per,
            "trace.overhead_frac": overhead_frac,
        }
    )
    return {name: float(out[name]) for name in PER_LAYER}


def _quantile(values: List[float], pct: int) -> float:
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
