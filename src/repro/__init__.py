"""repro — reproduction of *Energy and Performance Considerations in Work
Partitioning for Mobile Spatial Queries* (Gurumurthi et al., IPPS 2003).

A mobile client (PDA-class, wireless NIC, battery-powered) answers spatial
queries over a Hilbert-packed R-tree of road-atlas line segments; the work
can be partitioned with a resource-rich server at the filtering/refinement
phase boundary.  This package provides:

* the spatial substrate (:mod:`repro.spatial`): geometry, Hilbert curve,
  packed R-tree, budgeted subtree extraction;
* datasets and workloads (:mod:`repro.data`): synthetic TIGER-like PA/NYC
  road networks, the paper's query generators;
* the simulation substrate (:mod:`repro.sim`): client/server CPU cost and
  energy models, D-cache simulator, NIC power-state machine, TCP/IP
  packetization;
* the work-partitioning core (:mod:`repro.core`): schemes, executor,
  insufficient-memory cached client, analytic trade-off model, sweeps;
* figure generators (:mod:`repro.bench`) regenerating every table and
  figure of the paper's evaluation.

Quickstart::

    from repro import quick_environment, Session
    from repro.core import RangeQuery, SchemeConfig, Scheme
    from repro.spatial import MBR

    session = Session(quick_environment(scale=0.05))  # small PA-like dataset
    q = RangeQuery(MBR(40_000, 30_000, 44_000, 33_000))
    table = session.run(
        q, schemes=SchemeConfig(Scheme.FULLY_SERVER, data_at_client=True)
    )
    for row in table:   # one row per (scheme, bandwidth) point
        print(row.bandwidth_mbps, "Mbps:", row.energy_j, "J,", row.cycles, "cycles")
"""

from repro.api import RunRow, RunTable, Session
from repro.constants import (
    BANDWIDTHS_MBPS,
    DEFAULT_CLIENT,
    DEFAULT_COSTS,
    DEFAULT_NETWORK,
    DEFAULT_NIC_POWER,
    DEFAULT_SERVER,
)
from repro.core import (
    ADEQUATE_MEMORY_CONFIGS,
    Environment,
    NNQuery,
    PointQuery,
    Policy,
    Query,
    QueryEngine,
    RangeQuery,
    RunResult,
    Scheme,
    SchemeConfig,
    execute,
)
from repro.data import SegmentDataset
from repro.data.workloads import ClientProfile, QueryRequest, client_fleet, fleet_query_stream
from repro.serve import QueryOutcome, QueryService, ServiceReport
from repro.spatial import MBR, PackedRTree

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Session",
    "RunTable",
    "RunRow",
    "QueryService",
    "QueryOutcome",
    "ServiceReport",
    "ClientProfile",
    "QueryRequest",
    "client_fleet",
    "fleet_query_stream",
    "BANDWIDTHS_MBPS",
    "DEFAULT_CLIENT",
    "DEFAULT_COSTS",
    "DEFAULT_NETWORK",
    "DEFAULT_NIC_POWER",
    "DEFAULT_SERVER",
    "ADEQUATE_MEMORY_CONFIGS",
    "Environment",
    "NNQuery",
    "PointQuery",
    "Policy",
    "Query",
    "QueryEngine",
    "RangeQuery",
    "RunResult",
    "Scheme",
    "SchemeConfig",
    "execute",
    "SegmentDataset",
    "MBR",
    "PackedRTree",
    "quick_environment",
]


def quick_environment(dataset: str = "PA", scale: float = 0.05, seed: int = 1):
    """A ready-to-use :class:`Environment` over a synthetic dataset.

    ``dataset`` is ``"PA"`` or ``"NYC"``; ``scale`` shrinks the published
    cardinality (1.0 = full size).  Convenience for examples and exploration.
    """
    from repro.data import tiger

    if dataset.upper() == "PA":
        ds = tiger.pa_dataset(scale=scale, seed=seed)
    elif dataset.upper() == "NYC":
        ds = tiger.nyc_dataset(scale=scale, seed=seed)
    else:
        raise ValueError(f"unknown dataset {dataset!r} (use 'PA' or 'NYC')")
    return Environment.create(ds)
