"""Query workload and client-fleet generators (paper sections 5.4 and 6.2).

Adequate-memory experiments use 100 runs per query type, each run with
different parameters:

* **Point queries** — "we randomly pick one of the end points of line
  segments in the dataset to compose the query": guaranteed hits, and at a
  street intersection several segments share the endpoint.
* **Range queries** — window size between 0.01% and 1% of the spatial
  extent's area, aspect ratio 0.25-4, and the *location chosen from the
  distribution of the dataset itself* ("a denser region is likely to have
  more query windows"): we anchor each window on the midpoint of a uniformly
  chosen segment, which samples space proportionally to segment density.
* **Nearest-neighbor queries** — "we randomly place the point in the spatial
  extent".

The insufficient-memory experiment (section 6.2) fires a *proximity
sequence*: one query at a random location followed by ``y`` queries "very
close to that" (satisfiable from the shipped region), repeated per group;
``y`` is the spatial-proximity parameter swept in Figure 10.

The service arc adds the *fleet* generators: :func:`client_fleet` draws a
population of heterogeneous :class:`ClientProfile` records (mixed schemes,
bandwidths, distances, loss rates, arrival rates and battery budgets) and
:func:`fleet_query_stream` turns a fleet into a merged, time-ordered stream
of :class:`QueryRequest` arrivals — the input :class:`repro.serve.QueryService`
consumes.  A shared *hot pool* of point/range queries gives the stream
cross-client repetition, the dedup opportunity micro-batching exploits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.constants import BANDWIDTHS_MBPS, MBPS
from repro.core.executor import Policy
from repro.core.queries import KNNQuery, NNQuery, PointQuery, Query, RangeQuery
from repro.core.schemes import ADEQUATE_MEMORY_CONFIGS, Scheme, SchemeConfig
from repro.data.model import SegmentDataset
from repro.spatial.mbr import MBR

__all__ = [
    "point_queries",
    "range_queries",
    "nn_queries",
    "knn_queries",
    "proximity_sequence",
    "ClientProfile",
    "QueryRequest",
    "client_fleet",
    "fleet_query_stream",
    "QUERY_KINDS",
    "DEFAULT_RUNS",
]

#: The paper's workload size per query type.
DEFAULT_RUNS = 100


def _check_count(name: str, value, minimum: int) -> None:
    """Raise unless ``value`` is a non-bool integer ``>= minimum``."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _check_area_fracs(min_area_frac: float, max_area_frac: float) -> None:
    """Raise unless ``0 < min <= max <= 1`` (which rules out NaN too)."""
    if not (0 < min_area_frac <= max_area_frac <= 1.0):
        raise ValueError("area fractions must satisfy 0 < min <= max <= 1")


def point_queries(
    ds: SegmentDataset, n: int = DEFAULT_RUNS, seed: int = 11
) -> List[PointQuery]:
    """``n`` point queries anchored on random segment endpoints."""
    _check_count("n", n, 1)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, ds.size, size=n)
    which_end = rng.integers(0, 2, size=n)
    out: List[PointQuery] = []
    for i, e in zip(idx, which_end):
        if e == 0:
            out.append(PointQuery(float(ds.x1[i]), float(ds.y1[i])))
        else:
            out.append(PointQuery(float(ds.x2[i]), float(ds.y2[i])))
    return out


def _window_at(
    ds: SegmentDataset,
    rng: np.random.Generator,
    cx: float,
    cy: float,
    min_area_frac: float,
    max_area_frac: float,
) -> RangeQuery:
    """One range window centered near ``(cx, cy)`` with the paper's size and
    aspect distributions, clamped into the dataset extent."""
    ext = ds.extent
    # Log-uniform size: the paper's 0.01%..1% spans two decades.
    area = ext.area() * math.exp(
        rng.uniform(math.log(min_area_frac), math.log(max_area_frac))
    )
    aspect = math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
    w = math.sqrt(area * aspect)
    h = area / w
    w = min(w, ext.width)
    h = min(h, ext.height)
    xmin = min(max(cx - w / 2.0, ext.xmin), ext.xmax - w)
    ymin = min(max(cy - h / 2.0, ext.ymin), ext.ymax - h)
    return RangeQuery(MBR(xmin, ymin, xmin + w, ymin + h))


def range_queries(
    ds: SegmentDataset,
    n: int = DEFAULT_RUNS,
    seed: int = 13,
    min_area_frac: float = 0.000015,
    max_area_frac: float = 0.0015,
) -> List[RangeQuery]:
    """``n`` density-weighted range queries.

    The paper states window sizes of "0.01% to 1% of the spatial extent";
    our synthetic networks are denser inside their towns than the rural
    TIGER extracts, so the default window-area range here is one decade
    smaller, chosen so the *filter selectivity* (and therefore the per-query
    message volumes the figures are built from) matches what the paper's
    Figure 5 bars imply: ~400-500 candidates per range query on the PA
    dataset.  Pass the paper's literal fractions to override.
    """
    _check_count("n", n, 1)
    _check_area_fracs(min_area_frac, max_area_frac)
    rng = np.random.default_rng(seed)
    anchors = rng.integers(0, ds.size, size=n)
    out: List[RangeQuery] = []
    for i in anchors:
        cx = float(ds.x1[i] + ds.x2[i]) / 2.0
        cy = float(ds.y1[i] + ds.y2[i]) / 2.0
        out.append(_window_at(ds, rng, cx, cy, min_area_frac, max_area_frac))
    return out


def nn_queries(
    ds: SegmentDataset, n: int = DEFAULT_RUNS, seed: int = 17
) -> List[NNQuery]:
    """``n`` NN queries at uniformly random points in the extent."""
    _check_count("n", n, 1)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(ds.extent.xmin, ds.extent.xmax, size=n)
    ys = rng.uniform(ds.extent.ymin, ds.extent.ymax, size=n)
    return [NNQuery(float(x), float(y)) for x, y in zip(xs, ys)]


def knn_queries(
    ds: SegmentDataset, n: int = DEFAULT_RUNS, seed: int = 18, max_k: int = 8
) -> List[KNNQuery]:
    """``n`` k-NN queries at uniformly random points, ``k`` uniform in
    ``[1, max_k]`` so the workload mixes single-NN with deeper searches."""
    _check_count("n", n, 1)
    _check_count("max_k", max_k, 1)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(ds.extent.xmin, ds.extent.xmax, size=n)
    ys = rng.uniform(ds.extent.ymin, ds.extent.ymax, size=n)
    ks = rng.integers(1, max_k + 1, size=n)
    return [
        KNNQuery(float(x), float(y), int(k)) for x, y, k in zip(xs, ys, ks)
    ]


def proximity_sequence(
    ds: SegmentDataset,
    y: int,
    n_groups: int = 1,
    seed: int = 19,
    local_radius_frac: float = 0.01,
    min_area_frac: float = 0.00005,
    max_area_frac: float = 0.0005,
) -> List[Query]:
    """The section-6.2 workload: per group, one anchor range query followed
    by ``y`` queries within ``local_radius_frac`` of the anchor.

    The follow-up windows are small (the magnify-and-browse pattern of a
    road-atlas session) so that, once the server has shipped the anchor's
    neighbourhood, they can be answered from client memory.  ``y = 0``
    degenerates to independent anchor queries.
    """
    _check_count("y", y, 0)
    _check_count("n_groups", n_groups, 1)
    if not 0.0 <= local_radius_frac <= 1.0:
        raise ValueError(
            f"local_radius_frac must be in [0, 1], got {local_radius_frac}"
        )
    _check_area_fracs(min_area_frac, max_area_frac)
    rng = np.random.default_rng(seed)
    ext = ds.extent
    radius = local_radius_frac * min(ext.width, ext.height)
    out: List[Query] = []
    anchors = rng.integers(0, ds.size, size=n_groups)
    for i in anchors:
        ax = float(ds.x1[i] + ds.x2[i]) / 2.0
        ay = float(ds.y1[i] + ds.y2[i]) / 2.0
        out.append(_window_at(ds, rng, ax, ay, min_area_frac, max_area_frac))
        for _ in range(y):
            theta = rng.uniform(0, 2 * math.pi)
            r = radius * math.sqrt(rng.uniform(0, 1))
            out.append(
                _window_at(
                    ds, rng,
                    ax + r * math.cos(theta), ay + r * math.sin(theta),
                    min_area_frac, max_area_frac,
                )
            )
    return out


# ----------------------------------------------------------------------
# Client fleets (the multi-tenant service workload)
# ----------------------------------------------------------------------
#: Query kinds a client mix may contain.
QUERY_KINDS = ("point", "range", "nn", "knn")

#: Schemes under which NN/k-NN queries are illegal (filter/refine cannot be
#: split for best-first search; mirrors ``SchemeConfig.validate_for``).
_NO_NN_SCHEMES = (
    Scheme.FILTER_CLIENT_REFINE_SERVER,
    Scheme.FILTER_SERVER_REFINE_CLIENT,
)


@dataclass(frozen=True, kw_only=True)
class ClientProfile:
    """One simulated client of the multi-tenant service.

    A profile fixes everything about a client the service needs: its
    partitioning scheme, its pricing :class:`~repro.core.executor.Policy`
    (bandwidth, distance, loss, wait flags), its mean query rate, the query
    kinds it issues, and its energy budget.  ``battery_j`` is the admission
    budget — once a client's served queries have spent it, further queries
    are rejected (``inf`` = mains-powered, never rejected on energy).
    """

    client_id: int
    policy: Policy
    scheme: SchemeConfig
    rate_qps: float = 1.0
    mix: Tuple[str, ...] = ("point", "range")
    battery_j: float = math.inf

    def __post_init__(self) -> None:
        if not isinstance(self.client_id, int) or self.client_id < 0:
            raise ValueError(
                f"client_id must be a non-negative int, got {self.client_id!r}"
            )
        if not isinstance(self.policy, Policy):
            raise TypeError(
                f"policy must be a Policy, got {type(self.policy).__name__}"
            )
        if not isinstance(self.scheme, SchemeConfig):
            raise TypeError(
                f"scheme must be a SchemeConfig, got {type(self.scheme).__name__}"
            )
        if not self.rate_qps > 0:
            raise ValueError(f"rate_qps must be positive, got {self.rate_qps}")
        mix = tuple(self.mix)
        object.__setattr__(self, "mix", mix)
        if not mix:
            raise ValueError("mix must name at least one query kind")
        for kind in mix:
            if kind not in QUERY_KINDS:
                raise ValueError(
                    f"unknown query kind {kind!r}; choose from {QUERY_KINDS}"
                )
        if self.scheme.scheme in _NO_NN_SCHEMES and (
            "nn" in mix or "knn" in mix
        ):
            raise ValueError(
                f"scheme {self.scheme.label!r} cannot serve NN/k-NN queries; "
                "drop 'nn'/'knn' from the mix"
            )
        if not self.battery_j > 0:
            raise ValueError(
                f"battery_j must be positive (inf = unbudgeted), got "
                f"{self.battery_j}"
            )


@dataclass(frozen=True, kw_only=True)
class QueryRequest:
    """One query arriving at the service from one client."""

    client_id: int
    query: Query
    arrival_s: float

    def __post_init__(self) -> None:
        if not isinstance(self.query, Query):
            raise TypeError(
                f"query must be a Query, got {type(self.query).__name__}"
            )
        if not self.arrival_s >= 0:
            raise ValueError(
                f"arrival_s must be >= 0, got {self.arrival_s}"
            )


def client_fleet(
    n_clients: int,
    *,
    seed: int = 23,
    schemes: Optional[Sequence[SchemeConfig]] = None,
    bandwidths_mbps: Sequence[float] = BANDWIDTHS_MBPS,
    distances_m: Sequence[float] = (100.0, 500.0, 1000.0),
    loss_rates: Sequence[float] = (0.0, 0.0, 0.01),
    rate_qps: Tuple[float, float] = (0.5, 2.0),
    battery_j: Optional[float] = None,
    low_battery_fraction: float = 0.25,
) -> List[ClientProfile]:
    """A heterogeneous population of ``n_clients`` service clients.

    Each client draws a scheme from ``schemes`` (default: the six
    adequate-memory configurations), a policy from the bandwidth / distance
    / loss grids, a Poisson rate log-uniform in ``rate_qps``, and a query
    mix compatible with its scheme (filter-split schemes never draw
    NN/k-NN).  With ``battery_j`` set, ``low_battery_fraction`` of the
    fleet gets a finite energy budget near that value; everyone else is
    mains-powered.
    """
    _check_count("n_clients", n_clients, 1)
    if not (0 < rate_qps[0] <= rate_qps[1] < math.inf):
        raise ValueError(
            f"rate_qps must satisfy 0 < lo <= hi < inf, got {rate_qps}"
        )
    if not (0.0 <= low_battery_fraction <= 1.0):
        raise ValueError(
            f"low_battery_fraction must be in [0, 1], got {low_battery_fraction}"
        )
    configs = list(ADEQUATE_MEMORY_CONFIGS if schemes is None else schemes)
    if not configs:
        raise ValueError("schemes must name at least one SchemeConfig")
    mixes: Tuple[Tuple[str, ...], ...] = (
        ("point", "range"),
        ("range",),
        ("point", "range", "nn", "knn"),
        ("nn", "knn"),
    )
    rng = np.random.default_rng(seed)
    fleet: List[ClientProfile] = []
    for cid in range(n_clients):
        scheme = configs[int(rng.integers(len(configs)))]
        legal = [
            m
            for m in mixes
            if not (
                scheme.scheme in _NO_NN_SCHEMES
                and ("nn" in m or "knn" in m)
            )
        ]
        mix = legal[int(rng.integers(len(legal)))]
        policy = (
            Policy()
            .with_bandwidth(
                float(bandwidths_mbps[int(rng.integers(len(bandwidths_mbps)))])
                * MBPS
            )
            .with_distance(float(distances_m[int(rng.integers(len(distances_m)))]))
        )
        loss = float(loss_rates[int(rng.integers(len(loss_rates)))])
        if loss > 0.0:
            policy = policy.with_loss(loss)
        rate = float(
            math.exp(
                rng.uniform(math.log(rate_qps[0]), math.log(rate_qps[1]))
            )
        )
        budget = math.inf
        if battery_j is not None and rng.uniform() < low_battery_fraction:
            budget = float(battery_j * rng.uniform(0.5, 1.5))
        fleet.append(
            ClientProfile(
                client_id=cid,
                policy=policy,
                scheme=scheme,
                rate_qps=rate,
                mix=mix,
                battery_j=budget,
            )
        )
    return fleet


def _one_query(
    ds: SegmentDataset, rng: np.random.Generator, kind: str, max_k: int = 8
) -> Query:
    """One fresh query of ``kind``, drawn like the workload generators."""
    ext = ds.extent
    if kind == "point":
        i = int(rng.integers(ds.size))
        if rng.integers(2) == 0:
            return PointQuery(float(ds.x1[i]), float(ds.y1[i]))
        return PointQuery(float(ds.x2[i]), float(ds.y2[i]))
    if kind == "range":
        i = int(rng.integers(ds.size))
        cx = float(ds.x1[i] + ds.x2[i]) / 2.0
        cy = float(ds.y1[i] + ds.y2[i]) / 2.0
        return _window_at(ds, rng, cx, cy, 0.000015, 0.0015)
    if kind == "nn":
        return NNQuery(
            float(rng.uniform(ext.xmin, ext.xmax)),
            float(rng.uniform(ext.ymin, ext.ymax)),
        )
    if kind == "knn":
        return KNNQuery(
            float(rng.uniform(ext.xmin, ext.xmax)),
            float(rng.uniform(ext.ymin, ext.ymax)),
            int(rng.integers(1, max_k + 1)),
        )
    raise ValueError(f"unknown query kind {kind!r}; choose from {QUERY_KINDS}")


def fleet_query_stream(
    ds: SegmentDataset,
    fleet: Sequence[ClientProfile],
    *,
    duration_s: float,
    seed: int = 29,
    hot_fraction: float = 0.4,
    hot_pool: int = 32,
) -> List[QueryRequest]:
    """The fleet's merged arrival stream over ``duration_s`` seconds.

    Each client fires a Poisson process at its ``rate_qps``; each arrival
    draws a kind from the client's mix, then either a shared *hot* query
    (probability ``hot_fraction``, point/range kinds only — the road-atlas
    landmarks everyone looks at) or a fresh one.  Hot queries repeat across
    clients, which is the cross-client dedup opportunity the service's
    micro-batching exploits.  Per-client draws are seeded by
    ``(seed, client_id)``, so a sub-fleet's stream is independent of the
    rest of the fleet.  Returns arrivals sorted by time.
    """
    if not fleet:
        raise ValueError("fleet must contain at least one ClientProfile")
    if not 0 < duration_s < math.inf:
        raise ValueError(f"duration_s must be positive and finite, got {duration_s}")
    if not (0.0 <= hot_fraction <= 1.0):
        raise ValueError(f"hot_fraction must be in [0, 1], got {hot_fraction}")
    _check_count("hot_pool", hot_pool, 0)
    pool_rng = np.random.default_rng(seed)
    pools = {
        "point": [_one_query(ds, pool_rng, "point") for _ in range(hot_pool)],
        "range": [_one_query(ds, pool_rng, "range") for _ in range(hot_pool)],
    }
    out: List[QueryRequest] = []
    for profile in fleet:
        rng = np.random.default_rng([seed, profile.client_id])
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / profile.rate_qps))
            if t >= duration_s:
                break
            kind = profile.mix[int(rng.integers(len(profile.mix)))]
            pool = pools.get(kind)
            if pool and rng.uniform() < hot_fraction:
                query = pool[int(rng.integers(len(pool)))]
            else:
                query = _one_query(ds, rng, kind)
            out.append(
                QueryRequest(
                    client_id=profile.client_id, query=query, arrival_s=t
                )
            )
    out.sort(key=lambda r: (r.arrival_s, r.client_id))
    return out
