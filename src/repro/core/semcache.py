"""Cross-query semantic candidate cache with containment/overlap algebra.

:class:`~repro.core.batchplan.PhaseDataCache` only dedups *byte-identical*
queries: two viewport windows that overlap by 99% still re-traverse the
R-tree from the root.  This module caches **filtering results keyed on
query structure** — each entry is a window rectangle plus the exact
candidate set its traversal produced — and serves later windows from
spatial relationships instead of identity:

``hit``
    The window was cached verbatim; its candidate set is returned as-is.
``refine`` (containment)
    The window is contained in one or more cached windows.  Because a
    traversal's candidate set is exactly ``{entries whose MBR intersects
    the window}`` — node MBRs bound their descendants, so the tree prunes
    nothing that intersects — the contained window's candidates are
    recoverable with one bulk MBR pass over the cached set, no traversal.
    With two containing windows the two candidate sets are intersected
    first (set algebra on packed entry positions), shrinking the tested
    set.
``refine`` (cover)
    The window is covered by the union of cached windows that each span
    its full extent on one axis (a greedy interval cover on the other
    axis, capped at :data:`MAX_UNION_SOURCES` sources).  The union of
    their candidate sets is a superset of the window's candidates, so the
    same bulk MBR pass is exact.
``miss``
    No algebraic route exists; the window traverses the tree normally and
    its result is inserted.

**Exactness.**  Candidate sets are stored as *packed entry positions* in
ascending order — the scalar DFS leaf-scan order
(:class:`~repro.spatial.batchtraverse.BatchFilterResult`) — and every set
operation (intersect, union, refine mask) preserves that order, so a
served candidate array is **bit-identical** to what a fresh traversal
would return: same ids, same order, hence bit-identical answers after
refinement.  What changes is the *filter phase accounting*: the cached
payload is a packed array ordered by entry position, so a hit scans
``nc`` packed result ids sequentially (zero node visits, zero MBR
tests); a refine performs ``|tested set|`` MBR tests against the packed
candidate records — one sequential pass, zero node visits; a miss is
charged exactly as the uncached planner charges it.  Packed-position
addressing is what makes a served lookup cheaper than the traversal it
replaces: the touches coalesce into dense cache lines instead of the
scattered node reads of a root-to-leaf walk.
The differential oracles (:mod:`tests.integration.oracles`) pin all of
this against the uncached planner and the scalar semantic twin.

**Eviction and pinning.**  Capacity is measured in *entries* and enforced
by LRU — but windows whose Hilbert key bucket (the key of the window
center on the dataset's :func:`~repro.spatial.hilbert` curve, truncated to
``pin_bucket_bits``) has served at least ``pin_hits`` lookups are *hot*
and skipped by eviction, so a drifting workload's hot region stays
resident.  All cache decisions — verdicts, source selection, LRU motion,
eviction, pinning — are functions of window **geometry and order only**
(never of candidate payloads), which is what makes the cache's behaviour
independent of micro-batch boundaries: serving queries one at a time and
serving them 64 at a time produce the same verdict sequence and the same
final cache, a property the serve suite asserts.

``tests/core/test_semcache.py`` keeps a pure-Python reference for the
decision layer (linear scans, no NumPy) and pins the vectorized cache's
verdicts, source choices, and eviction order against it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batchplan import (
    CacheGeometry,
    PhaseDataCache,
    PhaseTrace,
    QueryPhases,
    _assemble_plan,
    _counts,
    _phases_with_filter,
    _pr_phases,
    _query_phase_slots,
    compute_query_phases,
)
from repro.core.executor import Environment, QueryPlan
from repro.core.gridrun import dataset_fingerprint
from repro.core.queries import Query, QueryKind, RangeQuery, query_key
from repro.core.schemes import SchemeConfig
from repro.sim.trace import REGION_RESULT
from repro.spatial import vecgeom
from repro.spatial.batchtraverse import batch_filter
from repro.spatial.hilbert import DEFAULT_ORDER, xy_to_d

__all__ = [
    "SemanticCache",
    "CacheEntry",
    "SEMCACHE_VERDICTS",
    "MAX_UNION_SOURCES",
    "compute_query_phases_semantic",
    "plan_query_semantic",
    "intersect_candidates",
    "union_candidates",
]

#: Verdicts a semantic lookup can produce, in decreasing reuse order.
SEMCACHE_VERDICTS = ("hit", "refine", "miss")

#: Cap on the number of cached windows a union cover may stitch together —
#: beyond this the union's tested set usually exceeds a traversal's cost.
MAX_UNION_SOURCES = 8

#: Ledger accounting: bytes per cached candidate (position + id, both
#: int64) and fixed per-entry overhead (rect, bucket, bookkeeping).
_BYTES_PER_CANDIDATE = 16
_ENTRY_OVERHEAD_BYTES = 96

#: Refine-time block pruning: cached candidates are packed in ascending
#: entry-position order, and the R-tree is Hilbert-packed, so runs of
#: consecutive candidates are spatially clustered.  Each cached entry
#: lazily builds one bounding box per ``_BLOCK`` candidates; a refine
#: tests blocks first and only descends into blocks whose box intersects
#: the window — exact (a block box bounds every member MBR) and it keeps
#: the tested set near the window's own candidate count instead of the
#: source's.
_BLOCK = 64
_BYTES_PER_BLOCK = 32
_EMPTY_POS = np.empty(0, dtype=np.int64)


def _rect_of(q: Query) -> Tuple[float, float, float, float]:
    """A query's filter window; a point query is its degenerate window."""
    if isinstance(q, RangeQuery):
        r = q.rect
        return (float(r.xmin), float(r.ymin), float(r.xmax), float(r.ymax))
    return (float(q.x), float(q.y), float(q.x), float(q.y))


def _hilbert_bucket(
    rect: Tuple[float, float, float, float], extent, bits: int
) -> int:
    """Hilbert key bucket of a window's center on the dataset extent."""
    if extent is None or extent.width <= 0 or extent.height <= 0:
        return 0
    cx = 0.5 * (rect[0] + rect[2])
    cy = 0.5 * (rect[1] + rect[3])
    nf = float(1 << DEFAULT_ORDER)
    gx = int(min(max((cx - extent.xmin) / extent.width * nf, 0.0), nf - 1.0))
    gy = int(min(max((cy - extent.ymin) / extent.height * nf, 0.0), nf - 1.0))
    return xy_to_d(DEFAULT_ORDER, gx, gy) >> (2 * DEFAULT_ORDER - bits)


def intersect_candidates(
    pos_a: np.ndarray, ids_a: np.ndarray, pos_b: np.ndarray, ids_b: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Set intersection of two candidate sets, keyed on packed positions.

    Both inputs are ascending (traversal order); the output is too, so the
    intersected set still matches a fresh traversal's candidate order.
    """
    common, ia, _ib = np.intersect1d(
        pos_a, pos_b, assume_unique=True, return_indices=True
    )
    return common, ids_a[ia]


def union_candidates(
    parts: Sequence[Tuple[np.ndarray, np.ndarray]]
) -> Tuple[np.ndarray, np.ndarray]:
    """Set union of candidate sets, keyed on packed positions (ascending)."""
    pos = np.concatenate([p for p, _ in parts])
    ids = np.concatenate([i for _, i in parts])
    upos, first = np.unique(pos, return_index=True)
    return upos, ids[first]


class CacheEntry:
    """One cached window: its rect plus the traversal's candidate set.

    ``positions`` are packed entry positions ascending (scalar leaf-scan
    order) and ``ids`` the aligned segment ids; both stay ``None`` while a
    just-inserted window's traversal is still pending within a batch.
    ``blocks`` is the lazily-built per-:data:`_BLOCK` bounding-box summary
    a refine consults to prune the tested set (never mutated once built,
    so copies may share it).
    """

    __slots__ = ("rect", "positions", "ids", "bucket", "seq", "blocks")

    def __init__(
        self,
        rect: Tuple[float, float, float, float],
        positions: Optional[np.ndarray] = None,
        ids: Optional[np.ndarray] = None,
    ) -> None:
        self.rect = rect
        self.positions = positions
        self.ids = ids
        self.bucket = 0
        self.seq = -1
        self.blocks = None

    def copy(self) -> "CacheEntry":
        e = CacheEntry(self.rect, self.positions, self.ids)
        e.bucket = self.bucket
        e.seq = self.seq
        e.blocks = self.blocks
        return e

    @property
    def nbytes(self) -> int:
        n = 0 if self.positions is None else int(self.positions.size)
        return _ENTRY_OVERHEAD_BYTES + _BYTES_PER_CANDIDATE * n


class SemanticCache:
    """The vectorized cross-query candidate cache (see module docstring).

    ``capacity`` bounds the entry count (0 disables the cache: every lookup
    misses and nothing is stored).  ``pin_bucket_bits`` sets the Hilbert
    bucket granularity (``2**bits`` buckets over the curve) and ``pin_hits``
    the serve count at which a bucket becomes hot (pinned against LRU
    eviction).  The cache lazily binds to the first dataset it serves (by
    content fingerprint) and refuses any other.
    """

    def __init__(
        self,
        capacity: int = 4096,
        *,
        pin_bucket_bits: int = 6,
        pin_hits: int = 4,
        extent=None,
    ) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        if not (0 <= pin_bucket_bits <= 2 * DEFAULT_ORDER):
            raise ValueError(
                f"pin_bucket_bits must be in [0, {2 * DEFAULT_ORDER}], "
                f"got {pin_bucket_bits}"
            )
        if pin_hits < 1:
            raise ValueError(f"pin_hits must be >= 1, got {pin_hits}")
        self.capacity = capacity
        self.pin_bucket_bits = pin_bucket_bits
        self.pin_hits = pin_hits
        self.extent = extent
        self.fingerprint: Optional[str] = None
        self._ds_id: Optional[int] = None
        self._entries: "OrderedDict[tuple, CacheEntry]" = OrderedDict()
        self._seq = 0
        self._bucket_hits: Dict[int, int] = {}
        self._hot: set = set()
        # Lazily rebuilt window matrix for the vectorized geometry tests.
        self._dirty = True
        self._W: Optional[np.ndarray] = None
        self._seqs: Optional[np.ndarray] = None
        self._keys: List[tuple] = []
        # Statistics (the ledger's ``semcache`` event payload).
        self.hits = 0
        self.refines = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.nodes_visited = 0
        self.refine_tests = 0
        self.served_candidates = 0

    # ------------------------------------------------------------------
    def bind(self, dataset) -> None:
        """Bind to (or verify against) a dataset by content fingerprint."""
        if self._ds_id == id(dataset):
            return
        fp = dataset_fingerprint(dataset)
        if self.fingerprint is None:
            self.fingerprint = fp
        elif fp != self.fingerprint:
            raise ValueError(
                "SemanticCache is bound to a different dataset "
                f"(fingerprint {self.fingerprint[:12]}... != {fp[:12]}...)"
            )
        self._ds_id = id(dataset)
        if self.extent is None:
            self.extent = dataset.extent

    def __len__(self) -> int:
        return len(self._entries)

    def entry(self, key: tuple) -> CacheEntry:
        """The live entry for ``key`` (must be present)."""
        return self._entries[key]

    @property
    def lookups(self) -> int:
        """Total serve calls so far."""
        return self.hits + self.refines + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (hit or refine)."""
        total = self.lookups
        return (self.hits + self.refines) / total if total else 0.0

    @property
    def payload_bytes(self) -> int:
        """Resident candidate-array bytes (the ledger's capacity charge)."""
        return sum(e.nbytes for e in self._entries.values())

    @property
    def pinned_buckets(self) -> int:
        """How many Hilbert buckets are currently hot (pinned)."""
        return len(self._hot)

    def stats_dict(self) -> dict:
        """Statistics snapshot (the ledger ``semcache`` event payload)."""
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "payload_bytes": self.payload_bytes,
            "hits": self.hits,
            "refines": self.refines,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "pinned_buckets": self.pinned_buckets,
            "nodes_visited": self.nodes_visited,
            "refine_tests": self.refine_tests,
            "served_candidates": self.served_candidates,
        }

    def clone(self) -> "SemanticCache":
        """A deep copy (entries, recency order, pin state, statistics)."""
        c = SemanticCache(
            self.capacity,
            pin_bucket_bits=self.pin_bucket_bits,
            pin_hits=self.pin_hits,
            extent=self.extent,
        )
        c.fingerprint = self.fingerprint
        c._ds_id = self._ds_id
        for k, e in self._entries.items():
            c._entries[k] = e.copy()
        c._seq = self._seq
        c._bucket_hits = dict(self._bucket_hits)
        c._hot = set(self._hot)
        c.hits, c.refines, c.misses = self.hits, self.refines, self.misses
        c.insertions, c.evictions = self.insertions, self.evictions
        c.nodes_visited = self.nodes_visited
        c.refine_tests = self.refine_tests
        c.served_candidates = self.served_candidates
        return c

    # ------------------------------------------------------------------
    def _matrix(self) -> Tuple[np.ndarray, np.ndarray, List[tuple]]:
        if self._dirty:
            self._keys = list(self._entries.keys())
            self._W = (
                np.array(self._keys, dtype=np.float64)
                if self._keys
                else np.empty((0, 4), dtype=np.float64)
            )
            self._seqs = np.array(
                [self._entries[k].seq for k in self._keys], dtype=np.int64
            )
            self._dirty = False
        return self._W, self._seqs, self._keys

    def match(
        self, rect: Tuple[float, float, float, float]
    ) -> Tuple[str, str, Tuple[tuple, ...]]:
        """Geometry-only lookup: ``(verdict, mode, source keys)``.

        ``mode`` is ``"exact"`` (hit), ``"contain"`` (refine from one or
        two containing windows; two means intersect-then-mask), or
        ``"cover"`` (refine from a union interval cover).  Does not mutate
        the cache.
        """
        if rect in self._entries:
            return "hit", "exact", (rect,)
        if not self._entries:
            return "miss", "", ()
        W, seqs, keys = self._matrix()
        xmin, ymin, xmax, ymax = rect
        contains = (
            (W[:, 0] <= xmin)
            & (W[:, 1] <= ymin)
            & (W[:, 2] >= xmax)
            & (W[:, 3] >= ymax)
        )
        if contains.any():
            idx = np.nonzero(contains)[0]
            areas = (W[idx, 2] - W[idx, 0]) * (W[idx, 3] - W[idx, 1])
            order = np.lexsort((seqs[idx], areas))
            chosen = idx[order[:2]]
            return "refine", "contain", tuple(keys[int(j)] for j in chosen)
        cover = self._slab_cover(W, seqs, keys, rect, transpose=False)
        if cover is None:
            cover = self._slab_cover(W, seqs, keys, rect, transpose=True)
        if cover is not None:
            return "refine", "cover", cover
        return "miss", "", ()

    def _slab_cover(
        self,
        W: np.ndarray,
        seqs: np.ndarray,
        keys: List[tuple],
        rect: Tuple[float, float, float, float],
        *,
        transpose: bool,
    ) -> Optional[Tuple[tuple, ...]]:
        """Greedy union cover: cached windows spanning the window's full
        extent on one axis whose intervals cover it on the other."""
        xmin, ymin, xmax, ymax = rect
        if transpose:
            xmin, ymin, xmax, ymax = ymin, xmin, ymax, xmax
            a0, a1, b0, b1 = 1, 0, 3, 2
        else:
            a0, a1, b0, b1 = 0, 1, 2, 3
        spans = (
            (W[:, a1] <= ymin)
            & (W[:, b1] >= ymax)
            & (W[:, a0] <= xmax)
            & (W[:, b0] >= xmin)
        )
        idx = np.nonzero(spans)[0]
        if idx.size == 0:
            return None
        starts = W[idx, a0]
        ends = W[idx, b0]
        order = np.lexsort((seqs[idx], -ends, starts))
        starts, ends, idx = starts[order], ends[order], idx[order]
        chosen: List[int] = []
        covered = xmin
        i, n = 0, starts.size
        while covered < xmax:
            best = -1
            best_end = covered
            while i < n and starts[i] <= covered:
                if ends[i] > best_end:
                    best_end = float(ends[i])
                    best = i
                i += 1
            if best < 0:
                return None
            chosen.append(best)
            covered = best_end
            if len(chosen) > MAX_UNION_SOURCES:
                return None
        if not chosen:
            return None
        return tuple(keys[int(idx[j])] for j in chosen)

    def serve(
        self, rect: Tuple[float, float, float, float]
    ) -> Tuple[str, str, Tuple[tuple, ...]]:
        """One lookup: :meth:`match` plus statistics, LRU, and pin updates."""
        verdict, mode, keys = self.match(rect)
        if verdict == "hit":
            self.hits += 1
        elif verdict == "refine":
            self.refines += 1
        else:
            self.misses += 1
        for k in keys:
            self._entries.move_to_end(k)
        if verdict != "miss":
            b = _hilbert_bucket(rect, self.extent, self.pin_bucket_bits)
            count = self._bucket_hits.get(b, 0) + 1
            self._bucket_hits[b] = count
            if count >= self.pin_hits:
                self._hot.add(b)
        return verdict, mode, keys

    def insert(
        self, rect: Tuple[float, float, float, float], entry: CacheEntry
    ) -> bool:
        """Insert a (possibly payload-pending) entry; evict to capacity."""
        if self.capacity <= 0:
            return False
        if rect in self._entries:
            self._entries.move_to_end(rect)
            return False
        entry.bucket = _hilbert_bucket(rect, self.extent, self.pin_bucket_bits)
        entry.seq = self._seq
        self._seq += 1
        self._entries[rect] = entry
        self.insertions += 1
        self._dirty = True
        while len(self._entries) > self.capacity:
            self._evict_one()
        return True

    def _evict_one(self) -> None:
        """Drop the LRU entry, skipping hot (pinned) Hilbert buckets."""
        victim = None
        for k, e in self._entries.items():
            if e.bucket not in self._hot:
                victim = k
                break
        if victim is None:
            # Everything is pinned: the capacity bound still holds.
            victim = next(iter(self._entries))
        del self._entries[victim]
        self.evictions += 1
        self._dirty = True


# ----------------------------------------------------------------------
# Semantic phase computation
# ----------------------------------------------------------------------
def _pruned_source(
    src, entry: CacheEntry, rect: Tuple[float, float, float, float]
) -> Tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """Exact block-pruned superset of ``entry``'s candidates inside ``rect``.

    Returns ``(positions, ids, blocks_tested, block_positions)``.  A block
    box bounds every member entry's MBR, so dropping non-intersecting
    blocks can never drop a candidate of ``rect`` — the survivor set is
    still a superset that the leaf predicate then masks exactly.  Sources
    at or below one block are returned whole (no pruning pass to charge).

    ``src`` is the traversal source — the packed tree or a shard store —
    consumed through the shared ``entry_mbrs`` gather, whose values are
    bit-identical either way.
    """
    P, I = entry.positions, entry.ids
    n = int(P.size)
    if n <= _BLOCK:
        return P, I, 0, _EMPTY_POS
    if entry.blocks is None:
        starts = np.arange(0, n, _BLOCK, dtype=np.int64)
        ex0, ey0, ex1, ey1 = src.entry_mbrs(P)
        entry.blocks = (
            P[starts],
            np.minimum.reduceat(ex0, starts),
            np.minimum.reduceat(ey0, starts),
            np.maximum.reduceat(ex1, starts),
            np.maximum.reduceat(ey1, starts),
        )
    bpos, bx0, by0, bx1, by1 = entry.blocks
    xmin, ymin, xmax, ymax = rect
    hit = (bx0 <= xmax) & (bx1 >= xmin) & (by0 <= ymax) & (by1 >= ymin)
    nb = int(hit.size)
    if hit.all():
        return P, I, nb, bpos
    sizes = np.full(nb, _BLOCK, dtype=np.int64)
    sizes[-1] = n - _BLOCK * (nb - 1)
    mask = np.repeat(hit, sizes)
    return P[mask], I[mask], nb, bpos


def _window_mask(
    src, positions: np.ndarray, rect: Tuple[float, float, float, float]
) -> np.ndarray:
    """The traversal's leaf-entry predicate over packed positions.

    Term for term the test :func:`~repro.spatial.batchtraverse.batch_filter`
    applies at the leaf frontier, so masking a candidate superset with it
    reproduces a fresh traversal's candidate set exactly.  ``src`` is the
    packed tree or a shard store (same ``entry_mbrs`` values either way).
    """
    xmin, ymin, xmax, ymax = rect
    ex0, ey0, ex1, ey1 = src.entry_mbrs(positions)
    return (ex0 <= xmax) & (ex1 >= xmin) & (ey0 <= ymax) & (ey1 >= ymin)


def compute_query_phases_semantic(
    env: Environment,
    queries: Sequence[Query],
    cache: SemanticCache,
    phase_cache: Optional[PhaseDataCache] = None,
) -> Tuple[List[QueryPhases], List[str]]:
    """Phase data for every query, consulting the semantic cache.

    The semantic twin of :func:`~repro.core.batchplan.compute_query_phases`
    for point/range queries (NN/k-NN queries are placement- and
    cache-independent and route through the ordinary batched path, via
    ``phase_cache``).  Sequential semantics: each query's lookup sees every
    earlier query's insertion, including within this call — which is what
    makes the result independent of how a workload is split into batches.
    Returns ``(phases, verdicts)`` with one verdict per query
    (:data:`SEMCACHE_VERDICTS` for point/range, ``""`` for NN).

    Answers are bit-identical to the uncached path always; hits and
    refines differ only in their filter-phase accounting (see the module
    docstring), and misses are charged identically to the uncached
    planner.
    """
    cache.bind(env.dataset)
    ds = env.dataset
    tree = env.tree
    store = getattr(env, "shard_store", None)
    src = tree if store is None else store
    costs = ds.costs
    n = len(queries)
    out: List[Optional[QueryPhases]] = [None] * n
    verdicts = [""] * n
    nn_idx = [
        i for i, q in enumerate(queries)
        if q.kind is QueryKind.NEAREST_NEIGHBOR
    ]
    if nn_idx:
        nn_phases = compute_query_phases(
            env, [queries[i] for i in nn_idx], phase_cache
        )
        for i, qp in zip(nn_idx, nn_phases):
            out[i] = qp
    pr_idx = [i for i in range(n) if out[i] is None]
    if not pr_idx:
        return out, verdicts  # type: ignore[return-value]

    # Pass 1 — sequential, geometry-only cache decisions (verdict, source
    # capture, LRU/pin/eviction simulation).  Source entries are captured
    # by reference here: later evictions cannot invalidate them.
    pend: List[tuple] = []
    miss_j: List[int] = []
    for j, i in enumerate(pr_idx):
        rect = _rect_of(queries[i])
        verdict, mode, keys = cache.serve(rect)
        verdicts[i] = verdict
        sources = [cache.entry(k) for k in keys]
        if verdict == "hit":
            own = sources[0]
        else:
            own = CacheEntry(rect)
            cache.insert(rect, own)
            if verdict == "miss":
                miss_j.append(j)
        pend.append((rect, verdict, mode, sources, own))

    # Pass 2 — one batched traversal over the misses only.
    node_bytes = src.node_bytes_array()
    trav = None
    miss_rank: Dict[int, int] = {}
    if miss_j:
        arr = np.array([pend[j][0] for j in miss_j], dtype=np.float64)
        trav = (
            batch_filter(tree, arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3])
            if store is None
            else store.batch_filter(arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3])
        )
        cache.nodes_visited += int(trav.visited.size)
        for t, j in enumerate(miss_j):
            miss_rank[j] = t
            own = pend[j][4]
            o0, o1 = int(trav.cand_offsets[t]), int(trav.cand_offsets[t + 1])
            own.positions = trav.cand_positions[o0:o1]
            own.ids = trav.cand_ids[o0:o1]

    # Pass 3 — resolve served payloads in sequence order (a refine's
    # sources were filled by pass 2 or by an earlier iteration here).
    tested: List[Optional[Tuple[np.ndarray, int, np.ndarray]]] = (
        [None] * len(pend)
    )
    for j, (rect, verdict, mode, sources, own) in enumerate(pend):
        if verdict != "refine":
            continue
        pruned = [_pruned_source(src, s, rect) for s in sources]
        n_blocks = sum(p[2] for p in pruned)
        block_pos = np.concatenate([p[3] for p in pruned])
        if mode == "contain" and len(sources) == 2:
            P, I = intersect_candidates(
                pruned[0][0], pruned[0][1], pruned[1][0], pruned[1][1]
            )
        elif mode == "cover":
            P, I = union_candidates([(p[0], p[1]) for p in pruned])
        else:
            P, I = pruned[0][0], pruned[0][1]
        keep = _window_mask(src, P, rect)
        own.positions = P[keep]
        own.ids = I[keep]
        tested[j] = (P, n_blocks, block_pos)
        cache.refine_tests += n_blocks + int(P.size)

    # Pass 4 — one bulk answer refinement, mirroring the uncached
    # ``_compute_phases`` element for element (point eps applies here).
    m = len(pr_idx)
    qx0 = np.empty(m)
    qy0 = np.empty(m)
    qx1 = np.empty(m)
    qy1 = np.empty(m)
    is_range = np.zeros(m, dtype=bool)
    px = np.zeros(m)
    py = np.zeros(m)
    eps = np.zeros(m)
    for j, i in enumerate(pr_idx):
        q = queries[i]
        if isinstance(q, RangeQuery):
            r = q.rect
            qx0[j], qy0[j], qx1[j], qy1[j] = r.xmin, r.ymin, r.xmax, r.ymax
            is_range[j] = True
        else:
            qx0[j] = qx1[j] = px[j] = q.x
            qy0[j] = qy1[j] = py[j] = q.y
            eps[j] = q.eps
    cand_list = [pend[j][4].ids for j in range(m)]
    cand = (
        np.concatenate(cand_list) if cand_list else np.empty(0, dtype=np.int64)
    )
    counts = np.array([c.size for c in cand_list], dtype=np.int64)
    rq = np.repeat(np.arange(m, dtype=np.int64), counts)
    x1 = ds.x1[cand]
    y1 = ds.y1[cand]
    x2 = ds.x2[cand]
    y2 = ds.y2[cand]
    mask = np.zeros(cand.size, dtype=bool)
    range_rows = is_range[rq]
    if np.any(range_rows):
        sel = np.nonzero(range_rows)[0]
        qq = rq[sel]
        mask[sel] = vecgeom.segments_intersect_rects(
            x1[sel], y1[sel], x2[sel], y2[sel],
            qx0[qq], qy0[qq], qx1[qq], qy1[qq],
        )
    if cand.size and np.any(~range_rows):
        sel = np.nonzero(~range_rows)[0]
        qq = rq[sel]
        mask[sel] = vecgeom.segments_contain_points(
            px[qq], py[qq], x1[sel], y1[sel], x2[sel], y2[sel], eps[qq],
        )

    # Pass 5 — per-query phase data: misses replay the traversal exactly
    # as the uncached planner does; hits/refines get the semantic filter
    # accounting and the standard refine/answer construction.
    offs = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=offs[1:])
    for j, i in enumerate(pr_idx):
        q = queries[i]
        key = query_key(q)
        rect, verdict, mode, sources, own = pend[j]
        o0, o1 = int(offs[j]), int(offs[j + 1])
        c_ids = cand[o0:o1]
        a_ids = c_ids[mask[o0:o1]]
        nc = int(c_ids.size)
        if verdict == "miss":
            t = miss_rank[j]
            out[i] = _pr_phases(
                key, q, trav.nodes_of(t), node_bytes, c_ids, a_ids,
                int(trav.mbr_tests[t]), costs,
            )
            continue
        cache.served_candidates += nc
        if verdict == "hit":
            # Sequential scan of the packed cached id array: nc
            # result-region touches addressed by packed entry position,
            # zero node visits, zero MBR tests.
            filter_trace = PhaseTrace(
                _counts(entries_scanned=nc),
                np.full(nc, REGION_RESULT, dtype=np.int8),
                own.positions.astype(np.int64),
                np.full(nc, costs.object_id_bytes, dtype=np.int64),
            )
        else:
            # One MBR test per surviving block and candidate, zero node
            # visits: block summaries prune whole runs, then a single
            # pass over the packed (position, id, MBR) payload, all
            # addressed by entry position so runs coalesce into lines.
            P, n_blocks, block_pos = tested[j]
            filter_trace = PhaseTrace(
                _counts(mbr_tests=n_blocks + int(P.size), entries_scanned=nc),
                np.full(n_blocks + P.size, REGION_RESULT, dtype=np.int8),
                np.concatenate([block_pos, P]).astype(np.int64),
                np.concatenate([
                    np.full(n_blocks, _BYTES_PER_BLOCK, dtype=np.int64),
                    np.full(P.size, _BYTES_PER_CANDIDATE, dtype=np.int64),
                ]),
            )
        out[i] = _phases_with_filter(key, q, filter_trace, c_ids, a_ids, costs)
    return out, verdicts  # type: ignore[return-value]


# ----------------------------------------------------------------------
# The scalar semantic twin
# ----------------------------------------------------------------------
def plan_one_semantic(
    query: Query,
    config: SchemeConfig,
    env: Environment,
    cache: SemanticCache,
) -> Tuple[QueryPlan, str]:
    """One query planned semantically with scalar cache replay.

    The per-query reference the differential suite pins the batched
    semantic path against: phase data from
    :func:`compute_query_phases_semantic` (single-query call), traces
    replayed line by line through the environment's *live*
    :class:`~repro.sim.cache.CacheSim` objects, steps assembled by the
    same branch structure as ``plan_query``.  Returns the plan plus this
    query's semantic verdict.
    """
    config.validate_for(query)
    phases, verdicts = compute_query_phases_semantic(env, [query], cache)
    qp = phases[0]
    costs = env.dataset.costs
    client, server = env.client_cpu, env.server_cpu
    slot_costs = []
    for side, trace in _query_phase_slots(qp, config, costs):
        cpu = client if side == "client" else server
        sim = client.dcache if side == "client" else server.l1
        if cpu.use_cache_sim:
            geom = CacheGeometry.of(sim, cpu.costs)
            h = m = 0
            for line in trace.lines_for(geom).tolist():
                if sim.access_line(int(line)):
                    h += 1
                else:
                    m += 1
            slot_costs.append(cpu.compute_replayed(trace.counter, h, m))
        else:
            slot_costs.append(cpu.compute(trace.counter))
    return _assemble_plan(query, config, qp, costs, slot_costs), verdicts[0]


def plan_query_semantic(
    query: Query,
    config: SchemeConfig,
    env: Environment,
    cache: SemanticCache,
) -> QueryPlan:
    """The plan half of :func:`plan_one_semantic` (the oracle twin)."""
    return plan_one_semantic(query, config, env, cache)[0]
