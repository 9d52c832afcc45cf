"""Set-associative LRU cache simulator (the client D-cache model).

The paper's client has an 8 KB 4-way set-associative data cache with 32-byte
lines and a 100-cycle DRAM penalty; cache behaviour is what made the original
study's "fully at the client" executions memory-bound on large working sets.
The cost model replays each query phase's data-access trace (recorded by
:class:`repro.sim.trace.OpCounter`) through this simulator, so miss counts —
and therefore stall cycles and memory energy — are genuinely data-dependent:
a Hilbert-packed traversal touches contiguous node ranges and misses less
than an unsorted packing of the same tree, which the packing ablation bench
demonstrates.

The simulator is deliberately small: physically indexed, true-LRU,
write-allocate with no write-back accounting (the workload is read-dominated
index traversal), and addresses are the synthetic region-based layout built
by :mod:`repro.sim.cpu`.
"""

from __future__ import annotations

import ctypes
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro import native

__all__ = ["CacheSim", "BatchedLRU"]


def _check_geometry(**dims) -> None:
    """Raise ValueError unless every dimension is a positive non-bool int."""
    for name, v in dims.items():
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValueError(f"{name} must be an int, got {v!r}")
        if v <= 0:
            raise ValueError("cache geometry parameters must be positive")


class CacheSim:
    """A ``size_bytes`` set-associative cache with LRU replacement."""

    def __init__(self, size_bytes: int, assoc: int, line_bytes: int) -> None:
        _check_geometry(size_bytes=size_bytes, assoc=assoc, line_bytes=line_bytes)
        if size_bytes % (assoc * line_bytes) != 0:
            raise ValueError(
                f"size {size_bytes} not divisible by assoc*line "
                f"({assoc}*{line_bytes})"
            )
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.n_sets = size_bytes // (assoc * line_bytes)
        # Per-set list of tags, most-recently-used last.
        self._sets: List[List[int]] = [[] for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Empty the cache and zero the counters."""
        self._sets = [[] for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0

    def access_line(self, line_addr: int) -> bool:
        """Touch one cache line (by line-granular address); True on hit."""
        set_idx = line_addr % self.n_sets
        tag = line_addr // self.n_sets
        ways = self._sets[set_idx]
        try:
            ways.remove(tag)
        except ValueError:
            self.misses += 1
            if len(ways) >= self.assoc:
                ways.pop(0)  # evict LRU
            ways.append(tag)
            return False
        self.hits += 1
        ways.append(tag)  # move to MRU
        return True

    def access(self, addr: int, nbytes: int) -> Tuple[int, int]:
        """Touch ``nbytes`` starting at byte address ``addr``.

        Returns ``(hits, misses)`` for the lines spanned.  A zero-byte access
        is a no-op (returns ``(0, 0)``).
        """
        if nbytes <= 0:
            return (0, 0)
        first = addr // self.line_bytes
        last = (addr + nbytes - 1) // self.line_bytes
        h = m = 0
        for line in range(first, last + 1):
            if self.access_line(line):
                h += 1
            else:
                m += 1
        return (h, m)

    def run_trace(self, accesses: Iterable[Tuple[int, int]]) -> Tuple[int, int]:
        """Replay ``(addr, nbytes)`` pairs; returns total ``(hits, misses)``."""
        h0, m0 = self.hits, self.misses
        for addr, nbytes in accesses:
            self.access(addr, nbytes)
        return (self.hits - h0, self.misses - m0)

    def ways(self) -> np.ndarray:
        """The cache contents as an ``(n_sets, assoc)`` int64 tag matrix.

        Row ``s`` holds set ``s``'s tags most-recently-used first, with
        ``-1`` for each empty way: the warm-state format
        :class:`BatchedLRU` takes as ``seed_ways`` and returns from
        :meth:`BatchedLRU.final_ways`.
        """
        W = np.full((self.n_sets, self.assoc), -1, dtype=np.int64)
        for row, tags in enumerate(self._sets):
            if tags:
                W[row, : len(tags)] = tags[::-1]
        return W

    def load_ways(self, ways: np.ndarray) -> None:
        """Replace the contents with a :meth:`ways` matrix; counters stay."""
        ways = _check_ways(ways, self.n_sets, self.assoc)
        self._sets = [
            [t for t in row if t != -1] for row in ways[:, ::-1].tolist()
        ]

    @property
    def accesses(self) -> int:
        """Total line touches so far."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Fraction of line touches that missed (0 when untouched)."""
        total = self.accesses
        return self.misses / total if total else 0.0


def _check_ways(ways, n_sets: int, assoc: int) -> np.ndarray:
    """``ways`` as int64 after checking it is a well-formed tag matrix.

    Well-formed means shape ``(n_sets, assoc)``, tags >= 0 with ``-1`` only
    as empty ways after every valid way of the row, and no tag twice in a
    row: the state some sequence of line accesses can leave behind.
    """
    ways = np.asarray(ways)
    if ways.shape != (n_sets, assoc) or ways.dtype.kind != "i":
        raise ValueError(
            f"ways must be an ({n_sets}, {assoc}) integer matrix, got "
            f"{ways.dtype} {ways.shape}"
        )
    ways = ways.astype(np.int64, copy=False)
    if ways.size and int(ways.min()) < -1:
        raise ValueError("ways tags must be >= 0, or -1 for an empty way")
    if assoc > 1:
        empty = ways == -1
        if (empty[:, :-1] > empty[:, 1:]).any():
            raise ValueError("ways has an empty way before a valid way")
        # Sorted, a row is its -1 fillers then strictly increasing tags.
        s = np.sort(ways, axis=1)
        if ((s[:, 1:] == s[:, :-1]) & (s[:, 1:] != -1)).any():
            raise ValueError("ways repeats a tag within a set")
    return ways


_SOURCE = Path(__file__).with_name("lru.c")
#: The loaded ``lru_run`` kernel; False once the CacheSim fallback has warned.
_kernel_fn = None


def _kernel():
    """``lru.c``'s ``lru_run``, or None (after one RuntimeWarning) without a
    C compiler."""
    global _kernel_fn
    if _kernel_fn is None:
        lib = native.load(
            _SOURCE, "BatchedLRU replays through CacheSim instead, exactly but slower"
        )
        _kernel_fn = False
        if lib is not None:
            _kernel_fn = lib.lru_run
            i64 = ctypes.c_int64
            _kernel_fn.argtypes = (
                ctypes.c_void_p, i64, i64, i64, ctypes.c_void_p, ctypes.c_void_p
            )
            _kernel_fn.restype = None
    return _kernel_fn or None


class BatchedLRU:
    """Exact replay of many independent LRU traces, one compiled loop each.

    The batched planner needs :class:`CacheSim`'s per-line hit/miss verdicts
    for every phase of every query in a workload: hundreds of thousands of
    ``access_line`` calls that dominate scalar planning time.  This class
    runs that same per-line algorithm (``lru.c``, a C port of
    :meth:`CacheSim.access_line`) over each whole trace, so its verdicts and
    final cache state are CacheSim's by construction.  Without a C compiler
    every stream replays through :class:`CacheSim` itself, after one
    ``RuntimeWarning``.

    Usage: :meth:`add_stream` each line-granular trace (with its cache
    geometry and optional warm-start state), then :meth:`run` once, then read
    :meth:`hits_of` / :meth:`final_ways` per stream.  Streams never share
    state; each models its own freshly-seeded :class:`CacheSim`.

    Warm state crosses this boundary in one format only: the MRU-first
    ``(n_sets, assoc)`` int64 tag matrix the kernel itself keeps, ``-1``
    marking an empty way (:meth:`CacheSim.ways` / :meth:`CacheSim.load_ways`
    convert at the scalar edge).  A :meth:`final_ways` matrix is directly the
    ``seed_ways`` of the next replay, so callers that chain replays (the
    serve tier's per-client caches) never touch per-set Python lists.
    """

    def __init__(self) -> None:
        self._streams: List[dict] = []
        self._ran = False
        self._hits: Optional[np.ndarray] = None

    def add_stream(
        self,
        lines: np.ndarray,
        n_sets: int,
        assoc: int,
        seed_ways: Optional[np.ndarray] = None,
    ) -> int:
        """Register one line-address trace with its cache geometry.

        ``lines`` is a 1-D integer array of line-granular addresses in
        ``[0, 2**63)``, in access order (the sequence
        :meth:`CacheSim.access_line` would see).  ``seed_ways`` warm-starts
        the cache: an ``(n_sets, assoc)`` MRU-first tag matrix, ``-1`` for
        empty ways (the :meth:`final_ways` layout).  It is read at
        :meth:`run` and never written.  Returns the stream's handle.
        """
        if self._ran:
            raise RuntimeError("add_stream after run()")
        _check_geometry(n_sets=n_sets, assoc=assoc)
        if seed_ways is not None:
            # The kernel trusts the seed: it must be a reachable state.
            seed_ways = _check_ways(seed_ways, n_sets, assoc)
        lines = np.asarray(lines)
        if lines.ndim != 1 or lines.dtype.kind not in "iu":
            raise ValueError(
                f"lines must be a 1-D integer array, got {lines.dtype} "
                f"{lines.shape}"
            )
        if lines.size and (
            int(lines.max()) >= 2**63
            if lines.dtype.kind == "u"
            else int(lines.min()) < 0
        ):
            # Tag -1 means an empty way, and the kernel reads int64.
            raise ValueError("line addresses must be non-negative and below 2**63")
        self._streams.append(
            {
                "lines": np.ascontiguousarray(lines, dtype=np.int64),
                "n_sets": int(n_sets),
                "assoc": int(assoc),
                "seed": seed_ways,
            }
        )
        return len(self._streams) - 1

    def run(self) -> None:
        """Simulate every registered stream; verdicts become readable."""
        if self._ran:
            raise RuntimeError("run() called twice")
        self._ran = True
        kernel = _kernel()
        hits = np.empty(sum(s["lines"].size for s in self._streams), dtype=bool)
        pos = 0
        for s in self._streams:
            lines, n_sets, assoc = s["lines"], s["n_sets"], s["assoc"]
            if s["seed"] is None:
                ways = np.full((n_sets, assoc), -1, dtype=np.int64)
            else:
                ways = np.array(s["seed"], dtype=np.int64, order="C")
            out = hits[pos : pos + lines.size]
            if kernel is not None:
                kernel(
                    lines.ctypes.data,
                    lines.size,
                    n_sets,
                    assoc,
                    ways.ctypes.data,
                    out.ctypes.data,
                )
            else:
                sim = CacheSim(n_sets * assoc, assoc, 1)
                sim.load_ways(ways)
                out[:] = [sim.access_line(x) for x in lines.tolist()]
                ways = sim.ways()
            s["slice"] = slice(pos, pos + lines.size)
            s["ways"] = ways
            pos += lines.size
        self._hits = hits

    def hits_of(self, stream: int) -> np.ndarray:
        """Per-access hit verdicts for one stream (True = hit), in order."""
        if not self._ran:
            raise RuntimeError("run() not called")
        return self._hits[self._streams[stream]["slice"]]

    def final_ways(self, stream: int) -> np.ndarray:
        """Final cache state for one stream: a fresh ``(n_sets, assoc)``
        MRU-first int64 tag matrix, ``-1`` for empty ways.

        Pass it as the next replay's ``seed_ways`` to continue a warm
        simulation, or to :meth:`CacheSim.load_ways`.
        """
        if not self._ran:
            raise RuntimeError("run() not called")
        return self._streams[stream]["ways"].copy()
