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
from typing import Iterable, List, Optional, Tuple, Union

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

    def span(self, addr: int, nbytes: int) -> range:
        """The lines holding the ``nbytes`` bytes from byte address ``addr``,
        first to last (none when ``nbytes <= 0``)."""
        if nbytes <= 0:
            return range(0)
        lb = self.line_bytes
        return range(addr // lb, (addr + nbytes - 1) // lb + 1)

    def access(self, addr: int, nbytes: int) -> Tuple[int, int]:
        """Touch ``nbytes`` starting at byte address ``addr``.

        Returns ``(hits, misses)`` for the lines spanned.  A zero-byte access
        is a no-op (returns ``(0, 0)``).
        """
        h0 = self.hits
        lines = self.span(addr, nbytes)
        for line in lines:
            self.access_line(line)
        h = self.hits - h0
        return (h, len(lines) - h)

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


def _check_ways(ways, *shape: int) -> np.ndarray:
    """``ways`` as int64 after checking it is a well-formed tag array.

    Well-formed means shape ``shape`` (an ``(n_sets, assoc)`` matrix, or a
    block of them), tags >= 0 with ``-1`` only as empty ways after every
    valid way of the row, and no tag twice in a row: the state some
    sequence of line accesses can leave behind.
    """
    ways = np.asarray(ways)
    if ways.shape != shape or ways.dtype.kind != "i":
        raise ValueError(
            f"ways must be a {shape} integer array, got {ways.dtype} {ways.shape}"
        )
    ways = ways.astype(np.int64, copy=False)
    if ways.size and int(ways.min()) < -1:
        raise ValueError("ways tags must be >= 0, or -1 for an empty way")
    if shape[-1] > 1:
        empty = ways == -1
        if (empty[..., :-1] > empty[..., 1:]).any():
            raise ValueError("ways has an empty way before a valid way")
        # Sorted, a row is its -1 fillers then strictly increasing tags.
        s = np.sort(ways, axis=-1)
        if ((s[..., 1:] == s[..., :-1]) & (s[..., 1:] != -1)).any():
            raise ValueError("ways repeats a tag within a set")
    return ways


_SOURCE = Path(__file__).with_name("lru.c")
#: The loaded ``lru_run`` kernel; False once the CacheSim fallback has warned.
_kernel_fn = None
#: Largest access :meth:`BatchedLRU.add_streams` takes, in bytes.
_MAX_ACCESS_BYTES = 2**32


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
            i64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
            verdicts = np.ctypeslib.ndpointer(np.bool_, flags="C_CONTIGUOUS")
            _kernel_fn.argtypes = (ctypes.c_int64, i64, verdicts, i64, i64)
            _kernel_fn.restype = None
    return _kernel_fn or None


def _kernel_rows(line_bytes, addrs, nbytes, bounds, streams, ways) -> np.ndarray:
    """``lru.c``'s table rows for one block's streams (see ``lru.c``)."""
    k, n_sets, assoc = ways.shape
    rows = np.empty((k, 8), dtype=np.int64)
    rows[:, 0] = np.diff(streams)
    rows[:, 1:4] = line_bytes, n_sets, assoc
    rows[:, 4] = bounds.ctypes.data + 8 * streams[:-1]
    rows[:, 5:7] = addrs.ctypes.data, nbytes.ctypes.data
    rows[:, 7] = ways.ctypes.data + 8 * n_sets * assoc * np.arange(k)
    return rows


def _cachesim_run(blocks: List[tuple], hits, phase_hits, phase_lines) -> None:
    """``lru_run``'s contract (see ``lru.c``) met by :class:`CacheSim`
    itself, stream by stream: the replay without a C compiler."""
    out = p = 0
    for line_bytes, addrs, nbytes, bounds, streams, ways in blocks:
        _, n_sets, assoc = ways.shape
        addr, size = addrs.tolist(), nbytes.tolist()
        bounds, streams = bounds.tolist(), streams.tolist()
        for s in range(len(ways)):
            sim = CacheSim(n_sets * assoc * line_bytes, assoc, line_bytes)
            sim.load_ways(ways[s])
            for q in range(streams[s], streams[s + 1]):
                i, end = bounds[q], bounds[q + 1]
                verdicts = [
                    sim.access_line(line)
                    for a, n in zip(addr[i:end], size[i:end])
                    for line in sim.span(a, n)
                ]
                hits[out : out + len(verdicts)] = verdicts
                phase_hits[p] = sum(verdicts)
                phase_lines[p] = len(verdicts)
                out += len(verdicts)
                p += 1
            ways[s] = sim.ways()


def _int_array(name: str, values) -> np.ndarray:
    """``values`` as a 1-D integer (not bool) array, else ValueError; an
    empty list passes whatever dtype NumPy gives it."""
    values = np.asarray(values)
    if values.ndim != 1 or (values.size and values.dtype.kind not in "iu"):
        raise ValueError(
            f"{name} must be a 1-D integer array, got {values.dtype} "
            f"{values.shape}"
        )
    return values


def _bounds(name: str, ends, total: int, of: str) -> np.ndarray:
    """``[0, *ends]`` as int64, after checking that ``ends`` cuts ``total``
    items into runs: never decreasing, from >= 0 up to ``total``."""
    bounds = np.r_[0, _int_array(name, ends).astype(np.int64)]
    if bounds[-1] != total or np.any(bounds[1:] < bounds[:-1]):
        raise ValueError(
            f"{name} must be non-decreasing, non-negative and end at "
            f"len({of}) = {total}"
        )
    return bounds


class BatchedLRU:
    """Exact replay of many independent access streams in one compiled call.

    The batched planner needs :class:`CacheSim`'s hit/miss counts for every
    phase of every query in a workload: hundreds of thousands of
    :meth:`CacheSim.access` calls that dominate scalar planning time.  This
    class runs that same algorithm (``lru.c``, a C port of
    :meth:`CacheSim.access`: the access's first to last line, each through
    :meth:`CacheSim.access_line`'s LRU update) over every stream in one
    call, so its verdicts and final cache states are CacheSim's by
    construction.  Without a C compiler every stream replays through
    :class:`CacheSim` itself, after one ``RuntimeWarning``.

    Usage: :meth:`add_streams` each block of streams that share a cache
    geometry (their byte accesses end to end, where phases and streams
    end, and optional warm-start states), then :meth:`run` once, then read
    :meth:`phases_of` / :meth:`hits_of` / :meth:`final_ways` per stream
    (or :meth:`phases_of` per block).  Streams never share state; each
    models its own freshly-seeded :class:`CacheSim`.

    Warm state crosses this boundary in one format only: the MRU-first
    ``(n_sets, assoc)`` int64 tag matrix the kernel itself keeps, ``-1``
    marking an empty way (:meth:`CacheSim.ways` / :meth:`CacheSim.load_ways`
    convert at the scalar edge).  A :meth:`final_ways` matrix is directly a
    stream's ``seed_ways`` row in the next replay, so callers that chain
    replays (the serve tier's per-client caches) never touch per-set
    Python lists.
    """

    def __init__(self) -> None:
        #: Where each stream's phases end, counted across all blocks: one
        #: entry per stream, in handle order.
        self._streams = np.empty(0, dtype=np.int64)
        #: Per block: ``(line_bytes, addrs, nbytes, phase bounds, stream
        #: bounds, ways)``, the arrays the kernel reads in place.
        self._blocks: List[tuple] = []
        #: Room for every block's per-line verdicts.
        self._capacity = 0
        self._ran = False
        self._hits: Optional[np.ndarray] = None
        self._phase_hits: Optional[np.ndarray] = None
        self._phase_lines: Optional[np.ndarray] = None
        #: After run(): where each stream's phases, and each phase's lines,
        #: start (with the end of the last).
        self._phase_at: Optional[np.ndarray] = None
        self._line_at: Optional[np.ndarray] = None

    def add_streams(
        self,
        addrs: np.ndarray,
        nbytes: np.ndarray,
        phase_ends: np.ndarray,
        stream_ends: np.ndarray,
        line_bytes: int,
        n_sets: int,
        assoc: int,
        seed_ways: Optional[np.ndarray] = None,
    ) -> range:
        """Register one block of streams; returns their handles, a range.

        Access ``i`` touches the ``nbytes[i]`` bytes from byte address
        ``addrs[i]``, as :meth:`CacheSim.access` does (no line at all when
        ``nbytes[i] <= 0``), in order.  ``phase_ends`` cuts the accesses
        into phases: phase ``j`` ends before access ``phase_ends[j]``, so
        the ends never decrease and the last is ``len(addrs)``.
        ``stream_ends`` cuts the phases into streams the same way (a stream
        may have no phase).  Each stream's cache has ``n_sets`` sets of
        ``assoc`` ways of ``line_bytes``-byte lines.  ``seed_ways``
        warm-starts them with one :meth:`final_ways` matrix per stream (all
        ``-1`` for a cold one), copied and never written; None starts every
        stream cold.
        """
        if self._ran:
            raise RuntimeError("add_streams after run()")
        _check_geometry(line_bytes=line_bytes, n_sets=n_sets, assoc=assoc)
        addrs = _int_array("addrs", addrs)
        nbytes = _int_array("nbytes", nbytes)
        if nbytes.size != addrs.size:
            raise ValueError(
                f"{addrs.size} addrs but {nbytes.size} nbytes: one size per access"
            )
        if addrs.size:
            # Tag -1 means an empty way, C division truncates where CacheSim
            # floors, and the kernel reads int64.
            if int(addrs.min()) < 0 or int(addrs.max()) >= 2**63:
                raise ValueError("addresses must be non-negative and below 2**63")
            if int(nbytes.max()) > _MAX_ACCESS_BYTES:
                raise ValueError(
                    f"an access may touch at most {_MAX_ACCESS_BYTES} bytes"
                )
        # The kernel reads each array in place, as C-contiguous int64.
        addrs = np.ascontiguousarray(addrs, dtype=np.int64)
        nbytes = np.ascontiguousarray(nbytes, dtype=np.int64)
        if addrs.size and int(addrs.max()) + int(nbytes.max()) > 2**63:
            if np.any((nbytes > 0) & (addrs - 1 > 2**63 - 1 - np.maximum(nbytes, 1))):
                raise ValueError("every accessed byte must lie below address 2**63")
        bounds = _bounds("phase_ends", phase_ends, addrs.size, "addrs")
        streams = _bounds("stream_ends", stream_ends, bounds.size - 1, "phase_ends")
        k = streams.size - 1
        if seed_ways is None:
            ways = np.full((k, n_sets, assoc), -1, dtype=np.int64)
        else:
            # The kernel trusts the seeds: each must be a reachable state.
            ways = np.array(_check_ways(seed_ways, k, n_sets, assoc), order="C")
        first = len(self._streams)
        self._streams = np.r_[
            self._streams, streams[1:] + (self._streams[-1] if first else 0)
        ]
        self._blocks.append((int(line_bytes), addrs, nbytes, bounds, streams, ways))
        # An access of n > 0 bytes spans at most n // line_bytes + 2 lines.
        # (Summed in place: a block-sized temporary raises peak RSS.)
        self._capacity += (
            int(nbytes.sum(where=nbytes > 0)) // line_bytes + 2 * nbytes.size
        )
        return range(first, first + k)

    def run(self) -> None:
        """Replay every registered stream in one kernel call."""
        if self._ran:
            raise RuntimeError("run() called twice")
        self._ran = True
        self._phase_at = np.r_[0, self._streams]
        hits = np.empty(self._capacity, dtype=bool)
        phase_hits = np.empty(self._phase_at[-1], dtype=np.int64)
        phase_lines = np.empty(self._phase_at[-1], dtype=np.int64)
        kernel = _kernel()
        if kernel is None:
            _cachesim_run(self._blocks, hits, phase_hits, phase_lines)
        else:
            table = np.concatenate(
                [np.empty((0, 8), np.int64)] + [_kernel_rows(*b) for b in self._blocks]
            )
            kernel(len(table), table, hits, phase_hits, phase_lines)
        self._hits = hits
        self._phase_hits = phase_hits
        self._phase_lines = phase_lines
        self._line_at = np.r_[0, np.cumsum(phase_lines)]

    def _phases(self, streams: Union[int, range]) -> slice:
        """The phases of a stream handle, or of a range of handles (an
        :meth:`add_streams` block) end to end."""
        if not self._ran:
            raise RuntimeError("run() not called")
        r = streams if isinstance(streams, range) else range(streams, streams + 1)
        if r.step != 1 or not 0 <= r.start <= r.stop <= len(self._streams):
            raise IndexError(f"no stream handles {streams!r}")
        return slice(int(self._phase_at[r.start]), int(self._phase_at[r.stop]))

    def hits_of(self, stream: int) -> np.ndarray:
        """Per-line hit verdicts for one stream (True = hit), in order."""
        p = self._phases(stream)
        return self._hits[self._line_at[p.start] : self._line_at[p.stop]]

    def phases_of(self, streams: Union[int, range]) -> Tuple[np.ndarray, np.ndarray]:
        """Per-phase ``(hits, lines)`` int64 arrays for one stream, in phase
        order, or for a range of handles (an :meth:`add_streams` block) end
        to end; a phase's misses are its lines minus its hits."""
        p = self._phases(streams)
        return self._phase_hits[p], self._phase_lines[p]

    def final_ways(self, stream: int) -> np.ndarray:
        """Final cache state for one stream: a fresh ``(n_sets, assoc)``
        MRU-first int64 tag matrix, ``-1`` for empty ways.

        Pass it as the stream's ``seed_ways`` row in the next replay to
        continue a warm simulation, or to :meth:`CacheSim.load_ways`.
        """
        self._phases(stream)  # raises unless run() ran and ``stream`` exists
        for *_, ways in self._blocks:
            if stream < len(ways):
                return ways[stream].copy()
            stream -= len(ways)
