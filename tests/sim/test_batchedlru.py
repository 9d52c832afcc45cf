"""BatchedLRU vs the scalar CacheSim — bit-for-bit differential tests.

The batched planner's cache verdicts come from
:class:`repro.sim.cache.BatchedLRU`, which runs :meth:`CacheSim.access`'s
own algorithm as a compiled loop (``repro/sim/lru.c``) over every stream in
one call, or CacheSim itself when no C compiler is available.  Either way
it must reproduce the scalar simulator's per-line hit/miss verdicts,
per-phase counts AND final cache state exactly, including under warm-start
seeding.  Warm state crosses the replay boundary as an MRU-first
``(n_sets, assoc)`` tag matrix (``-1`` = empty way), the format of
:meth:`CacheSim.ways`.  The line-level tests feed each line as a 1-byte
access on 1-byte lines, so access ``i`` is line ``lines[i]``.
"""

from __future__ import annotations

import shutil
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import native
from repro.sim import cache
from repro.sim.cache import BatchedLRU, CacheSim


def _add_lines(batch, lines, n_sets, assoc, seed_ways=None):
    """Add a line trace as a block of one stream: one phase of 1-byte
    accesses on 1-byte lines.  Returns the stream's handle."""
    n = len(lines)
    [handle] = batch.add_streams(
        lines, np.ones(n, dtype=np.int64), [n], [1], 1, n_sets, assoc,
        seed_ways=None if seed_ways is None else np.asarray(seed_ways)[None],
    )
    return handle


def _as_ways(sets, assoc):
    """MRU-last per-set tag lists as an MRU-first ``-1``-padded matrix."""
    ways = np.full((len(sets), assoc), -1, dtype=np.int64)
    for row, tags in enumerate(sets):
        ways[row, : len(tags)] = tags[::-1]
    return ways


def _scalar_reference(lines, n_sets, assoc, seed_sets=None):
    """Per-access verdicts + final state from a hand-rolled scalar LRU."""
    sets = (
        [list(s) for s in seed_sets]
        if seed_sets is not None
        else [[] for _ in range(n_sets)]
    )
    hits = np.zeros(len(lines), dtype=bool)
    for k, line in enumerate(lines):
        s = int(line) % n_sets
        tag = int(line) // n_sets
        ways = sets[s]
        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            hits[k] = True
        else:
            ways.append(tag)
            if len(ways) > assoc:
                ways.pop(0)
    return hits, sets


def _random_trace(rng, n, hot_lines):
    """A skewed trace: mostly a hot set, with a uniform cold tail."""
    hot = rng.integers(0, hot_lines, size=n)
    cold = rng.integers(0, hot_lines * 64, size=n)
    pick = rng.random(n) < 0.75
    return np.where(pick, hot, cold).astype(np.int64)


GEOMETRIES = [
    (16, 1),  # direct-mapped
    (64, 2),  # the client dcache's 64 sets, at 2 ways
    (64, 4),  # the client dcache (8KB/4way/32B lines)
    (256, 2),  # the server L1 shape
    (8, 3),  # odd associativity
    (8, 5),  # wider than either modeled cache
    (4, 8),  # deep sets
]


@pytest.mark.parametrize("n_sets,assoc", GEOMETRIES)
def test_cold_start_matches_scalar(n_sets, assoc):
    rng = np.random.default_rng(n_sets * 100 + assoc)
    batch = BatchedLRU()
    traces = [_random_trace(rng, rng.integers(1, 2000), n_sets * assoc * 2)
              for _ in range(5)]
    handles = [_add_lines(batch, t, n_sets, assoc) for t in traces]
    batch.run()
    for h, t in zip(handles, traces):
        ref_hits, ref_sets = _scalar_reference(t, n_sets, assoc)
        assert np.array_equal(batch.hits_of(h), ref_hits)
        assert np.array_equal(batch.final_ways(h), _as_ways(ref_sets, assoc))


@pytest.mark.parametrize("n_sets,assoc", GEOMETRIES)
def test_warm_seed_matches_scalar(n_sets, assoc):
    rng = np.random.default_rng(7000 + n_sets * 10 + assoc)
    warm = _random_trace(rng, 500, n_sets * assoc * 2)
    work = _random_trace(rng, 800, n_sets * assoc * 2)
    _, seed = _scalar_reference(warm, n_sets, assoc)

    batch = BatchedLRU()
    h = _add_lines(batch, work, n_sets, assoc, seed_ways=_as_ways(seed, assoc))
    batch.run()
    ref_hits, ref_sets = _scalar_reference(work, n_sets, assoc, seed_sets=seed)
    assert np.array_equal(batch.hits_of(h), ref_hits)
    assert np.array_equal(batch.final_ways(h), _as_ways(ref_sets, assoc))


def test_matches_cachesim_class(n_sets=64, assoc=4, line_bytes=32):
    """End-to-end against the production CacheSim, not just the reference."""
    rng = np.random.default_rng(42)
    lines = _random_trace(rng, 3000, n_sets * assoc * 2)
    sim = CacheSim(n_sets * assoc * line_bytes, assoc, line_bytes)
    scalar_hits = np.array([sim.access_line(int(l)) for l in lines])

    batch = BatchedLRU()
    h = _add_lines(batch, lines, n_sets, assoc)
    batch.run()
    assert np.array_equal(batch.hits_of(h), scalar_hits)
    assert np.array_equal(batch.final_ways(h), _as_ways(sim._sets, assoc))


def test_mixed_geometries_one_batch():
    """Streams with different geometries share one batch."""
    rng = np.random.default_rng(9)
    specs = [(16, 1), (64, 4), (256, 2), (8, 3)]
    batch = BatchedLRU()
    traces = []
    for n_sets, assoc in specs:
        t = _random_trace(rng, 1200, n_sets * assoc * 2)
        traces.append((_add_lines(batch, t, n_sets, assoc), t, n_sets, assoc))
    batch.run()
    for h, t, n_sets, assoc in traces:
        ref_hits, ref_sets = _scalar_reference(t, n_sets, assoc)
        assert np.array_equal(batch.hits_of(h), ref_hits)
        assert np.array_equal(batch.final_ways(h), _as_ways(ref_sets, assoc))


def test_repeat_heavy_trace_dup_collapse():
    """Immediate same-line repeats (hits that leave the set as it is)."""
    rng = np.random.default_rng(5)
    base = _random_trace(rng, 200, 64)
    lines = np.repeat(base, rng.integers(1, 6, size=len(base)))
    batch = BatchedLRU()
    h = _add_lines(batch, lines, 16, 2)
    batch.run()
    ref_hits, ref_sets = _scalar_reference(lines, 16, 2)
    assert np.array_equal(batch.hits_of(h), ref_hits)
    assert np.array_equal(batch.final_ways(h), _as_ways(ref_sets, 2))


def test_empty_and_tiny_traces():
    batch = BatchedLRU()
    h0 = _add_lines(batch, np.empty(0, dtype=np.int64), 16, 2)
    h1 = _add_lines(batch, np.array([7]), 16, 2)
    h2 = _add_lines(batch, np.array([7, 7]), 16, 2)
    batch.run()
    assert batch.hits_of(h0).size == 0
    assert np.array_equal(batch.hits_of(h1), [False])
    assert np.array_equal(batch.hits_of(h2), [False, True])


def _ok_seed():
    return np.array([[5, 2], [7, -1], [-1, -1], [0, 3]], dtype=np.int64)


#: Seeds for a 4-set 2-way stream that are not a reachable cache state.
_MALFORMED_SEEDS = [
    np.full((3, 2), -1, dtype=np.int64),  # too few sets
    np.full((4, 3), -1, dtype=np.int64),  # too many ways
    np.full(8, -1, dtype=np.int64),  # flat
    _ok_seed().astype(np.float64),  # not integer
    np.array([[5, 2], [7, -2], [-1, -1], [0, 3]]),  # tag < -1
    np.array([[5, 2], [-1, 7], [-1, -1], [0, 3]]),  # -1 before a valid way
    np.array([[5, 5], [7, -1], [-1, -1], [0, 3]]),  # tag twice in a row
]


def test_api_misuse_raises():
    batch = BatchedLRU()
    _add_lines(batch, np.array([1, 2, 3]), 16, 2)
    batch.run()
    with pytest.raises(RuntimeError):
        batch.run()
    for handles in (1, -1, range(0, 2)):  # one stream: handle 0 only
        with pytest.raises(IndexError):
            batch.phases_of(handles)
    with pytest.raises(IndexError):
        batch.final_ways(1)
    with pytest.raises(RuntimeError):
        _add_lines(batch, np.array([1]), 16, 2)
    with pytest.raises(ValueError):
        _add_lines(BatchedLRU(), np.array([1]), 0, 2)
    with pytest.raises(RuntimeError):
        BatchedLRU().final_ways(0)
    with pytest.raises(ValueError):
        _add_lines(BatchedLRU(), np.array([1]), True, 2)  # bool is an int
    with pytest.raises(ValueError):
        _add_lines(BatchedLRU(), np.array([1]), 16, True)
    # Negative lines would alias tag -1; past 2**63 they wrap in int64.
    for lines in (
        np.array([3, -1, 5]),
        np.array([-7], dtype=np.int32),
        np.array([2**63], dtype=np.uint64),
        np.array([1, 2**64 - 1], dtype=np.uint64),
    ):
        with pytest.raises(ValueError, match="non-negative"):
            _add_lines(BatchedLRU(), lines, 16, 2)
    # Floats would be truncated to lines and bools read as lines 0/1.
    for lines in (
        np.array([0.5, 1.7, 0.2]),
        np.array([True, False]),
        np.array([[1, 2], [3, 4]]),
    ):
        with pytest.raises(ValueError, match="1-D integer"):
            _add_lines(BatchedLRU(), lines, 16, 2)
    top = np.array([2**63 - 1], dtype=np.uint64)  # the largest valid line
    _add_lines(BatchedLRU(), top, 16, 2)
    lines = np.array([1, 2, 3])
    _add_lines(BatchedLRU(), lines, 4, 2, seed_ways=_ok_seed())  # well-formed
    for seed in _MALFORMED_SEEDS:
        with pytest.raises(ValueError):
            _add_lines(BatchedLRU(), lines, 4, 2, seed_ways=seed)
        with pytest.raises(ValueError):
            CacheSim(4 * 2 * 8, 2, 8).load_ways(seed)

    def add3(seed_ways):
        """Three one-line streams on a 4-set 2-way cache, one block."""
        return BatchedLRU().add_streams(
            lines, [1, 1, 1], [1, 2, 3], [1, 2, 3], 1, 4, 2, seed_ways=seed_ways
        )

    cold = np.full((4, 2), -1, dtype=np.int64)
    add3(np.stack([_ok_seed(), cold, _ok_seed()]))  # cold rows are all -1
    # A seed block is (streams, n_sets, assoc), one row per stream.
    for block in (np.full((2, 4, 2), -1), np.full((3, 2, 4), -1), _ok_seed()):
        with pytest.raises(ValueError, match="ways must be"):
            add3(block)
    # Every row is checked: an unreachable seed mid-block is rejected.
    for seed in _MALFORMED_SEEDS:
        if seed.shape == cold.shape:
            with pytest.raises(ValueError, match="ways"):
                add3(np.stack([_ok_seed(), seed, cold]))


def test_seed_ways_not_mutated():
    seed = _ok_seed()
    batch = BatchedLRU()
    h = _add_lines(batch, np.array([1, 9, 2, 13, 4]), 4, 2, seed_ways=seed)
    batch.run()
    assert np.array_equal(seed, _ok_seed())
    out = batch.final_ways(h)
    out[:] = 99  # a fresh array: the replay's state is not aliased
    assert not np.array_equal(batch.final_ways(h), out)


def test_window_widening_final_state():
    """Assoc 4, one set: A B C D then (E F)x20 ends as [F, E, D, C].

    The last 40 accesses touch only E and F, so D and C, the set's older
    distinct tags, must survive behind the ping-pong run.
    """
    A, B, C, D, E, F = range(10, 16)
    lines = np.array([A, B, C, D] + [E, F] * 20)
    batch = BatchedLRU()
    h = _add_lines(batch, lines, 1, 4)
    batch.run()
    assert batch.final_ways(h).tolist() == [[F, E, D, C]]
    ref_hits, ref_sets = _scalar_reference(lines, 1, 4)
    assert np.array_equal(batch.hits_of(h), ref_hits)
    assert ref_sets == [[C, D, E, F]]


def test_ways_load_ways_round_trip():
    rng = np.random.default_rng(11)
    sim = CacheSim(16 * 4 * 32, 4, 32)
    for line in _random_trace(rng, 300, 16 * 4 * 2).tolist():
        sim.access_line(line)
    sim.hits, sim.misses = 3, 4
    ways = sim.ways()
    assert ways.shape == (16, 4) and ways.dtype == np.int64
    assert np.array_equal(ways, _as_ways(sim._sets, 4))
    other = CacheSim(16 * 4 * 32, 4, 32)
    other.load_ways(ways)
    assert other._sets == sim._sets
    assert (other.hits, other.misses) == (0, 0)  # counters are not state
    assert np.array_equal(other.ways(), ways)
    cold = CacheSim(16 * 4 * 32, 4, 32)
    assert (cold.ways() == -1).all()
    cold.load_ways(cold.ways())
    assert cold._sets == [[] for _ in range(16)]
    # Continuing from loaded state matches continuing the original.
    more = _random_trace(rng, 200, 16 * 4 * 2).tolist()
    assert [other.access_line(x) for x in more] == [
        sim.access_line(x) for x in more
    ]
    assert other._sets == sim._sets


# ----------------------------------------------------------------------
# Which replay runs: the compiled kernel, or CacheSim without a compiler.


def _warm_batch(rng):
    """A cold and a warm-seeded stream, with CacheSim's expected results."""
    specs = []
    for n_sets, assoc, warm in ((16, 4, False), (8, 3, True)):
        sim = CacheSim(n_sets * assoc * 8, assoc, 8)
        if warm:
            for line in _random_trace(rng, 300, n_sets * assoc * 2).tolist():
                sim.access_line(line)
        seed = sim.ways() if warm else None
        lines = _random_trace(rng, 700, n_sets * assoc * 2)
        verdicts = np.array([sim.access_line(x) for x in lines.tolist()])
        specs.append((lines, n_sets, assoc, seed, verdicts, sim.ways()))
    return specs


def _replay(specs):
    batch = BatchedLRU()
    handles = [
        _add_lines(batch, lines, n_sets, assoc, seed_ways=seed)
        for lines, n_sets, assoc, seed, _, _ in specs
    ]
    batch.run()
    for h, (*_, verdicts, ways) in zip(handles, specs):
        assert np.array_equal(batch.hits_of(h), verdicts)
        assert np.array_equal(batch.final_ways(h), ways)


@pytest.mark.skipif(
    not any(map(shutil.which, native.COMPILERS)),
    reason="no C compiler on PATH",
)
def test_compiled_kernel_runs_when_a_compiler_is_on_path(monkeypatch, tmp_path):
    specs = _warm_batch(np.random.default_rng(21))
    # Build afresh into an empty cache, and make any CacheSim replay fail.
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setattr(cache, "_kernel_fn", None)
    monkeypatch.setattr(CacheSim, "access_line", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _replay(specs)
    assert cache._kernel_fn
    # Published under its final name only: no temporary file left behind.
    assert [f.suffix for f in (tmp_path / ".cache/repro").iterdir()] == [".so"]


def test_without_a_compiler_run_warns_once_and_replays_through_cachesim(
    monkeypatch, tmp_path
):
    specs = _warm_batch(np.random.default_rng(22))
    monkeypatch.setenv("HOME", str(tmp_path))  # no cached library
    monkeypatch.setattr(cache, "_kernel_fn", None)
    monkeypatch.setattr(shutil, "which", lambda name: None)
    with pytest.warns(RuntimeWarning, match="CacheSim") as record:
        _replay(specs)
        _replay(specs)
    assert len(record) == 1


# ----------------------------------------------------------------------
# Property test: the way-matrix boundary against CacheSim, mixed batches.

#: Set counts for the property batches, non-powers of two included.
_SET_COUNTS = [1, 2, 3, 5, 6, 7, 8, 12, 16, 64]


@st.composite
def _line_lists(draw, n_sets, universe, max_size):
    """Uniform draws over a small universe, then a ping-pong tail.

    The tail repeats a few lines of one set, hiding that set's older
    distinct tags behind a long run of few tags.
    """
    lines = draw(
        st.lists(st.integers(0, universe - 1), max_size=max_size // 2)
    )
    pattern = draw(st.lists(st.integers(0, universe - 1), max_size=3))
    if pattern:
        home = pattern[0] % n_sets
        pattern = [x - x % n_sets + home for x in pattern]
        lines += pattern * draw(st.integers(0, max_size // 2 // len(pattern)))
    return lines


@st.composite
def _mixed_batches(draw):
    """Stream specs ``(n_sets, assoc, prefix or None, lines)`` for one batch.

    The batch's top associativity (2, 4 or 8) bounds every stream's.
    ``prefix`` warms a CacheSim whose ways seed the stream (None = a cold,
    unseeded stream); ``lines`` may be empty, seeded or not.
    """
    top = draw(st.sampled_from([2, 4, 8]))
    specs = []
    for _ in range(draw(st.integers(1, 6))):
        n_sets = draw(st.sampled_from(_SET_COUNTS))
        assoc = draw(st.integers(1, top))
        universe = draw(st.integers(1, n_sets * assoc * 3))
        prefix = draw(st.none() | _line_lists(n_sets, universe, 120))
        lines = draw(st.just([]) | _line_lists(n_sets, universe, 240))
        specs.append((n_sets, assoc, prefix, lines))
    return specs


@given(_mixed_batches())
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_property_way_matrix_boundary(specs):
    batch = BatchedLRU()
    expected = []
    for n_sets, assoc, prefix, lines in specs:
        sim = CacheSim(n_sets * assoc * 8, assoc, 8)
        seed = None
        if prefix is not None:
            for line in prefix:
                sim.access_line(line)
            seed = sim.ways()
        h = _add_lines(
            batch, np.array(lines, dtype=np.int64), n_sets, assoc, seed_ways=seed
        )
        verdicts = np.array([sim.access_line(x) for x in lines], dtype=bool)
        expected.append((h, verdicts, sim.ways()))
    batch.run()
    for h, verdicts, ways in expected:
        assert np.array_equal(batch.hits_of(h), verdicts)
        assert np.array_equal(batch.final_ways(h), ways)


# ----------------------------------------------------------------------
# Byte accesses: the kernel against CacheSim.access itself.

#: Line sizes for the access property test, one not a power of two.
_LINE_SIZES = [1, 8, 12, 32, 64]


@st.composite
def _access_blocks(draw):
    """Block specs ``(line_bytes, n_sets, assoc, streams)``, each stream a
    ``(seed prefix, phases)`` pair.

    Each phase is a list of ``(addr, nbytes)`` accesses: unaligned starts,
    sizes spanning several lines, zero and negative sizes, and empty
    phases; a stream may have no phase at all.  A prefix of accesses (or
    None, for a cold stream) warms the CacheSim whose ways seed the
    stream, so one block mixes cold and seeded streams.
    """
    specs = []
    for _ in range(draw(st.integers(1, 4))):
        line_bytes = draw(st.sampled_from(_LINE_SIZES))
        n_sets = draw(st.sampled_from(_SET_COUNTS))
        assoc = draw(st.integers(1, 6))
        span = n_sets * assoc * line_bytes * 3
        access = st.tuples(
            st.integers(0, span), st.integers(-2 * line_bytes, 4 * line_bytes)
        )
        stream = st.tuples(
            st.none() | st.lists(access, max_size=40),
            st.lists(st.lists(access, max_size=30), max_size=6),
        )
        streams = draw(st.lists(stream, min_size=1, max_size=4))
        specs.append((line_bytes, n_sets, assoc, streams))
    return specs


def _through_cachesim(sim, accesses):
    """Per-line verdicts and ``(hits, lines)`` of ``accesses`` through
    :meth:`CacheSim.access`."""
    verdicts = []
    real = sim.access_line
    sim.access_line = lambda line: verdicts.append(real(line)) or verdicts[-1]
    hits = lines = 0
    for addr, nbytes in accesses:
        h, m = sim.access(addr, nbytes)
        hits, lines = hits + h, lines + h + m
    del sim.access_line
    return verdicts, (hits, lines)


@given(_access_blocks())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_property_access_kernel_is_cachesim_access(specs):
    batch = BatchedLRU()
    expected, blocks = [], []
    for line_bytes, n_sets, assoc, streams in specs:
        accesses, phase_ends, stream_ends, seeds, block = [], [], [], [], []
        for prefix, phases in streams:
            sim = CacheSim(n_sets * assoc * line_bytes, assoc, line_bytes)
            if prefix is not None:
                sim.run_trace(prefix)
            seeds.append(sim.ways())  # all -1 for a cold stream
            for phase in phases:
                accesses += phase
                phase_ends.append(len(accesses))
            stream_ends.append(len(phase_ends))
            verdicts, counts = [], []
            for phase in phases:
                v, hl = _through_cachesim(sim, phase)
                verdicts += v
                counts.append(hl)
            block.append((verdicts, counts, sim.ways()))
        handles = batch.add_streams(
            np.array([a for a, _ in accesses], dtype=np.int64),
            np.array([n for _, n in accesses], dtype=np.int64),
            phase_ends, stream_ends, line_bytes, n_sets, assoc,
            seed_ways=(
                None if all(p is None for p, _ in streams) else np.stack(seeds)
            ),
        )
        expected += [(h, *e) for h, e in zip(handles, block)]
        blocks.append(handles)
    batch.run()
    for handles in blocks:  # a block's phases are its streams', end to end
        got = [a.tolist() for a in batch.phases_of(handles)]
        each = [batch.phases_of(h) for h in handles]
        assert got == [sum((ph[i].tolist() for ph in each), []) for i in (0, 1)]
    for h, verdicts, counts, ways in expected:
        assert batch.hits_of(h).tolist() == verdicts
        hits, lines = batch.phases_of(h)
        assert list(zip(hits.tolist(), lines.tolist())) == counts
        assert np.array_equal(batch.final_ways(h), ways)


@pytest.mark.parametrize("replay", ["compiled", "cachesim"])
def test_one_run_is_one_kernel_call(monkeypatch, replay):
    kernel = cache._kernel() if replay == "compiled" else None
    if replay == "compiled" and kernel is None:
        pytest.skip("no C compiler on PATH")
    calls = []

    def counted(*args):
        calls.append(len(args))
        return (kernel or real_fallback)(*args)

    real_fallback = cache._cachesim_run
    if kernel is None:
        monkeypatch.setattr(cache, "_kernel_fn", False)
        monkeypatch.setattr(cache, "_cachesim_run", counted)
    else:
        monkeypatch.setattr(cache, "_kernel_fn", counted)
    batch = BatchedLRU()
    handles = [
        batch.add_streams([0, 70, 5], [40, 8, -1], [1, 1, 3], [3], 32, 4, 2)[0],
        batch.add_streams([3, 3], [1, 1], [2], [1], 1, 16, 1)[0],
        batch.add_streams([], [], [], [0], 64, 256, 2)[0],
    ]
    batch.run()
    assert len(calls) == 1
    assert [batch.phases_of(h)[1].tolist() for h in handles] == [
        [2, 0, 1], [2], []
    ]
    assert batch.hits_of(1).tolist() == [False, True]


def test_access_input_checks():
    def add(addrs, nbytes, ends, line_bytes=8):
        return BatchedLRU().add_streams(
            addrs, nbytes, ends, [len(ends)], line_bytes, 4, 2
        )

    add([0, 9], [8, 8], [0, 2, 2])  # empty phases are phases
    add([], [], [])  # an empty stream needs no phase
    add([], [], [0, 0])
    add([5], [0], [1])  # zero bytes: a no-op, still a checked access
    add([2**63 - 8], [8], [1])  # the last byte below 2**63
    add([2**63 - 1], [-3], [1])  # a no-op never runs past 2**63
    add([0], [2**32], [1], line_bytes=2**16)
    with pytest.raises(ValueError, match="one size per access"):
        add([0, 8], [8], [2])
    for nbytes in ([8.0], [True], [[8]]):
        with pytest.raises(ValueError, match="nbytes must be a 1-D integer"):
            add([0], nbytes, [1])
    with pytest.raises(ValueError, match="at most"):
        add([0], [2**32 + 1], [1])
    with pytest.raises(ValueError, match="non-negative"):
        add([-8], [0], [1])  # even a no-op needs a valid address
    with pytest.raises(ValueError, match="below address 2"):
        add([0, 2**63 - 8], [8, 9], [2])
    for ends in ([1], [3], [2, 1, 2], [-1, 2], [], [0, 3, 2]):
        with pytest.raises(ValueError, match="phase_ends"):
            add([0, 8], [8, 8], ends)
    for ends in ([2.0], [True, True]):
        with pytest.raises(ValueError, match="phase_ends must be a 1-D integer"):
            add([0, 8], [8, 8], ends)
    with pytest.raises(ValueError, match="positive"):
        BatchedLRU().add_streams([0], [8], [1], [1], 0, 4, 2)

    def block(stream_ends):
        """Three one-access phases cut into streams by ``stream_ends``."""
        return BatchedLRU().add_streams(
            [0, 8, 16], [8, 8, 8], [1, 2, 3], stream_ends, 8, 4, 2
        )

    assert block([0, 2, 2, 3]) == range(4)  # a stream may have no phase
    for stream_ends in ([2, 1, 3], [-1, 3], [2], [1, 4], [], [3, 3, 2]):
        with pytest.raises(ValueError, match="stream_ends"):
            block(stream_ends)
    for stream_ends in ([3.0], [True], [[3]]):
        with pytest.raises(ValueError, match="stream_ends must be a 1-D integer"):
            block(stream_ends)
    assert BatchedLRU().add_streams([], [], [], [], 8, 4, 2) == range(0)
    with pytest.raises(RuntimeError):
        BatchedLRU().phases_of(0)
    BatchedLRU().run()  # no stream at all
