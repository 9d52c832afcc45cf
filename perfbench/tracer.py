"""Layer spans timed from outside the program.

The benchmark never edits the code it measures.  Instead it rebinds each
layer entry point, at every module or class attribute that binds it, to a
wrapper that records a ``perf_counter`` span around the call, then restores
the original binding.  Untraced passes therefore run the unmodified
program.

A span's *self time* is its duration minus the time covered by the spans
it caused, so the self times of all layers add up to the traced wall time
minus what ran outside any span.  The time the tracer spends in its own
counting hooks is charged to neither the span nor its parent.

A binding that no longer exists (a later change renamed or deleted the
function) is reported as absent; it never stops the run.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Span", "Target", "Tracer", "installed"]

#: ``before(tracer, args, kwargs) -> state`` runs ahead of the wrapped call.
Before = Callable[["Tracer", tuple, dict], object]
#: ``after(tracer, args, kwargs, result, state)`` runs after it returns.
After = Callable[["Tracer", tuple, dict, object, object], None]


@dataclass(frozen=True)
class Target:
    """One binding to wrap: ``site`` is ``"module:attr"`` or ``"module:Class.attr"``."""

    site: str
    layer: str
    before: Optional[Before] = None
    after: Optional[After] = None


@dataclass(frozen=True)
class Span:
    """One timed call: ``parent`` is the id of the span that caused it (-1: none)."""

    id: int
    parent: int
    site: str
    layer: str
    start: float
    end: float
    #: Serve micro-batch index the call belongs to (-1 outside serving).
    batch: int


class Tracer:
    """Collects spans, per-layer self time and per-layer counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.fired: Dict[str, int] = defaultdict(int)
        self.spans: List[Span] = []
        self.hook_s = 0.0
        #: Wall seconds of each traced pass, as measured (set by the caller).
        self.pass_s: List[float] = []
        #: Hook failures, by site: a counter that could not be read.
        self.hook_errors: Dict[str, str] = {}
        #: Current serve micro-batch (set by a hook; stamped onto spans).
        self.batch = -1
        self.batch_sizes: List[int] = []
        self.batch_distinct: List[int] = []
        self.batch_ms: List[float] = []
        self._batch_starts: List[float] = []
        self._stack: List[List[float]] = []  # [span id, child seconds]
        self._next_id = 0

    def _hook(self, site: str, hook: Callable, *args) -> object:
        t = self.clock()
        try:
            return hook(self, *args)
        except Exception as exc:  # a counter must never stop the program
            self.hook_errors[site] = f"{type(exc).__name__}: {exc}"
            return None
        finally:
            self.hook_s += self.clock() - t

    def wrap(self, target: Target, fn: Callable) -> Callable:
        """``fn`` with a span (and the target's counting hooks) around it."""
        site, layer = target.site, target.layer
        before, after = target.before, target.after

        def traced(*args, **kwargs):
            outer = self.clock()
            try:
                state = self._hook(site, before, args, kwargs) if before else None
                sid = self._next_id
                self._next_id += 1
                parent = int(self._stack[-1][0]) if self._stack else -1
                frame = [sid, 0.0]
                self._stack.append(frame)
                t0 = self.clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = self.clock()
                    self._stack.pop()
                    self.self_s[layer] += (t1 - t0) - frame[1]
                    self.fired[site] += 1
                    self.spans.append(
                        Span(sid, parent, site, layer, t0, t1, self.batch)
                    )
                if after:
                    self._hook(site, after, args, kwargs, result, state)
                return result
            finally:
                if self._stack:
                    # The parent's self time excludes this call and its hooks.
                    self._stack[-1][1] += self.clock() - outer

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # Serve micro-batch bookkeeping (driven by hooks on the serve layer).
    def begin_batch(self, size: int, distinct: int) -> None:
        now = self.clock()
        self.batch += 1
        self.batch_sizes.append(size)
        self.batch_distinct.append(distinct)
        self._batch_starts.append(now)

    def end_batches(self) -> None:
        """Close the open batches: each lasts until the next one starts."""
        starts = self._batch_starts + [self.clock()]
        self.batch_ms.extend(
            (b - a) * 1e3 for a, b in zip(starts[:-1], starts[1:])
        )
        self._batch_starts = []
        self.batch = -1


def _resolve(site: str) -> Optional[Tuple[object, str]]:
    """The ``(owner, attribute)`` a site names, or ``None`` when absent."""
    module_name, _, path = site.partition(":")
    try:
        owner: object = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        # Only a class's own attribute: wrapping an inherited one would
        # shadow it on the subclass after restore.
        return (owner, attr) if attr in vars(owner) else None
    return (owner, attr) if hasattr(owner, attr) else None


@contextlib.contextmanager
def installed(tracer: Tracer, targets: List[Target]) -> Iterator[List[str]]:
    """Wrap every present target for the duration of the block.

    Yields the sites that are absent; every wrapped binding is restored on
    exit, even when the block raises.
    """
    patched: List[Tuple[object, str, object]] = []
    absent: List[str] = []
    try:
        for target in targets:
            found = _resolve(target.site)
            if found is None:
                absent.append(target.site)
                continue
            owner, attr = found
            original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            patched.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(target, getattr(owner, attr)))
        yield absent
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
