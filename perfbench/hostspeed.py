"""Host speed: fixed reference kernels timed next to every measurement.

On a shared host, other tenants slow this process's CPU by up to about 2x,
in phases that last from seconds to whole runs; the process's own CPU time
grows with its wall time, so neither CPU time nor a minimum over passes
removes the slowdown.  Kernels that never change slow in the same phases,
so their times next to a pass say how fast the host ran during that pass.

Different code slows by different amounts in one phase (Python dict
lookups more than NumPy streaming, for instance), so there are six kernels
spanning the program's mix: dict lookups, sorting Python objects, NumPy
streaming over L2-sized arrays, a NumPy gather from an L3-sized table, a
NumPy sort, and many NumPy calls on tiny arrays.  :meth:`HostSpeed.factor`
is the geometric mean of each kernel's time over its time on a quiet host
(:data:`NOMINAL_S`).  On 80-100 s of passes of each of the three
workloads, recorded with six kernels of these kinds around each pass, the
geometric mean tracked the passes' own slowdown to a 3% standard deviation
over 10 s windows, where the raw passes varied by 7-12%; every single
kernel tracked at least one workload worse.

Dividing a pass's seconds by the factor around it gives the seconds the
pass takes at nominal host speed.  The kernels do not touch the program, so
a change to the program never moves the factor.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Callable, Dict

import numpy as np

__all__ = ["NOMINAL_S", "HostSpeed"]

#: Each kernel's seconds on a quiet host (the median of three runs): the
#: 5th percentile of 2,000 samples on a 2-vCPU 2.1 GHz Xeon VM.  Only ratios
#: to them are used, so on other hardware every normalized time scales by
#: one constant factor.
NOMINAL_S: Dict[str, float] = {
    "dict": 1.74e-3,
    "objects": 1.21e-3,
    "stream": 6.27e-4,
    "gather": 1.08e-3,
    "sort": 2.84e-4,
    "calls": 2.33e-4,
}


class HostSpeed:
    """The reference kernels, with their inputs built once."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.random(1 << 15)
        self._b = rng.random(1 << 15)
        self._out = np.empty(1 << 15)
        self._table = rng.random(1 << 18)
        self._idx = rng.integers(0, 1 << 18, size=1 << 16)
        self._gathered = np.empty(1 << 16)
        self._sortable = rng.random(1 << 14)
        self._dict = {i: (i * 7919) % 4096 for i in range(4096)}
        self._keys = rng.integers(0, 4096, size=40_000).tolist()
        self._objects = [(i, float(x)) for i, x in enumerate(rng.random(2000))]
        self.kernels: Dict[str, Callable[[], object]] = {
            "dict": self._dict_lookups,
            "objects": self._sort_objects,
            "stream": self._stream,
            "gather": self._gather,
            "sort": self._sort,
            "calls": self._calls,
        }

    def _dict_lookups(self) -> int:
        table, s = self._dict, 0
        for k in self._keys:
            s += table[k]
        return s

    def _sort_objects(self) -> None:
        for _ in range(4):
            sorted(self._objects, key=lambda t: -t[1])

    def _stream(self) -> None:
        a, b, out = self._a, self._b, self._out
        for _ in range(40):
            np.add(a, b, out=out)
            np.multiply(out, a, out=out)

    def _gather(self) -> None:
        for _ in range(6):
            np.take(self._table, self._idx, out=self._gathered)

    def _sort(self) -> None:
        for _ in range(4):
            np.sort(self._sortable)

    def _calls(self) -> None:
        a, b = self._a[:64], self._b[:64]
        for _ in range(600):
            np.add(a, b)

    def kernel_s(self) -> Dict[str, float]:
        """Each kernel's seconds now: the median of three runs."""
        out = {}
        for name, kernel in self.kernels.items():
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                kernel()
                times.append(time.perf_counter() - t0)
            out[name] = statistics.median(times)
        return out

    def factor(self) -> float:
        """How many times slower than nominal the host runs now."""
        now = self.kernel_s()
        return math.exp(
            statistics.fmean(math.log(now[k] / NOMINAL_S[k]) for k in now)
        )
