"""The RunTable comparison behind every batched-vs-scalar parity check.

:func:`tables_match` compares two :class:`~repro.api.RunTable` objects row
for row.  :func:`_max_rel` is the value-tree walk behind it, which the
``price`` stage of :mod:`repro.bench.speedup` applies to per-policy
:class:`~repro.core.executor.RunResult` lists directly.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

from repro.api import RunTable

__all__ = ["tables_match"]


def _max_rel(a, b) -> float:
    """Worst relative difference across a value tree.

    Recurses through dataclasses, tuples/lists and numpy arrays; floats
    contribute ``|a-b| / max(|a|,|b|)``; discrete leaves (ints, strings,
    bools, int arrays) must match exactly and contribute ``inf`` when they
    do not, so one bad verdict can never average away.
    """
    if a is None or b is None:
        return 0.0 if a is b else float("inf")
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape:
            return float("inf")
        if np.issubdtype(a.dtype, np.floating) or np.issubdtype(
            b.dtype, np.floating
        ):
            denom = np.maximum(np.abs(a), np.abs(b))
            diff = np.abs(a.astype(np.float64) - b.astype(np.float64))
            with np.errstate(invalid="ignore", divide="ignore"):
                rel = np.where(denom > 0.0, diff / denom, diff)
            return float(rel.max()) if rel.size else 0.0
        return 0.0 if np.array_equal(a, b) else float("inf")
    if isinstance(a, bool) or isinstance(b, bool):
        return 0.0 if a == b else float("inf")
    if isinstance(a, float) or isinstance(b, float):
        if a == b:
            return 0.0
        denom = max(abs(a), abs(b))
        return abs(a - b) / denom if denom > 0.0 else float("inf")
    if isinstance(a, (int, str)):
        return 0.0 if a == b else float("inf")
    if dataclasses.is_dataclass(a):
        if type(a) is not type(b):
            return float("inf")
        return max(
            (
                _max_rel(getattr(a, f.name), getattr(b, f.name))
                for f in dataclasses.fields(a)
            ),
            default=0.0,
        )
    if isinstance(a, (tuple, list)):
        if not isinstance(b, (tuple, list)) or len(a) != len(b):
            return float("inf")
        return max((_max_rel(x, y) for x, y in zip(a, b)), default=0.0)
    return 0.0 if a == b else float("inf")


def tables_match(
    table: RunTable, oracle: RunTable, *, rel_tol: float = 0.0
) -> Tuple[bool, float]:
    """Compare two RunTables row for row; returns ``(ok, max_rel_err)``.

    Rows must line up by (scheme, policy); every numeric field of each
    row's :class:`~repro.core.executor.RunResult` must agree to
    ``rel_tol`` relative error (``0.0`` = bit-identical) and every
    discrete field (answer ids, op tallies, message shapes) exactly.
    NIC dwell is compared only when both sides carry one — the scalar
    engine reports none.
    """
    if len(table.rows) != len(oracle.rows):
        return False, float("inf")
    worst = 0.0
    for a, b in zip(table.rows, oracle.rows):
        if a.scheme != b.scheme or a.policy != b.policy:
            return False, float("inf")
        worst = max(worst, _max_rel(a.result, b.result))
        if a.dwell is not None and b.dwell is not None:
            worst = max(worst, _max_rel(a.dwell, b.dwell))
    return worst <= rel_tol, worst
