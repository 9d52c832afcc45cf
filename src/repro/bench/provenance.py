"""Provenance stamps for benchmark artifacts.

Every ``BENCH_*.json`` carries a ``provenance`` block — git SHA, whether
the working tree had uncommitted changes to tracked files, UTC timestamp,
platform, Python and NumPy versions — so the perf trajectory archived under
``benchmarks/results/`` stays attributable across PRs: a regression (or a
suspicious speedup) can be pinned to the commit and the machine that
produced the number, and a record made from an uncommitted tree says so
instead of passing for its parent commit.
"""

from __future__ import annotations

import datetime
import platform
import subprocess
from typing import Dict, Optional, Union

import numpy as np

__all__ = ["provenance", "stamp_record"]


def _git(*args: str) -> Optional[str]:
    """``git <args>``'s stripped output, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", *args],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _git_sha() -> str:
    """The repository HEAD SHA, or ``"unknown"`` outside a git checkout."""
    return _git("rev-parse", "HEAD") or "unknown"


def _git_dirty() -> Union[bool, str]:
    """Whether tracked files differ from HEAD (staged or not); untracked
    files do not count.  ``"unknown"`` outside a git checkout."""
    status = _git("status", "--porcelain", "--untracked-files=no")
    return "unknown" if status is None else bool(status)


def provenance() -> Dict[str, object]:
    """Provenance fields for a benchmark record, computed at call time."""
    return {
        "git_sha": _git_sha(),
        "git_dirty": _git_dirty(),
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def stamp_record(record: Dict[str, object]) -> Dict[str, object]:
    """Return ``record`` with a ``provenance`` block added (not in place).

    An existing ``provenance`` key is preserved — re-stamping a loaded
    record must not overwrite where the numbers actually came from.
    """
    if "provenance" in record:
        return dict(record)
    out = dict(record)
    out["provenance"] = provenance()
    return out
