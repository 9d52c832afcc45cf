"""Shared fixtures for the figure-reproduction benchmarks.

Full-scale datasets and environments are built once per session; each bench
regenerates one paper table/figure, times it with pytest-benchmark, prints
the paper-shaped table and archives it under ``benchmarks/results/``.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.bench.provenance import provenance
from repro.core.executor import Environment
from repro.data import tiger

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def pa_full():
    """The full 139 006-segment PA dataset."""
    return tiger.pa_dataset(scale=1.0, seed=1)


@pytest.fixture(scope="session")
def nyc_full():
    """The full 38 778-segment NYC dataset."""
    return tiger.nyc_dataset(scale=1.0, seed=2)


@pytest.fixture(scope="session")
def pa_env(pa_full) -> Environment:
    """Environment over full PA (benches must reset caches per workload —
    the sweep harness does this automatically)."""
    return Environment.create(pa_full)


@pytest.fixture(scope="session")
def nyc_env(nyc_full) -> Environment:
    """Environment over full NYC."""
    return Environment.create(nyc_full)


@pytest.fixture(scope="session")
def save_report():
    """Write a rendered table to benchmarks/results/<name>.txt and stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print()
        print(text)

    return _save


@pytest.fixture(scope="session", autouse=True)
def session_provenance():
    """The tree this pytest session started from.

    Taken once, before any bench rewrites its tracked outputs under
    ``benchmarks/results/``: a rewritten report would make every later
    stamp read ``git_dirty: true``, so several gate files could not be
    archived from one clean checkout in one run.
    """
    return provenance()


@pytest.fixture(scope="session")
def save_json(session_provenance):
    """Write a machine-readable record to benchmarks/results/<name>.json.

    Every record is stamped with the session's ``provenance`` block (git
    SHA, dirty flag, the session's start time in UTC, platform,
    Python/NumPy versions) so archived numbers stay attributable across
    commits.  Returns the stamped record.
    """
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, record: dict) -> dict:
        record = dict(record, provenance=session_provenance)
        with (RESULTS_DIR / f"{name}.json").open("w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return record

    return _save
