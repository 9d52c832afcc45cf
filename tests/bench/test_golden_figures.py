"""Golden-file regression tests for the figure generators.

The fig5 golden was captured from the pre-lossy-link code, so its test is
the PR's headline acceptance criterion made executable: with ``loss_rate=0``
(every figure's default) the priced energy, cycles and wall-clock must
equal the pre-loss values **exactly** — not to a tolerance.  JSON float
round-tripping is lossless (shortest-repr), so ``==`` on the parsed
structures is bit-for-bit on every number.

The loss-sweep golden pins the new lossy-channel figure the same way, so
any future change to the retransmission math is a conscious regeneration,
not an accident.  To regenerate after an intentional model change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/bench/test_golden_figures.py

and review the diff like any other source change.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.api import Session
from repro.bench.figures import (
    fig5_range_queries,
    fig6_nn_queries,
    fig_loss_sweep,
)
from repro.data.tiger import pa_dataset

GOLDEN_DIR = Path(__file__).parent / "golden"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

N_RUNS = 10


@pytest.fixture(scope="module")
def session():
    return Session(pa_dataset(scale=0.02, seed=1))


def _result_record(result) -> dict:
    return {
        "energy_j": result.energy.as_dict(),
        "cycles": result.cycles.as_dict(),
        "wall_seconds": result.wall_seconds,
        "n_candidates": result.n_candidates,
        "n_results": result.n_results,
    }


def _fig5_records(sweep) -> dict:
    return {
        label: [
            {
                "bandwidth_mbps": cell.bandwidth_mbps,
                "distance_m": cell.distance_m,
                **_result_record(cell.result),
            }
            for cell in cells
        ]
        for label, cells in sweep.items()
    }


def _loss_records(sweep) -> dict:
    return {
        label: [
            {
                "loss_rate": cell.loss_rate,
                "bandwidth_mbps": cell.bandwidth_mbps,
                "distance_m": cell.distance_m,
                **_result_record(cell.result),
                "loss": cell.result.loss.as_dict(),
            }
            for cell in cells
        ]
        for label, cells in sweep.items()
    }


def _check_golden(name: str, data: dict) -> None:
    """Exact-equality comparison against (or regeneration of) a golden."""
    path = GOLDEN_DIR / name
    normalized = json.loads(json.dumps(data, sort_keys=True))
    if REGEN:
        path.write_text(
            json.dumps(normalized, sort_keys=True, indent=1) + "\n",
            encoding="utf-8",
        )
    assert path.exists(), (
        f"golden file {name} missing; run with REPRO_REGEN_GOLDEN=1 to create"
    )
    golden = json.loads(path.read_text(encoding="utf-8"))
    assert normalized == golden, (
        f"{name}: figure output changed — every float must match the golden "
        "exactly; regenerate deliberately with REPRO_REGEN_GOLDEN=1 if the "
        "model change is intended"
    )


class TestFig5Golden:
    def test_fig5_matches_pre_loss_golden_exactly(self, session):
        """The ideal-channel fig5 sweep is bit-for-bit the pre-lossy output.

        The golden was generated before the lossy-link subsystem existed;
        this holds the loss_rate=0 path to exact numeric equality with it.
        """
        sweep = fig5_range_queries(session, n_runs=N_RUNS)
        _check_golden("fig5_pa002_runs10.json", _fig5_records(sweep))

    def test_fig5_scalar_engine_matches_same_golden(self, session):
        """The scalar oracle prices the same grid to the same goldens.

        Not bit-for-bit (summation order differs between engines, as it
        always has) — pinned to 1e-9 relative, the engines' documented
        agreement bound.
        """
        golden = json.loads(
            (GOLDEN_DIR / "fig5_pa002_runs10.json").read_text(encoding="utf-8")
        )
        from repro.core.executor import Policy
        from repro.core.schemes import ADEQUATE_MEMORY_CONFIGS
        from repro.data.workloads import range_queries

        qs = range_queries(session.dataset, N_RUNS)
        policies = Policy.sweep()
        table = session.run(
            qs,
            schemes=ADEQUATE_MEMORY_CONFIGS,
            policies=policies,
            engine="scalar",
        )
        for label, rows in table.by_scheme().items():
            for row, cell in zip(rows, golden[label]):
                want = sum(cell["energy_j"].values())
                assert row.energy_j == pytest.approx(want, rel=1e-9)
                assert row.wall_seconds == pytest.approx(
                    cell["wall_seconds"], rel=1e-9
                )


class TestFig6Golden:
    def test_fig6_matches_golden_exactly(self, session):
        """The NN sweep is bit-for-bit its golden."""
        sweep = fig6_nn_queries(session, n_runs=N_RUNS)
        _check_golden("fig6_pa002_runs10.json", _fig5_records(sweep))


class TestLossSweepGolden:
    def test_loss_sweep_matches_golden_exactly(self, session):
        sweep = fig_loss_sweep(session, n_runs=N_RUNS)
        _check_golden("loss_sweep_pa002_runs10.json", _loss_records(sweep))

    def test_loss_sweep_zero_rate_row_equals_fig5_2mbps(self, session):
        """The sweep's loss_rate=0 row IS the fig5 2 Mbps cell, exactly."""
        fig5 = fig5_range_queries(session, n_runs=N_RUNS)
        loss = fig_loss_sweep(session, n_runs=N_RUNS)
        for label, cells in loss.items():
            base = cells[0]
            assert base.loss_rate == 0.0
            ref = next(
                c for c in fig5[label] if c.bandwidth_mbps == 2.0
            )
            assert base.result.energy == ref.result.energy
            assert base.result.cycles == ref.result.cycles
            assert base.result.wall_seconds == ref.result.wall_seconds

    def test_loss_monotone_in_rate(self, session):
        """More loss never makes a scheme cheaper or faster."""
        sweep = fig_loss_sweep(session, n_runs=N_RUNS)
        for label, cells in sweep.items():
            energies = [c.energy_j for c in cells]
            cycles = [c.cycles for c in cells]
            assert energies == sorted(energies), label
            assert cycles == sorted(cycles), label
