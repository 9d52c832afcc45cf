"""Report rendering: tables, figure sweeps, ASCII charts."""

from __future__ import annotations

import pytest

from repro.bench.figures import Fig10Row
from repro.bench.report import (
    ascii_chart,
    render_fig10,
    render_loss_sweep,
    render_rows,
    render_sweep,
)
from repro.api import Session
from repro.core.executor import Policy
from repro.core.schemes import Scheme, SchemeConfig
from repro.data.workloads import range_queries


class TestRenderRows:
    def test_aligned_columns(self):
        rows = [{"a": 1, "bb": "xy"}, {"a": 222, "bb": "z"}]
        out = render_rows(rows, "T")
        lines = out.splitlines()
        assert lines[0] == "== T =="
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 4

    def test_empty(self):
        assert "(empty)" in render_rows([], "T")


class TestRenderSweep:
    @pytest.fixture(scope="class")
    def sweep(self, pa_small, pa_small_tree):
        from repro.core.executor import Environment

        env = Environment.create(pa_small, tree=pa_small_tree)
        qs = range_queries(pa_small, 3, seed=103)
        return Session(env).run(
            qs,
            schemes=[SchemeConfig(Scheme.FULLY_SERVER, data_at_client=True)],
            policies=Policy.sweep(bandwidths_mbps=(2, 11)),
        ).by_scheme()

    def test_contains_schemes_and_bandwidths(self, sweep):
        out = render_sweep(sweep, "T")
        assert "Fully at the Server" in out
        assert "2.0 Mbps" in out and "11.0 Mbps" in out

    def test_metric_selection(self, sweep):
        energy_only = render_sweep(sweep, "T", metric="energy")
        assert "E[J]" in energy_only and "cyc" not in energy_only
        cycles_only = render_sweep(sweep, "T", metric="cycles")
        assert "cyc" in cycles_only and "E[J]" not in cycles_only

    def test_invalid_metric_raises(self, sweep):
        with pytest.raises(ValueError):
            render_sweep(sweep, "T", metric="watts")


class TestRenderLossSweep:
    def test_one_line_per_rate_with_retransmissions(self, env_small, pa_small):
        qs = range_queries(pa_small, 3, seed=104)
        fs = SchemeConfig(Scheme.FULLY_SERVER, data_at_client=True)
        fc = SchemeConfig(Scheme.FULLY_CLIENT)
        policies = Policy.sweep(bandwidths_mbps=(2,), loss_rates=(0.0, 0.05))
        sweep = Session(env_small).run(qs, schemes=[fc, fs], policies=policies)
        lines = render_loss_sweep(sweep.by_scheme(), "T").splitlines()
        assert lines[:2] == [
            "== T ==",
            "   fixed 2 Mbps, 1000 m; loss rate sweeps down the rows",
        ]
        assert lines[2] == f"-- {fc.label}" and lines[5] == f"-- {fs.label}"
        assert [line.split()[0] for line in lines[3:5] + lines[6:]] == [
            "p=0.000", "p=0.050", "p=0.000", "p=0.050",
        ]
        # The fully-client scheme sends nothing; the server scheme
        # retransmits only on the lossy row.
        assert lines[4].endswith("retx tx=   0.00 rx=   0.00  backoff=  0.000s")
        assert lines[6].endswith("retx tx=   0.00 rx=   0.00  backoff=  0.000s")
        assert "rx=   0.00" not in lines[7]


class TestRenderFig10:
    def _rows(self):
        return [
            Fig10Row(1 << 20, 0, 0.5, 1e8, 0.1, 5e7, 0, 1),
            Fig10Row(1 << 20, 100, 0.6, 2e8, 0.7, 1e8, 100, 1),
        ]

    def test_marks_crossover(self):
        out = render_fig10(self._rows(), "T")
        assert "client becomes energy-efficient" in out
        assert "y= 100" in out

    def test_no_crossover_no_marker(self):
        rows = [Fig10Row(1 << 20, 0, 0.9, 1e8, 0.1, 5e7, 0, 1)]
        assert "energy-efficient" not in render_fig10(rows, "T")


class TestAsciiChart:
    def test_basic_shape(self):
        out = ascii_chart(
            {"up": [(0, 0), (1, 1), (2, 2)], "down": [(0, 2), (1, 1), (2, 0)]},
            width=20,
            height=5,
            title="demo",
        )
        lines = out.splitlines()
        assert lines[0] == "demo"
        assert sum(1 for l in lines if l.startswith("|")) == 5
        assert "o=up" in out and "x=down" in out

    def test_extremes_plotted(self):
        out = ascii_chart({"s": [(0, 0), (10, 5)]}, width=10, height=4)
        rows = [l[1:] for l in out.splitlines() if l.startswith("|")]
        assert rows[-1][0] == "o"  # min at bottom-left
        assert rows[0][-1] == "o"  # max at top-right

    def test_flat_series_does_not_divide_by_zero(self):
        out = ascii_chart({"s": [(0, 1), (1, 1)]}, width=8, height=3)
        assert "o" in out

    def test_empty(self):
        assert "(empty chart)" in ascii_chart({}, title="t")

    def test_axis_ranges_in_footer(self):
        out = ascii_chart({"s": [(2, 10), (4, 30)]}, width=8, height=3)
        assert "x: 2..4" in out
        assert "y: 10..30" in out
