"""CLI surface (python -m repro)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_query_kinds(self):
        for kind in ("point", "range", "nn"):
            args = build_parser().parse_args(["query", kind])
            assert args.kind == kind

    def test_defaults(self):
        args = build_parser().parse_args(["info"])
        assert args.dataset == "PA"
        assert args.scale == 0.1


class TestCommands:
    def test_info(self, capsys):
        assert main(["--scale", "0.02", "info"]) == 0
        out = capsys.readouterr().out
        assert "segments" in out and "index" in out

    def test_info_nyc(self, capsys):
        assert main(["--dataset", "NYC", "--scale", "0.02", "info"]) == 0
        assert "NYC" in capsys.readouterr().out

    def test_unknown_dataset_exits(self):
        with pytest.raises(SystemExit):
            main(["--dataset", "MARS", "info"])

    def test_taxonomy(self, capsys):
        assert main(["taxonomy"]) == 0
        out = capsys.readouterr().out
        assert "Fully at the Client" in out
        assert "Insufficient Memory" in out

    @pytest.mark.parametrize("kind", ["point", "range", "nn"])
    def test_query(self, capsys, kind):
        assert main(["--scale", "0.02", "query", kind, "--bandwidth", "4"]) == 0
        out = capsys.readouterr().out
        assert "mJ" in out and "ms" in out
        assert "Fully at the Client" in out

    def test_figure_fig4(self, capsys):
        assert main(["--scale", "0.02", "figure", "fig4", "--runs", "5"]) == 0
        out = capsys.readouterr().out
        assert "Mbps" in out and "E[J]" in out

    def test_figure_fig10(self, capsys):
        assert main(["--scale", "0.02", "figure", "fig10"]) == 0
        out = capsys.readouterr().out
        assert "buffer" in out

    def test_figure_loss(self, capsys):
        argv = ["--scale", "0.02", "figure", "loss", "--runs", "5", "--bandwidth", "4"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "fixed 4 Mbps, 1000 m" in out
        for rate in ("0.000", "0.010", "0.020", "0.050", "0.100"):
            assert f"p={rate}" in out
        assert "Fully at the Client" in out and "retx tx=" in out

    def test_figure_unknown_exits(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])


class TestBenchCommand:
    @pytest.fixture(autouse=True)
    def short_regions(self, monkeypatch):
        """Time 50 ms regions: enough passes for a grid that wins by ~10x."""
        from repro.bench import speedup

        monkeypatch.setattr(speedup, "MIN_REGION_S", 0.05)

    def test_help_lists_bench_and_ledger(self, capsys):
        """``python -m repro --help`` advertises bench and its --ledger flag."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        out = capsys.readouterr().out
        assert "bench" in out
        assert "--ledger" in out
        args = build_parser().parse_args(["bench", "--ledger", "x.jsonl"])
        assert args.ledger == "x.jsonl"
        assert args.sweep == "fig5"
        assert args.stage == "price"

    def test_bench_writes_ledger(self, capsys, tmp_path):
        from repro.core.gridrun import read_ledger

        path = str(tmp_path / "bench.jsonl")
        assert main(
            ["--scale", "0.02", "bench", "--runs", "25", "--repeat", "1",
             "--ledger", path]
        ) == 0
        out = capsys.readouterr().out
        assert "run-ledger summary" in out
        assert "speedup" in out
        records = read_ledger(path)
        events = {r["event"] for r in records}
        assert {"plan", "price", "speedup"} <= events
        # The plans are made once, one plan event per configuration, and
        # each engine prices them once per configuration.
        assert sum(r["event"] == "plan" for r in records) == 6
        assert sum(r["event"] == "price" for r in records) == 12
        speedup = [r for r in records if r["event"] == "speedup"][-1]
        assert speedup["batched_s"] > 0 and speedup["scalar_s"] > 0
        assert speedup["max_rel_err"] < 1e-9

    def test_bench_in_memory(self, capsys):
        argv = ["--scale", "0.02", "bench", "--runs", "25", "--repeat", "1",
                "--sweep", "fig6"]
        assert main(argv) == 0
        assert "price" in capsys.readouterr().out

    def test_bench_e2e_json(self, capsys, tmp_path):
        import json

        out_json = str(tmp_path / "e2e.json")
        assert main(
            [
                "--scale", "0.02", "bench", "--stage", "e2e",
                "--runs", "8", "--repeat", "1", "--json", out_json,
            ]
        ) == 0
        assert "workload -> RunTable" in capsys.readouterr().out
        with open(out_json) as fh:
            record = json.load(fh)
        assert record["benchmark"] == "e2e_speedup"
        assert record["parity"] is True
        assert record["sweep"] == "fig5" and "provenance" in record

    def test_bench_kinds(self, capsys, tmp_path):
        import json

        out_json = str(tmp_path / "kinds.json")
        assert main(
            [
                "--scale", "0.02", "bench", "--stage", "plan", "--kinds",
                "range,knn", "--runs", "8", "--repeat", "1", "--json", out_json,
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "per query kind" in out and "knn" in out and "slowest" in out
        with open(out_json) as fh:
            record = json.load(fh)
        assert record["benchmark"] == "plan_speedup_kinds"
        assert set(record["kinds"]) == {"range", "knn"}
        assert record["speedup"] == min(
            row["speedup"] for row in record["kinds"].values()
        )

    def test_bench_rejects_unknown_kind(self, capsys):
        assert main(["--scale", "0.02", "bench", "--kinds", "nn,join"]) == 1
        assert "FAIL: unknown query kind(s) join" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "stage, predicate, failed",
        [
            ("plan", "plans_equal", False),
            ("e2e", "tables_match", (False, float("inf"))),
        ],
    )
    def test_bench_fails_on_parity(self, capsys, monkeypatch, stage, predicate, failed):
        """A parity failure exits 1 with a FAIL line, whatever the ratio."""
        from repro.bench import speedup

        monkeypatch.setattr(speedup, predicate, lambda *a, **kw: failed)
        argv = ["--scale", "0.02", "bench", "--stage", stage,
                "--runs", "8", "--repeat", "1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"FAIL: batched {stage} results differ from the scalar oracle" in err

    def test_bench_fails_when_batched_is_slower(self, capsys, monkeypatch):
        from repro.bench import speedup

        def slow_batched(sides, rounds):
            return {"scalar": (1.0, 2), "batched": (1.0, 1)}

        monkeypatch.setattr(speedup, "time_regions", slow_batched)
        argv = ["--scale", "0.02", "bench", "--stage", "plan", "--runs", "4"]
        assert main(argv) == 1
        assert "FAIL: batched plan slower than scalar (0.50x)" in capsys.readouterr().err

    def test_serve(self, capsys, tmp_path):
        import json

        from repro.core.gridrun import read_ledger

        ledger = str(tmp_path / "serve.jsonl")
        out_json = str(tmp_path / "serve.json")
        assert main(
            [
                "--scale", "0.02", "serve",
                "--clients", "4", "--duration", "2", "--seed", "3",
                "--ledger", ledger, "--json", out_json,
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "throughput" in out and "latency" in out
        events = {r["event"] for r in read_ledger(ledger)}
        assert {"serve_batch", "outcome", "serve"} <= events
        with open(out_json) as fh:
            record = json.load(fh)
        assert record["planner"] == "batched"
        assert record["n_served"] >= 0
        assert "provenance" in record

    def test_serve_serial_planner(self, capsys):
        assert main(
            [
                "--scale", "0.02", "serve",
                "--clients", "2", "--duration", "1",
                "--planner", "serial", "--rate", "1.5",
            ]
        ) == 0
        assert "serial planner" in capsys.readouterr().out
