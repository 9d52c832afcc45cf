"""Text rendering of the figure data as paper-shaped tables.

The paper's figures are stacked bar charts (energy) and (cycles) per scheme
per bandwidth; these renderers print the same series as aligned text tables
— one row per scheme, one column per bandwidth, with the per-bucket
breakdown — so the benchmark output can be read directly against the paper
and archived in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Union

from repro.api import RunRow
from repro.bench.figures import Fig10Row
from repro.core.gridrun import read_ledger

__all__ = [
    "render_sweep",
    "render_loss_sweep",
    "render_fig10",
    "render_rows",
    "ascii_chart",
    "summarize_ledger",
]


def ascii_chart(
    series: Dict[str, List[tuple]],
    width: int = 68,
    height: int = 14,
    title: str = "",
    y_label: str = "",
) -> str:
    """Plot ``{name: [(x, y), ...]}`` as an ASCII scatter/line chart.

    No plotting backend is available offline, and the paper's figures are
    easiest to compare as curves: this renders each series with its own
    glyph on a shared linear grid, with axis ranges in the footer.  Used by
    the figure benches so the archived reports show the crossovers at a
    glance.
    """
    if not series or all(not pts for pts in series.values()):
        return f"{title}\n(empty chart)"
    glyphs = "ox+*#@%&"
    all_pts = [p for pts in series.values() for p in pts]
    xs = [p[0] for p in all_pts]
    ys = [p[1] for p in all_pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for (name, pts), glyph in zip(series.items(), glyphs):
        for x, y in pts:
            col = int((x - x_lo) / x_span * (width - 1))
            row = height - 1 - int((y - y_lo) / y_span * (height - 1))
            grid[row][col] = glyph
    lines = []
    if title:
        lines.append(title)
    lines.extend("|" + "".join(row) for row in grid)
    lines.append("+" + "-" * width)
    lines.append(
        f" x: {x_lo:g}..{x_hi:g}   y: {y_lo:.3g}..{y_hi:.3g}"
        + (f" ({y_label})" if y_label else "")
    )
    legend = "   ".join(
        f"{glyph}={name}" for (name, _), glyph in zip(series.items(), glyphs)
    )
    lines.append(" " + legend)
    return "\n".join(lines)


def _fmt_energy(cell: RunRow) -> str:
    e = cell.result.energy
    return (
        f"{e.total():8.3f} (p{e.processor:7.3f} t{e.nic_tx:7.3f} "
        f"r{e.nic_rx:7.3f} i{e.nic_idle:6.3f})"
    )


def _fmt_cycles(cell: RunRow) -> str:
    c = cell.result.cycles
    return (
        f"{c.total():9.3e} (p{c.processor:8.2e} t{c.nic_tx:8.2e} "
        f"r{c.nic_rx:8.2e} w{c.wait:7.1e})"
    )


def render_sweep(
    sweep: Dict[str, List[RunRow]],
    title: str,
    metric: str = "both",
) -> str:
    """Render a schemes x bandwidths sweep as a text table.

    ``metric`` is ``"energy"``, ``"cycles"`` or ``"both"``.  Buckets are
    abbreviated p(rocessor) / t(x) / r(x) / i(dle) / w(ait).
    """
    if metric not in ("energy", "cycles", "both"):
        raise ValueError(f"unknown metric {metric!r}")
    lines = [f"== {title} =="]
    first = next(iter(sweep.values()))
    header_meta = first[0].result
    lines.append(
        f"   workload: {header_meta.n_candidates} filter candidates, "
        f"{header_meta.n_results} results in total"
    )
    for label, cells in sweep.items():
        lines.append(f"-- {label}")
        for cell in cells:
            parts = [f"   {cell.bandwidth_mbps:5.1f} Mbps"]
            if metric in ("energy", "both"):
                parts.append(f"E[J] {_fmt_energy(cell)}")
            if metric in ("cycles", "both"):
                parts.append(f"cyc {_fmt_cycles(cell)}")
            lines.append("  ".join(parts))
    return "\n".join(lines)


def render_loss_sweep(
    sweep: Dict[str, List[RunRow]],
    title: str,
) -> str:
    """Render a schemes x loss-rates sweep with the retransmission ledger.

    One row per loss rate: total energy and cycles, then the loss ledger —
    retransmitted frames per direction and backoff dwell — so the cost of
    the degrading link is visible next to what it did to the totals.
    """
    lines = [f"== {title} =="]
    first = next(iter(sweep.values()))
    lines.append(
        f"   fixed {first[0].bandwidth_mbps:g} Mbps, "
        f"{first[0].distance_m:g} m; loss rate sweeps down the rows"
    )
    for label, cells in sweep.items():
        lines.append(f"-- {label}")
        for cell in cells:
            loss = cell.result.loss
            lines.append(
                f"   p={cell.loss_rate:5.3f}  E[J] {cell.energy_j:8.3f}  "
                f"cyc {cell.cycles:9.3e}  "
                f"retx tx={loss.retx_tx_frames:7.2f} "
                f"rx={loss.retx_rx_frames:7.2f}  "
                f"backoff={loss.backoff_s:7.3f}s"
            )
    return "\n".join(lines)


def render_fig10(rows: Iterable[Fig10Row], title: str) -> str:
    """Render the Figure 10 proximity curves, marking energy crossovers."""
    lines = [f"== {title} =="]
    rows = list(rows)
    for budget in sorted({r.buffer_bytes for r in rows}):
        lines.append(f"-- buffer {budget // (1 << 20)} MB")
        crossed = False
        for r in (r for r in rows if r.buffer_bytes == budget):
            marker = ""
            if not crossed and r.client_energy_j < r.server_energy_j:
                marker = "  <- client becomes energy-efficient"
                crossed = True
            lines.append(
                f"   y={r.y:4d}  client E={r.client_energy_j:7.4f} J "
                f"cyc={r.client_cycles:10.3e} | server "
                f"E={r.server_energy_j:7.4f} J cyc={r.server_cycles:10.3e} "
                f"| hits={r.local_hits} misses={r.misses}{marker}"
            )
    return "\n".join(lines)


def summarize_ledger(source: Union[str, List[dict]]) -> str:
    """Summarize a run-ledger: phase timings, pricing rates, NIC dwell.

    ``source`` is a ledger file path or an in-memory record list
    (:attr:`repro.core.gridrun.RunLedger.records`).  The summary folds the
    event stream back into per-phase op counts and wall-clock, per-engine
    pricing throughput, per-NIC-state joules/seconds, and any recorded
    speedups.
    """
    records = read_ledger(source) if isinstance(source, str) else list(source)
    lines = ["== run-ledger summary =="]
    if not records:
        lines.append("(empty ledger)")
        return "\n".join(lines)

    counts: Dict[str, int] = {}
    for rec in records:
        counts[rec.get("event", "?")] = counts.get(rec.get("event", "?"), 0) + 1
    lines.append(
        "events  : "
        + "  ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    )

    plans = [r for r in records if r.get("event") == "plan"]
    if plans:
        total_s = sum(r.get("seconds", 0.0) for r in plans)
        queries = sum(r.get("n_queries", 0) for r in plans)
        lines.append(
            f"plan    : {len(plans)} workloads, {queries} queries, "
            f"{total_s:.3f} s"
        )

    prices = [r for r in records if r.get("event") == "price"]
    for engine in sorted({r.get("engine", "?") for r in prices}):
        rows = [r for r in prices if r.get("engine") == engine]
        cells = sum(r.get("n_plans", 0) * r.get("n_policies", 0) for r in rows)
        total_s = sum(r.get("seconds", 0.0) for r in rows)
        rate = f"{cells / total_s:,.0f} cells/s" if total_s > 0 else "-"
        lines.append(
            f"price   : [{engine}] {len(rows)} grids, {cells} cells, "
            f"{total_s:.3f} s ({rate})"
        )

    runs = [r for r in records if r.get("event") == "run"]
    if runs:
        total_e = sum(
            sum(r.get("energy_j", {}).values()) for r in runs
        )
        lines.append(
            f"run     : {len(runs)} (scheme, policy) cells, "
            f"{total_e:.3f} J total client energy"
        )
        dwell: Dict[str, float] = {}
        exits = 0
        for r in runs:
            nic = r.get("nic")
            if not nic:
                continue
            for k, v in nic.items():
                if k == "sleep_exits":
                    exits += int(v)
                else:
                    dwell[k] = dwell.get(k, 0.0) + v
        if dwell:
            secs = " ".join(
                f"{s.split('_')[0]}={dwell.get(s, 0.0):.3f}s"
                for s in ("transmit_s", "receive_s", "idle_s", "sleep_s")
            )
            joules = " ".join(
                f"{s.split('_')[0]}={dwell.get(s, 0.0):.3f}J"
                for s in ("transmit_j", "receive_j", "idle_j", "sleep_j")
            )
            lines.append(f"nic     : {secs}")
            lines.append(f"          {joules}  sleep_exits={exits}")

    for r in records:
        if r.get("event") == "speedup":
            lines.append(
                f"speedup : {r.get('label', '?')} batched "
                f"{r.get('batched_s', 0.0):.3f} s vs scalar "
                f"{r.get('scalar_s', 0.0):.3f} s -> "
                f"{r.get('speedup', 0.0):.1f}x"
            )
        elif r.get("event") in ("bench", "note"):
            detail = {
                k: v for k, v in r.items() if k not in ("event", "t")
            }
            lines.append(f"{r['event']:8s}: {detail}")
    return "\n".join(lines)


def render_rows(rows: Iterable[dict], title: str) -> str:
    """Render a list of homogeneous dict rows as an aligned table."""
    rows = list(rows)
    if not rows:
        return f"== {title} ==\n(empty)"
    cols = list(rows[0].keys())
    widths = {
        c: max(len(str(c)), *(len(str(r[c])) for r in rows)) for c in cols
    }
    lines = [f"== {title} =="]
    lines.append("  ".join(str(c).ljust(widths[c]) for c in cols))
    for r in rows:
        lines.append("  ".join(str(r[c]).ljust(widths[c]) for c in cols))
    return "\n".join(lines)
