"""Extension bench: index-structure comparison (reference [2]).

The paper adopts its packed R-tree from a prior VLDB 2001 study that
compared spatial access methods — PMR quadtrees, packed R-trees, buddy
trees — for memory-resident data on energy and performance.  This bench
reproduces that comparison for all three structures: fully-at-client
execution of the three query workloads, priced by the same client CPU
model, plus the structural numbers (index size, replication).

Run at 30% dataset scale: the PMR build is a Python-loop insertion
(O(n * depth) exact segment/cell tests), and the comparison's per-query
ratios are scale-stable.
"""

from __future__ import annotations

import numpy as np

from repro.bench.report import render_rows
from repro.core.engine import QueryEngine
from repro.data import tiger
from repro.data.workloads import nn_queries, point_queries, range_queries
from repro.sim.cpu import ClientCPU
from repro.sim.trace import OpCounter
from repro.spatial.quadtree import PMRQuadtree
from repro.spatial.rtree import PackedRTree

SCALE = 0.3
N_QUERIES = 50


def _price_fully_client(index, engine, queries, kind):
    """Filter (or NN-search) every query on ``index``, refine through
    ``engine``, the R-tree's :class:`~repro.core.engine.QueryEngine`
    (refinement does not depend on the index); price on a fresh client
    CPU; return (energy_J, cycles, answers_hash)."""
    cpu = ClientCPU()
    total_energy = total_cycles = 0.0
    answer_check = 0
    for q in queries:
        counter = OpCounter()
        if kind == "nn":
            ids = index.nearest_neighbors(q.x, q.y, 1, counter)
        else:
            cand = index.range_filter(q.window, counter)
            ids = engine.refine(q, cand, counter).ids
        cost = cpu.compute(counter)
        total_energy += cost.energy_j
        total_cycles += cost.cycles
        answer_check += int(np.sort(ids).sum())
    return total_energy, total_cycles, answer_check


def test_ext_index_structure_comparison(benchmark, save_report):
    from repro.spatial.buddytree import BuddyTree

    ds = tiger.pa_dataset(scale=SCALE)
    indexes = {
        "rtree": PackedRTree.build(ds),
        "pmr": PMRQuadtree(ds),
        "buddy": BuddyTree(ds),
    }
    engine = QueryEngine(ds, indexes["rtree"])
    workloads = {
        "point": point_queries(ds, N_QUERIES),
        "range": range_queries(ds, N_QUERIES),
        "nn": nn_queries(ds, N_QUERIES),
    }

    def run():
        rows = []
        for kind, qs in workloads.items():
            row = {"workload": kind}
            hashes = {}
            for name, index in indexes.items():
                e, c, h = _price_fully_client(index, engine, qs, kind)
                row[f"{name}_energy_mJ"] = f"{e * 1e3:.3f}"
                row[f"{name}_cycles"] = f"{c:.3e}"
                hashes[name] = h
            row["same_answers"] = (kind == "nn") or (
                len(set(hashes.values())) == 1
            )
            rows.append(row)
        rtree, qtree, btree = indexes["rtree"], indexes["pmr"], indexes["buddy"]
        rows.append(
            {
                "workload": "(structure)",
                "rtree_energy_mJ": f"index {rtree.index_bytes() / 1e6:.2f} MB",
                "pmr_energy_mJ": f"index {qtree.index_bytes() / 1e6:.2f} MB",
                "buddy_energy_mJ": f"index {btree.index_bytes() / 1e6:.2f} MB",
                "rtree_cycles": "replication 1.00",
                "pmr_cycles": f"replication {qtree.replication_factor():.2f}",
                "buddy_cycles": "replication 1.00",
                "same_answers": "-",
            }
        )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_report(
        "ext_index_compare",
        render_rows(
            rows,
            f"Extension: packed R-tree vs PMR quadtree vs buddy tree "
            f"(fully at client, PA x{SCALE})",
        ),
    )
    # Point/range answers identical across all three indexes (NN compared
    # by distance in the unit tests; hash equality can differ on ties).
    for r in rows[:2]:
        assert r["same_answers"] is True
    # PMR replication makes its index strictly larger than the others.
    qtree = indexes["pmr"]
    assert qtree.index_bytes() > indexes["rtree"].index_bytes()
    assert qtree.index_bytes() > indexes["buddy"].index_bytes()
    # All three land within an order of magnitude on every workload — the
    # [2] study's conclusion that structure choice shifts, but does not
    # transform, client-side cost.
    for r in rows[:3]:
        base = float(r["rtree_cycles"])
        for name in ("pmr", "buddy"):
            ratio = float(r[f"{name}_cycles"]) / base
            assert 0.1 < ratio < 10.0, (r["workload"], name, ratio)
