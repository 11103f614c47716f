"""E11 (ablation): pg3D-Rtree design choices.

Two decisions behind the index are measured: (a) STR bulk loading versus
one-at-a-time insertion, and (b) the node capacity.  The metric is the
number of tree nodes visited by a fixed batch of spatiotemporal range
queries (the I/O surrogate) plus wall-clock query time.
"""

import time

import numpy as np
import pytest

from repro.datagen import aircraft_scenario
from repro.eval.harness import format_table
from repro.hermes.types import BoxST
from repro.index.rtree3d import RTree3D, str_bulk_load


@pytest.fixture(scope="module")
def workload():
    mod, _ = aircraft_scenario(n_trajectories=120, n_samples=50, seed=5)
    items = []
    for traj in mod:
        for i in range(traj.num_segments):
            seg = traj.segment(i)
            items.append((seg.bbox, (traj.key, i)))
    bbox = mod.bbox
    rng = np.random.default_rng(5)
    queries = []
    for _ in range(50):
        cx = rng.uniform(bbox.xmin, bbox.xmax)
        cy = rng.uniform(bbox.ymin, bbox.ymax)
        ct = rng.uniform(bbox.tmin, bbox.tmax)
        queries.append(
            BoxST(
                cx - bbox.dx * 0.04,
                cy - bbox.dy * 0.04,
                ct - bbox.dt * 0.08,
                cx + bbox.dx * 0.04,
                cy + bbox.dy * 0.04,
                ct + bbox.dt * 0.08,
            )
        )
    return items, queries


def _probe(tree: RTree3D, queries) -> tuple[int, float, int]:
    nodes = 0
    hits = 0
    t0 = time.perf_counter()
    for query in queries:
        results, visited = tree.range_search_with_stats(query)
        nodes += visited
        hits += len(results)
    return nodes, time.perf_counter() - t0, hits


@pytest.mark.repro("E11")
def test_ablation_bulk_load_vs_insertion(benchmark, workload):
    items, queries = workload

    t0 = time.perf_counter()
    inserted = RTree3D(max_entries=16)
    for box, value in items:
        inserted.insert(box, value)
    insert_build = time.perf_counter() - t0

    t0 = time.perf_counter()
    bulk = str_bulk_load(items, max_entries=16)
    bulk_build = time.perf_counter() - t0

    nodes_ins, time_ins, hits_ins = _probe(inserted, queries)
    nodes_bulk, time_bulk, hits_bulk = _probe(bulk, queries)
    assert hits_ins == hits_bulk  # same answers either way

    print()
    print(
        format_table(
            [
                {
                    "build": "repeated insertion",
                    "build_s": round(insert_build, 3),
                    "query_nodes_visited": nodes_ins,
                    "query_s": round(time_ins, 4),
                },
                {
                    "build": "STR bulk load",
                    "build_s": round(bulk_build, 3),
                    "query_nodes_visited": nodes_bulk,
                    "query_s": round(time_bulk, 4),
                },
            ],
            title="E11: STR bulk load vs one-at-a-time insertion",
        )
    )
    # Shape: bulk loading yields a tree that is at least as cheap to probe.
    assert nodes_bulk <= nodes_ins * 1.1

    benchmark(_probe, bulk, queries)


@pytest.mark.repro("E11")
def test_ablation_node_capacity_sweep(benchmark, workload):
    items, queries = workload
    rows = []
    nodes_by_capacity = {}
    for capacity in (8, 16, 32, 64):
        tree = (
            benchmark.pedantic(str_bulk_load, args=(items,), kwargs={"max_entries": capacity}, rounds=1, iterations=1)
            if capacity == 16
            else str_bulk_load(items, max_entries=capacity)
        )
        nodes, elapsed, _hits = _probe(tree, queries)
        nodes_by_capacity[capacity] = nodes
        rows.append(
            {
                "node_capacity": capacity,
                "height": tree.height,
                "query_nodes_visited": nodes,
                "query_s": round(elapsed, 4),
            }
        )
    print()
    print(format_table(rows, title="E11 (cont.): node capacity sweep"))
    # Larger capacity -> shallower tree -> fewer nodes visited per query.
    assert nodes_by_capacity[64] < nodes_by_capacity[8]
