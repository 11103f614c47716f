"""E3 (Fig. 2): the incremental-maintenance dataflow of the architecture.

Figure 2 shows the loop: trajectories are partitioned by the in-memory part
of the ReTraTree and archived into R-tree-indexed partitions; when a
partition of unclustered data overflows, S2T runs, new representatives are
back-propagated, members are archived, and outliers are re-inserted.

This benchmark appends the aircraft MOD to an empty ReTraTree as one batch
(the tree's one insertion path, which the bulk load also takes) and reports
how much maintenance work the structure performed, checking the dataflow's
accounting invariants.
"""

import pytest

from repro.eval.harness import format_table
from repro.qut.params import QuTParams
from repro.qut.retratree import ReTraTree


def stream_build(mod, overflow_threshold: int) -> ReTraTree:
    tree = ReTraTree(QuTParams(overflow_threshold=overflow_threshold))
    tree.append(mod)
    return tree


@pytest.mark.repro("E3")
def test_fig2_incremental_maintenance(benchmark, aircraft_data):
    mod, _truth = aircraft_data

    tree = benchmark.pedantic(stream_build, args=(mod, 32), rounds=1, iterations=1)

    stats = tree.stats
    rows = [
        {
            "trajectories_streamed": stats.trajectories_inserted,
            "pieces_inserted": stats.pieces_inserted,
            "assigned_to_existing_cluster": stats.pieces_assigned,
            "went_to_unclustered": stats.pieces_unclustered,
            "s2t_maintenance_runs": stats.s2t_runs,
            "outliers_reabsorbed": stats.outliers_reinserted,
            "cluster_entries": tree.num_clusters,
            "partitions": len(tree.storage.partitions()),
        }
    ]
    print()
    print(format_table(rows, title="E3 / Fig.2: incremental maintenance dataflow"))

    # -- dataflow invariants ------------------------------------------------------
    assert stats.trajectories_inserted == len(mod)
    assert stats.pieces_inserted == stats.pieces_assigned + stats.pieces_unclustered
    assert stats.s2t_runs >= 1  # overflows happened and were handled
    assert tree.num_clusters > 0  # representatives were back-propagated
    # Everything that was inserted is retrievable from level-4 partitions.
    archived = 0
    for subchunk in tree.subchunks():
        archived += len(tree.load_unclustered(subchunk))
        for entry in subchunk.entries:
            archived += len(tree.load_members(entry))
    assert archived == stats.pieces_inserted


@pytest.mark.repro("E3")
def test_fig2_overflow_threshold_sweep(benchmark, aircraft_data):
    """Smaller overflow thresholds mean more frequent, smaller S2T runs."""
    mod, _truth = aircraft_data
    rows = []
    runs_by_threshold = {}
    for threshold in (16, 32, 64):
        tree = (
            benchmark.pedantic(stream_build, args=(mod, threshold), rounds=1, iterations=1)
            if threshold == 32
            else stream_build(mod, threshold)
        )
        runs_by_threshold[threshold] = tree.stats.s2t_runs
        rows.append(
            {
                "overflow_threshold": threshold,
                "s2t_runs": tree.stats.s2t_runs,
                "cluster_entries": tree.num_clusters,
                "maintenance_s": round(tree.stats.maintenance_seconds, 4),
            }
        )
    print()
    print(format_table(rows, title="E3: overflow threshold sweep"))
    assert runs_by_threshold[16] >= runs_by_threshold[64]
