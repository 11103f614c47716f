"""E10: scalability and phase breakdown of S2T-Clustering.

The underlying EDBT'17 paper evaluates S2T's runtime as the MOD grows and the
relative cost of its phases.  This benchmark sweeps the MOD cardinality and
reports the per-phase wall-clock breakdown (voting, segmentation, sampling,
clustering), checking the expected shape: voting dominates and grows
super-linearly with N, while the index-pruned voting keeps the growth in
check.
"""

import pytest

from repro.datagen import aircraft_scenario
from repro.eval.harness import format_table
from repro.s2t.params import S2TParams
from repro.s2t.pipeline import S2TClustering


@pytest.mark.repro("E10")
def test_s2t_scalability_with_mod_size(benchmark):
    rows = []
    totals = {}
    for n in (25, 50, 100, 150):
        mod, _ = aircraft_scenario(n_trajectories=n, n_samples=50, seed=1)
        result = S2TClustering().fit(mod)
        timings = result.timings
        totals[n] = result.total_runtime
        rows.append(
            {
                "trajectories": n,
                "voting_s": round(timings["voting"], 3),
                "segmentation_s": round(timings["segmentation"], 3),
                "sampling_s": round(timings["sampling"], 3),
                "clustering_s": round(timings["clustering"], 3),
                "total_s": round(result.total_runtime, 3),
                "clusters": result.num_clusters,
                "pairs_pruned": result.extras["voting_pairs_pruned"],
            }
        )
    print()
    print(format_table(rows, title="E10: S2T phase breakdown vs MOD cardinality"))

    # Shape: total cost grows with N, and larger MODs benefit from pruning.
    assert totals[150] > totals[25]
    assert rows[-1]["pairs_pruned"] > 0

    # Timing target: the N=100 configuration.
    mod, _ = aircraft_scenario(n_trajectories=100, n_samples=50, seed=1)
    benchmark.pedantic(S2TClustering().fit, args=(mod,), rounds=2, iterations=1)


@pytest.mark.repro("E10")
def test_s2t_index_pruning_reduces_voting_cost(benchmark, aircraft_data):
    """The in-DBMS index path of voting vs the dense all-pairs path."""
    mod, _ = aircraft_data
    with_index = S2TClustering().fit(mod)
    without_index = S2TClustering(S2TParams(voting_strategy="dense")).fit(mod)
    print()
    print(
        format_table(
            [
                {
                    "voting": "index-pruned",
                    "pairs_evaluated": with_index.extras["voting_pairs_evaluated"],
                    "voting_s": round(with_index.timings["voting"], 3),
                },
                {
                    "voting": "dense all-pairs",
                    "pairs_evaluated": without_index.extras["voting_pairs_evaluated"],
                    "voting_s": round(without_index.timings["voting"], 3),
                },
            ],
            title="E10 (cont.): voting with and without the trajectory R-tree",
        )
    )
    assert (
        with_index.extras["voting_pairs_evaluated"]
        <= without_index.extras["voting_pairs_evaluated"]
    )
    benchmark.pedantic(S2TClustering().fit, args=(mod,), rounds=2, iterations=1)
