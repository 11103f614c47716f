"""QuT reads each touched sub-chunk as one decoded batch.

``ReTraTree.load_subchunk`` decodes a sub-chunk's entry partitions and its
unclustered partition with one ``decode_records`` call, and a partially
covered sub-chunk is restricted by slicing that batch's frame.  The loader
it replaced — one decode per partition, then one re-concatenated frame per
partially covered sub-chunk — is the oracle in ``tests/qut/oracles.py``;
answers must be bit-identical to it, warm and cold, and the number of
frames a warm window builds is pinned.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.datagen import aircraft_scenario
from repro.hermes.frame import MODFrame
from repro.hermes.mod import MOD
from repro.hermes.trajectory import Trajectory
from repro.hermes.types import Period
from repro.qut.params import QuTParams
from repro.qut.query import QuTClustering
from repro.qut.retratree import ReTraTree
from tests.conftest import make_linear_trajectory, restriction_signature
from tests.qut.oracles import PerPartitionQuT, load_partial_clusters_per_partition
from tests.qut.test_derived_state import result_signature
from tests.qut.test_warm_read_path import flights_store, progressive_windows  # noqa: F401

# (tau, delta) grids: several sub-chunks per chunk, one per chunk, uneven.
GRIDS = [(50.0, 25.0), (40.0, 10.0), (30.0, 30.0), (100.0, 20.0)]


def rows_signature(rows, outliers) -> tuple:
    """Bit-exact view of ``_load_partial_clusters`` output."""
    return (
        tuple((sc.key, position, restriction_signature(members)) for sc, position, members in rows),
        restriction_signature(outliers),
    )


@st.composite
def trees(draw) -> ReTraTree:
    """Flows of co-moving trajectories with ragged lifespans, maybe appended to."""
    tau, delta = draw(st.sampled_from(GRIDS), label="grid")
    slope = draw(st.sampled_from([0.0, 0.2, -1.0 / 3.0]), label="slope")
    mod = MOD(name="flows")
    for f in range(draw(st.integers(1, 3), label="flows")):
        for i in range(draw(st.integers(3, 8), label="per flow")):
            t0 = draw(st.sampled_from([0.0, 0.0, 12.5, 30.0]), label="t0")
            t1 = draw(st.sampled_from([100.0, 100.0, 47.5, 70.0]), label="t1")
            y = f * 50.0 + 0.3 * i
            mod.add(make_linear_trajectory(f"f{f}o{i}", "0", (0, y), (10, y + slope), t0, t1, 17))
    tree = ReTraTree.build(
        mod,
        QuTParams(tau=tau, delta=delta, overflow_threshold=draw(st.sampled_from([4, 6]))),
    )
    for batch in range(draw(st.integers(0, 2), label="appends")):
        t0 = draw(st.sampled_from([5.0, 40.0, 90.0]), label="append t0")
        tree.append(
            [
                make_linear_trajectory(
                    f"late{batch}_{i}", "0", (3, 0.3 * i), (10, 0.3 * i + slope), t0, t0 + 35.0, 9
                )
                for i in range(draw(st.integers(1, 5), label="batch size"))
            ]
        )
    return tree


def windows(tree: ReTraTree):
    """Windows whose ends sit on, next to, or between sub-chunk borders."""
    borders = sorted({t for sc in tree.subchunks() for t in (sc.period.tmin, sc.period.tmax)})
    ends = st.one_of(
        st.sampled_from(borders),
        st.tuples(st.sampled_from(borders), st.sampled_from([-3.0, -0.5, 1e-9, 0.5, 7.0])).map(
            sum
        ),
        st.floats(borders[0] - 10.0, borders[-1] + 10.0),
    )
    return st.tuples(ends, ends).map(lambda ab: Period(min(ab), max(ab)))


class TestEqualsThePerPartitionOracle:
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_query_is_bit_identical(self, data):
        tree = data.draw(trees())
        for _ in range(4):
            window = data.draw(windows(tree), label="window")
            subchunks = tree.subchunks_overlapping(window)
            got = QuTClustering(tree)._load_partial_clusters(subchunks, window)
            assert rows_signature(*got) == rows_signature(
                *load_partial_clusters_per_partition(tree, subchunks, window)
            )
            batched = QuTClustering(tree).query(window)
            oracle = PerPartitionQuT(tree).query(window)
            assert result_signature(batched) == result_signature(oracle)
            assert batched.extras["partitions_decoded"] == oracle.extras["partitions_decoded"]

    def test_an_entry_with_no_member_in_the_window_gives_no_row(self):
        """Flow ``b`` lives over [0, 12] only: a window over [15, 22] of the
        same sub-chunk keeps flow ``a``'s entry and drops ``b``'s."""
        mod = MOD(name="flows")
        for i in range(6):
            mod.add(make_linear_trajectory(f"a{i}", "0", (0, 0.3 * i), (10, 0.3 * i), 0, 100, 41))
            mod.add(make_linear_trajectory(f"b{i}", "0", (0, 60 + 0.3 * i), (4, 60), 0, 12, 7))
        tree = ReTraTree.build(mod, QuTParams(tau=50.0, delta=25.0, overflow_threshold=6))
        window = Period(15.0, 22.0)
        (subchunk,) = tree.subchunks_overlapping(window)
        assert len(subchunk.entries) >= 2
        rows, outliers = QuTClustering(tree)._load_partial_clusters([subchunk], window)
        assert 0 < len(rows) < len(subchunk.entries)
        assert rows_signature(rows, outliers) == rows_signature(
            *load_partial_clusters_per_partition(tree, [subchunk], window)
        )

    def test_load_subchunk_rows_are_the_partitions_in_entry_order(self):
        mod = MOD(name="flows")
        for i in range(8):
            mod.add(make_linear_trajectory(f"a{i}", "0", (0, 0.3 * i), (10, 0.3 * i), 0, 100, 21))
        tree = ReTraTree.build(mod, QuTParams(tau=50.0, delta=25.0, overflow_threshold=4))
        for subchunk in tree.subchunks():
            batch, bounds = tree.load_subchunk(subchunk)
            groups = [tree.load_members(entry) for entry in subchunk.entries]
            groups.append(tree.load_unclustered(subchunk))
            assert bounds.tolist() == np.cumsum([0] + [len(g) for g in groups]).tolist()
            members = batch.subtrajectories()
            for lo, hi, group in zip(bounds[:-1], bounds[1:], groups):
                assert restriction_signature(members[lo:hi]) == restriction_signature(group)


def test_a_warm_window_builds_at_most_two_frames_per_subchunk(flights_store, monkeypatch):
    """The 20 warm windows of ``test_warm_read_path`` (aircraft 300 x 50,
    seed 100) touch 123 sub-chunks.  The per-partition loader built 1 851
    frames for them — one per partition decoded plus two per partially
    covered sub-chunk; one batch per sub-chunk builds 163, and no window
    builds more than two per sub-chunk it touches.  No ``Trajectory`` goes
    through its validating constructor.
    """
    conn, windows, _deltas = flights_store
    frames, inits = [], []
    real_frame, real_traj = MODFrame._init_columns, Trajectory.__init__
    monkeypatch.setattr(
        MODFrame, "_init_columns", lambda self, *a: frames.append(1) or real_frame(self, *a)
    )
    monkeypatch.setattr(Trajectory, "__init__", lambda self, *a: inits.append(1) or real_traj(self, *a))
    touched = 0
    for window in windows:
        before = len(frames)
        result = conn.engine.qut("f", window)
        assert len(frames) - before <= 2 * result.extras["subchunks_touched"]
        touched += result.extras["subchunks_touched"]
    assert (len(frames), touched) == (163, 123)
    assert not inits


def test_cold_qut_equals_warm(tmp_path):
    mod, _truth = aircraft_scenario(n_trajectories=120, n_samples=40, seed=7, name="f")
    windows = progressive_windows(mod.period, 12, 7)
    sql = "SELECT QUT(f, :wi, :we)"
    bindings = [{"wi": w.tmin, "we": w.tmax} for w in windows]
    warm = repro.connect(tmp_path)
    warm.engine.load_mod("f", mod)
    warm_rows = [warm.execute(sql, b).fetchall() for b in bindings]
    warm_results = [result_signature(warm.engine.qut("f", w)) for w in windows]
    warm.close()

    cold = repro.connect(tmp_path)
    try:
        first = cold.engine.qut("f", windows[0])
        assert first.extras["tree_recovered"]
        assert [cold.execute(sql, b).fetchall() for b in bindings] == warm_rows
        assert [result_signature(cold.engine.qut("f", w)) for w in windows] == warm_results
    finally:
        cold.close()
