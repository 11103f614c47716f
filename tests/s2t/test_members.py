"""Cluster members are frame rows: ``repro.s2t.result.Members``.

S2T, QuT and the baselines hand out their clusters' members and their
outliers as :class:`~repro.s2t.result.Members` — row ranges of
:class:`~repro.hermes.frame.TrajectoryRows`.  What the SQL answer reads
(size, object ids, period) comes from the columns; a
:class:`~repro.hermes.trajectory.SubTrajectory` is built once per row, when
a caller iterates.  Pinned here:

* the column reads — and the per-sample labels the quality metrics read —
  equal the values computed from the built objects, for S2T, QuT (on
  generated trees and windows) and a baseline;
* QuT's members build to exactly the lists of the per-partition oracle in
  ``tests/qut/oracles.py``;
* iterating twice builds the objects once, and a warm QuT window answered
  through SQL builds none; an S2T fit builds one per representative;
* a result survives pickling equal, and pickles as its columns whatever
  was built (serial == pooled relies on it).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Connection
from repro.baselines.traclus import TraclusClustering
from repro.core.engine import HermesEngine
from repro.datagen import aircraft_scenario, lane_scenario
from repro.hermes.frame import TrajectoryRows
from repro.hermes.trajectory import SubTrajectory
from repro.hermes.types import Period
from repro.qut.query import QuTClustering
from repro.s2t.params import S2TParams
from repro.s2t.pipeline import S2TClustering
from repro.s2t.result import ClusteringResult, Members
from tests.conftest import make_linear_trajectory, restriction_signature
from tests.qut.oracles import PerPartitionQuT
from tests.qut.test_subchunk_batch import trees, windows


def column_reads(result: ClusteringResult) -> list:
    """What the SQL rows read, taken before any member is built."""
    reads = [(c.size, c.object_ids(), c.period) for c in result.clusters]
    return [*reads, (len(result.outliers), result.outliers.object_ids())]


def object_reads(result: ClusteringResult) -> list:
    """The same values computed from the built sub-trajectories."""
    reads = [
        (
            len(list(c.members)),
            {m.obj_id for m in c.members},
            Period(min(m.period.tmin for m in c.members), max(m.period.tmax for m in c.members)),
        )
        for c in result.clusters
    ]
    return [*reads, (len(list(result.outliers)), {o.obj_id for o in result.outliers})]


def point_assignments_of_objects(result: ClusteringResult) -> dict:
    """``point_assignments`` computed from the built sub-trajectories."""
    out: dict = {}
    ordered = sorted(
        result.all_subtrajectories(),
        key=lambda item: (item[1] is None, item[1] if item[1] is not None else 0),
    )
    for sub, cluster_id in ordered:
        per_traj = out.setdefault(sub.parent_key, {})
        for idx in range(sub.start_idx, sub.end_idx + 1):
            per_traj.setdefault(idx, cluster_id)
    return out


def assert_columns_match_objects(result: ClusteringResult) -> None:
    assert all(isinstance(c.members, Members) for c in result.clusters)
    assert isinstance(result.outliers, Members)
    reads, labels = column_reads(result), result.point_assignments()
    assert reads == object_reads(result)
    expected = point_assignments_of_objects(result)
    assert labels == expected and list(labels) == list(expected)


@pytest.fixture(scope="module")
def aircraft():
    return aircraft_scenario(n_trajectories=40, n_samples=40, seed=7, name="f")[0]


class TestColumnReadsEqualTheObjects:
    def test_s2t(self, aircraft):
        result = S2TClustering(S2TParams()).fit(aircraft)
        assert result.num_clusters > 1 and result.num_outliers > 0
        assert_columns_match_objects(result)

    def test_baseline(self, aircraft):
        result = TraclusClustering().fit(aircraft)
        assert result.num_clusters > 0
        assert_columns_match_objects(result)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_qut_on_generated_windows(self, data):
        tree = data.draw(trees())
        for _ in range(3):
            window = data.draw(windows(tree), label="window")
            assert_columns_match_objects(QuTClustering(tree).query(window))


class TestQuTBuildsTheOracleLists:
    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_members_build_to_the_eager_paths_lists(self, data):
        tree = data.draw(trees())
        for _ in range(3):
            window = data.draw(windows(tree), label="window")
            lazy = QuTClustering(tree).query(window)
            eager = PerPartitionQuT(tree).query(window)
            assert column_reads(lazy) == object_reads(eager)
            assert [restriction_signature(c.members) for c in lazy.clusters] == [
                restriction_signature(c.members) for c in eager.clusters
            ]
            assert restriction_signature(lazy.outliers) == restriction_signature(eager.outliers)
            # The trajectory ids too: "<traj_id>#<start>-<end>" of the restricted piece.
            assert [m.traj.key for c in lazy.clusters for m in c.members] == [
                m.traj.key for c in eager.clusters for m in c.members
            ]
            assert [o.traj.key for o in lazy.outliers] == [o.traj.key for o in eager.outliers]


@pytest.fixture
def constructions(monkeypatch):
    """Every ``SubTrajectory`` built from now on."""
    built: list[SubTrajectory] = []
    real = SubTrajectory.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(SubTrajectory, "__init__", counting)
    return built


class TestBuiltOnce:
    def test_iterating_twice_builds_each_member_once(self, aircraft, constructions):
        result = S2TClustering(S2TParams()).fit(aircraft)
        assert len(constructions) == result.extras["num_representatives"]
        cluster = result.clusters[0]
        first = list(cluster.members)
        # The representative leads its members, and its row was built already.
        assert first[0] is cluster.representative
        built = result.extras["num_representatives"] + cluster.size - 1
        assert len(constructions) == built
        second = list(cluster.members)
        assert all(a is b for a, b in zip(first, second))
        assert cluster.members[1] is first[1]
        # Another view of the same rows hands out the same objects.
        assert all(a is b for a, b in zip(Members.concat([cluster.members]), first))
        assert len(constructions) == built

    def test_a_warm_qut_window_through_sql_builds_none(self, constructions):
        mod, _truth = lane_scenario(n_trajectories=30, n_samples=30, seed=2)
        engine = HermesEngine.in_memory()
        engine.load_mod("lanes", mod)
        engine.retratree("lanes")
        conn = Connection(engine=engine)
        stmt = conn.prepare("SELECT QUT(lanes, ?, ?)")
        windows = [(mod.period.tmin + f * mod.period.duration, mod.period.tmax) for f in (0, 0.3)]
        for window in windows:
            stmt.execute(window).fetchall()
        before = len(constructions)
        rows = [stmt.execute(window).fetchall() for window in windows]
        assert all(len(r) > 1 for r in rows)
        assert len(constructions) == before

    def test_an_s2t_fit_through_sql_builds_one_per_representative(self, constructions):
        mod, _truth = lane_scenario(n_trajectories=30, n_samples=30, seed=2)
        engine = HermesEngine.in_memory()
        engine.load_mod("lanes", mod)
        Connection(engine=engine).execute("SELECT S2T(lanes)").fetchall()
        result = engine.last_result("lanes")
        assert len(constructions) == result.extras["num_representatives"]


class TestPickling:
    def test_s2t_and_qut_results_round_trip_equal(self, aircraft):
        s2t = S2TClustering(S2TParams()).fit(aircraft)
        engine = HermesEngine.in_memory()
        engine.load_mod("f", aircraft)
        qut = engine.qut("f", Period(aircraft.period.tmin + 100.0, aircraft.period.tmax - 100.0))
        for result in (s2t, qut):
            assert result.num_clusters > 0
            back = pickle.loads(pickle.dumps(result))
            assert back == result
            assert column_reads(back) == column_reads(result)

    def test_a_result_pickles_as_its_columns_whatever_was_built(self, aircraft):
        result = S2TClustering(S2TParams()).fit(aircraft)
        before = pickle.dumps(result)
        for cluster in result.clusters:
            list(cluster.members)
        list(result.outliers)
        assert len(pickle.dumps(result)) == len(before)


def whole(obj_id: str, t0: float, t1: float) -> SubTrajectory:
    traj = make_linear_trajectory(obj_id, "0", t0=t0, t1=t1)
    return traj.subtrajectory(0, traj.num_points - 1)


class TestMembers:
    def test_a_wrapped_list_keeps_its_objects(self):
        subs = [whole("a", 0, 10), whole("b", 5, 20)]
        members = Members(subs)
        assert members == subs and all(m is s for m, s in zip(members, subs))
        assert members.period() == Period(0, 20)
        assert members.object_ids() == {"a", "b"}
        assert members.parent_keys() == [("a", "0"), ("b", "0")]

    def test_concat_take_and_add_keep_order(self):
        subs = [whole(f"o{i}", i, i + 10) for i in range(5)]
        a, b = Members(subs[:2]), Members(subs[2:])
        joined = Members.concat([a, b])
        assert list(joined) == subs
        assert list(joined.take([4, 0, 2])) == [subs[4], subs[0], subs[2]]
        assert list(joined.take(np.array([], dtype=np.intp))) == []
        assert a + subs[2:] == subs and subs[:2] + b == subs

    def test_rows_of_a_frame_build_the_ids_the_records_carry(self):
        subs = [whole("a", 0, 10), whole("b", 5, 20)]
        rows = TrajectoryRows.of(subs)
        fresh = Members.of_rows(pickle.loads(pickle.dumps(rows)))
        assert [m.traj.key for m in fresh] == [s.traj.key for s in subs]
        assert fresh == subs

    def test_members_are_immutable(self):
        members = Members([whole("a", 0, 10)])
        with pytest.raises(TypeError):
            members[0] = None
        assert not hasattr(members, "append")

    def test_an_empty_set_has_no_period(self):
        assert len(Members()) == 0 and Members() == []
        with pytest.raises(ValueError, match="no period"):
            Members().period()
