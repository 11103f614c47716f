"""Unit tests for the ReTraTree structure and its incremental maintenance."""

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hermes.mod import MOD
from repro.hermes.trajectory import SubTrajectory, Trajectory
from repro.hermes.types import Period
from repro.qut.params import QuTParams
from repro.qut.retratree import ClusterEntry, ReTraTree, subtrajectory_from_slice
from repro.storage.catalog import StorageManager
from tests.conftest import make_linear_trajectory


def flow_mod(n_per_flow: int = 6, n_flows: int = 2, duration: float = 100.0) -> MOD:
    """Flows of straight co-moving trajectories, spatially well separated."""
    mod = MOD(name="flows")
    for f in range(n_flows):
        y0 = f * 50.0
        for i in range(n_per_flow):
            mod.add(
                make_linear_trajectory(
                    f"f{f}o{i}", "0", (0, y0 + 0.3 * i), (10, y0 + 0.3 * i), 0.0, duration, 21
                )
            )
    return mod


class TestSubtrajectoryFromSlice:
    def test_bounds_map_to_parent_samples(self, linear_trajectory):
        piece = linear_trajectory.slice_period(Period(25.0, 75.0))
        sub = subtrajectory_from_slice(linear_trajectory, piece)
        assert sub.parent_key == linear_trajectory.key
        assert 0 <= sub.start_idx < sub.end_idx <= linear_trajectory.num_points - 1
        assert sub.traj.period.tmin == pytest.approx(25.0)

    def test_full_cover_spans_whole_parent(self, linear_trajectory):
        piece = linear_trajectory.slice_period(Period(-10, 1000))
        sub = subtrajectory_from_slice(linear_trajectory, piece)
        assert sub.start_idx == 0
        assert sub.end_idx == linear_trajectory.num_points - 1


class TestReTraTreeBuild:
    def test_empty_mod(self):
        tree = ReTraTree.build(MOD())
        assert tree.subchunks() == []
        assert tree.num_clusters == 0

    def test_subchunk_layout_covers_mod_period(self):
        mod = flow_mod()
        tree = ReTraTree.build(mod, QuTParams(tau=50.0, delta=25.0))
        subchunks = tree.subchunks()
        assert len(subchunks) >= 4
        assert subchunks[0].period.tmin == pytest.approx(mod.period.tmin)
        # Sub-chunks are disjoint and consecutive.
        for left, right in zip(subchunks[:-1], subchunks[1:]):
            assert left.period.tmax <= right.period.tmin + 1e-6

    def test_every_piece_is_archived_somewhere(self):
        mod = flow_mod()
        tree = ReTraTree.build(mod, QuTParams(tau=50.0, delta=25.0, overflow_threshold=8))
        stats = tree.stats
        assert stats.trajectories_inserted == len(mod)
        archived = 0
        for subchunk in tree.subchunks():
            archived += len(tree.load_unclustered(subchunk))
            for entry in subchunk.entries:
                archived += len(tree.load_members(entry))
        assert archived == stats.pieces_inserted

    def test_build_discovers_clusters_for_flows(self):
        mod = flow_mod()
        tree = ReTraTree.build(mod, QuTParams(tau=50.0, delta=50.0, overflow_threshold=6))
        assert tree.num_clusters >= 2
        assert tree.stats.s2t_runs >= 1

    def test_member_counts_match_partitions(self):
        mod = flow_mod()
        tree = ReTraTree.build(mod, QuTParams(tau=50.0, delta=25.0, overflow_threshold=6))
        for subchunk in tree.subchunks():
            for entry in subchunk.entries:
                assert entry.member_count == len(tree.load_members(entry))

    def test_on_disk_storage(self, tmp_path):
        mod = flow_mod(n_per_flow=4)
        storage = StorageManager(tmp_path / "retratree")
        tree = ReTraTree.build(mod, QuTParams(tau=50.0, delta=50.0), storage=storage)
        assert any(p.on_disk for p in storage.partitions())
        assert tree.num_clusters >= 1


class TestIncrementalInsert:
    def test_incremental_insert_assigns_to_existing_entries(self):
        mod = flow_mod(n_per_flow=6)
        tree = ReTraTree.build(mod, QuTParams(tau=50.0, delta=50.0, overflow_threshold=6))
        clusters_before = tree.num_clusters
        assigned_before = tree.stats.pieces_assigned
        # A new trajectory following flow 0 should be absorbed by existing entries.
        tree.insert_trajectory(
            make_linear_trajectory("late", "0", (0, 0.15), (10, 0.15), 0.0, 100.0, 21)
        )
        assert tree.stats.pieces_assigned > assigned_before
        assert tree.num_clusters == clusters_before

    def test_overflow_triggers_s2t(self):
        mod = flow_mod(n_per_flow=3)
        tree = ReTraTree.build(mod, QuTParams(tau=100.0, delta=100.0, overflow_threshold=64))
        # Bulk load with huge threshold ran S2T only in finalize();
        runs_before = tree.stats.s2t_runs
        # pour in enough far-away trajectories to overflow the unclustered partition.
        for i in range(70):
            tree.insert_trajectory(
                make_linear_trajectory(f"new{i}", "0", (0, 200 + 0.2 * i), (10, 200 + 0.2 * i), 0.0, 100.0, 11)
            )
        assert tree.stats.s2t_runs > runs_before

    def test_stats_accounting(self):
        mod = flow_mod()
        tree = ReTraTree.build(mod, QuTParams(tau=50.0, delta=25.0))
        stats = tree.stats
        assert stats.pieces_inserted == stats.pieces_assigned + stats.pieces_unclustered
        assert stats.maintenance_seconds >= 0.0


class TestRepFrameCache:
    def _built_tree_with_entries(self):
        from repro.datagen import lane_scenario

        mod, _ = lane_scenario(n_trajectories=20, n_lanes=2, n_samples=40, seed=3)
        tree = ReTraTree.build(mod, QuTParams(overflow_threshold=8))
        for subchunk in tree.subchunks():
            if len(subchunk.entries) >= 1:
                return tree, subchunk
        pytest.skip("scenario produced no cluster entries")

    def test_rep_frame_cached_while_entries_unchanged(self):
        tree, subchunk = self._built_tree_with_entries()
        assert tree._rep_frame(subchunk) is tree._rep_frame(subchunk)

    def test_replacing_representative_invalidates_cache(self):
        """Regression: same entry count, different representative -> new frame."""
        tree, subchunk = self._built_tree_with_entries()
        frame_before = tree._rep_frame(subchunk)
        entry = subchunk.entries[0]
        old_rep = entry.representative
        replacement = SubTrajectory(
            old_rep.parent_key,
            old_rep.start_idx,
            old_rep.end_idx,
            Trajectory(
                old_rep.traj.obj_id,
                old_rep.traj.traj_id,
                old_rep.traj.xs + 1000.0,
                old_rep.traj.ys + 1000.0,
                old_rep.traj.ts,
            ),
        )
        tree.replace_representative(subchunk, 0, replacement)
        frame_after = tree._rep_frame(subchunk)
        assert frame_after is not frame_before
        row = frame_after.row_of(replacement.traj.key)
        assert frame_after.xs_of(row)[0] == replacement.traj.xs[0]

    def test_appending_entry_invalidates_cache(self):
        tree, subchunk = self._built_tree_with_entries()
        frame_before = tree._rep_frame(subchunk)
        version_before = subchunk.entries_version
        clone = subchunk.entries[0]
        other_rep = SubTrajectory(
            clone.representative.parent_key,
            clone.representative.start_idx,
            clone.representative.end_idx,
            Trajectory(
                "synthetic",
                "rep",
                clone.representative.traj.xs + 5.0,
                clone.representative.traj.ys + 5.0,
                clone.representative.traj.ts,
            ),
        )
        subchunk.entries.append(
            ClusterEntry(
                cluster_id=9999,
                representative=other_rep,
                partition_name=clone.partition_name,
            )
        )
        subchunk.touch_entries()
        assert subchunk.entries_version == version_before + 1
        assert tree._rep_frame(subchunk) is not frame_before


class TestManifestRoundtrip:
    """``to_manifest`` → ``from_manifest`` reproduces the tree structure."""

    def _assert_trees_equal(self, original: ReTraTree, reopened: ReTraTree) -> None:
        assert reopened.params == original.params
        assert reopened.origin == original.origin
        assert reopened._next_cluster_id == original._next_cluster_id
        assert [sc.key for sc in reopened.subchunks()] == [
            sc.key for sc in original.subchunks()
        ]
        for mine, theirs in zip(reopened.subchunks(), original.subchunks()):
            assert mine.period == theirs.period
            assert mine.unclustered_count == theirs.unclustered_count
            assert len(mine.entries) == len(theirs.entries)
            for e1, e2 in zip(mine.entries, theirs.entries):
                assert e1.cluster_id == e2.cluster_id
                assert e1.partition_name == e2.partition_name
                assert e1.member_count == e2.member_count
                assert e1.bbox == e2.bbox
                assert e1.representative.parent_key == e2.representative.parent_key
                assert (
                    e1.representative.traj.ts.tolist()
                    == e2.representative.traj.ts.tolist()
                )
                # Member partitions reload identically (same heapfiles).
                mine_members = sorted(s.traj.key for s in reopened.load_members(e1))
                theirs_members = sorted(s.traj.key for s in original.load_members(e2))
                assert mine_members == theirs_members

    def test_roundtrip_on_disk(self, tmp_path):
        mod = flow_mod(n_per_flow=6, n_flows=2, duration=100.0)
        storage = StorageManager(tmp_path / "tree")
        tree = ReTraTree.build(
            mod,
            QuTParams(tau=50.0, delta=25.0, overflow_threshold=6),
            storage=storage,
            name="flows",
        )
        manifest = tree.to_manifest()
        storage.checkpoint()

        reopened_storage = StorageManager(tmp_path / "tree")
        reopened = ReTraTree.from_manifest(manifest, storage=reopened_storage)
        assert reopened.recovered and not tree.recovered
        self._assert_trees_equal(tree, reopened)
        # The rebuilt pg3D-Rtrees answer windowed member loads.
        for sc in reopened.subchunks():
            for entry in sc.entries:
                if entry.bbox is not None:
                    hits = reopened.load_members_in(entry, entry.bbox)
                    assert len(hits) == entry.member_count

    def test_roundtrip_in_memory(self):
        mod = flow_mod(n_per_flow=5, n_flows=2, duration=80.0)
        tree = ReTraTree.build(mod, QuTParams(tau=40.0, delta=20.0, overflow_threshold=5))
        manifest = tree.to_manifest()
        reopened = ReTraTree.from_manifest(manifest, storage=tree.storage)
        self._assert_trees_equal(tree, reopened)

    def test_manifest_is_json_serialisable(self):
        import json

        mod = flow_mod(n_per_flow=5, n_flows=1, duration=60.0)
        tree = ReTraTree.build(mod, QuTParams(tau=30.0, delta=15.0, overflow_threshold=5))
        roundtripped = json.loads(json.dumps(tree.to_manifest()))
        reopened = ReTraTree.from_manifest(roundtripped, storage=tree.storage)
        assert reopened.num_clusters == tree.num_clusters

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_manifest_count_and_bbox_are_what_the_records_derive(self, data):
        """What reopening now takes from the manifest equals, bit for bit,
        what it used to re-derive by decoding every member record: the
        record count and the union of the members' bounding boxes."""
        slope = data.draw(st.sampled_from([0.0, 0.1, -0.3, 1.0 / 3.0]), label="slope")
        spacing = data.draw(st.sampled_from([0.1, 0.3, 1.0 / 7.0]), label="spacing")
        n_flows = data.draw(st.integers(1, 3), label="flows")
        n_per_flow = data.draw(st.integers(2, 7), label="per flow")
        mod = MOD(name="flows")
        for f in range(n_flows):
            for i in range(n_per_flow):
                y = f * 50.0 + spacing * i
                mod.add(
                    make_linear_trajectory(
                        f"f{f}o{i}", "0", (0, y), (10, y + slope), 0.0, 100.0, 21
                    )
                )
        tree = ReTraTree.build(mod, QuTParams(tau=50.0, delta=25.0, overflow_threshold=6))
        for batch in range(data.draw(st.integers(0, 3), label="appends")):
            t0 = data.draw(st.sampled_from([0.0, 25.0, 40.0, 100.0]), label="t0")
            flow = data.draw(st.integers(0, n_flows), label="near flow")
            tree.append(
                [
                    make_linear_trajectory(
                        f"late{batch}_{i}", "0",
                        (3, flow * 50.0 + spacing * (i + 0.5)),
                        (10, flow * 50.0 + spacing * (i + 0.5) + slope),
                        t0, t0 + 60.0, 13,
                    )
                    for i in range(data.draw(st.integers(1, 3), label="batch size"))
                ]
            )

        manifest = json.loads(json.dumps(tree.to_manifest()))
        reopened = ReTraTree.from_manifest(manifest, storage=tree.storage)
        entries = [entry for sc in reopened.subchunks() for entry in sc.entries]
        assert len(entries) == tree.num_clusters > 0
        for entry in entries:
            members = reopened.load_members(entry)
            derived = members[0].bbox
            for member in members[1:]:
                derived = derived.union(member.bbox)
            assert entry.member_count == len(members)
            assert struct.pack("6d", *entry.bbox.as_tuple()) == struct.pack(
                "6d", *derived.as_tuple()
            )
        for sc in reopened.subchunks():
            assert sc.unclustered_count == len(reopened.load_unclustered(sc))

    def test_reopen_detects_torn_state_and_accepts_repersist(self, tmp_path):
        """Records archived AFTER the manifest snapshot make the stale
        manifest unusable: reopening against it raises (the engine then
        degrades to a rebuild), while re-persisting after the mutation
        reopens cleanly with the heapfile counts."""
        mod = flow_mod(n_per_flow=6, n_flows=1, duration=100.0)
        storage = StorageManager(tmp_path / "tree")
        tree = ReTraTree.build(
            mod,
            QuTParams(tau=50.0, delta=25.0, overflow_threshold=6),
            storage=storage,
            name="flows",
        )
        stale_manifest = tree.to_manifest()
        # Post-persist insertion: lands in some partition's heapfile, which
        # now disagrees with the stale manifest snapshot.
        latecomer = make_linear_trajectory(
            "late", "0", (0, 0.15), (10, 0.15), 0.0, 100.0, 21
        )
        tree.insert_trajectory(latecomer)
        storage.checkpoint()

        with pytest.raises(ValueError, match="torn"):
            ReTraTree.from_manifest(
                stale_manifest, storage=StorageManager(tmp_path / "tree")
            )

        # Re-persisting commits the mutation; reopen succeeds and counts match.
        fresh_manifest = tree.to_manifest()
        storage.checkpoint()
        reopened = ReTraTree.from_manifest(
            fresh_manifest, storage=StorageManager(tmp_path / "tree")
        )

        def archived_total(t: ReTraTree) -> int:
            return sum(
                sum(e.member_count for e in sc.entries) + sc.unclustered_count
                for sc in t.subchunks()
            )

        assert archived_total(reopened) == archived_total(tree)

    def test_empty_tree_rejects_persistence(self):
        with pytest.raises(ValueError, match="empty"):
            ReTraTree().to_manifest()
