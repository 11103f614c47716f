"""The append-path ingestion subsystem (`repro.core.ingest`).

The load-bearing guarantee pinned here: for a dataset split into a base
load plus appended batches, QuT answers after incremental appends match a
from-scratch rebuild on the concatenated dataset within the paper's
assignment tolerance, with ``ReTraTree.build_calls`` frozen on the append
path — warm and cold (durable) engines alike.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.engine import HermesEngine
from repro.core.ingest import AppendBuffer
from repro.datagen import lane_scenario
from repro.eval.metrics import adjusted_rand_index, point_level_labels
from repro.hermes.frame import MODFrame
from repro.hermes.mod import MOD
from repro.hermes.trajectory import Trajectory
from repro.hermes.types import Period
from repro.qut.params import QuTParams
from repro.qut.retratree import ReTraTree
from repro.storage.catalog import StorageManager
from tests.conftest import membership_signature


def split_scenario(n=24, seed=3, base_fraction=0.5):
    """A lanes MOD split into (full_mod, base, batches-of-two)."""
    mod, _ = lane_scenario(n_trajectories=n, seed=seed)
    trajs = mod.trajectories()
    base_n = int(n * base_fraction)
    base = trajs[:base_n]
    rest = trajs[base_n:]
    batches = [rest[i : i + 2] for i in range(0, len(rest), 2)]
    return mod, base, batches


def explicit_params(mod):
    """Pinned grid parameters so incremental and rebuilt trees share a grid."""
    period = mod.period
    return QuTParams(tau=period.duration / 4, delta=period.duration / 16)


def full_window(mod):
    period = mod.period
    return Period(period.tmin, period.tmax)


def qut_similarity(result_a, result_b) -> float:
    """Adjusted Rand index over the two results' shared point assignments."""
    la, lb = point_level_labels(result_a), point_level_labels(result_b)
    common = sorted(set(la) & set(lb))
    assert len(common) >= 0.9 * max(len(la), len(lb)), "results cover different points"
    return adjusted_rand_index([la[k] for k in common], [lb[k] for k in common])


class TestAppendBuffer:
    def test_points_graduate_at_two_distinct_instants(self):
        buf = AppendBuffer()
        buf.extend([(("a", "0"), (0.0, 0.0, 0.0))])
        assert buf.drain_complete() == []
        buf.extend([(("a", "0"), (10.0, 1.0, 1.0))])
        [traj] = buf.drain_complete()
        assert traj.key == ("a", "0") and traj.num_points == 2
        assert len(buf) == 0

    def test_exact_duplicate_instant_is_dropped(self):
        buf = AppendBuffer()
        buf.extend([(("a", "0"), (10.0, 9.0, 9.0))])
        buf.extend([(("a", "0"), (10.0, 9.0, 9.0))])  # same instant, same place
        buf.extend([(("a", "0"), (0.0, 0.0, 0.0))])
        [traj] = buf.drain_complete()
        assert traj.num_points == 2
        assert float(traj.xs[-1]) == 9.0

    def test_two_positions_at_one_instant_are_refused(self):
        buf = AppendBuffer()
        buf.extend([(("a", "0"), (10.0, 9.0, 9.0)), (("a", "0"), (0.0, 0.0, 0.0))])
        before = {key: list(samples) for key, samples in buf.pending.items()}
        with pytest.raises(ValueError, match=r"\('a', '0'\).*t=10\.0"):
            buf.extend([(("b", "0"), (0.0, 1.0, 1.0)), (("a", "0"), (10.0, 5.0, 5.0))])
        assert buf.pending == before  # all of the statement or none of it
        with pytest.raises(ValueError, match="two positions"):
            AppendBuffer._assemble(("c", "0"), [(1.0, 0.0, 0.0), (1.0, 0.0, 1.0)])

    def test_incomplete_keys_stay_buffered(self):
        buf = AppendBuffer()
        buf.extend([(("a", "0"), (0.0, 0.0, 0.0))])
        buf.extend([(("b", "0"), (0.0, 0.0, 0.0))])
        buf.extend([(("b", "0"), (1.0, 1.0, 1.0))])
        assert [t.key for t in buf.drain_complete()] == [("b", "0")]
        assert ("a", "0") in buf.pending


class TestIncrementalEquivalence:
    @pytest.mark.parametrize("seed", [3, 7])
    def test_append_matches_rebuild_within_tolerance(self, seed):
        """QuT after N append batches ~= from-scratch build on the full
        dataset (ARI over shared point assignments), with zero extra
        bulk loads on the append path."""
        mod, base, batches = split_scenario(seed=seed)
        params = explicit_params(mod)
        window = full_window(mod)

        incremental = HermesEngine.in_memory()
        incremental.load_mod("lanes", MOD(name="lanes", trajectories=base))
        builds_before = ReTraTree.build_calls
        incremental.qut("lanes", window, params=params)  # builds once
        assert ReTraTree.build_calls == builds_before + 1
        for batch in batches:
            report = incremental.append("lanes", batch)
            assert report.tree_maintained
        result_inc = incremental.qut("lanes", window)
        # The one build above is the only one — appends never bulk-load.
        assert ReTraTree.build_calls == builds_before + 1

        rebuilt = HermesEngine.in_memory()
        rebuilt.load_mod("lanes", mod)
        result_full = rebuilt.qut("lanes", window, params=params)

        assert qut_similarity(result_inc, result_full) >= 0.6
        # Every trajectory of the concatenated dataset is indexed.
        tree = incremental.retratree("lanes")
        assert tree.stats.trajectories_inserted == len(mod)

    def test_append_report_counters(self):
        mod, base, batches = split_scenario()
        engine = HermesEngine.in_memory()
        engine.load_mod("lanes", MOD(name="lanes", trajectories=base))
        engine.qut("lanes", full_window(mod), params=explicit_params(mod))
        report = engine.append("lanes", batches[0])
        assert report.trajectories == len(batches[0])
        assert report.points == sum(t.num_points for t in batches[0])
        assert report.tree_maintained
        counters = report.tree_counters
        assert counters["trajectories"] == len(batches[0])
        assert counters["pieces"] == counters["assigned"] + counters["unclustered"]
        assert counters["subchunks_touched"] >= 1

    def test_append_swaps_in_a_new_frame_and_leaves_the_old_one(self):
        mod, base, batches = split_scenario()
        engine = HermesEngine.in_memory()
        engine.load_mod("lanes", MOD(name="lanes", trajectories=base))
        frame_before = engine.frame("lanes")
        columns_before = [getattr(frame_before, col).copy() for col in ("xs", "ys", "ts", "offsets")]
        for batch in batches:
            engine.append("lanes", batch)
        frame = engine.frame("lanes")
        assert frame is not frame_before
        assert frame_before.keys == [t.key for t in base]
        for col, before in zip(("xs", "ys", "ts", "offsets"), columns_before):
            assert np.array_equal(getattr(frame_before, col), before)
        reference = MODFrame.from_trajectories([*base, *(t for batch in batches for t in batch)])
        assert frame.keys == reference.keys
        for col in ("xs", "ys", "ts", "offsets", "tmins", "xmaxs"):
            assert np.array_equal(getattr(frame, col), getattr(reference, col))

    def test_duplicate_key_rejected(self):
        mod, base, _ = split_scenario()
        engine = HermesEngine.in_memory()
        engine.load_mod("lanes", MOD(name="lanes", trajectories=base))
        with pytest.raises(ValueError, match="already exists"):
            engine.append("lanes", [base[0]])

    def test_unknown_dataset_rejected(self):
        engine = HermesEngine.in_memory()
        with pytest.raises(KeyError):
            engine.append("ghost", [])


class TestDurableAppend:
    def test_cold_engine_recovers_base_plus_deltas_identically(self, tmp_path):
        """A cold engine sees base + every committed delta and answers QuT
        bit-identically to the warm maintained tree, with no rebuild."""
        mod, base, batches = split_scenario()
        params = explicit_params(mod)
        window = full_window(mod)
        root = tmp_path / "engine"

        warm = HermesEngine.on_disk(root)
        warm.load_mod("lanes", MOD(name="lanes", trajectories=base))
        warm.qut("lanes", window, params=params)
        for batch in batches:
            assert warm.append("lanes", batch).persisted
        warm_result = warm.qut("lanes", window)
        warm.close()

        builds = ReTraTree.build_calls
        snapshots = MODFrame.from_mod_calls
        cold = HermesEngine.on_disk(root)
        assert len(cold.get_mod("lanes")) == len(mod)
        cold_result = cold.qut("lanes", window)
        assert ReTraTree.build_calls == builds, "cold recovery re-ran the bulk load"
        assert MODFrame.from_mod_calls == snapshots
        assert membership_signature(cold_result) == membership_signature(warm_result)
        assert cold.retratree("lanes").recovered

    def test_repersist_stages_fresh_reps_partition(self, tmp_path):
        """Re-serialising a maintained tree must never rewrite the reps
        partition the committed manifest references: each persist stages a
        fresh generation-suffixed partition and sweeps the old one only
        after the manifest commit, so a crash in between leaves the old
        manifest's representative RIDs resolving against untouched
        records."""
        import json

        mod, base, batches = split_scenario()
        root = tmp_path / "engine"
        engine = HermesEngine.on_disk(root)
        engine.load_mod("lanes", MOD(name="lanes", trajectories=base))
        engine.qut("lanes", full_window(mod), params=explicit_params(mod))

        manifest_path = root / "lanes" / "manifest.json"
        before = json.loads(manifest_path.read_text())["tree"]["reps_partition"]
        engine.append("lanes", batches[0])
        after = json.loads(manifest_path.read_text())["tree"]["reps_partition"]
        assert after != before, "append rewrote the committed reps partition in place"
        # The superseded partition was reclaimed after the commit; only the
        # committed one remains on disk.
        remaining = sorted(p.stem for p in (root / "lanes").glob("lanes__reps*.part"))
        assert remaining == [after]

    def test_crash_between_stage_and_commit_recovers_pre_append(
        self, tmp_path, monkeypatch
    ):
        """A kill after the delta is staged but before the manifest commit
        must leave a cold engine serving the pre-append generation."""
        mod, base, batches = split_scenario()
        params = explicit_params(mod)
        window = full_window(mod)
        root = tmp_path / "engine"

        warm = HermesEngine.on_disk(root)
        warm.load_mod("lanes", MOD(name="lanes", trajectories=base))
        pre_result = warm.qut("lanes", window, params=params)

        def crash(self, manifest):
            raise RuntimeError("simulated crash before manifest commit")

        monkeypatch.setattr(StorageManager, "write_manifest", crash)
        with pytest.raises(RuntimeError, match="simulated crash"):
            warm.append("lanes", batches[0])
        monkeypatch.undo()
        warm.close()

        cold = HermesEngine.on_disk(root)
        assert len(cold.get_mod("lanes")) == len(base)
        cold_result = cold.qut("lanes", window, params=params)
        # The recovered answer equals the committed pre-append answer; the
        # torn tree partitions may force a rebuild, never a wrong answer.
        assert membership_signature(cold_result) == membership_signature(pre_result)

    def test_unmaintained_persisted_tree_reported_stale_then_rebuilt(self, tmp_path):
        """Satellite regression: an append in a process that never loaded
        the persisted tree leaves the on-disk tree manifest stale; the
        staleness is explicit in artifact_status and the next retratree
        call rebuilds against the full data instead of recovering it."""
        mod, base, batches = split_scenario()
        params = explicit_params(mod)
        window = full_window(mod)
        root = tmp_path / "engine"

        first = HermesEngine.on_disk(root)
        first.load_mod("lanes", MOD(name="lanes", trajectories=base))
        first.qut("lanes", window, params=params)  # builds + persists the tree
        first.close()

        second = HermesEngine.on_disk(root)
        assert second.artifact_status("lanes")["tree_stale"] is False
        # Append WITHOUT touching the tree: SQL INSERT of a brand-new
        # trajectory takes the append path; the persisted tree is not
        # loaded, so its manifest entry goes stale.
        second.append("lanes", [Trajectory("late", "0", [0.0, 1.0], [0.0, 1.0],
                                           [mod.period.tmin, mod.period.tmax])])
        status = second.artifact_status("lanes")
        assert status["tree_stale"] is True
        assert status["delta_partitions"] == 1
        assert status["append_batches"] == 1

        builds = ReTraTree.build_calls
        tree = second.retratree("lanes")
        assert ReTraTree.build_calls == builds + 1, "stale tree must rebuild"
        assert not tree.recovered
        assert tree.stats.trajectories_inserted == len(base) + 1
        assert second.artifact_status("lanes")["tree_stale"] is False


class TestAppendEdgeCases:
    def test_empty_batch_is_a_complete_noop(self, tmp_path):
        mod, base, _ = split_scenario()
        engine = HermesEngine.on_disk(tmp_path / "engine")
        engine.load_mod("lanes", MOD(name="lanes", trajectories=base))
        generation = engine.dataset_generation("lanes")
        report = engine.append("lanes", [])
        assert report.trajectories == 0 and not report.persisted
        assert engine.dataset_generation("lanes") == generation
        assert engine.artifact_status("lanes")["delta_partitions"] == 0

    def test_batch_before_lifespan_opens_leading_chunk(self):
        """Points entirely before the dataset's lifespan open a fresh
        leading chunk (negative chunk index) instead of corrupting the
        grid."""
        mod, base, _ = split_scenario()
        params = explicit_params(mod)
        window = full_window(mod)
        engine = HermesEngine.in_memory()
        engine.load_mod("lanes", MOD(name="lanes", trajectories=base))
        engine.qut("lanes", window, params=params)
        tree = engine.retratree("lanes")
        chunks_before = {sc.chunk_idx for sc in tree.subchunks()}
        tmin = mod.period.tmin
        early = Trajectory(
            "early", "0", [0.0, 5.0, 10.0], [0.0, 5.0, 10.0],
            [tmin - 300.0, tmin - 200.0, tmin - 100.0],
        )
        report = engine.append("lanes", [early])
        assert report.tree_maintained
        assert report.tree_counters["subchunks_new"] >= 1
        new_chunks = {sc.chunk_idx for sc in tree.subchunks()} - chunks_before
        assert new_chunks and all(idx < min(chunks_before) for idx in new_chunks)
        # The early window now answers from the leading chunk.
        early_result = engine.qut("lanes", Period(tmin - 300.0, tmin - 100.0))
        keys = {m.parent_key for m in early_result.outliers}
        for cluster in early_result.clusters:
            keys.update(m.parent_key for m in cluster.members)
        assert ("early", "0") in keys

    def test_open_cursor_keeps_pre_append_snapshot(self):
        """A cursor streaming a dataset is not disturbed by a concurrent
        append: it finishes its pre-append view, while a new cursor sees
        the appended rows."""
        conn = repro.connect()
        conn.execute("CREATE DATASET lanes")
        conn.executemany(
            "INSERT INTO lanes VALUES (?, ?, ?, ?, ?)",
            [("a", "0", float(i), 0.0, float(i)) for i in range(50)],
        )
        streaming = conn.execute("SELECT obj_id, t FROM lanes")
        first_page = streaming.fetchmany(10)
        assert len(first_page) == 10
        report = conn.dataset("lanes").append(
            [Trajectory("b", "0", [0.0, 1.0], [0.0, 1.0], [0.0, 1.0])]
        )
        assert report.trajectories == 1
        rest = streaming.fetchall()
        seen = {row["obj_id"] for row in first_page + rest}
        assert seen == {"a"}, "open cursor must keep its pre-append snapshot"
        assert len(first_page) + len(rest) == 50
        fresh = conn.execute("SELECT obj_id FROM lanes").fetchall()
        assert {row["obj_id"] for row in fresh} == {"a", "b"}

    def test_failed_tree_maintenance_evicts_caches_and_bumps_generation(
        self, monkeypatch
    ):
        """If the tree chokes mid-maintenance the half-mutated tree must not
        keep serving: it is evicted so the next query rebuilds from the
        extended frame — and the generation still moves, because the
        dataset itself did change."""
        mod, base, batches = split_scenario()
        engine = HermesEngine.in_memory()
        engine.load_mod("lanes", MOD(name="lanes", trajectories=base))
        window = full_window(mod)
        engine.qut("lanes", window, params=explicit_params(mod))
        generation = engine.dataset_generation("lanes")

        def boom(self, delta):
            raise RuntimeError("simulated maintenance failure")

        monkeypatch.setattr(ReTraTree, "append", boom)
        with pytest.raises(RuntimeError, match="simulated maintenance"):
            engine.append("lanes", batches[0])
        monkeypatch.undo()

        assert engine.dataset_generation("lanes") > generation
        status = engine.artifact_status("lanes")
        assert status["tree_cached"] is False
        # The extended dataset is intact and the next query rebuilds cleanly.
        assert len(engine.get_mod("lanes")) == len(base) + len(batches[0])
        result = engine.qut("lanes", window, params=explicit_params(mod))
        assert result.num_clusters >= 0
        tree = engine.retratree("lanes")
        assert tree.stats.trajectories_inserted == len(base) + len(batches[0])

    def test_buffered_points_survive_interleaved_append(self):
        """Points buffered by INSERT must survive an interleaved
        engine.append — an append only adds state, unlike a replacement,
        so the incomplete trajectory completes on the next INSERT."""
        conn = repro.connect()
        cur = conn.cursor()
        cur.execute("CREATE DATASET d")
        cur.execute("INSERT INTO d VALUES ('b', '0', 0.0, 2.0, 0.0)")  # 1 point
        conn.dataset("d").append(
            [Trajectory("a", "0", [0.0, 1.0], [0.0, 1.0], [0.0, 10.0])]
        )
        cur.execute("INSERT INTO d VALUES ('b', '0', 1.0, 2.0, 10.0)")  # completes b
        keys = {row["obj_id"] for row in cur.execute("SELECT obj_id FROM d").fetchall()}
        assert keys == {"a", "b"}, "interleaved append discarded buffered points"

    def test_prepared_count_recomputes_after_append(self):
        """Satellite: appends bump the generation token, so memoised
        prepared-statement COUNTs recompute instead of serving stale rows."""
        conn = repro.connect()
        conn.execute("CREATE DATASET lanes")
        conn.executemany(
            "INSERT INTO lanes VALUES (?, ?, ?, ?, ?)",
            [("a", "0", float(i), 0.0, float(i)) for i in range(4)],
        )
        stmt = conn.prepare("SELECT COUNT(*) FROM lanes")
        assert stmt.execute().fetchall() == [{"count": 4}]
        assert stmt.execute().fetchall() == [{"count": 4}]  # memoised
        conn.dataset("lanes").append(
            [Trajectory("b", "0", [0.0, 1.0], [0.0, 1.0], [0.0, 1.0])]
        )
        assert stmt.execute().fetchall() == [{"count": 6}]

    def test_sql_insert_append_does_not_invalidate_tree(self):
        """INSERT of new trajectories maintains the cached tree in place —
        the historical invalidate-and-rebuild is gone from this path."""
        mod, base, _ = split_scenario()
        engine = HermesEngine.in_memory()
        engine.load_mod("lanes", MOD(name="lanes", trajectories=base))
        engine.qut("lanes", full_window(mod), params=explicit_params(mod))
        tree_before = engine.retratree("lanes")
        builds = ReTraTree.build_calls
        executor = engine.plan_executor()
        from repro.sql.plan import InsertPlan

        tmin = mod.period.tmin
        list(executor.execute(InsertPlan("lanes", (
            ("fresh", "0", 0.0, 0.0, tmin), ("fresh", "0", 1.0, 1.0, tmin + 10.0),
        ))))
        assert engine.retratree("lanes") is tree_before
        assert ReTraTree.build_calls == builds
        assert engine.artifact_status("lanes")["append_batches"] == 1

    def test_sql_insert_existing_key_falls_back_to_rebuild(self):
        """Adding points to an existing trajectory is a replacement: the
        tree cache is invalidated, exactly as before."""
        mod, base, _ = split_scenario()
        engine = HermesEngine.in_memory()
        engine.load_mod("lanes", MOD(name="lanes", trajectories=base))
        engine.qut("lanes", full_window(mod), params=explicit_params(mod))
        existing = base[0]
        executor = engine.plan_executor()
        from repro.sql.plan import InsertPlan

        later = float(existing.ts[-1]) + 5.0
        list(executor.execute(InsertPlan("lanes", (
            (existing.obj_id, existing.traj_id, 0.0, 0.0, later),
        ))))
        status = engine.artifact_status("lanes")
        assert status["tree_cached"] is False, "rebuild path must invalidate"
        assert status["append_batches"] == 0
        extended = engine.get_mod("lanes").get(existing.key)
        assert extended.num_points == existing.num_points + 1
