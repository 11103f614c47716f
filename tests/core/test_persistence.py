"""Durability tests: the on-disk engine persists and recovers across restarts.

Covers the PR-3 tentpole — ``HermesEngine.on_disk`` serialises the dataset
archive and the ReTraTree structure through the storage catalog, and a cold
process recovers both, answering ``qut`` bit-identically to the warm engine
without re-running S2T — plus the drop/replace disk-reclaim satellite.
"""

import json

import numpy as np
import pytest

from repro.core.engine import HermesEngine
from repro.core.session import ProgressiveSession
from repro.datagen import lane_scenario
from repro.hermes.frame import MODFrame
from repro.hermes.mod import MOD
from repro.hermes.types import Period
from repro.qut.params import QuTParams
from repro.qut.retratree import ReTraTree
from repro.storage.catalog import MANIFEST_FILENAME

from tests.conftest import membership_signature, run_sql


def exact_answer(result):
    """Memberships plus every representative's key and sample bytes."""
    return membership_signature(result), [
        (c.representative.key, c.representative.traj.xs.tobytes(),
         c.representative.traj.ts.tobytes())
        for c in result.clusters
    ]


def query_window(mod, lo=0.2, hi=0.7):
    period = mod.period
    return Period(
        period.tmin + lo * period.duration, period.tmin + hi * period.duration
    )


@pytest.fixture
def warm(tmp_path, lanes_small):
    """A warm on-disk engine with a persisted dataset and ReTraTree."""
    mod, _ = lanes_small
    engine = HermesEngine.on_disk(tmp_path / "engine")
    engine.load_mod("lanes", mod)
    engine.s2t("lanes")
    engine.retratree("lanes")
    return engine, mod


class TestRestartRecovery:
    def test_cold_engine_recovers_catalogued_datasets(self, warm, tmp_path):
        engine, mod = warm
        cold = HermesEngine.on_disk(tmp_path / "engine")
        assert cold.datasets() == ["lanes"]
        recovered = cold.get_mod("lanes")
        assert len(recovered) == len(mod)
        # Trajectory content and registration order round-trip exactly.
        for original, back in zip(mod, recovered):
            assert original.key == back.key
            assert np.array_equal(original.xs, back.xs)
            assert np.array_equal(original.ys, back.ys)
            assert np.array_equal(original.ts, back.ts)

    def test_cold_qut_equals_warm_without_rebuild(self, warm, tmp_path):
        """The tentpole acceptance check: equality + no-rebuild counters."""
        engine, mod = warm
        window = query_window(mod)
        warm_result = engine.qut("lanes", window)

        builds_before = ReTraTree.build_calls
        snapshots_before = MODFrame.from_mod_calls
        cold = HermesEngine.on_disk(tmp_path / "engine")
        cold_result = cold.qut("lanes", window)

        # No bulk load and no whole-MOD snapshot happened anywhere in the
        # recovery path.
        assert ReTraTree.build_calls == builds_before
        assert MODFrame.from_mod_calls == snapshots_before
        # A recovered tree performed zero maintenance work.
        stats = cold.retratree("lanes").stats
        assert stats.trajectories_inserted == 0
        assert stats.s2t_runs == 0
        assert cold.retratree("lanes").recovered

        # Cluster-for-cluster equality, including representative samples.
        assert membership_signature(cold_result) == membership_signature(warm_result)
        assert cold_result.num_clusters == warm_result.num_clusters
        for mine, theirs in zip(cold_result.clusters, warm_result.clusters):
            assert mine.representative.key == theirs.representative.key
            assert np.array_equal(
                mine.representative.traj.xs, theirs.representative.traj.xs
            )
            assert np.array_equal(
                mine.representative.traj.ts, theirs.representative.traj.ts
            )
        assert cold_result.extras["tree_recovered"]
        assert not warm_result.extras["tree_recovered"]

    def test_cold_engine_answers_sql(self, warm, tmp_path):
        engine, mod = warm
        cold = HermesEngine.on_disk(tmp_path / "engine")
        rows = run_sql(cold, "SELECT SUMMARY(lanes)")
        assert rows[0]["trajectories"] == len(mod)
        shown = run_sql(cold, "SHOW DATASETS")
        assert shown == [{"dataset": "lanes", "persisted": True}]
        period = mod.period
        result = run_sql(cold, f"SELECT QUT(lanes, {period.tmin}, {period.tmax})")
        assert result[-1]["cluster_id"] == "outliers"

    def test_recovered_tree_accepts_new_insertions(self, warm, tmp_path):
        engine, mod = warm
        cold = HermesEngine.on_disk(tmp_path / "engine")
        tree = cold.retratree("lanes")
        extra = next(iter(mod))
        tree.insert_trajectory(
            type(extra)("newcomer", "0", extra.xs, extra.ys, extra.ts)
        )
        assert tree.stats.trajectories_inserted == 1

    def test_params_mismatch_triggers_rebuild(self, warm, tmp_path):
        engine, _ = warm
        persisted = engine.retratree("lanes")
        cold = HermesEngine.on_disk(tmp_path / "engine")
        builds_before = ReTraTree.build_calls
        tree = cold.retratree("lanes", params=QuTParams(gamma=3))
        assert ReTraTree.build_calls == builds_before + 1
        assert not tree.recovered
        assert tree.params.gamma == 3
        assert persisted.params.gamma == 2

    def test_warm_cache_honours_explicit_params_like_cold(self, warm):
        """Warm and cold processes answer identical retratree calls
        identically: an explicit params mismatch rebuilds the cached tree,
        params=None accepts it."""
        engine, _ = warm
        default_tree = engine.retratree("lanes")
        assert engine.retratree("lanes") is default_tree  # None accepts
        custom = engine.retratree("lanes", params=QuTParams(gamma=3))
        assert custom is not default_tree
        assert custom.params.gamma == 3
        # Same explicit params again: cached tree satisfies the request.
        assert engine.retratree("lanes", params=QuTParams(gamma=3)) is custom

    def test_resolved_params_pin_the_same_tree(self, warm, tmp_path):
        """Passing back ``tree.params`` (the resolved form the engine itself
        reports) must not trigger a redundant rebuild, warm or cold."""
        engine, _ = warm
        tree = engine.retratree("lanes")
        builds_before = ReTraTree.build_calls
        assert engine.retratree("lanes", params=tree.params) is tree
        cold = HermesEngine.on_disk(tmp_path / "engine")
        recovered = cold.retratree("lanes", params=tree.params)
        assert recovered.recovered
        assert ReTraTree.build_calls == builds_before

    def test_datasets_listed_without_materialising(self, warm, tmp_path):
        """Catalog recovery is lazy: listing datasets reads manifests only;
        the archive decodes on first access."""
        engine, mod = warm
        cold = HermesEngine.on_disk(tmp_path / "engine")
        assert cold.datasets() == ["lanes"]
        storage = cold.catalog.storage("lanes")
        assert storage.io_stats()["pages_read"] == 0  # no archive page touched yet
        assert not cold.artifact_status("lanes")["frame_cached"]
        assert len(cold.get_mod("lanes")) == len(mod)
        assert storage.io_stats()["pages_read"] > 0
        assert cold.artifact_status("lanes")["frame_cached"]

    def test_corrupt_archive_fails_lazily_with_clear_error(self, warm, tmp_path):
        """A manifest whose archive is incomplete must not brick engine
        construction; the damaged dataset fails on first access instead."""
        import json

        from repro.storage.catalog import manifest_checksum

        engine, _ = warm
        manifest_path = tmp_path / "engine" / "lanes" / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        manifest["row_keys"].append(["ghost", "0"])
        # Re-stamp the integrity CRC: this test is about a *logically*
        # incomplete archive behind an intact manifest, not manifest
        # corruption (which recovery withholds outright).
        manifest["manifest_crc"] = manifest_checksum(manifest)
        manifest_path.write_text(json.dumps(manifest))

        cold = HermesEngine.on_disk(tmp_path / "engine")  # must not raise
        assert cold.datasets() == ["lanes"]
        with pytest.raises(RuntimeError, match="incomplete"):
            cold.get_mod("lanes")
        # The diagnostic repeats on retry — the dataset does not silently
        # degrade to "unknown".
        assert cold.datasets() == ["lanes"]
        with pytest.raises(RuntimeError, match="incomplete"):
            cold.get_mod("lanes")

    def test_damaged_tree_partition_degrades_to_rebuild(self, warm, tmp_path):
        """A corrupt/missing tree partition must not make queries fail
        permanently — recovery falls through to a (re-persisted) rebuild."""
        engine, mod = warm
        reps_files = sorted((tmp_path / "engine" / "lanes").glob("lanes__reps*.part"))
        assert reps_files, "no representatives partition was persisted"
        for reps in reps_files:
            reps.unlink()

        cold = HermesEngine.on_disk(tmp_path / "engine")
        builds_before = ReTraTree.build_calls
        tree = cold.retratree("lanes")  # must not raise
        assert not tree.recovered
        assert ReTraTree.build_calls == builds_before + 1
        result = cold.qut("lanes", query_window(mod))
        assert result.num_clusters >= 0  # query serves normally

    def test_tree_params_with_a_retired_key_degrade_to_rebuild(self, warm, tmp_path):
        """Stores written before ``S2TParams.use_index`` was removed carry it
        in the tree's params; such a tree is not reopened, and the rebuild
        answers exactly like a fresh build."""
        import json

        from repro.storage.catalog import manifest_checksum

        engine, mod = warm
        window = query_window(mod)
        engine.close()
        manifest_path = tmp_path / "engine" / "lanes" / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        for section in ("params", "raw_params"):
            manifest["tree"][section]["s2t"]["use_index"] = True
        manifest["manifest_crc"] = manifest_checksum(manifest)
        manifest_path.write_text(json.dumps(manifest))

        cold = HermesEngine.on_disk(tmp_path / "engine")
        builds_before = ReTraTree.build_calls
        reopened = cold.qut("lanes", window)
        assert ReTraTree.build_calls == builds_before + 1
        assert not cold.retratree("lanes").recovered
        fresh = HermesEngine.in_memory()
        fresh.load_mod("lanes", mod)
        assert exact_answer(reopened) == exact_answer(fresh.qut("lanes", window))

    def test_store_with_a_retired_shards_section_opens_and_rebuilds(self, warm, tmp_path):
        """What ``retratree(shards=N)`` persisted before there was one index:
        ``tree`` null, a ``shards`` section of per-shard trees over
        ``<dataset>_s<i>_…`` partitions.  Such a store opens and serves its
        dataset; the section is not read, so the index rebuilds on first
        use, and the commit that follows sweeps the old partitions and drops
        the key."""
        import json

        from repro.storage.catalog import manifest_checksum
        from repro.storage.durable import manifest_partitions
        from repro.storage.fsck import fsck_store

        engine, mod = warm
        window = query_window(mod)
        expected = membership_signature(engine.qut("lanes", window))
        engine.close()
        directory = tmp_path / "engine" / "lanes"
        manifest = json.loads((directory / MANIFEST_FILENAME).read_text())
        text = json.dumps(manifest["tree"])
        for part in [p for p, _, role in manifest_partitions(manifest) if role == "tree"]:
            shard_part = part.replace("lanes_", "lanes_s0_", 1)
            (directory / f"{part}.part").rename(directory / f"{shard_part}.part")
            manifest["checksums"][shard_part] = manifest["checksums"].pop(part)
            text = text.replace(json.dumps(part), json.dumps(shard_part))
        shard_tree = json.loads(text)
        shard_tree["name"] = "lanes_s0"
        manifest["tree"] = None
        manifest["shards"] = {
            "count": 3,
            "plan": {"count": 3, "n_chunks": 1, "ranges": [[None, None]]},
            "origin": shard_tree["origin"],
            "params": shard_tree["params"],
            "raw_params": shard_tree["raw_params"],
            "dataset_state": shard_tree.pop("dataset_state"),
            "trees": [shard_tree],
        }
        manifest["manifest_crc"] = manifest_checksum(manifest)
        (directory / MANIFEST_FILENAME).write_text(json.dumps(manifest))

        cold = HermesEngine.on_disk(tmp_path / "engine")
        assert cold.datasets() == ["lanes"]
        assert len(cold.get_mod("lanes")) == len(mod)
        assert not cold.artifact_status("lanes")["tree_persisted"]
        builds_before = ReTraTree.build_calls
        assert membership_signature(cold.qut("lanes", window)) == expected
        assert ReTraTree.build_calls == builds_before + 1
        assert not cold.retratree("lanes").recovered
        cold.close()

        rewritten = json.loads((directory / MANIFEST_FILENAME).read_text())
        assert "shards" not in rewritten and isinstance(rewritten["tree"], dict)
        assert not list(directory.glob("lanes_s0_*"))
        assert fsck_store(tmp_path / "engine").issues == []

    def test_corrupt_manifest_skips_only_that_dataset(self, warm, tmp_path, flights_small):
        """Unparseable JSON in one manifest must not brick construction or
        hide the healthy datasets."""
        engine, _ = warm
        flights, _ = flights_small
        engine.load_mod("flights", flights)
        (tmp_path / "engine" / "flights" / MANIFEST_FILENAME).write_text("{ corrupt")

        cold = HermesEngine.on_disk(tmp_path / "engine")
        assert cold.datasets() == ["lanes"]
        assert len(cold.get_mod("lanes")) > 0

    def test_progressive_session_resumes_cold(self, warm, tmp_path):
        engine, mod = warm
        cold = HermesEngine.on_disk(tmp_path / "engine")
        session = ProgressiveSession(engine=cold, dataset="lanes")
        session.query(query_window(mod))
        rows = session.evolution()
        assert rows[0]["recovered"] is True


@pytest.fixture
def archived(tmp_path):
    """A closed store: bulk-loaded tree + 3 appended deltas.

    Yields ``(root, window, expected, rebuilt)`` — the warm engine's answer
    over the maintained tree, which a reopened tree must repeat exactly, and
    a callable giving what a bulk load over base + deltas answers, which is
    what a store too damaged to reopen falls back to.
    """
    mod, _ = lane_scenario(n_trajectories=30, n_lanes=3, n_samples=40, seed=11)
    trajs = mod.trajectories()
    root = tmp_path / "archive"
    engine = HermesEngine.on_disk(root)
    engine.load_mod("lanes", MOD(name="lanes", trajectories=trajs[:21]))
    engine.retratree("lanes")
    for i in range(21, 30, 3):
        assert engine.append("lanes", trajs[i : i + 3]).persisted
    window = query_window(mod)
    expected = exact_answer(engine.qut("lanes", window))
    engine.close()

    def rebuilt():
        fresh = HermesEngine.in_memory()
        fresh.load_mod("lanes", mod)
        return exact_answer(fresh.qut("lanes", window))

    return root, window, expected, rebuilt


def tree_section(root):
    return json.loads((root / "lanes" / MANIFEST_FILENAME).read_text())["tree"]


def member_partition_files(root):
    return [
        root / "lanes" / f"{entry['partition']}.part"
        for sc in tree_section(root)["subchunks"]
        for entry in sc["entries"]
    ]


class TestColdOpenDecodesNothing:
    """Reopening reads slot directories and the manifest, not member records —
    and every guard that used to ride on the decode still bites."""

    def test_reopen_decodes_one_record_per_entry(self, archived, monkeypatch):
        import repro.qut.retratree as retratree

        root, window, expected, _rebuilt = archived
        section = tree_section(root)
        n_entries = sum(len(sc["entries"]) for sc in section["subchunks"])
        assert n_entries > 0
        decoded = []  # one item per decoded record, whatever the batching
        real_decode = retratree.decode_records
        monkeypatch.setattr(
            retratree,
            "decode_records",
            lambda raws: decoded.extend([1] * len(raws)) or real_decode(raws),
        )

        builds = ReTraTree.build_calls
        cold = HermesEngine.on_disk(root)
        tree = cold.retratree("lanes")
        assert tree.recovered
        assert len(decoded) == n_entries  # the representatives, nothing else
        assert tree.stats.partitions_decoded == 0
        # PartitionInfo.record_count is caller tracked: reopen restores it
        # for every partition the section names.
        storage = tree.storage
        assert storage.get(section["reps_partition"]).record_count == n_entries
        for sc_data, subchunk in zip(section["subchunks"], tree.subchunks()):
            assert (
                storage.get(subchunk.unclustered_partition).record_count
                == subchunk.unclustered_count
                == sc_data["unclustered_count"]
            )
            for entry_data, entry in zip(sc_data["entries"], subchunk.entries):
                assert (
                    storage.get(entry.partition_name).record_count
                    == entry.member_count
                    == entry_data["member_count"]
                )
                assert list(entry.bbox.as_tuple()) == entry_data["bbox"]

        result = cold.qut("lanes", window)
        assert result.extras["tree_recovered"]
        assert exact_answer(result) == expected
        assert len(decoded) > n_entries  # the query is what decodes members
        assert ReTraTree.build_calls == builds
        cold.close()

    def test_flipped_byte_in_a_member_page_rebuilds_and_answers(self, archived):
        root, window, _expected, rebuilt = archived
        victim = member_partition_files(root)[0]
        data = bytearray(victim.read_bytes())
        data[-20] ^= 0xFF  # inside the record area of the first page
        victim.write_bytes(bytes(data))

        builds = ReTraTree.build_calls
        cold = HermesEngine.on_disk(root)
        result = cold.qut("lanes", window)
        assert not result.extras["tree_recovered"]
        assert ReTraTree.build_calls == builds + 1
        assert exact_answer(result) == rebuilt()
        cold.close()

    @pytest.mark.parametrize("damage", ["deleted", "truncated_to_zero_pages"])
    def test_lost_member_partition_rebuilds_and_fsck_names_it(self, archived, damage):
        from repro.storage.fsck import fsck_store

        root, window, _expected, rebuilt = archived
        victim = member_partition_files(root)[-1]
        if damage == "deleted":
            victim.unlink()
        else:
            victim.write_bytes(b"")
        assert any(issue.path == str(victim) for issue in fsck_store(root).errors)

        builds = ReTraTree.build_calls
        cold = HermesEngine.on_disk(root)
        result = cold.qut("lanes", window)
        assert not result.extras["tree_recovered"]
        assert ReTraTree.build_calls == builds + 1
        assert exact_answer(result) == rebuilt()
        cold.close()

    def test_a_bug_in_reopen_is_not_mistaken_for_a_damaged_store(self, archived, monkeypatch):
        """Only what a damaged or stale store can raise degrades to a
        rebuild; a programming error escapes ``engine.retratree``."""
        root, _window, _expected, _rebuilt = archived

        def buggy(cls, manifest, storage):
            raise AttributeError("'NoneType' object has no attribute 'heapfile'")

        monkeypatch.setattr(ReTraTree, "from_manifest", classmethod(buggy))
        cold = HermesEngine.on_disk(root)
        builds = ReTraTree.build_calls
        with pytest.raises(AttributeError, match="heapfile"):
            cold.retratree("lanes")
        assert ReTraTree.build_calls == builds
        cold.close()


class TestDropReclaimsDisk:
    def test_drop_deletes_partition_files(self, warm, tmp_path):
        engine, _ = warm
        dataset_dir = tmp_path / "engine" / "lanes"
        assert any(dataset_dir.glob("*.part"))
        engine.drop("lanes")
        assert not dataset_dir.exists()
        # A cold process no longer sees the dataset.
        assert HermesEngine.on_disk(tmp_path / "engine").datasets() == []

    def test_drop_then_reload_same_name_sees_no_stale_state(self, warm, tmp_path):
        """The regression of the drop-leak satellite: a same-named successor
        must not inherit the predecessor's heapfile records."""
        engine, _ = warm
        engine.drop("lanes")
        smaller, _ = lane_scenario(n_trajectories=8, n_lanes=2, n_samples=30, seed=3)
        engine.load_mod("lanes", smaller)
        tree = engine.retratree("lanes")
        assert tree.stats.trajectories_inserted == len(smaller)
        # Cold recovery of the successor sees only the successor.
        cold = HermesEngine.on_disk(tmp_path / "engine")
        assert len(cold.get_mod("lanes")) == len(smaller)
        assert cold.retratree("lanes").recovered

    def test_replace_via_load_mod_reclaims_previous_state(self, warm, tmp_path):
        import json

        engine, mod = warm
        files_before = {p.name for p in (tmp_path / "engine" / "lanes").glob("*.part")}
        assert len(files_before) > 1  # archive + tree partitions
        smaller, _ = lane_scenario(n_trajectories=8, n_lanes=2, n_samples=30, seed=3)
        engine.load_mod("lanes", smaller)
        remaining = {p.name for p in (tmp_path / "engine" / "lanes").glob("*.part")}
        # Only the fresh dataset archive survives the replacement, and it is
        # exactly the partition the committed manifest references.
        manifest = json.loads(
            (tmp_path / "engine" / "lanes" / MANIFEST_FILENAME).read_text()
        )
        assert remaining == {f"{manifest['frame_partition']}.part"}
        assert not remaining & files_before  # staged into a fresh partition

    def test_rebuild_drops_stale_tree_partitions(self, warm, tmp_path):
        engine, _ = warm
        first = engine.retratree("lanes")
        second = engine.retratree("lanes", rebuild=True)
        assert second is not first
        # The rebuilt tree is the persisted one now.
        cold = HermesEngine.on_disk(tmp_path / "engine")
        tree = cold.retratree("lanes")
        assert tree.recovered
        assert tree.num_clusters == second.num_clusters

    def test_sql_drop_reclaims_disk(self, warm, tmp_path):
        engine, _ = warm
        run_sql(engine, "DROP DATASET lanes")
        assert not (tmp_path / "engine" / "lanes").exists()


class TestManifestHygiene:
    def test_manifest_written_on_load(self, tmp_path, lanes_small):
        mod, _ = lanes_small
        engine = HermesEngine.on_disk(tmp_path / "engine")
        engine.load_mod("lanes", mod)
        assert (tmp_path / "engine" / "lanes" / MANIFEST_FILENAME).exists()
        assert engine.is_persisted("lanes")

    def test_v4_layout_is_pinned(self, tmp_path, lanes_small):
        """The on-disk format, asserted once: key sets and partition names.

        A refactor that renames, adds or drops a manifest key — or changes
        how partitions are named — changes what an older build's store looks
        like to a newer one; it must show up here, deliberately.
        """
        import json
        import re

        mod, _ = lanes_small
        engine = HermesEngine.on_disk(tmp_path / "engine")
        engine.load_mod("lanes", mod)
        engine.retratree("lanes")
        some = list(mod)[0]
        engine.append("lanes", [type(some)("late", "0", some.xs, some.ys, some.ts)])
        path = tmp_path / "engine" / "lanes" / MANIFEST_FILENAME
        single = json.loads(path.read_text())
        engine.retratree("lanes", shards=2, rebuild=True)
        fanned = json.loads(path.read_text())
        engine.close()

        root_keys = {
            "format_version", "dataset", "frame_partition", "row_keys", "deltas",
            "tree", "checksums", "manifest_crc",
        }
        tree_keys = {
            "name", "origin", "next_cluster_id", "params", "raw_params", "chunk_range",
            "reps_partition", "reps_count", "subchunks",
        }
        assert set(single) == root_keys and set(fanned) == root_keys
        assert single["format_version"] == 4
        assert set(single["deltas"][0]) == {"partition", "row_keys"}
        # One index section, whatever fan-out built the tree.
        for manifest in (single, fanned):
            assert set(manifest["tree"]) == tree_keys | {"dataset_state"}
            assert manifest["tree"]["chunk_range"] is None
        subchunk = next(sc for sc in single["tree"]["subchunks"] if sc["entries"])
        assert set(subchunk) == {
            "chunk_idx", "sub_idx", "period",
            "unclustered_partition", "unclustered_count", "entries",
        }
        assert set(subchunk["entries"][0]) == {
            "cluster_id", "partition", "member_count", "bbox", "representative_rid",
        }

        assert re.fullmatch(r"lanes__dataset_g\d+", single["frame_partition"])
        assert re.fullmatch(r"lanes__dataset_g\d+", single["deltas"][0]["partition"])
        assert re.fullmatch(r"lanes__reps_g\d+", single["tree"]["reps_partition"])
        assert re.fullmatch(r"lanes__reps_g\d+", fanned["tree"]["reps_partition"])
        assert single["tree"]["dataset_state"] == [
            single["frame_partition"], single["deltas"][0]["partition"],
        ]
        assert set(single["checksums"]) >= set(single["tree"]["dataset_state"])

    def test_unversioned_directories_are_ignored(self, tmp_path, lanes_small):
        mod, _ = lanes_small
        engine = HermesEngine.on_disk(tmp_path / "engine")
        engine.load_mod("lanes", mod)
        rogue = tmp_path / "engine" / "rogue"
        rogue.mkdir()
        (rogue / MANIFEST_FILENAME).write_text('{"format_version": 999}')
        cold = HermesEngine.on_disk(tmp_path / "engine")
        assert cold.datasets() == ["lanes"]

    def test_path_traversal_names_rejected_on_durable_engines(
        self, tmp_path, lanes_small
    ):
        """A dataset name is a path component on disk; separators would let
        persistence write — and drop delete — outside the storage root."""
        mod, _ = lanes_small
        engine = HermesEngine.on_disk(tmp_path / "engine")
        for bad in ("../evil", "a/b", "..", ""):
            with pytest.raises(ValueError, match="path separators|non-empty"):
                engine.load_mod(bad, mod)
            assert bad not in engine.datasets()
            assert not engine.is_persisted(bad)
        assert not (tmp_path / "evil").exists()
        # drop of a never-persistable name must not touch foreign paths.
        (tmp_path / "outside.part").write_bytes(b"")
        engine.drop("../outside")
        assert (tmp_path / "outside.part").exists()
        # In-memory engines keep accepting any name (nothing touches disk).
        memory = HermesEngine.in_memory()
        memory.load_mod("../fine-in-memory", mod)
        memory.drop("../fine-in-memory")

    def test_in_memory_engine_persists_nothing(self, lanes_small):
        mod, _ = lanes_small
        engine = HermesEngine.in_memory()
        engine.load_mod("lanes", mod)
        engine.retratree("lanes")
        assert not engine.is_persisted("lanes")
        assert run_sql(engine, "SHOW DATASETS") == [{"dataset": "lanes"}]
