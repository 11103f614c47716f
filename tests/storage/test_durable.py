"""The durable catalog on its own: commit, reopen, crash, sweep — no engine.

The fake tree below stands in for a ReTraTree: the catalog only ever asks a
tree to serialise itself (``to_manifest(reps_partition=...)``), so the commit
protocol is testable without ``repro.qut`` or ``repro.core``.
"""

import json
import shutil

import pytest

from repro.hermes.frame import as_frame
from repro.storage.catalog import MANIFEST_FILENAME, StorageManager, manifest_checksum
from repro.storage.durable import (
    MANIFEST_FORMAT,
    DurableCatalog,
    manifest_partitions,
    manifest_problem,
)
from repro.storage.errors import CorruptManifestError
from repro.storage.faults import FaultInjector, InjectedCrash
from repro.storage.fsck import fsck_store
from repro.storage.records import encode_record

from tests.conftest import make_linear_trajectory


def trajectories(prefix, n):
    return [
        make_linear_trajectory(f"{prefix}{i}", "0", (0.0, float(i)), (10.0, float(i)))
        for i in range(n)
    ]


class FakeTree:
    """One member partition plus the representatives the catalog stages.

    ``already`` is the member count a previous process committed: a reopened
    tree extends the committed partition in place, as incremental
    maintenance does.
    """

    def __init__(self, storage: StorageManager, name: str, members, already: int = 0) -> None:
        self.storage = storage
        self.members_partition = f"{name}_part_0_0_0"
        info = storage.get_or_create(self.members_partition)
        for traj in members:
            info.heapfile.insert(encode_record(traj))
        self.member_count = info.record_count = already + len(members)
        self.representative = members[0]

    def to_manifest(self, reps_partition=None):
        reps = self.storage.create_partition(reps_partition)
        rid = reps.heapfile.insert(encode_record(self.representative))
        reps.record_count += 1
        return {
            "reps_partition": reps_partition,
            "reps_count": 1,
            "subchunks": [
                {
                    "entries": [
                        {
                            "partition": self.members_partition,
                            "member_count": self.member_count,
                            "representative_rid": [rid.page_no, rid.slot],
                        }
                    ]
                }
            ],
        }


def files(directory):
    return sorted(p.name for p in directory.iterdir())


def manifest_of(root, name="d"):
    return json.loads((root / name / MANIFEST_FILENAME).read_text())


def referenced_files(manifest):
    return sorted(
        [MANIFEST_FILENAME] + [f"{name}.part" for name, _, _ in manifest_partitions(manifest)]
    )


class TestCommitAndReopen:
    def test_dataset_append_tree_round_trip(self, tmp_path):
        base, batch = trajectories("b", 5), trajectories("n", 2)
        catalog = DurableCatalog(tmp_path)
        assert catalog.pending() == []
        catalog.commit_dataset("d", as_frame(base), seed=1)
        tree = FakeTree(catalog.storage("d"), "d", base)
        catalog.commit_tree("d", 1, tree)
        assert catalog.commit_append("d", as_frame(batch), 2, tree)
        catalog.close()

        manifest = manifest_of(tmp_path)
        assert manifest_problem(manifest) is None
        assert manifest["format_version"] == MANIFEST_FORMAT
        assert files(tmp_path / "d") == referenced_files(manifest)
        assert fsck_store(tmp_path).issues == []

        cold = DurableCatalog(tmp_path)
        assert cold.pending() == ["d"]
        assert cold.is_persisted("d")
        section = cold.tree_section("d")
        assert section["dataset_state"] == [
            manifest["frame_partition"],
            manifest["deltas"][0]["partition"],
        ]
        assert cold.load("d").keys == [t.key for t in base + batch]
        assert cold.pending() == []  # decoded: the caller owns it now
        status = cold.status("d")
        assert status["delta_partitions"] == 1
        assert status["tree_persisted"] and not status["tree_stale"]
        assert not status["degraded"]
        cold.close()

    def test_append_without_the_tree_leaves_it_stale(self, tmp_path):
        catalog = DurableCatalog(tmp_path)
        base = trajectories("b", 3)
        catalog.commit_dataset("d", as_frame(base), 1)
        catalog.commit_tree("d", 1, FakeTree(catalog.storage("d"), "d", base))
        assert catalog.commit_append("d", as_frame(trajectories("n", 1)), 2)
        assert catalog.status("d")["tree_stale"]
        assert catalog.tree_section("d") is None  # the caller rebuilds
        catalog.forget_tree("d")
        manifest = manifest_of(tmp_path)
        assert manifest["tree"] is None and "shards" not in manifest
        assert files(tmp_path / "d") == referenced_files(manifest)
        catalog.close()

    def test_drop_reclaims_the_directory(self, tmp_path):
        catalog = DurableCatalog(tmp_path)
        catalog.commit_dataset("d", as_frame(trajectories("b", 2)), 1)
        catalog.drop("d")
        assert not (tmp_path / "d").exists()
        assert not catalog.is_persisted("d")
        catalog.drop("../outside")  # never persistable: must touch nothing

    def test_damaged_manifest_is_withheld_and_left_alone(self, tmp_path):
        catalog = DurableCatalog(tmp_path)
        catalog.commit_dataset("d", as_frame(trajectories("b", 2)), 1)
        catalog.commit_dataset("ok", as_frame(trajectories("k", 2)), 2)
        catalog.close()
        manifest = manifest_of(tmp_path)
        manifest.pop("manifest_crc")
        (tmp_path / "d" / MANIFEST_FILENAME).write_text(json.dumps(manifest))
        (tmp_path / "d" / "zombie_g9.part").write_bytes(b"")
        before = files(tmp_path / "d")

        cold = DurableCatalog(tmp_path)
        assert cold.pending() == ["ok"]
        with pytest.raises(CorruptManifestError, match="repro-fsck"):
            cold.raise_if_damaged("d")
        cold.raise_if_damaged("ok")
        assert cold.status("d")["degraded"]
        assert not cold.commit_append("d", as_frame(trajectories("n", 1)), 3)  # nothing to extend
        cold.close()
        assert files(tmp_path / "d") == before  # no sweep under a bad stamp

        again = DurableCatalog(tmp_path)
        again.drop("d")  # giving the dataset up: the directory and the diagnostic go
        assert not (tmp_path / "d").exists()
        again.raise_if_damaged("d")
        again.close()


def _set(key, value):
    return lambda m: m.__setitem__(key, value)


def _set_delta(key, value):
    return lambda m: m["deltas"][0].__setitem__(key, value)


#: Damage to the row order recovery decodes (the base's ``row_keys``, then
#: every delta's), each of which a stamp restamped over it used to let
#: through: a missing list read as empty and served only the other rows.
ROW_ORDER_DAMAGE = {
    "row_keys-missing": lambda m: m.pop("row_keys"),
    "row_keys-null": _set("row_keys", None),
    "row_keys-object": _set("row_keys", {"b0": ["b0", "0"]}),
    "row_keys-string": _set("row_keys", "b0"),
    "row_keys-key-not-a-list": lambda m: m["row_keys"].__setitem__(0, "b0"),
    "deltas-missing": lambda m: m.pop("deltas"),
    "deltas-null": _set("deltas", None),
    "deltas-object": lambda m: m.__setitem__("deltas", {"0": m["deltas"][0]}),
    "delta-not-an-object": lambda m: m["deltas"].__setitem__(0, m["deltas"][0]["partition"]),
    "delta-partition-missing": lambda m: m["deltas"][0].pop("partition"),
    "delta-partition-number": _set_delta("partition", 7),
    "delta-row_keys-missing": lambda m: m["deltas"][0].pop("row_keys"),
    "delta-row_keys-null": _set_delta("row_keys", None),
    "delta-row_keys-key-not-a-list": lambda m: m["deltas"][0]["row_keys"].__setitem__(0, 3),
}


class TestAStampedManifestWithoutItsRowOrder:
    """A matching ``manifest_crc`` vouches for the bytes, not the layout: a
    stamped manifest whose row order cannot be decoded is unsupported."""

    @pytest.fixture
    def damaged(self, tmp_path):
        def build(damage):
            catalog = DurableCatalog(tmp_path)
            catalog.commit_dataset("d", as_frame(trajectories("b", 5)), 1)
            assert catalog.commit_append("d", as_frame(trajectories("n", 2)), 2)
            catalog.close()
            manifest = manifest_of(tmp_path)
            damage(manifest)
            manifest["manifest_crc"] = manifest_checksum(manifest)
            (tmp_path / "d" / MANIFEST_FILENAME).write_text(json.dumps(manifest))
            return manifest

        return build

    @pytest.mark.parametrize("damage", ROW_ORDER_DAMAGE.values(), ids=ROW_ORDER_DAMAGE.keys())
    def test_manifest_problem_calls_it_unsupported(self, damaged, damage):
        kind, detail = manifest_problem(damaged(damage))
        assert kind == "manifest_unsupported"
        assert "row_keys" in detail or "delta" in detail

    @pytest.mark.parametrize("damage", ROW_ORDER_DAMAGE.values(), ids=ROW_ORDER_DAMAGE.keys())
    def test_withheld_reported_and_quarantined(self, tmp_path, damaged, damage):
        damaged(damage)
        cold = DurableCatalog(tmp_path)
        assert cold.pending() == []
        with pytest.raises(CorruptManifestError, match="row_keys|delta"):
            cold.raise_if_damaged("d")
        cold.close()
        assert [i.kind for i in fsck_store(tmp_path).errors] == ["manifest_unsupported"]
        assert fsck_store(tmp_path, repair=True).clean
        assert not (tmp_path / "d").exists()
        assert fsck_store(tmp_path).clean


class TestCrashAtEveryOpOfOneCommit:
    """A commit either happened or it did not; reopening sweeps the rest."""

    def test_append_commit_is_atomic_at_every_op_index(self, tmp_path):
        base, batch = trajectories("b", 4), trajectories("n", 2)
        seed_root = tmp_path / "seed"
        catalog = DurableCatalog(seed_root)
        catalog.commit_dataset("d", as_frame(base), 1)
        catalog.commit_tree("d", 1, FakeTree(catalog.storage("d"), "d", base))
        catalog.close()
        pre = manifest_of(seed_root)

        def append(root, io):
            catalog = DurableCatalog(root, io=io)
            tree = FakeTree(catalog.storage("d"), "d", batch, already=len(base))
            catalog.commit_append("d", as_frame(batch), 2, tree)
            return catalog

        counted = tmp_path / "count"
        shutil.copytree(seed_root, counted)
        injector = FaultInjector()
        append(counted, injector).close()
        post = manifest_of(counted)
        assert injector.ops > 6 and post != pre

        outcomes = set()
        for at in range(injector.ops):
            work = tmp_path / f"crash-{at}"
            shutil.copytree(seed_root, work)
            crashing = FaultInjector()
            crashing.arm_crash(at_op=at)
            with pytest.raises(InjectedCrash):
                append(work, crashing)

            cold = DurableCatalog(work)
            recovered = manifest_of(work)
            assert recovered in (pre, post), f"op {at}: torn manifest"
            outcomes.add("pre" if recovered == pre else "post")
            # The open swept whatever the crash stranded.
            assert files(work / "d") == referenced_files(recovered), f"op {at}"
            expected = base + batch if recovered == post else base
            assert cold.load("d").keys == [t.key for t in expected]
            cold.close()
        assert outcomes == {"pre", "post"}


class TestSweepDeletesExactlyTheUnreferenced:
    @pytest.mark.parametrize("name", ["plain", "a[1]", "dotted.name"])
    def test_stale_files_go_and_referenced_files_stay(self, tmp_path, name):
        """``a[1]``: a glob built from the dataset name would read ``[1]`` as a
        character class and miss the dataset's own stale partitions."""
        catalog = DurableCatalog(tmp_path)
        base = trajectories("b", 3)
        catalog.commit_dataset(name, as_frame(base), 1)
        catalog.commit_tree(name, 1, FakeTree(catalog.storage(name), name, base))
        directory = tmp_path / name
        debris = [
            f"{name}__dataset_g99.part",  # a crashed append's delta
            f"{name}__reps_g98.part",  # a superseded representatives generation
            f"{name}_part_9_9_9.part",  # a forgotten tree's members
            "manifest.json.tmp",  # a crashed manifest write
        ]
        for stale in debris:
            (directory / stale).write_bytes(b"")
        assert catalog.commit_append(name, as_frame(trajectories("n", 1)), 2)
        manifest = manifest_of(tmp_path, name)
        assert files(directory) == referenced_files(manifest)
        assert len(files(directory)) == 5  # manifest, base, delta, members, reps
        catalog.close()
        assert fsck_store(tmp_path).issues == []

    def test_replacement_sweeps_the_predecessor(self, tmp_path):
        catalog = DurableCatalog(tmp_path)
        base = trajectories("b", 3)
        catalog.commit_dataset("d", as_frame(base), 1)
        catalog.commit_tree("d", 1, FakeTree(catalog.storage("d"), "d", base))
        catalog.commit_dataset("d", as_frame(trajectories("r", 2)), 5)
        manifest = manifest_of(tmp_path)
        assert manifest["frame_partition"] == "d__dataset_g5"
        assert files(tmp_path / "d") == ["d__dataset_g5.part", MANIFEST_FILENAME]
        catalog.close()
