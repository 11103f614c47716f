"""Shard-local ReTraTrees: plan math, scatter-gather bit-identity, durability.

The sharded deployment's whole contract is *equivalence*: for every shard
count and every query window, scatter-gather QuT over the facade must
return bit-identical clusters to the single tree — warm, cold-recovered,
and after incremental appends.  These tests pin that contract, the
``ShardPlan`` layout math it rests on, and the durable half: per-shard
state persists under the manifest's ``shards`` section, cold starts recover
without re-running a single bulk load, and ``repro-fsck`` understands (and
repairs) the sharded layout.
"""

import json

import pytest

from repro.core.engine import HermesEngine
from repro.storage import MANIFEST_FORMAT
from repro.core.shard import ShardPlan, ShardedReTraTree, build_sharded_tree
from repro.datagen import lane_scenario
from repro.hermes.frame import MODFrame
from repro.hermes.types import Period
from repro.qut.params import QuTParams
from repro.qut.retratree import ReTraTree
from repro.storage.catalog import MANIFEST_FILENAME
from repro.storage.fsck import fsck_store

from tests.conftest import make_linear_trajectory, membership_signature


def subchunk_signature(tree, subchunk) -> tuple:
    """Full content signature of one sub-chunk: entries + unclustered."""
    entries = tuple(
        sorted(
            tuple(sorted(member.key for member in tree.load_members(entry)))
            for entry in subchunk.entries
        )
    )
    unclustered = tuple(sorted(s.key for s in tree.load_unclustered(subchunk)))
    return subchunk.key, entries, unclustered


@pytest.fixture(scope="module")
def lanes_mod():
    """A lane scenario shared by the read-only equivalence tests."""
    mod, _ = lane_scenario(n_trajectories=18, n_lanes=3, n_samples=30, seed=7)
    return mod


def _windows(mod) -> list[Period]:
    period = mod.period
    span = period.duration
    return [
        period,
        Period(period.tmin, period.tmin + 0.5 * span),
        Period(period.tmin + 0.25 * span, period.tmin + 0.75 * span),
        Period(period.tmin + 0.6 * span, period.tmax),
    ]


class TestShardPlan:
    def test_layout_distributes_chunks_with_remainder_first(self):
        plan = ShardPlan.for_layout(duration=1000.0, tau=100.0, count=3)
        assert plan.n_chunks == 10
        assert plan.count == 3
        # 10 chunks over 3 shards: 4 + 3 + 3, outer bounds left open.
        assert plan.ranges == ((None, 4), (4, 7), (7, None))

    def test_single_shard_owns_everything(self):
        plan = ShardPlan.for_layout(duration=1000.0, tau=300.0, count=1)
        assert plan.ranges == ((None, None),)

    def test_more_shards_than_chunks_collapses(self):
        plan = ShardPlan.for_layout(duration=100.0, tau=60.0, count=4)
        assert plan.n_chunks == 2
        # The requested count is kept (cache identity); the effective
        # windows collapse to one per chunk.
        assert plan.count == 4
        assert plan.ranges == ((None, 1), (1, None))

    def test_windows_are_contiguous_and_disjoint(self):
        plan = ShardPlan.for_layout(duration=977.0, tau=41.0, count=5)
        for (lo_a, hi_a), (lo_b, hi_b) in zip(plan.ranges, plan.ranges[1:]):
            assert hi_a == lo_b
        assert plan.ranges[0][0] is None
        assert plan.ranges[-1][1] is None

    def test_validation(self):
        with pytest.raises(ValueError, match="shard count"):
            ShardPlan.for_layout(duration=10.0, tau=1.0, count=0)
        with pytest.raises(ValueError, match="tau"):
            ShardPlan.for_layout(duration=10.0, tau=0.0, count=2)

    def test_manifest_round_trip(self):
        plan = ShardPlan.for_layout(duration=1000.0, tau=70.0, count=4)
        data = plan.to_manifest()
        json.dumps(data)  # must be JSON-serialisable as-is
        assert ShardPlan.from_manifest(data) == plan


class TestScatterGatherEquivalence:
    """QuT over the facade == QuT over the single tree, bit for bit."""

    def test_bit_identity_across_shard_counts_and_windows(self, lanes_mod):
        single = HermesEngine.in_memory()
        single.load_mod("d", lanes_mod)
        windows = _windows(lanes_mod)
        expected = [membership_signature(single.qut("d", w)) for w in windows]
        single.close()
        assert any(clusters for clusters, _ in expected)  # non-degenerate

        for shards in (2, 3, 5):
            engine = HermesEngine.in_memory()
            engine.load_mod("d", lanes_mod)
            tree = engine.retratree("d", shards=shards)
            assert isinstance(tree, ShardedReTraTree)
            assert tree.shards_count == shards
            got = [membership_signature(engine.qut("d", w)) for w in windows]
            assert got == expected, f"shards={shards} diverged from single tree"
            engine.close()

    def test_pooled_build_matches_serial_build(self, lanes_mod):
        frame = MODFrame.from_mod(lanes_mod)
        raw = QuTParams()
        resolved = raw.resolved(lanes_mod)
        origin = lanes_mod.period.tmin
        plan = ShardPlan.for_layout(lanes_mod.period.duration, resolved.tau, 3)

        serial = build_sharded_tree(
            frame, raw, resolved, origin, plan, storage=None, name="t", parallel=False
        )
        pooled = build_sharded_tree(
            frame, raw, resolved, origin, plan, storage=None, name="t", parallel=True
        )
        serial_sig = [subchunk_signature(serial, sc) for sc in serial.subchunks()]
        pooled_sig = [subchunk_signature(pooled, sc) for sc in pooled.subchunks()]
        assert pooled_sig == serial_sig
        assert pooled.num_clusters == serial.num_clusters

    def test_relayout_on_shard_count_change(self, lanes_mod):
        engine = HermesEngine.in_memory()
        engine.load_mod("d", lanes_mod)
        t3 = engine.retratree("d", shards=3)
        assert t3.shards_count == 3
        # shards=None accepts whatever layout is cached — no rebuild.
        assert engine.retratree("d") is t3
        # shards=1 forces the single-tree layout back.
        t1 = engine.retratree("d", shards=1)
        assert not isinstance(t1, ShardedReTraTree)
        # and a different count re-shards.
        t2 = engine.retratree("d", shards=2)
        assert isinstance(t2, ShardedReTraTree)
        assert t2.shards_count == 2
        engine.close()

    def test_append_routes_to_shards_and_matches_single(self):
        def fresh():
            mod, _ = lane_scenario(
                n_trajectories=14, n_lanes=2, n_samples=24, seed=13
            )
            return mod

        batch = [
            make_linear_trajectory(
                "late_a", "0", (0.0, 1.0), (10.0, 1.0), 120.0, 220.0
            ),
            make_linear_trajectory(
                "late_b", "0", (0.0, 1.2), (10.0, 1.2), 120.0, 220.0
            ),
        ]

        single = HermesEngine.in_memory()
        single.load_mod("d", fresh())
        single.retratree("d", shards=1)
        single.append("d", batch)
        window = Period(-100.0, 500.0)
        expected = membership_signature(single.qut("d", window))
        single.close()

        sharded = HermesEngine.in_memory()
        sharded.load_mod("d", fresh())
        tree = sharded.retratree("d", shards=3)
        report = sharded.append("d", batch)
        assert report.tree_maintained
        # The append went to the *facade*, which routed pieces per shard.
        assert sharded.retratree("d") is tree
        assert membership_signature(sharded.qut("d", window)) == expected
        sharded.close()


class TestDurableShards:
    """Per-shard persistence: manifest layout, cold recovery, fsck."""

    def _store(self, root, shards=3, seed=7):
        mod, _ = lane_scenario(n_trajectories=18, n_lanes=3, n_samples=30, seed=seed)
        engine = HermesEngine.on_disk(root)
        engine.load_mod("d", mod)
        engine.retratree("d", shards=shards)
        window = mod.period
        signature = membership_signature(engine.qut("d", window))
        engine.close()
        return window, signature

    def test_manifest_records_shards_section(self, tmp_path):
        root = tmp_path / "s"
        self._store(root, shards=3)
        manifest = json.loads((root / "d" / MANIFEST_FILENAME).read_text())
        assert manifest["format_version"] == MANIFEST_FORMAT
        # The two tree sections are mutually exclusive.
        assert manifest["tree"] is None
        shards = manifest["shards"]
        assert shards["count"] == 3
        assert len(shards["trees"]) == len(shards["plan"]["ranges"])
        assert ShardPlan.from_manifest(shards["plan"]).count == 3
        # A sharded store is fsck-clean out of the box.
        assert fsck_store(root).clean

    def test_cold_recovery_rebuilds_nothing(self, tmp_path):
        root = tmp_path / "s"
        window, warm = self._store(root, shards=3)

        before = ReTraTree.build_calls
        cold = HermesEngine.on_disk(root)
        tree = cold.retratree("d", shards=3)
        assert isinstance(tree, ShardedReTraTree)
        assert tree.recovered
        assert tree.shards_count == 3
        # Recovery re-opens persisted shard state; it never re-runs a bulk
        # load (same discipline as single-tree recovery).
        assert ReTraTree.build_calls == before
        assert membership_signature(cold.qut("d", window)) == warm
        status = cold.artifact_status("d")
        assert status["tree_shards"] == 3
        cold.close()

    def test_cold_recovery_without_shard_hint(self, tmp_path):
        root = tmp_path / "s"
        window, warm = self._store(root, shards=2)
        cold = HermesEngine.on_disk(root)
        # shards=None must accept (and recover) the persisted sharded layout.
        tree = cold.retratree("d")
        assert isinstance(tree, ShardedReTraTree)
        assert tree.recovered
        assert membership_signature(cold.qut("d", window)) == warm
        cold.close()

    def test_fsck_repairs_damaged_shard_partition(self, tmp_path):
        root = tmp_path / "s"
        window, reference = self._store(root, shards=2, seed=5)
        target = next(
            p
            for p in sorted((root / "d").glob("*.part"))
            if "_s" in p.name and p.stat().st_size > 0
        )
        data = bytearray(target.read_bytes())
        data[len(data) // 2] ^= 1
        target.write_bytes(bytes(data))

        report = fsck_store(root)
        assert not report.clean
        assert any(
            issue.kind == "checksum_mismatch" and issue.path == str(target)
            for issue in report.issues
        )

        fsck_store(root, repair=True)
        assert fsck_store(root).clean

        # The repaired store rebuilds the sharded tree and answers
        # identically — derived state, never served corrupt.
        engine = HermesEngine.on_disk(root)
        tree = engine.retratree("d", shards=2)
        assert isinstance(tree, ShardedReTraTree)
        assert not tree.recovered
        assert membership_signature(engine.qut("d", window)) == reference
        engine.close()
