"""Parallel bulk load by chunk window: plan math, one-tree equivalence, durability.

``shards=N`` is only *how a ReTraTree gets built*: N chunk windows loaded on
the worker pool and adopted into one plain tree.  The whole contract is
*equivalence* — for every fan-out the tree's sub-chunks are identical to the
in-process load's, warm, after an append and cold-recovered — so nothing
downstream (QuT, the manifest, recovery, fsck) can observe the fan-out.
These tests pin that contract tree against tree, the ``ShardPlan`` layout
math it rests on, and that a build which fails part-way never leaves debris
a later build lands on.
"""

import json

import pytest

import repro.core.shard as shard_mod
from repro.core.engine import HermesEngine
from repro.core.shard import ShardPlan, build_sharded_tree
from repro.datagen import lane_scenario
from repro.hermes.frame import MODFrame
from repro.hermes.types import Period
from repro.qut.params import QuTParams
from repro.qut.retratree import ReTraTree
from repro.storage.catalog import MANIFEST_FILENAME
from repro.storage.faults import FaultInjector
from repro.storage.fsck import fsck_store

from tests.conftest import make_linear_trajectory, membership_signature

FANOUTS = (1, 2, 3, 5)


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


def tree_signature(tree) -> list[tuple]:
    """Every sub-chunk's signature, in temporal order."""
    return [subchunk_signature(tree, sc) for sc in tree.subchunks()]


def _lanes(seed=7):
    mod, _ = lane_scenario(n_trajectories=18, n_lanes=3, n_samples=30, seed=seed)
    return mod


@pytest.fixture(scope="module")
def lanes_mod():
    """A lane scenario shared by the read-only equivalence tests."""
    return _lanes()


def _windows(mod) -> list[Period]:
    period = mod.period
    span = period.duration
    return [
        period,
        Period(period.tmin, period.tmin + 0.5 * span),
        Period(period.tmin + 0.25 * span, period.tmin + 0.75 * span),
        Period(period.tmin + 0.6 * span, period.tmax),
    ]


def _late_batch():
    return [
        make_linear_trajectory("late_a", "0", (0.0, 1.0), (10.0, 1.0), 120.0, 220.0),
        make_linear_trajectory("late_b", "0", (0.0, 1.2), (10.0, 1.2), 120.0, 220.0),
    ]


class TestShardPlan:
    def test_layout_distributes_chunks_with_remainder_first(self):
        plan = ShardPlan.for_layout(duration=1000.0, tau=100.0, count=3)
        assert plan.n_chunks == 10
        assert plan.count == 3
        # 10 chunks over 3 windows: 4 + 3 + 3, outer bounds left open.
        assert plan.ranges == ((None, 4), (4, 7), (7, None))

    def test_single_shard_owns_everything(self):
        plan = ShardPlan.for_layout(duration=1000.0, tau=300.0, count=1)
        assert plan.ranges == ((None, None),)

    def test_more_shards_than_chunks_collapses(self):
        plan = ShardPlan.for_layout(duration=100.0, tau=60.0, count=4)
        assert plan.n_chunks == 2
        # The effective windows collapse to one per chunk.
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


class TestOneTreeEquivalence:
    """Any fan-out builds the same plain ReTraTree, sub-chunk by sub-chunk."""

    def test_trees_equal_across_fanouts_warm_appended_and_cold(self, tmp_path):
        warm, appended, cold = {}, {}, {}
        for k in FANOUTS:
            root = tmp_path / f"s{k}"
            engine = HermesEngine.on_disk(root)
            engine.load_mod("d", _lanes())
            tree = engine.retratree("d", shards=k)
            assert type(tree) is ReTraTree
            assert tree.chunk_range is None
            warm[k] = tree_signature(tree)

            report = engine.append("d", _late_batch())
            assert report.tree_maintained
            assert engine.retratree("d") is tree  # absorbed in place
            appended[k] = tree_signature(tree)
            engine.close()

            manifest = json.loads((root / "d" / MANIFEST_FILENAME).read_text())
            assert isinstance(manifest["tree"], dict)
            assert "shards" not in manifest
            assert fsck_store(root).clean

            before = ReTraTree.build_calls
            reopened = HermesEngine.on_disk(root)
            tree = reopened.retratree("d", shards=k)
            assert type(tree) is ReTraTree
            assert tree.recovered
            # Recovery re-opens persisted state; it never re-runs a bulk load.
            assert ReTraTree.build_calls == before
            cold[k] = tree_signature(tree)
            reopened.close()

        assert any(entries for _key, entries, _unc in warm[1])  # non-degenerate
        assert appended[1] != warm[1]
        for k in FANOUTS[1:]:
            assert warm[k] == warm[1], f"shards={k} diverged from the in-process load"
            assert appended[k] == appended[1], f"shards={k} diverged after the append"
        for k in FANOUTS:
            assert cold[k] == appended[k], f"shards={k} recovered a different tree"

    def test_qut_answers_equal_across_fanouts_and_windows(self, lanes_mod):
        windows = _windows(lanes_mod)
        answers = {}
        for k in FANOUTS:
            engine = HermesEngine.in_memory()
            engine.load_mod("d", lanes_mod)
            assert type(engine.retratree("d", shards=k)) is ReTraTree
            answers[k] = [membership_signature(engine.qut("d", w)) for w in windows]
            engine.close()
        assert any(clusters for clusters, _ in answers[1])  # non-degenerate
        for k in FANOUTS[1:]:
            assert answers[k] == answers[1], f"shards={k} diverged from the in-process load"

    def test_pooled_build_matches_in_process_build(self, lanes_mod):
        frame = MODFrame.from_mod(lanes_mod)
        raw = QuTParams()
        resolved = raw.resolved(lanes_mod)
        origin = lanes_mod.period.tmin
        plan = ShardPlan.for_layout(lanes_mod.period.duration, resolved.tau, 3)
        assert len(plan.ranges) == 3

        in_process = ReTraTree.bulk_load(frame, raw, resolved, origin, name="t")
        pooled = build_sharded_tree(
            frame, raw, resolved, origin, plan, storage=None, name="t"
        )
        assert type(pooled) is ReTraTree
        assert tree_signature(pooled) == tree_signature(in_process)
        assert pooled.num_clusters == in_process.num_clusters
        # Adoption hands out its own ids: unique tree-wide, like a plain load's.
        ids = [e.cluster_id for sc in pooled.subchunks() for e in sc.entries]
        assert len(set(ids)) == len(ids) and pooled._next_cluster_id > max(ids)

    def test_any_fanout_accepts_the_cached_tree(self, lanes_mod):
        engine = HermesEngine.in_memory()
        engine.load_mod("d", lanes_mod)
        t3 = engine.retratree("d", shards=3)
        before = ReTraTree.build_calls
        # The tree is the index whatever fan-out built it: no rebuild.
        assert engine.retratree("d") is t3
        assert engine.retratree("d", shards=1) is t3
        assert engine.retratree("d", shards=2) is t3
        assert ReTraTree.build_calls == before
        # rebuild=True still rebuilds.
        rebuilt = engine.retratree("d", shards=2, rebuild=True)
        assert rebuilt is not t3
        assert ReTraTree.build_calls == before + 1
        assert tree_signature(rebuilt) == tree_signature(t3)
        with pytest.raises(ValueError, match="shards"):
            engine.retratree("d", shards=0)
        engine.close()

    def test_any_fanout_accepts_the_persisted_tree(self, tmp_path):
        root = tmp_path / "s"
        engine = HermesEngine.on_disk(root)
        engine.load_mod("d", _lanes())
        warm = tree_signature(engine.retratree("d", shards=3))
        engine.close()

        before = ReTraTree.build_calls
        for k in (None, 1, 2):
            cold = HermesEngine.on_disk(root)
            tree = cold.retratree("d", shards=k)
            assert tree.recovered
            assert tree_signature(tree) == warm
            cold.close()
        assert ReTraTree.build_calls == before


class TestFailedBuildLeavesNoDebris:
    """A build that dies part-way surfaces its error and is never built upon."""

    def test_import_error_propagates_and_rebuild_holds_each_record_once(
        self, tmp_path, monkeypatch
    ):
        reference = HermesEngine.in_memory()
        reference.load_mod("d", _lanes())
        expected = tree_signature(reference.retratree("d"))
        reference.close()

        injector = FaultInjector()
        engine = HermesEngine.on_disk(tmp_path / "s", io=injector)
        engine.load_mod("d", _lanes())

        real_import = shard_mod.import_shard_tree
        calls = []

        def failing_import(tree, payload):
            calls.append(len(payload))
            if len(calls) == 2:
                # Outlast the storage layer's bounded retries: a hard error.
                injector.fail_next("write", count=100)
            real_import(tree, payload)

        monkeypatch.setattr(shard_mod, "import_shard_tree", failing_import)
        # The first window is already archived when the second one fails.
        with pytest.raises(OSError, match="injected transient write"):
            engine.retratree("d", shards=3)
        assert len(calls) == 2 and calls[0] > 0
        injector.fail_next("write", count=0)
        monkeypatch.setattr(shard_mod, "import_shard_tree", real_import)

        tree = engine.retratree("d", shards=3, rebuild=True)
        # Every member and unclustered record exactly once: nothing from the
        # failed attempt survived under the rebuilt tree.
        assert tree_signature(tree) == expected
        for sc in tree.subchunks():
            keys = [m.key for e in sc.entries for m in tree.load_members(e)]
            keys += [s.key for s in tree.load_unclustered(sc)]
            assert len(keys) == len(set(keys))
        engine.close()
        assert fsck_store(tmp_path / "s").clean

    def test_worker_error_propagates_instead_of_degrading(self, lanes_mod, monkeypatch):
        monkeypatch.setattr(shard_mod, "_build_shard_task", _raise_in_worker)
        engine = HermesEngine.in_memory()
        engine.load_mod("d", lanes_mod)
        with pytest.raises(RuntimeError, match="injected worker bug"):
            engine.retratree("d", shards=3)
        engine.close()


def _raise_in_worker(task):  # pragma: no cover - runs inside a worker
    raise RuntimeError("injected worker bug")


class TestDurableTree:
    """A fanned-out build persists, recovers and repairs like any other tree."""

    def _store(self, root, shards=3, seed=7):
        mod = _lanes(seed)
        engine = HermesEngine.on_disk(root)
        engine.load_mod("d", mod)
        engine.retratree("d", shards=shards)
        window = mod.period
        signature = membership_signature(engine.qut("d", window))
        engine.close()
        return window, signature

    def test_cold_recovery_rebuilds_nothing(self, tmp_path):
        root = tmp_path / "s"
        window, warm = self._store(root, shards=3)

        before = ReTraTree.build_calls
        cold = HermesEngine.on_disk(root)
        tree = cold.retratree("d", shards=3)
        assert type(tree) is ReTraTree
        assert tree.recovered
        assert ReTraTree.build_calls == before
        assert membership_signature(cold.qut("d", window)) == warm
        status = cold.artifact_status("d")
        assert status["tree_cached"] and status["tree_persisted"]
        assert not status["tree_stale"]
        cold.close()

    def test_fsck_repairs_damaged_tree_partition(self, tmp_path):
        root = tmp_path / "s"
        window, reference = self._store(root, shards=2, seed=5)
        target = next(
            p
            for p in sorted((root / "d").glob("*.part"))
            if "_part_" in p.name and p.stat().st_size > 0
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

        # The repaired store rebuilds the tree and answers identically —
        # derived state, never served corrupt.
        engine = HermesEngine.on_disk(root)
        tree = engine.retratree("d", shards=2)
        assert not tree.recovered
        assert membership_signature(engine.qut("d", window)) == reference
        engine.close()
