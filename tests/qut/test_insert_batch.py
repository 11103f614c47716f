"""The insertion path decides each sub-chunk's queued pieces in one pruned pass.

``ReTraTree._insert_pieces`` cuts a batch first, then decides every piece
still queued for a sub-chunk with one ``_nearest_within`` pass against that
sub-chunk's representative frame, skipping (piece, representative) pairs
whose bounding boxes lie farther apart than the distance threshold.  What
it replaced is the oracle in ``tests/qut/oracles.py``: one
``assign_to_representatives_batch`` call per piece, made when the piece is
absorbed.  The decisions must be the oracle's exactly — ties, the threshold
boundary, the prune's own boundary and extreme magnitudes included — and so
must every byte a durable store holds after a bulk load and appends.

The commit half is pinned here too: an append fsyncs exactly the partitions
it wrote (plus the manifest and the directory), and a page it did not write
keeps the CRC the previous commit recorded, so damage on disk is not
re-blessed by the next commit.
"""

import hashlib
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import HermesEngine
from repro.datagen import lane_scenario
from repro.hermes.distances import spatiotemporal_distance_batch
from repro.hermes.frame import MODFrame
from repro.hermes.mod import MOD
from repro.hermes.trajectory import Trajectory
from repro.qut.retratree import ReTraTree, _nearest_within
from repro.storage.catalog import StorageManager
from repro.storage.errors import CorruptPartitionError
from repro.storage.faults import IOShim
from repro.storage.page import PAGE_SIZE
from tests.qut.oracles import (
    assign_to_representatives_batch,
    decide_per_piece,
    insert_pieces_one_by_one,
)

SCALES = [1e-300, 1e-3, 1.0, 1e3, 1e150]


def walk(rng: np.random.Generator, key: str, scale: float, t0: float) -> Trajectory:
    """A short random walk; a third of the time a horizontal line (exact gaps)."""
    n = int(rng.integers(2, 10))
    ts = t0 + np.cumsum(rng.uniform(0.5, 4.0, n))
    if rng.random() < 1 / 3:
        xs = np.linspace(0.0, 3.0, n) * scale
        ys = np.full(n, float(rng.integers(0, 4))) * scale
    else:
        xs = np.cumsum(rng.normal(0.0, 1.0, n)) * scale
        ys = np.cumsum(rng.normal(0.0, 1.0, n)) * scale
    return Trajectory(key, "0", xs, ys, ts)


@st.composite
def assignment_cases(draw):
    """Representatives, pieces, a threshold near a boundary, and a tolerance."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    scale = draw(st.sampled_from(SCALES), label="scale")
    reps = [walk(rng, f"r{i}", scale, float(rng.uniform(0, 10))) for i in range(draw(st.integers(1, 7)))]
    # Equidistant representatives: a repeated row ties with its original.
    for _ in range(draw(st.integers(0, 2), label="repeats")):
        twin = reps[int(rng.integers(len(reps)))]
        reps.insert(int(rng.integers(len(reps) + 1)), Trajectory("twin", "0", twin.xs, twin.ys, twin.ts))
    pieces = [walk(rng, f"p{i}", scale, float(rng.uniform(0, 10))) for i in range(draw(st.integers(1, 7)))]
    # Pieces that are copies of a representative sit at distance 0 of it,
    # and a horizontal twin sits exactly one gap away.
    if draw(st.booleans(), label="copy"):
        src = reps[int(rng.integers(len(reps)))]
        pieces.append(Trajectory("copy", "0", src.xs, src.ys + scale, src.ts))
    frame = MODFrame.from_trajectories(reps)
    dists = np.concatenate(
        [spatiotemporal_distance_batch(frame, piece, max_samples=32) for piece in pieces]
    )
    finite = dists[np.isfinite(dists)]
    mode = draw(st.sampled_from(["distance", "gap", "free"]), label="threshold")
    if mode == "distance" and finite.size:
        # A threshold at, or a few ulps either side of, a computed distance.
        d = float(finite[int(rng.integers(finite.size))])
    elif mode == "gap":
        d = float(rng.integers(1, 4)) * scale
    else:
        d = float(rng.uniform(0.1, 4.0)) * scale
    ulps = draw(st.integers(-3, 3), label="ulps")
    for _ in range(abs(ulps)):
        d = float(np.nextafter(d, math.copysign(math.inf, ulps)))
    tolerance = draw(st.sampled_from([0.0, 0.0, 2.5]), label="tolerance")
    return frame, pieces, d, tolerance


class TestPrunedAssignment:
    @settings(max_examples=300, deadline=None)
    @given(assignment_cases())
    def test_decisions_equal_the_per_piece_oracle(self, case):
        frame, pieces, d, tolerance = case
        got = _nearest_within(frame, pieces, d)
        want = []
        for piece in pieces:
            idx, _dist = assign_to_representatives_batch(
                piece.subtrajectory(0, piece.num_points - 1), frame, d, tolerance
            )
            want.append(-1 if idx is None else idx)
        assert got == want

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(SCALES),
        st.integers(-2, 2),
        st.sampled_from([0.0, 2.5]),
    )
    def test_parallel_twins_at_the_threshold(self, seed, scale, ulps, tolerance):
        """A piece one box gap beside its representative, ``d`` within ulps of the distance.

        Every synchronous offset is (nearly) the gap itself, so the mean
        rounds to either side of it: only a prune with slack keeps the pair
        whenever the unpruned pass would choose it.
        """
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        ts = np.cumsum(rng.uniform(0.5, 3.0, n))
        xs = np.cumsum(rng.uniform(0.1, 2.0, n)) * scale
        y = float(rng.normal()) * scale
        gap = float(rng.uniform(0.01, 5.0)) * scale
        rep = Trajectory("rep", "0", xs, np.full(n, y), ts)
        # The piece samples the same line at its own instants (interpolated
        # positions), or at the representative's.
        pts = np.sort(rng.uniform(ts[0], ts[-1], n)) if rng.random() < 0.5 else ts
        pts = np.unique(pts) if np.unique(pts).size >= 2 else ts
        piece = Trajectory("p", "0", np.interp(pts, ts, xs), np.full(pts.size, y + gap), pts)
        frame = MODFrame.from_trajectories([rep])
        d = float(spatiotemporal_distance_batch(frame, piece, max_samples=32)[0])
        for _ in range(abs(ulps)):
            d = float(np.nextafter(d, math.copysign(math.inf, ulps)))
        idx, _dist = assign_to_representatives_batch(
            piece.subtrajectory(0, piece.num_points - 1), frame, d, tolerance
        )
        assert _nearest_within(frame, [piece], d) == [-1 if idx is None else idx]

    def test_first_of_equidistant_representatives_wins(self):
        line = Trajectory("a", "0", [0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [0.0, 1.0, 2.0])
        frame = MODFrame.from_trajectories(
            [
                Trajectory("far", "0", line.xs, line.ys + 9.0, line.ts),
                Trajectory("up", "0", line.xs, line.ys + 1.0, line.ts),
                Trajectory("down", "0", line.xs, line.ys - 1.0, line.ts),
            ]
        )
        assert _nearest_within(frame, [line], 1.0) == [1]
        assert _nearest_within(frame, [line], float(np.nextafter(1.0, 0.0))) == [-1]

    def test_a_box_gap_just_over_the_threshold_is_pruned_not_chosen(self):
        line = Trajectory("a", "0", [0.0, 1.0], [0.0, 0.0], [0.0, 1.0])
        near = Trajectory("b", "0", [0.0, 1.0], [1.0, 1.0], [0.0, 1.0])
        frame = MODFrame.from_trajectories([near])
        assert _nearest_within(frame, [line], 1.0) == [0]
        assert _nearest_within(frame, [line], 0.999) == [-1]


def lanes(seed: int, n: int) -> list[Trajectory]:
    mod, _truth = lane_scenario(n_trajectories=n, n_samples=30, seed=seed, name="f")
    trajs = mod.trajectories()
    return [trajs[i] for i in np.random.default_rng(seed).permutation(len(trajs))]


def store_digest(path: Path) -> dict[str, str]:
    return {
        str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.rglob("*"))
        if p.is_file()
    }


def grow_store(path: Path, trajs: list[Trajectory], base: int, batch: int) -> list:
    """Bulk load ``base`` trajectories, then append the rest ``batch`` at a time.

    Returns the store's digest and the tree's counters after every step.
    """
    engine = HermesEngine.on_disk(path)
    engine.load_mod("f", MOD(name="f", trajectories=trajs[:base]))
    tree = engine.retratree("f")
    steps = []
    for start in range(base, len(trajs) + 1, batch):
        if start > base:
            engine.append("f", trajs[start - batch : start])
        stats = asdict(tree.stats)
        stats.pop("maintenance_seconds")
        steps.append((store_digest(path), stats))
    engine.close()
    return steps


class TestStoreBytes:
    @pytest.mark.parametrize("seed", [100, 101])
    def test_store_bytes_equal_the_per_piece_insert_loop(self, tmp_path, monkeypatch, seed):
        trajs = lanes(seed, 60 + 3 * 20)
        real = grow_store(tmp_path / "real", trajs, 60, 20)
        monkeypatch.setattr(ReTraTree, "_insert_pieces", insert_pieces_one_by_one)
        monkeypatch.setattr(ReTraTree, "_decide", decide_per_piece)
        oracle = grow_store(tmp_path / "oracle", trajs, 60, 20)
        assert len(real) == 4
        assert real == oracle


class RecordingIO(IOShim):
    """Records the files written and fsynced; an unlink forgets the file's writes."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.written: set[str] = set()
        self.fsynced: list[str] = []
        self.dir_fsyncs = 0

    def write(self, fh, data: bytes) -> None:
        self.written.add(Path(fh.name).name)
        super().write(fh, data)

    def unlink(self, path) -> None:
        self.written.discard(Path(path).name)
        super().unlink(path)

    def fsync(self, fh) -> None:
        self.fsynced.append(Path(fh.name).name)
        super().fsync(fh)

    def fsync_dir(self, path) -> None:
        self.dir_fsyncs += 1
        super().fsync_dir(path)


class TestCommitCost:
    def test_an_append_fsyncs_exactly_the_partitions_it_wrote(self, tmp_path):
        trajs = lanes(7, 80)
        io = RecordingIO()
        engine = HermesEngine.on_disk(tmp_path, io=io)
        engine.load_mod("f", MOD(name="f", trajectories=trajs[:60]))
        engine.retratree("f")
        open_partitions = len(engine.catalog.storage("f").partitions())
        io.reset()
        engine.append("f", trajs[60:])
        engine.close()

        partitions = sorted(name for name in io.fsynced if name.endswith(".part"))
        assert sorted(name for name in io.written if name.endswith(".part")) == partitions
        assert len(set(partitions)) == len(partitions), "a partition was fsynced twice"
        assert set(io.fsynced) - set(partitions) == {"manifest.json.tmp"}
        assert io.fsynced.count("manifest.json.tmp") == 1
        assert io.dir_fsyncs == 1
        # The point of the pin: most open partitions were not written.
        assert len(partitions) < open_partitions

    def test_a_commit_does_not_rebless_damage_in_a_page_it_did_not_write(self, tmp_path):
        trajs = lanes(11, 60)
        late = [
            Trajectory(f"late{i}", "0", t.xs, t.ys, t.ts + 10 * (t.ts[-1] - t.ts[0]) + 1e4)
            for i, t in enumerate(trajs[:20])
        ]
        io = RecordingIO()
        engine = HermesEngine.on_disk(tmp_path, io=io)
        engine.load_mod("f", MOD(name="f", trajectories=trajs))
        tree = engine.retratree("f")
        victim = tree.subchunks()[0].entries[0].partition_name
        path = tmp_path / "f" / f"{victim}.part"
        data = bytearray(path.read_bytes())
        data[PAGE_SIZE // 2] ^= 0xFF
        path.write_bytes(bytes(data))

        io.reset()
        engine.append("f", late)  # lands in sub-chunks the bulk load never opened
        assert f"{victim}.part" not in io.written
        engine.close()

        storage = StorageManager(tmp_path / "f")
        manifest = storage.read_manifest()
        storage.set_expected_checksums(manifest["checksums"])
        with pytest.raises(CorruptPartitionError, match=victim):
            ReTraTree.from_manifest(manifest["tree"], storage=storage)
        storage.close()
