"""The batch decoder's contract, pinned against the per-record oracle.

``decode_records`` must read exactly what ``encode_record`` wrote — ids,
parent bounds and every sample bit for bit, as the record-at-a-time parser
in ``tests/storage/oracles.py`` reads it — and must refuse each corruption
with the oracle's exact message, wherever the record sits in the batch.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hermes.trajectory import SubTrajectory, Trajectory
from repro.hermes.types import Period
from repro.qut.params import QuTParams
from repro.qut.query import QuTClustering
from repro.qut.retratree import ReTraTree
from repro.storage.catalog import StorageManager
from repro.storage.durable import DurableCatalog
from repro.storage.errors import CorruptPartitionError
from repro.storage.heapfile import HeapFile
from repro.storage.page import PAGE_SIZE
from repro.storage.records import decode_records, encode_record
from tests.conftest import make_linear_trajectory, restriction_signature
from tests.qut.test_retratree import flow_mod
from tests.storage.oracles import decode_record, record_to_subtrajectory

identifier = st.text(min_size=0, max_size=12)


@st.composite
def stored_item(draw):
    """A trajectory (unicode ids, >= 2 samples) or one of its sub-trajectories."""
    n = draw(st.integers(min_value=2, max_value=30))
    coord = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False)
    ts = draw(st.floats(min_value=-1e6, max_value=1e6)) + np.cumsum(
        draw(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=n, max_size=n))
    )
    traj = Trajectory(
        draw(identifier),
        draw(identifier),
        draw(st.lists(coord, min_size=n, max_size=n)),
        draw(st.lists(coord, min_size=n, max_size=n)),
        ts,
    )
    if draw(st.booleans()):
        start = draw(st.integers(min_value=0, max_value=n - 2))
        end = draw(st.integers(min_value=start + 1, max_value=n - 1))
        return traj.subtrajectory(start, end)
    return traj


def packed(values: np.ndarray) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def assert_matches_oracle(raws: list[bytes]) -> None:
    batch = decode_records(raws)
    records = [decode_record(raw) for raw in raws]
    assert len(batch) == len(records)
    assert batch.parent_keys == [(rec.obj_id, rec.traj_id) for rec in records]
    assert batch.bounds == [(rec.parent_start, rec.parent_end) for rec in records]
    for column in ("xs", "ys", "ts"):
        expected = b"".join(packed(getattr(rec, column)) for rec in records)
        assert packed(getattr(batch.frame, column)) == expected
    assert batch.frame.offsets.tolist() == [0, *np.cumsum([len(rec.ts) for rec in records])]
    subs = batch.subtrajectories()
    for row, (raw, rec) in enumerate(zip(raws, records)):
        if rec.is_subtrajectory:
            oracle = record_to_subtrajectory(raw)
            assert restriction_signature([subs[row]]) == restriction_signature([oracle])
            assert subs[row].traj.key == oracle.traj.key
        else:
            assert batch.trajectories()[row] == rec.to_trajectory()


class TestRoundTripEqualsOracle:
    @settings(max_examples=120, deadline=None)
    @given(st.lists(stored_item(), max_size=8))
    def test_generated_batches(self, items):
        assert_matches_oracle([encode_record(item) for item in items])

    def test_unicode_ids_and_two_sample_records(self):
        traj = make_linear_trajectory("Ωμέγα", "τ-1", n=2)
        sub = make_linear_trajectory("飛行機", "0", n=5).subtrajectory(3, 4)
        assert_matches_oracle([encode_record(traj), encode_record(sub)])
        assert decode_records([encode_record(sub)]).frame.keys == [("飛行機", "0#3-4")]

    def test_empty_input(self):
        batch = decode_records([])
        assert len(batch) == 0 and len(batch.frame) == 0
        assert batch.parent_keys == [] and batch.bounds == []
        assert batch.trajectories() == [] and batch.subtrajectories() == []

    def test_records_chained_across_pages(self):
        """Records longer than a page come back from a heapfile scan intact."""
        storage = StorageManager()
        heapfile: HeapFile = storage.create_partition("long").heapfile
        long_ones = [
            make_linear_trajectory("long", str(i), n=3 * PAGE_SIZE // 24 + i) for i in range(2)
        ]
        items = [long_ones[0], make_linear_trajectory("short", "0"), long_ones[1].subtrajectory(5, 700)]
        for item in items:
            heapfile.insert(encode_record(item))
        assert heapfile.num_pages() >= 5
        raws = [raw for _rid, raw in heapfile.scan_records()]
        assert sorted(len(raw) for raw in raws)[-1] > 2 * PAGE_SIZE
        assert_matches_oracle(raws)


WHOLE = make_linear_trajectory("a", "0", n=4)
SUB = make_linear_trajectory("b", "7", n=6).subtrajectory(1, 4)


def header_end(raw: bytes) -> int:
    """Offset of the first sample byte."""
    offset = 0
    for _ in range(2):
        (length,) = struct.unpack_from("<H", raw, offset)
        offset += 2 + length
    return offset + 12


def with_samples(raw: bytes, samples: list[tuple[float, float, float]]) -> bytes:
    """``raw`` with its sample count and samples replaced."""
    start = header_end(raw)
    head = raw[: start - 4] + struct.pack("<I", len(samples))
    return head + b"".join(struct.pack("<3d", *s) for s in samples)


CORRUPTIONS = {
    "truncated-id-length": lambda raw: raw[:1],
    "truncated-id": lambda raw: raw[:3],
    "truncated-header": lambda raw: raw[: header_end(raw) - 5],
    "truncated-samples": lambda raw: raw[:-7],
    "one-sample": lambda raw: with_samples(raw, [(0.0, 0.0, 0.0)]),
    "non-increasing-t": lambda raw: with_samples(raw, [(0.0, 0.0, 1.0), (1.0, 1.0, 1.0)]),
    "backwards-t": lambda raw: with_samples(raw, [(0.0, 0.0, 2.0), (1.0, 1.0, 1.0), (2.0, 2.0, 3.0)]),
}


def oracle_error(raw: bytes, item) -> str:
    try:
        if isinstance(item, SubTrajectory):
            record_to_subtrajectory(raw)
        else:
            decode_record(raw).to_trajectory()
    except ValueError as exc:
        return str(exc)
    raise AssertionError("the oracle accepted a corrupt record")


class TestCorruptionsRaiseTheOraclesMessage:
    @pytest.mark.parametrize("item", [WHOLE, SUB], ids=["whole", "sub"])
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_anywhere_in_the_batch(self, item, corruption, position):
        bad = CORRUPTIONS[corruption](encode_record(item))
        raws = [encode_record(make_linear_trajectory(f"ok{i}", "0")) for i in range(2)]
        raws.insert(position, bad)
        with pytest.raises(ValueError) as excinfo:
            decode_records(raws)
        assert str(excinfo.value) == oracle_error(bad, item)

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_dataset_archive_wraps_it_naming_the_partition(self, corruption):
        storage = StorageManager()
        info = storage.create_partition("f__base_3")
        info.heapfile.insert(encode_record(make_linear_trajectory("ok", "0")))
        bad = CORRUPTIONS[corruption](encode_record(WHOLE))
        info.heapfile.insert(bad)
        with pytest.raises(CorruptPartitionError) as excinfo:
            DurableCatalog._decode(storage, "f", "f__base_3", [["ok", "0"], ["a", "0"]])
        message = str(excinfo.value)
        assert f"partition 'f__base_3' does not decode: {oracle_error(bad, WHOLE)};" in message


class TestUndecodableMemberFailsInTheQuery:
    """A record whose page is intact but whose samples are not a trajectory
    is not noticed by the reopen, which decodes no member; the first query
    that loads its partition refuses it."""

    def test_reopen_succeeds_and_the_first_query_raises(self):
        mod = flow_mod(n_per_flow=6, n_flows=2, duration=100.0)
        storage = StorageManager()
        tree = ReTraTree.build(mod, QuTParams(tau=50.0, delta=25.0, overflow_threshold=6), storage=storage)
        manifest = tree.to_manifest()
        entry = next(e for sc in tree.subchunks() for e in sc.entries)
        heapfile = storage.get(entry.partition_name).heapfile
        rid, raw = next(iter(heapfile.scan_records()))
        page = heapfile.buffer_pool.get_page(rid.page_no)
        at = page.data.find(raw)
        ts_at = at + header_end(raw) + 16  # t of the first sample
        second_t = page.data[ts_at + 24 : ts_at + 32]
        page.data[ts_at : ts_at + 8] = second_t  # t0 == t1: same length, no CRC here
        heapfile.buffer_pool.mark_dirty(rid.page_no)

        reopened = ReTraTree.from_manifest(manifest, storage)
        assert reopened.stats.partitions_decoded == 0
        with pytest.raises(ValueError, match="timestamps must be strictly increasing"):
            QuTClustering(reopened).query(Period(0.0, 100.0))
