"""Disk storage substrate.

This package plays the role of PostgreSQL's storage layer in the paper's
architecture (Fig. 2): ReTraTree cluster entries and the outlier set are
archived in dedicated *partitions* on disk.  The implementation is a small
but real storage engine:

* :mod:`repro.storage.page`        -- slotted 8 KiB pages,
* :mod:`repro.storage.pager`       -- file-backed and in-memory page stores,
* :mod:`repro.storage.buffer_pool` -- LRU buffer pool with hit/miss counters,
* :mod:`repro.storage.heapfile`    -- record files addressed by RID,
* :mod:`repro.storage.records`     -- (sub-)trajectory record serialisation
  and the one parser, a partition's records into one checked frame,
* :mod:`repro.storage.catalog`     -- named partitions (create/open/drop),
  the atomic manifest write and directory reclamation,
* :mod:`repro.storage.durable`     -- the durable catalog: the manifest
  layout, the one commit, the one sweep, cold-open recovery,
* :mod:`repro.storage.errors`      -- structured corruption diagnostics,
* :mod:`repro.storage.faults`      -- the OS-call shim every component does
  its I/O through, and its fault-injecting test double,
* :mod:`repro.storage.fsck`        -- offline verification and repair (the
  ``repro-fsck`` engine).

Manifest format
---------------
Each dataset directory owns one ``manifest.json``, the durable root the
engine recovers from.  Its layout (``format_version`` 4, the only one read
or written — dataset archive, append deltas, the ``tree`` index section,
integrity stamps) and the stage → checkpoint → stamp → commit → sweep
protocol that writes it are documented, once, in
:mod:`repro.storage.durable`, the module that owns both.

Member records stay in their partitions' heapfiles; the manifest only adds
the structure that lived in memory.  Recovery opens every partition (page CRCs verified) and checks
each heapfile's record count — read from slot directories and chunk
headers, :meth:`~repro.storage.heapfile.HeapFile.count_records` — against
the manifest's (a mismatch is the signature of a torn append and degrades
to a rebuild); no member record is decoded until a query loads it, and a
query decodes each partition it loads as one batch.

Failure model
-------------
Every file mutation goes through an :class:`~repro.storage.faults.IOShim`
(write, fsync, rename, unlink), so the fault-injection harness can crash
the engine at any single operation or fail operations transiently; the
crash-sweep tests drive every such point and assert recovery lands on
exactly the pre- or post-commit state.  Corruption detected anywhere
raises :class:`~repro.storage.errors.StorageCorruptionError` subclasses
naming the file, offset and partition generation — never a wrong answer —
and ``repro-fsck`` (:mod:`repro.storage.fsck`) diagnoses and repairs.
"""

from repro.storage.page import Page, PAGE_SIZE
from repro.storage.pager import FilePager, InMemoryPager, Pager
from repro.storage.buffer_pool import BufferPool, BufferPoolStats
from repro.storage.heapfile import HeapFile, RID
from repro.storage.records import RecordBatch, decode_records, encode_record
from repro.storage.catalog import (
    StorageManager,
    PartitionInfo,
    manifest_checksum,
    page_checksums,
    staged_tmp_path,
)
from repro.storage.durable import MANIFEST_FORMAT, DurableCatalog
from repro.storage.errors import (
    CorruptManifestError,
    CorruptPartitionError,
    StorageCorruptionError,
    partition_generation,
)
from repro.storage.faults import (
    DEFAULT_IO,
    FaultInjector,
    InjectedCrash,
    IOShim,
    with_retries,
)
from repro.storage.fsck import FsckIssue, FsckReport, fsck_store

__all__ = [
    "Page",
    "PAGE_SIZE",
    "Pager",
    "FilePager",
    "InMemoryPager",
    "BufferPool",
    "BufferPoolStats",
    "HeapFile",
    "RID",
    "RecordBatch",
    "encode_record",
    "decode_records",
    "StorageManager",
    "PartitionInfo",
    "DurableCatalog",
    "MANIFEST_FORMAT",
    "manifest_checksum",
    "page_checksums",
    "staged_tmp_path",
    "StorageCorruptionError",
    "CorruptPartitionError",
    "CorruptManifestError",
    "partition_generation",
    "IOShim",
    "DEFAULT_IO",
    "FaultInjector",
    "InjectedCrash",
    "with_retries",
    "FsckIssue",
    "FsckReport",
    "fsck_store",
]
