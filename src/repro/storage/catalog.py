"""Partition catalog.

The :class:`StorageManager` creates and tracks named partitions — each one a
heap file backed either by a file on disk or by memory.  ReTraTree cluster
entries and the outlier set each own a partition, mirroring the
"pg3D-Rtree-k" partitions of the paper's Figure 2.

Alongside the partitions, a directory-backed manager owns one **manifest**
(``manifest.json``): a JSON document describing everything the engine needs
to reopen the directory cold — which partition archives the dataset's
trajectories and, once a ReTraTree has been built, the serialised tree
structure (see :meth:`repro.qut.retratree.ReTraTree.to_manifest`).  The
manifest is the catalog's durable root: recovery starts by reading it, and
:meth:`StorageManager.destroy` deletes it together with the partition files
so a dropped dataset reclaims its disk space.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Callable, Iterable
from typing import Any, TypeVar

from repro.storage.buffer_pool import BufferPool
from repro.storage.errors import (
    CorruptManifestError,
    CorruptPartitionError,
    partition_generation,
)
from repro.storage.faults import DEFAULT_IO, IOShim, with_retries
from repro.storage.heapfile import HeapFile
from repro.storage.page import PAGE_SIZE
from repro.storage.pager import FilePager, InMemoryPager

__all__ = [
    "StorageManager",
    "PartitionInfo",
    "MANIFEST_FILENAME",
    "manifest_checksum",
    "page_checksums",
    "staged_tmp_path",
]

MANIFEST_FILENAME = "manifest.json"

#: A parsed ``manifest.json`` document.  Values are heterogeneous JSON
#: (strings, ints, nested objects), so the alias is honest about ``Any``.
Manifest = dict[str, Any]

_T = TypeVar("_T")


def staged_tmp_path(path: Path) -> Path:
    """The staging-file path for an atomic replace of ``path``.

    Every stage→fsync→replace commit in the storage layer (the catalog's
    manifest write, fsck's manifest repair) stages through this one
    naming scheme — ``<name>.json.tmp`` next to the target — so crash
    recovery and the orphan sweep recognise leftover staging files by a
    single pattern, and the io-discipline checker (repro-lint REPRO101)
    has one blessed tmp-path construction to point at.
    """
    return path.with_suffix(path.suffix + ".tmp")


def manifest_checksum(manifest: Manifest) -> int:
    """CRC32 over a manifest's canonical JSON, excluding ``manifest_crc``.

    The canonical form (sorted keys, no whitespace) makes the checksum a
    function of the manifest's *content*, not its on-disk formatting; the
    stored ``manifest_crc`` key itself is excluded so the stamp can live
    inside the document it protects.
    """
    payload = json.dumps(
        {k: v for k, v in manifest.items() if k != "manifest_crc"},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    return zlib.crc32(payload)


def page_checksums(data: bytes) -> list[int]:
    """Per-page CRC32s of a partition file image.

    Raises :class:`CorruptPartitionError` when the image is not a whole
    number of pages (a torn tail cannot be checksummed page-by-page).
    """
    if len(data) % PAGE_SIZE != 0:
        raise CorruptPartitionError(
            f"partition image of {len(data)} bytes is not a whole number of "
            f"{PAGE_SIZE}-byte pages",
            offset=len(data) - (len(data) % PAGE_SIZE),
        )
    return [
        zlib.crc32(data[i : i + PAGE_SIZE]) for i in range(0, len(data), PAGE_SIZE)
    ]


@dataclass
class PartitionInfo:
    """Catalog entry for one partition."""

    name: str
    heapfile: HeapFile
    on_disk: bool
    path: Path | None = None
    record_count: int = 0


class StorageManager:
    """Creates, opens and drops named partitions.

    Parameters
    ----------
    directory:
        Directory for partition files.  ``None`` keeps every partition in
        memory (the default for tests and small analyses).
    buffer_pool_pages:
        Buffer pool capacity per partition, in pages.
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        buffer_pool_pages: int = 64,
        io: IOShim | None = None,
    ) -> None:
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.io = io if io is not None else DEFAULT_IO
        #: Transient I/O failures absorbed on manifest/unlink paths.
        self.io_retries = 0
        self._buffer_pool_pages = buffer_pool_pages
        self._partitions: dict[str, PartitionInfo] = {}
        # Per-page CRC32s the committed manifest recorded per partition;
        # consumed (verified, then discarded) on the first open of each
        # partition file — see get_or_create / set_expected_checksums.
        self._expected_checksums: dict[str, list[int]] = {}
        # Manifest of an in-memory manager (a directory-backed one reads and
        # writes manifest.json instead, so state survives the process).
        self._memory_manifest: Manifest | None = None

    def _retry(self, fn: Callable[[], _T]) -> _T:
        """Bounded-retry wrapper for this manager's own I/O calls."""

        def note() -> None:
            self.io_retries += 1

        return with_retries(fn, on_retry=note)

    # -- lifecycle ---------------------------------------------------------------

    def create_partition(self, name: str) -> PartitionInfo:
        """Create a new named partition; raises if the name already exists."""
        if name in self._partitions:
            raise ValueError(f"partition {name!r} already exists")
        if self.directory is not None:
            path = self.directory / f"{name}.part"
            pager = FilePager(path, io=self.io)
            on_disk = True
        else:
            path = None
            pager = InMemoryPager()
            on_disk = False
        pool = BufferPool(pager, capacity=self._buffer_pool_pages)
        info = PartitionInfo(name=name, heapfile=HeapFile(pool), on_disk=on_disk, path=path)
        self._partitions[name] = info
        return info

    def get_or_create(self, name: str) -> PartitionInfo:
        """Return the named partition, creating it on first use.

        When the committed manifest recorded page checksums for ``name``
        (see :meth:`set_expected_checksums`), the existing partition file
        is verified against them once — on this first open — and a
        mismatch raises :class:`CorruptPartitionError` *before* any record
        is decoded, so corrupt bytes never reach a query answer.  Warm
        paths (partition already open) pay nothing.
        """
        if name in self._partitions:
            return self._partitions[name]
        if name in self._expected_checksums:
            self._verify_partition(name)
        return self.create_partition(name)

    def set_expected_checksums(self, checksums: Manifest | None) -> None:
        """Register the manifest's per-partition page checksums for recovery.

        ``checksums`` maps partition name to a list of per-page CRC32s (the
        ``checksums`` key of a format-3 manifest).  Each entry is verified
        lazily on the partition's first open and then dropped; partitions
        without an entry (format-2 stores) open unverified.
        """
        self._expected_checksums = {
            name: [int(c) for c in crcs]
            for name, crcs in (checksums or {}).items()
            if isinstance(name, str) and isinstance(crcs, list)
        }

    def _verify_partition(self, name: str) -> None:
        """Check a partition file against its recorded page checksums.

        The expectation entry is dropped only after verification succeeds:
        a failing open leaves it in place so every retry re-verifies and
        raises the same diagnostic — a corrupt partition never gets a
        second, unverified chance to decode into a query answer.
        """
        expected = self._expected_checksums[name]
        if self.directory is None:
            self._expected_checksums.pop(name, None)
            return
        path = self.directory / f"{name}.part"
        if not path.exists():
            # Absent file: let the caller's record-count checks report the
            # missing records (an empty partition is created in its place).
            self._expected_checksums.pop(name, None)
            return
        data = self._retry(lambda: self.io.read_bytes(path))
        if len(data) % PAGE_SIZE != 0:
            raise CorruptPartitionError(
                f"partition {name!r} has size {len(data)}, not a multiple of "
                "the page size — the file tail is torn",
                path=path,
                offset=len(data) - (len(data) % PAGE_SIZE),
            )
        actual = page_checksums(data)
        if len(actual) != len(expected):
            raise CorruptPartitionError(
                f"partition {name!r} holds {len(actual)} pages but the "
                f"manifest recorded {len(expected)}",
                path=path,
                offset=min(len(actual), len(expected)) * PAGE_SIZE,
            )
        for page_no, (got, want) in enumerate(zip(actual, expected)):
            if got != want:
                raise CorruptPartitionError(
                    f"partition {name!r} page {page_no} fails its CRC32 check "
                    f"(stored {want}, computed {got})",
                    path=path,
                    offset=page_no * PAGE_SIZE,
                    generation=partition_generation(name),
                )
        self._expected_checksums.pop(name, None)

    def get(self, name: str) -> PartitionInfo:
        """Return the named partition; raises :class:`KeyError` if absent."""
        return self._partitions[name]

    def has(self, name: str) -> bool:
        """Whether the named partition is currently open in this catalog."""
        return name in self._partitions

    def drop_partition(self, name: str) -> None:
        """Drop a partition and delete its file, if any."""
        info = self._partitions.pop(name)
        self._expected_checksums.pop(name, None)
        info.heapfile.buffer_pool.close()
        if info.path is not None and info.path.exists():
            self._retry(lambda: self.io.unlink(info.path))

    def unlink_path(self, path: Path) -> None:
        """Delete a file through the manager's I/O shim (with retry).

        The engine's stale-file sweeps go through here so fault injection
        sees (and can crash on) every unlink in the commit protocol.
        """
        if path.exists():
            self._retry(lambda: self.io.unlink(path))

    def partitions(self) -> list[PartitionInfo]:
        """All catalog entries."""
        return list(self._partitions.values())

    def close(self) -> None:
        """Flush and close every partition."""
        for info in self._partitions.values():
            info.heapfile.buffer_pool.close()

    def checkpoint(self) -> None:
        """Flush and fsync every partition's dirty pages, without closing.

        Called at the engine's persistence points (dataset archival, tree
        serialisation) *before* the manifest commit, so the manifest never
        references records that could be lost to a process or system crash.
        """
        for info in self._partitions.values():
            info.heapfile.buffer_pool.sync()

    def destroy(self) -> None:
        """Close everything and reclaim the on-disk footprint.

        Deletes every partition file in the directory — including ``.part``
        files left behind by earlier processes that this manager never
        opened — plus the manifest, then removes the directory if it is
        empty.  This is what makes ``engine.drop`` actually release disk
        space instead of leaving stale heapfiles for a future same-named
        dataset to trip over.
        """
        self.close()
        self._partitions.clear()
        self._memory_manifest = None
        if self.directory is None or not self.directory.exists():
            return
        # The manifest goes FIRST — it is the drop's commit point.  A crash
        # right after leaves only orphan .part files (never a manifest
        # referencing deleted heapfiles), and a cold process that sees no
        # manifest treats the directory as not catalogued.
        manifest = self.directory / MANIFEST_FILENAME
        self.unlink_path(manifest)
        for path in self.directory.glob("*.part"):
            self.unlink_path(path)
        # A crash inside write_manifest can strand the staging file.
        for path in self.directory.glob("*.json.tmp"):
            self.unlink_path(path)
        try:
            self.directory.rmdir()
        except OSError:  # pragma: no cover - foreign files left by the user
            pass

    # -- manifest ---------------------------------------------------------------------

    @property
    def manifest_path(self) -> Path | None:
        """Location of the manifest file (``None`` for in-memory managers)."""
        if self.directory is None:
            return None
        return self.directory / MANIFEST_FILENAME

    def write_manifest(self, manifest: Manifest) -> None:
        """Persist the catalog manifest atomically and durably.

        The temp file is fsynced before the rename and the directory entry
        after it, so a system crash leaves either the previous manifest or
        the complete new one — this write is the engine's commit point.
        """
        path = self.manifest_path
        if path is None:
            self._memory_manifest = manifest
            return
        tmp = staged_tmp_path(path)
        payload = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8")

        def stage() -> None:
            fh = self.io.open(tmp, "wb")
            try:
                self.io.write(fh, payload)
                self.io.fsync(fh)
            finally:
                fh.close()

        self._retry(stage)
        self._retry(lambda: self.io.replace(tmp, path))
        # Make the rename itself durable (no-op on platforms without
        # directory fds — the rename stays atomic, just not crash-ordered,
        # which is the best available there).
        self.io.fsync_dir(path.parent)

    def read_manifest(self, verify: bool = True) -> Manifest | None:
        """The stored manifest, or ``None`` when nothing was persisted.

        Raises :class:`CorruptManifestError` when the file exists but is
        not a JSON object, or — with ``verify=True`` — when it carries a
        ``manifest_crc`` stamp that does not match its content.  This is
        the generic JSON-root API: a manifest without a stamp is returned
        unverified (:func:`repro.storage.durable.manifest_problem` is the
        check that *requires* one).
        """
        path = self.manifest_path
        if path is None:
            return self._memory_manifest
        if not path.exists():
            return None
        raw = self._retry(lambda: self.io.read_bytes(path))
        try:
            manifest = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise CorruptManifestError(
                f"manifest is not readable JSON: {exc}", path=path
            ) from exc
        if not isinstance(manifest, dict):
            raise CorruptManifestError(
                f"manifest holds a {type(manifest).__name__}, not an object",
                path=path,
            )
        if verify and not self.manifest_crc_ok(manifest):
            raise CorruptManifestError(
                "manifest fails its CRC32 integrity check (the file was "
                "modified or damaged after its commit)",
                path=path,
            )
        return manifest

    @staticmethod
    def manifest_crc_ok(manifest: Manifest) -> bool:
        """Whether a manifest's content matches its ``manifest_crc`` stamp.

        A manifest without a stamp trivially passes — there is nothing to
        verify against.
        """
        stored = manifest.get("manifest_crc")
        if stored is None:
            return True
        return stored == manifest_checksum(manifest)

    def partition_checksums(self, names: Iterable[str]) -> dict[str, list[int]]:
        """Per-page CRC32s of the named partitions' files, freshly computed.

        Call after :meth:`checkpoint` — the checksums describe what is on
        disk, and the manifest that records them must never be committed
        over unflushed pages.  Names without an on-disk file (in-memory
        managers, never-created partitions) are skipped.
        """
        sums: dict[str, list[int]] = {}
        if self.directory is None:
            return sums
        for name in names:
            path = self.directory / f"{name}.part"
            if not path.exists():
                continue
            data = self._retry(lambda p=path: self.io.read_bytes(p))
            sums[name] = page_checksums(data)
        return sums

    # -- aggregate statistics -------------------------------------------------------

    def total_pages(self) -> int:
        """Total allocated pages across partitions."""
        return sum(info.heapfile.num_pages() for info in self._partitions.values())

    def total_records(self) -> int:
        """Total record count as tracked by callers (see ``record_count``)."""
        return sum(info.record_count for info in self._partitions.values())

    def io_stats(self) -> dict[str, int]:
        """Aggregate physical/logical I/O counters across partitions.

        ``io_retries`` counts transient I/O failures absorbed by the
        bounded-retry paths (page reads/writes, fsyncs, manifest staging)
        — a rising value flags a flaky disk before it becomes an outage.
        """
        totals = {
            "hits": 0,
            "misses": 0,
            "pages_read": 0,
            "pages_written": 0,
            "io_retries": self.io_retries,
        }
        for info in self._partitions.values():
            stats = info.heapfile.buffer_pool.stats
            totals["hits"] += stats.hits
            totals["misses"] += stats.misses
            totals["pages_read"] += stats.pages_read
            totals["pages_written"] += stats.pages_written
            totals["io_retries"] += info.heapfile.buffer_pool.io_retries
        return totals
