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
from collections.abc import Callable, Iterable, Sequence
from typing import Any, NamedTuple, TypeVar

from repro.storage.buffer_pool import BufferPool
from repro.storage.errors import CorruptManifestError, CorruptPartitionError
from repro.storage.faults import DEFAULT_IO, IOShim, with_retries
from repro.storage.heapfile import HeapFile, count_records
from repro.storage.page import PAGE_SIZE
from repro.storage.pager import FilePager, InMemoryPager, torn_tail

__all__ = [
    "StorageManager",
    "PartitionInfo",
    "Expected",
    "MANIFEST_FILENAME",
    "manifest_checksum",
    "page_checksums",
    "staged_tmp_path",
    "verify_partitions",
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
    single pattern, and the commit-order check of
    ``tests/core/test_crash_sweep.py`` knows which file each rename stages.
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
    """Per-page CRC32s of a partition file image of whole pages."""
    view = memoryview(data)
    return [zlib.crc32(view[i : i + PAGE_SIZE]) for i in range(0, len(data), PAGE_SIZE)]


class Expected(NamedTuple):
    """What a committed manifest records for one partition.

    ``crcs`` is its list of per-page CRC32s and ``count`` its number of
    records, each ``None`` when the manifest records none, or records
    something other than ints (``bool`` is not an int here).
    """

    crcs: list[int] | None
    count: int | None


def _part_path(directory: Path | None, name: str) -> Path | None:
    return directory / f"{name}.part" if directory is not None else None


def _page_problem(name: str, image: bytes, crcs: list[int] | None, directory: Path | None):
    """Steps 1-3 of :func:`verify_partitions`: the file's size and pages."""
    if len(image) % PAGE_SIZE:
        return torn_tail(name, len(image), _part_path(directory, name))
    if crcs is None:
        return None
    pages = len(image) // PAGE_SIZE
    if pages != len(crcs):
        return CorruptPartitionError(
            f"partition {name!r} holds {pages} pages but the manifest recorded {len(crcs)}",
            path=_part_path(directory, name),
            offset=min(pages, len(crcs)) * PAGE_SIZE,
            kind="checksum_mismatch",
        )
    for page_no, (got, want) in enumerate(zip(page_checksums(image), crcs)):
        if got != want:
            return CorruptPartitionError(
                f"partition {name!r} page {page_no} fails its CRC32 check "
                f"(stored {want}, computed {got})",
                path=_part_path(directory, name),
                offset=page_no * PAGE_SIZE,
                kind="checksum_mismatch",
            )
    return None


def _record_counts(images: list[bytes]) -> list[int | ValueError]:
    """Each image's record count, or the error its heap raises; one pass while all decode."""
    try:
        return count_records(images)
    except ValueError:
        pass
    counts: list[int | ValueError] = []
    for image in images:
        try:
            counts.extend(count_records([image]))
        except ValueError as exc:
            counts.append(exc)
    return counts


def verify_partitions(
    partitions: Sequence[tuple[str, bytes, Expected]], directory: Path | None = None
) -> list[CorruptPartitionError | None]:
    """Each partition image's first problem against what was recorded for it, or ``None``.

    The one partition verifier, pure: the verified open
    (:meth:`StorageManager.open_partitions`) and ``repro-fsck`` both judge
    a partition with it.  ``partitions`` holds ``(name, image, expected)``
    triples — the partition file read whole and what the manifest recorded
    for it — and ``directory`` locates the files the problems name.  Each
    image's first failing check, in this order, is its problem:

    1. a torn tail: a size that is not a whole number of pages;
    2. a page count other than the number of ``expected.crcs``;
    3. the first page whose CRC32 is not the recorded one;
    4. a heap that does not decode
       (:func:`~repro.storage.heapfile.count_records` raises);
    5. a record count other than ``expected.count``.

    An expectation that is ``None`` skips its steps (2-3, or 4-5).  The
    problem is the :class:`CorruptPartitionError` the open raises, tagged
    with the ``repro-fsck`` finding kind it is reported under.  The records
    of all images still to count are counted in one pass.
    """
    problems = [_page_problem(name, image, expected.crcs, directory) for name, image, expected in partitions]
    counted = [
        i for i, problem in enumerate(problems) if problem is None and partitions[i][2].count is not None
    ]
    for i, got in zip(counted, _record_counts([partitions[i][1] for i in counted]) if counted else []):
        name, _image, expected = partitions[i]
        if isinstance(got, ValueError):
            problems[i] = CorruptPartitionError(
                f"partition {name!r} is undecodable: {got}", path=_part_path(directory, name)
            )
        elif got != expected.count:
            problems[i] = CorruptPartitionError(
                f"partition {name!r} holds {got} records but the manifest "
                f"recorded {expected.count} (torn commit)",
                path=_part_path(directory, name),
            )
    return problems


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
        # partition file — see open_partitions / set_expected_checksums.
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
        return self.open_partitions([(name, None)])[0]

    def get_or_create(self, name: str) -> PartitionInfo:
        """Return the named partition, opening or creating it on first use.

        The first open checks the file against the page CRCs the committed
        manifest recorded for it (:meth:`open_partitions`).  Warm paths
        (partition already open) pay nothing.
        """
        info = self._partitions.get(name)
        if info is not None:
            return info
        return self.open_partitions([(name, None)])[0]

    def set_expected_checksums(self, checksums: Manifest | None) -> None:
        """Register the manifest's per-partition page checksums for recovery.

        ``checksums`` maps partition name to its list of per-page CRC32s (the
        manifest's ``checksums`` key, which the durable catalog registers only
        once :func:`~repro.storage.durable.manifest_problem` found an int list
        for every partition the manifest references).  Each list is checked as
        recorded on the partition's first open and then dropped; a partition
        without a list opens unverified.
        """
        self._expected_checksums = {
            name: crcs for name, crcs in (checksums or {}).items() if isinstance(crcs, list)
        }

    def open_partitions(self, partitions: Sequence[tuple[str, int | None]]) -> list[PartitionInfo]:
        """The named partitions, each checked against what the manifest recorded for it.

        ``partitions`` pairs each name with the record count the manifest
        recorded for it (``None``: no count to check).  A partition not yet
        open is opened, an absent file created empty.  When there is
        something to check — the page CRCs :meth:`set_expected_checksums`
        registered for it, or a count — an existing file is read once, whole,
        and its pages then fill the partition's buffer pool, so the heap
        file's free-space scan and the first record read cost no second
        read.  A partition already open has its pooled pages counted.  One
        :func:`verify_partitions` call judges them all, so corrupt bytes
        never reach a query answer, and the first problem raises: then no
        partition of the call is registered, no file handle is kept and the
        expectations stay, so every retry re-verifies and raises the same
        diagnostic.  A partition with a count keeps it as its
        ``record_count``.
        """
        fresh: dict[str, tuple[BufferPool, Path | None, bytes | None]] = {}
        checks: list[tuple[str, bytes, Expected]] = []
        try:
            for name, count in partitions:
                info = self._partitions.get(name)
                if info is not None:
                    if count is not None:
                        pool = info.heapfile.buffer_pool
                        image = b"".join(pool.get_page(no).data for no in range(pool.num_pages()))
                        checks.append((name, image, Expected(None, count)))
                    continue
                if name in fresh:
                    continue
                crcs = self._expected_checksums.get(name)
                pool, path, image = self._pool(name, read=crcs is not None or count is not None)
                fresh[name] = (pool, path, image)
                if image is not None or count is not None:
                    checks.append((name, image or b"", Expected(None if image is None else crcs, count)))
            problem = next(filter(None, verify_partitions(checks, self.directory)), None)
            if problem is not None:
                raise problem
        except BaseException:
            for pool, _path, _image in fresh.values():
                self.io_retries += pool.io_retries
                pool.close()
            raise
        for name, (pool, path, image) in fresh.items():
            if image:
                pool.preload(image)
            self._expected_checksums.pop(name, None)
            self._partitions[name] = PartitionInfo(
                name=name, heapfile=HeapFile(pool), on_disk=path is not None, path=path
            )
        infos = []
        for name, count in partitions:
            info = self._partitions[name]
            if count is not None:
                info.record_count = count
            infos.append(info)
        return infos

    def _pool(self, name: str, read: bool) -> tuple[BufferPool, Path | None, bytes | None]:
        """A buffer pool over partition ``name``, its file, and the file read whole.

        The file is read only when ``read`` is set and it existed; a failed
        read keeps no file handle.
        """
        if self.directory is None:
            return BufferPool(InMemoryPager(), capacity=self._buffer_pool_pages), None, None
        path = self.directory / f"{name}.part"
        pager = FilePager(path, io=self.io)
        image = None
        if read and not pager.created:
            try:
                image = pager.read_image()
            except BaseException:
                self.io_retries += pager.io_retries
                pager.close()
                raise
        return BufferPool(pager, capacity=self._buffer_pool_pages), path, image

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
        Only partitions written since their last fsync are fsynced
        (:meth:`~repro.storage.pager.FilePager.sync`).
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

    def partition_checksums(
        self, names: Iterable[str], committed: Manifest | None = None
    ) -> dict[str, list[int]]:
        """Per-page CRC32s of the named partitions' files.

        Call after :meth:`checkpoint` — the checksums describe what is on
        disk, and the manifest that records them must never be committed
        over unflushed pages.  Names without an on-disk file (in-memory
        managers, never-created partitions) are skipped.

        ``committed`` is the last committed manifest's ``checksums`` map.
        Without it every page is read and checksummed.  With it a commit
        costs what it wrote: a partition open here re-reads only the pages
        it wrote since that commit
        (:meth:`~repro.storage.pager.FilePager.page_checksums`), and one
        that is not open keeps its recorded list unread.
        """
        sums: dict[str, list[int]] = {}
        if self.directory is None:
            return sums
        committed = committed or {}
        for name in names:
            info = self._partitions.get(name)
            if info is not None:
                pager = info.heapfile.buffer_pool.pager
                assert isinstance(pager, FilePager)
                sums[name] = pager.page_checksums(committed.get(name, []))
                continue
            if name in committed:
                sums[name] = list(committed[name])
                continue
            path = self.directory / f"{name}.part"
            if not path.exists():
                continue
            data = self._retry(lambda p=path: self.io.read_bytes(p))
            if len(data) % PAGE_SIZE:
                raise torn_tail(name, len(data), path)
            sums[name] = page_checksums(data)
        return sums

    def mark_committed(self) -> None:
        """Every open partition's pages now match the manifest just committed."""
        for info in self._partitions.values():
            if info.on_disk:
                pager = info.heapfile.buffer_pool.pager
                assert isinstance(pager, FilePager)
                pager.mark_committed()

    # -- aggregate statistics -------------------------------------------------------

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
