"""The durable catalog: one owner for the manifest and its commit protocol.

An on-disk engine keeps one subdirectory per dataset.  The directory is
*private to its dataset*: it holds the dataset's heapfile partitions and one
``manifest.json``, the commit root everything is recovered from.  This
module is the only place that knows what that manifest looks like and how it
is committed — the engine (:mod:`repro.core.engine`), the append path
(:mod:`repro.core.ingest`) and ``repro-fsck`` (:mod:`repro.storage.fsck`)
all go through it:

* :func:`manifest_partitions` — the one walker: every partition a manifest
  references, with the record count it committed and its role;
* :func:`commit_manifest` — the one commit: checkpoint → stamp →
  :meth:`~repro.storage.catalog.StorageManager.write_manifest` →
  :func:`sweep`;
* :func:`sweep` — the one sweep rule: every ``.part`` / ``.json.tmp`` file
  (and every open partition) the manifest does not reference is debris;
* :func:`manifest_problem` — the one acceptance check for a parsed manifest;
* :class:`DurableCatalog` — the per-store object: the dataset directories'
  :class:`~repro.storage.catalog.StorageManager` handles, partition naming,
  staging, cold-open recovery and archive decoding.

Manifest schema (``format_version`` 4 — the only format read or written)
-----------------------------------------------------------------------
::

    {
      "format_version": 4,
      "dataset": "<name>",                 # dataset registered under this dir
      "frame_partition":                   # heapfile with one whole-trajectory
        "<name>__dataset_g<N>",            #   record per row (records.py);
                                           #   replacements stage into a fresh
                                           #   generation-suffixed partition
      "row_keys": [[obj_id, traj_id], …],  # explicit row order: heapfile scan
                                           #   order may differ once records
                                           #   span pages
      "deltas": [{                         # committed append batches, in order;
        "partition":                       #   recovery decodes the base archive
          "<name>__dataset_g<M>",          #   then every delta
        "row_keys": [[obj, traj], …]
      }, …],
      "tree": null | {                     # the dataset's index:
        "name", "origin", "next_cluster_id",   # ReTraTree.to_manifest() …
        "params": {…}, "raw_params": {…},  # QuTParams.to_dict()
        "chunk_range": null | [lo, hi],
        "reps_partition":                  # staged fresh per commit, never
          "<name>__reps_g<K>",             #   rewritten under a committed
        "reps_count": int,                 #   manifest
        "subchunks": [{
          "chunk_idx", "sub_idx", "period": [tmin, tmax],
          "unclustered_partition": str, "unclustered_count": int,
          "entries": [{
            "cluster_id": int, "partition": str, "member_count": int,
            "bbox": [xmin, ymin, tmin, xmax, ymax, tmax] | null,
            "representative_rid": [page_no, slot]   # in reps_partition
          }, …]
        }, …],
        "dataset_state": [str, …]          # … plus the base+delta partitions
      },                                   #   the tree indexes; a mismatch
                                           #   means stale => rebuild
      "checksums": {                       # per-page CRC32s of every referenced
        "<partition>": [int, …], …         #   partition, computed at commit,
      },                                   #   verified on first cold open
      "manifest_crc": int,                 # CRC32 over the canonical JSON of
                                           #   everything but this key
      "degraded": [str, …]                 # optional: what a repro-fsck
                                           #   --repair had to give up
    }

A manifest that is not exactly this — another ``format_version``, no
``manifest_crc`` or one that does not match, no ``checksums`` map — is
**damaged**: its dataset is withheld from :meth:`DurableCatalog.pending`,
asking for it raises :class:`~repro.storage.errors.CorruptManifestError`, and
``repro-fsck`` reports an error.

The commit protocol: stage → checkpoint → stamp → commit → sweep
----------------------------------------------------------------
New records are *staged* into partitions the committed manifest does not
reference; the *checkpoint* flushes and fsyncs them; the *stamp* records
their page checksums and the manifest CRC; the manifest write (temp file,
fsync, atomic rename, directory fsync) is the *commit* point; the *sweep*
deletes what the new manifest no longer references.  A crash anywhere leaves
a manifest pointing at complete records — the old one before the commit, the
new one after — and the debris is reclaimed by the next sweep (every commit
runs one, and so does every cold open).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import Protocol

from repro.hermes.trajectory import Trajectory
from repro.storage.catalog import (
    MANIFEST_FILENAME,
    Manifest,
    StorageManager,
    manifest_checksum,
)
from repro.storage.errors import CorruptManifestError, CorruptPartitionError
from repro.storage.faults import IOShim
from repro.storage.records import decode_records, encode_record

__all__ = [
    "MANIFEST_FORMAT",
    "QUARANTINE_DIRNAME",
    "DurableCatalog",
    "commit_manifest",
    "dataset_state",
    "manifest_partitions",
    "manifest_problem",
    "sweep",
]

#: The manifest layout this build writes — and the only one it reads.
MANIFEST_FORMAT = 4

#: Directory (under the store root) ``repro-fsck`` moves corrupt files into;
#: never a dataset directory.
QUARANTINE_DIRNAME = "_quarantine"


class _TreeStructure(Protocol):
    """What the catalog needs from a tree: it serialises itself."""

    def to_manifest(self, reps_partition: str | None = None) -> Manifest:
        """Write the representatives into ``reps_partition``; return the section."""


def _items(value: object) -> list[object]:
    """``value`` when it is a JSON array, else nothing (corrupt manifests)."""
    return value if isinstance(value, list) else []


def _length(value: object) -> int | None:
    return len(value) if isinstance(value, list) else None


def _tree_section(manifest: Manifest) -> Manifest | None:
    """The persisted index section, if any."""
    section = manifest.get("tree")
    return section if isinstance(section, dict) else None


def manifest_partitions(manifest: Manifest) -> Iterator[tuple[str, object, str]]:
    """Every partition a manifest references: ``(name, recorded_count, role)``.

    ``role`` is ``"base"``, ``"delta:<i>"`` (``i`` indexes ``deltas``) or
    ``"tree"`` (representatives, members and unclustered partitions of the
    index) — it decides what losing the partition costs.  Dataset partitions come first, in decode order.
    Counts are the raw manifest values (``None`` when not recorded); a
    manifest under diagnosis may hold anything there, so callers that act
    on a count coerce it themselves.
    """
    if isinstance(manifest.get("frame_partition"), str):
        yield manifest["frame_partition"], _length(manifest.get("row_keys")), "base"
    for i, delta in enumerate(_items(manifest.get("deltas"))):
        if isinstance(delta, dict) and isinstance(delta.get("partition"), str):
            yield delta["partition"], _length(delta.get("row_keys")), f"delta:{i}"
    tree = _tree_section(manifest)
    if tree is None:
        return
    if isinstance(tree.get("reps_partition"), str):
        yield tree["reps_partition"], tree.get("reps_count"), "tree"
    for sc in _items(tree.get("subchunks")):
        if not isinstance(sc, dict):
            continue
        if isinstance(sc.get("unclustered_partition"), str):
            yield sc["unclustered_partition"], sc.get("unclustered_count"), "tree"
        for entry in _items(sc.get("entries")):
            if isinstance(entry, dict) and isinstance(entry.get("partition"), str):
                yield entry["partition"], entry.get("member_count"), "tree"


def dataset_state(manifest: Manifest) -> list[str]:
    """The partitions archiving the dataset: the base plus every delta.

    This list is the *dataset state* identity a persisted tree records: a
    tree serialised against one state is stale for any other.
    """
    return [name for name, _, role in manifest_partitions(manifest) if role != "tree"]


def manifest_problem(manifest: object) -> tuple[str, str] | None:
    """Why a parsed manifest is not a committed format-4 one, or ``None``.

    Returns ``(kind, detail)``: ``"manifest_unsupported"`` when the layout
    cannot be interpreted at all (wrong ``format_version``, no dataset or
    base partition), ``"manifest_checksum"`` when it can but its integrity
    stamps are missing or do not match — in which case nothing in it,
    including the partition names a sweep would key on, can be trusted.
    """
    if not isinstance(manifest, dict):
        return "manifest_unsupported", "manifest is not a JSON object"
    if manifest.get("format_version") != MANIFEST_FORMAT:
        return (
            "manifest_unsupported",
            f"manifest format {manifest.get('format_version')!r} is not the "
            f"supported version {MANIFEST_FORMAT}",
        )
    if not isinstance(manifest.get("dataset"), str) or not isinstance(
        manifest.get("frame_partition"), str
    ):
        return "manifest_unsupported", "manifest names no dataset or no base partition"
    if not isinstance(manifest.get("checksums"), dict):
        return (
            "manifest_checksum",
            "manifest carries no checksums map; the partitions it "
            "references cannot be verified",
        )
    if manifest.get("manifest_crc") != manifest_checksum(manifest):
        return (
            "manifest_checksum",
            "manifest content does not match its manifest_crc stamp (the "
            "stamp is missing, or the file was modified or damaged after "
            "its commit)",
        )
    return None


def _read_committed(storage: StorageManager) -> tuple[Manifest | None, str | None]:
    """The directory's manifest, if it is a committed format-4 one.

    ``(manifest, None)`` when it is, ``(None, diagnostic)`` when the file
    holds anything else, ``(None, None)`` when there is no manifest.  Read
    *without* the generic CRC verification of
    :meth:`~repro.storage.catalog.StorageManager.read_manifest` (which lets
    an unstamped manifest pass): :func:`manifest_problem` is the stricter,
    and only, acceptance check.
    """
    try:
        manifest = storage.read_manifest(verify=False)
    except (OSError, ValueError) as exc:  # unreadable / not JSON
        return None, str(exc)
    if manifest is None:
        return None, None
    problem = manifest_problem(manifest)
    return (manifest, None) if problem is None else (None, problem[1])


def sweep(storage: StorageManager, manifest: Manifest) -> None:
    """Delete everything in the dataset directory ``manifest`` does not reference.

    The directory is private to its dataset, so an open partition, a
    ``.part`` file or a ``.json.tmp`` staging file the just-committed (or
    just-recovered) manifest does not name is debris: a replaced archive, a
    superseded representatives generation, a forgotten tree, or what a
    crash between an earlier commit and its sweep left behind.
    """
    referenced = {name for name, _, _ in manifest_partitions(manifest)}
    for info in storage.partitions():
        if info.name not in referenced:
            storage.drop_partition(info.name)
    if storage.directory is None:
        return
    for path in storage.directory.glob("*.part"):
        if path.stem not in referenced:
            storage.unlink_path(path)
    for path in storage.directory.glob("*.json.tmp"):
        storage.unlink_path(path)


def commit_manifest(storage: StorageManager, manifest: Manifest, fresh: set[str]) -> None:
    """Commit ``manifest`` as the dataset directory's new root.

    ``fresh`` names the partitions this commit staged or mutated.  They are
    checkpointed first — the manifest must never reference records that have
    not reached disk (a commit that stages nothing, such as un-registering a
    tree, has nothing to flush) — and their page checksums are recomputed
    from the flushed files; checksums of untouched partitions carry over, so
    a commit costs what it changed.  Then the stamped manifest is written
    (the atomic rename is the commit point) and the directory is swept.
    """
    if fresh:
        storage.checkpoint()
    # The retired sharded-layout section of a store written before there was
    # one index: its trees are unreferenced (swept), so the index rebuilds.
    manifest.pop("shards", None)
    manifest["format_version"] = MANIFEST_FORMAT
    referenced = [name for name, _, _ in manifest_partitions(manifest)]
    old = manifest.get("checksums")
    old = old if isinstance(old, dict) else {}
    computed = storage.partition_checksums(
        [name for name in referenced if name in fresh or name not in old]
    )
    manifest["checksums"] = {
        name: computed[name] if name in computed else old[name]
        for name in referenced
        if name in computed or name in old
    }
    manifest["manifest_crc"] = manifest_checksum(manifest)
    storage.write_manifest(manifest)
    sweep(storage, manifest)


class DurableCatalog:
    """The datasets persisted under one storage directory.

    Constructing the catalog *recovers* the store: one manifest read per
    dataset directory, nothing else.  A dataset whose manifest passes
    :func:`manifest_problem` is catalogued as *pending* — its archive decodes
    on the first :meth:`load`, its partitions verify against the recorded
    page checksums on their first open, and crash debris in its directory is
    swept at once.  A dataset whose manifest does not pass is recorded as
    damaged and left untouched, byte for byte, for ``repro-fsck``: one
    damaged dataset never hides the healthy ones.

    Parameters
    ----------
    root:
        The storage directory (one subdirectory per dataset).
    io:
        Optional OS-call shim handed to every storage manager the catalog
        opens; fault-injection tests pass a
        :class:`~repro.storage.faults.FaultInjector`.
    """

    def __init__(self, root: str | Path, io: IOShim | None = None) -> None:
        self.root = Path(root)
        self.io = io
        # One manager per dataset directory serves the archive, the tree
        # partitions and the manifest, so no two open handles ever point at
        # the same heapfile.
        self._storages: dict[str, StorageManager] = {}
        # Catalogued-but-undecoded datasets (their manifests), open order.
        self._pending: dict[str, Manifest] = {}
        # Directory name -> diagnostic of datasets withheld as damaged.
        self._damaged: dict[str, str] = {}
        if not self.root.exists():
            return
        for sub in sorted(p for p in self.root.iterdir() if p.is_dir()):
            if sub.name == QUARANTINE_DIRNAME or not (sub / MANIFEST_FILENAME).exists():
                continue
            storage = StorageManager(sub, io=self.io)
            manifest, diagnostic = _read_committed(storage)
            if manifest is None:
                self._damaged[sub.name] = diagnostic or "manifest vanished while opening"
                storage.close()
                continue
            storage.set_expected_checksums(manifest["checksums"])
            sweep(storage, manifest)
            self._pending[manifest["dataset"]] = manifest
            self._storages[manifest["dataset"]] = storage

    # -- names and handles --------------------------------------------------------

    @staticmethod
    def check_name(name: str) -> None:
        """Reject dataset names that cannot safely become path components.

        The name is embedded in the dataset's directory and partition
        filenames, and :meth:`drop` *deletes* those paths — a name like
        ``"../evil"`` would write and later destroy files outside the
        storage directory.
        """
        if not name or name in (".", "..") or any(sep in name for sep in ("/", "\\", "\0")):
            raise ValueError(
                f"dataset name {name!r} cannot be persisted: names must be "
                "non-empty and must not contain path separators"
            )

    def storage(self, name: str) -> StorageManager:
        """The dataset's one storage manager, opening its directory on first use."""
        self.check_name(name)
        if name not in self._storages:
            self._storages[name] = StorageManager(self.root / name, io=self.io)
        return self._storages[name]

    def pending(self) -> list[str]:
        """Catalogued datasets whose archives have not been decoded yet."""
        return list(self._pending)

    def raise_if_damaged(self, name: str) -> None:
        """Raise the recorded diagnostic if ``name`` was withheld as damaged."""
        if name in self._damaged:
            raise CorruptManifestError(
                f"dataset {name!r} exists on disk but its manifest is damaged "
                f"({self._damaged[name]})",
                path=self.root / name / MANIFEST_FILENAME,
            )

    def is_persisted(self, name: str) -> bool:
        """Whether dataset ``name`` has a manifest on disk."""
        try:
            self.check_name(name)
        except ValueError:
            return False
        storage = self._storages.get(name)
        # Trust the tracked manager: recovery keys on the manifest's dataset
        # name, not the directory's, and the two views must agree.
        path = storage.manifest_path if storage is not None else None
        return (path or self.root / name / MANIFEST_FILENAME).exists()

    @staticmethod
    def _committed(storage: StorageManager | None) -> Manifest | None:
        """The directory's manifest when it is a committed format-4 one."""
        return _read_committed(storage)[0] if storage is not None else None

    # -- recovery -----------------------------------------------------------------

    def load(self, name: str) -> list[Trajectory]:
        """Decode a pending dataset's archive, in the committed row order.

        The base archive first, then every committed delta in append order
        — the exact row order the warm process ended with.  Raises
        :class:`~repro.storage.errors.CorruptPartitionError` when a
        partition fails its recorded page checksums, does not decode, or
        lacks a record the manifest promises; the dataset then *stays
        pending*, so every retry repeats the diagnostic instead of
        degrading to "unknown dataset".
        """
        manifest = self._pending[name]
        storage = self.storage(name)
        ordered = self._decode(
            storage, name, manifest["frame_partition"], manifest.get("row_keys") or []
        )
        for delta in manifest.get("deltas") or []:
            ordered.extend(
                self._decode(storage, name, delta["partition"], delta.get("row_keys") or [])
            )
        del self._pending[name]
        return ordered

    @staticmethod
    def _decode(
        storage: StorageManager, name: str, partition: str, row_keys: list[list[str]]
    ) -> list[Trajectory]:
        """One archive partition's trajectories, ordered by ``row_keys``.

        The partition decodes as one batch; the trajectories are views of
        its checked frame.
        """
        info = storage.get_or_create(partition)
        try:
            batch = decode_records([raw for _rid, raw in info.heapfile.scan_records()])
        except CorruptPartitionError:
            raise
        except (ValueError, KeyError) as exc:
            raise CorruptPartitionError(
                f"dataset {name!r} is catalogued but partition {partition!r} "
                f"does not decode: {exc}",
                path=info.path,
            ) from exc
        info.record_count = len(batch)
        by_key: dict[tuple[str, ...], Trajectory] = dict(
            zip(batch.parent_keys, batch.trajectories())
        )
        try:
            return [by_key[tuple(key)] for key in row_keys]
        except KeyError as exc:
            raise CorruptPartitionError(
                f"dataset {name!r} is catalogued but its archive is incomplete "
                f"(missing record for trajectory {exc.args[0]!r} in partition "
                f"{partition!r}); the directory {storage.directory} needs "
                "manual inspection",
                path=info.path,
            ) from exc

    def tree_section(self, name: str) -> Manifest | None:
        """The persisted ``tree`` section, if it is current for the dataset.

        ``None`` when nothing is persisted or the section's
        ``dataset_state`` no longer matches the manifest's base + delta
        partitions — the dataset moved on without the tree being
        maintained, so the caller rebuilds.
        """
        manifest = self._committed(self._storages.get(name))
        if manifest is None:
            return None
        section = _tree_section(manifest)
        if section is None or section.get("dataset_state") != dataset_state(manifest):
            return None
        return section

    # -- staging and commits ------------------------------------------------------

    @staticmethod
    def _fresh_partition(storage: StorageManager, stem: str, seed: int, manifest: Manifest) -> str:
        """``<stem><N>`` for the first ``N >= seed`` nothing else uses.

        Skips names the committed ``manifest`` references, names open in the
        manager and names present as ``.part`` files (a crashed earlier
        attempt) — staging must never write into a file a committed
        manifest still points at.
        """
        taken = {name for name, _, _ in manifest_partitions(manifest)}
        counter = seed
        while True:
            partition = f"{stem}{counter}"
            stale_file = (
                storage.directory is not None
                and (storage.directory / f"{partition}.part").exists()
            )
            if partition not in taken and not storage.has(partition) and not stale_file:
                return partition
            counter += 1

    @staticmethod
    def _archive(
        storage: StorageManager, partition: str, trajectories: Iterable[Trajectory]
    ) -> list[list[str]]:
        """Write one record per trajectory into a new partition; return the row keys.

        The manifest records the row order explicitly because heapfile scan
        order can differ from insertion order once records span pages.
        """
        info = storage.create_partition(partition)
        row_keys: list[list[str]] = []
        for traj in trajectories:
            info.heapfile.insert(encode_record(traj))
            info.record_count += 1
            row_keys.append(list(traj.key))
        return row_keys

    def _stage_tree(
        self,
        storage: StorageManager,
        name: str,
        seed: int,
        manifest: Manifest,
        tree: _TreeStructure,
    ) -> set[str]:
        """Serialise the index into ``manifest``; return its partitions.

        The tree writes its representatives into a *fresh* partition
        (``<name>__reps_g<N>``), so the records a committed manifest's RIDs
        resolve against are never rewritten under it.
        """
        reps = self._fresh_partition(storage, f"{name}__reps_g", seed, manifest)
        manifest["tree"] = {
            **tree.to_manifest(reps_partition=reps),
            "dataset_state": dataset_state(manifest),
        }
        # Incremental maintenance mutates member/unclustered heapfiles in
        # place, so every tree partition counts as touched by this commit.
        return {part for part, _, role in manifest_partitions(manifest) if role == "tree"}

    def commit_dataset(self, name: str, trajectories: Iterable[Trajectory], seed: int) -> None:
        """Archive a dataset (replacing any predecessor) and commit its root.

        The archive goes into a fresh ``<name>__dataset_g<N>`` partition
        (``N >= seed``, the caller's generation token) the old manifest does
        not reference, so a crash mid-replacement leaves either the old or
        the new archive recoverable; the predecessor's partitions — old
        archive, deltas, derived tree — are swept after the commit.
        """
        storage = self.storage(name)
        partition = self._fresh_partition(
            storage, f"{name}__dataset_g", seed, self._committed(storage) or {}
        )
        manifest: Manifest = {
            "dataset": name,
            "frame_partition": partition,
            "row_keys": self._archive(storage, partition, trajectories),
            "deltas": [],
            "tree": None,
        }
        commit_manifest(storage, manifest, {partition})
        self._pending.pop(name, None)
        self._damaged.pop(name, None)

    def commit_append(
        self,
        name: str,
        trajectories: Iterable[Trajectory],
        seed: int,
        tree: _TreeStructure | None = None,
    ) -> bool:
        """Commit an append batch as a delta partition, with the maintained index.

        ``tree`` is the index that absorbed the batch; one manifest write
        commits dataset *and* index, one state.  Without it a persisted
        section keeps its old ``dataset_state`` — which no longer matches,
        making the staleness explicit.  Returns ``False``, committing
        nothing, when the directory holds no committed manifest: the append
        keeps serving warm and a cold successor recovers the last good state.
        """
        storage = self.storage(name)
        manifest = self._committed(storage)
        if manifest is None:
            return False
        partition = self._fresh_partition(storage, f"{name}__dataset_g", seed, manifest)
        row_keys = self._archive(storage, partition, trajectories)
        manifest["deltas"] = [
            *_items(manifest.get("deltas")),
            {"partition": partition, "row_keys": row_keys},
        ]
        fresh = {partition}
        if tree is not None:
            fresh |= self._stage_tree(storage, name, seed, manifest, tree)
        commit_manifest(storage, manifest, fresh)
        return True

    def commit_tree(self, name: str, seed: int, tree: _TreeStructure) -> None:
        """Commit a freshly built index.

        Without a committed manifest this is a no-op: the built tree keeps
        serving its process and a cold successor rebuilds — never a failure
        after the expensive bulk load.
        """
        storage = self.storage(name)
        manifest = self._committed(storage)
        if manifest is not None:
            fresh = self._stage_tree(storage, name, seed, manifest, tree)
            commit_manifest(storage, manifest, fresh)

    def forget_tree(self, name: str) -> None:
        """Un-register the persisted index and reclaim every tree partition.

        The un-registration commits *before* the sweep deletes the
        partitions: a crash in between leaves harmless orphan files, never a
        manifest referencing deleted heapfiles.  The dataset archive stays.
        """
        storage = self._storages.get(name)
        manifest = self._committed(storage)
        if storage is None or manifest is None:
            return
        if _tree_section(manifest) is None:
            sweep(storage, manifest)  # partitions of a build that never committed
            return
        manifest["tree"] = None
        commit_manifest(storage, manifest, set())

    def drop(self, name: str) -> None:
        """Delete dataset ``name``'s partition files, manifest and directory."""
        self._pending.pop(name, None)
        self._damaged.pop(name, None)
        try:
            self.check_name(name)
        except ValueError:
            return  # such a name can never have been persisted
        storage = self._storages.pop(name, None)
        if storage is None:
            directory = self.root / name
            if (
                not (directory / MANIFEST_FILENAME).exists()
                and not any(directory.glob("*.part"))
                and not any(directory.glob("*.json.tmp"))
            ):
                return
            storage = StorageManager(directory, io=self.io)
        storage.destroy()

    # -- observation --------------------------------------------------------------

    def status(self, name: str) -> dict[str, object]:
        """The durable half of ``HermesEngine.artifact_status``.

        ``degraded`` is true when the dataset's durable state is less than
        what was once committed: its manifest is damaged, or a
        ``repro-fsck --repair`` had to drop corrupt append batches (the
        manifest's ``degraded`` list records what was lost).
        """
        storage = self._storages.get(name)
        persisted = self.is_persisted(name)
        manifest = self._committed(storage)
        status: dict[str, object] = {
            "persisted": persisted,
            "storage_partitions": len(storage.partitions()) if storage is not None else 0,
            "delta_partitions": 0,
            "tree_persisted": False,
            "tree_stale": False,
            "degraded": name in self._damaged
            or (persisted if manifest is None else bool(manifest.get("degraded"))),
        }
        if manifest is not None:
            status["delta_partitions"] = len(_items(manifest.get("deltas")))
            section = _tree_section(manifest)
            if section is not None:
                status["tree_persisted"] = True
                status["tree_stale"] = section.get("dataset_state") != dataset_state(manifest)
        return status

    def checkpoint(self) -> None:
        """Flush and fsync every open partition of every dataset."""
        for storage in self._storages.values():
            storage.checkpoint()

    def close(self) -> None:
        """Flush and release every storage handle."""
        for storage in self._storages.values():
            storage.close()
        self._storages.clear()
