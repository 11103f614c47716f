"""Offline catalog verification and repair — the ``repro-fsck`` engine.

:func:`fsck_store` walks an engine storage directory (one subdirectory per
dataset, each owning a ``manifest.json`` catalog root) and cross-checks
three layers of evidence against each other:

1. **the manifest** — readable JSON that
   :func:`~repro.storage.durable.manifest_problem` accepts: format 4, a
   matching ``manifest_crc`` stamp, a ``checksums`` map.  Anything else is
   an error, never "legacy";
2. **the partition files it references** (walked by
   :func:`~repro.storage.durable.manifest_partitions`) — present, a whole
   number of pages, page CRC32s matching the manifest's recorded
   checksums, and heapfile record counts matching the counts the manifest
   committed;
3. **the directory contents** — partition files and manifest staging
   files nothing references (the debris a crash between a manifest commit
   and its sweep leaves behind).

With ``repair=True`` the checker acts on what it found, always preferring
*loss of derived state* over *wrong answers*:

* orphaned partition/staging files are deleted;
* a corrupt **tree** partition (representatives, members, unclustered)
  resets the manifest's ``tree`` entry — the next query rebuilds the
  ReTraTree from the verified archive;
* a corrupt **delta** partition is quarantined and its batch removed from
  the manifest, with the data loss recorded in the manifest's
  ``degraded`` list (surfaced by ``artifact_status``/``EXPLAIN``);
* a corrupt **base archive**, or a manifest that is unreadable, of another
  format or without a ``checksums`` map, quarantines the whole dataset
  directory under ``<root>/_quarantine/`` — nothing trustworthy remains to
  serve.  A manifest whose only defect is its ``manifest_crc`` stamp is
  re-stamped, and only after every partition it references verified
  against its ``checksums`` map: repair never blesses content it cannot
  verify.

Every repair that changes the manifest goes through the catalog's one
commit (:func:`~repro.storage.durable.commit_manifest` — stamp, atomic
write, sweep), so a post-repair store verifies clean.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from repro.storage.buffer_pool import BufferPool
from repro.storage.catalog import MANIFEST_FILENAME, StorageManager, page_checksums
from repro.storage.durable import (
    QUARANTINE_DIRNAME,
    commit_manifest,
    manifest_partitions,
    manifest_problem,
    sweep,
)
from repro.storage.errors import StorageError
from repro.storage.faults import DEFAULT_IO, IOShim
from repro.storage.heapfile import HeapFile
from repro.storage.page import PAGE_SIZE, Page
from repro.storage.pager import Pager

__all__ = ["FsckIssue", "FsckReport", "fsck_store", "QUARANTINE_DIRNAME"]


@dataclass
class FsckIssue:
    """One finding of the checker.

    Attributes
    ----------
    kind:
        Machine-readable issue class (``orphan_file``, ``stale_staging``,
        ``checksum_mismatch``, ``torn_partition``, ``missing_partition``,
        ``manifest_unreadable``, ``manifest_checksum``,
        ``manifest_unsupported``, ``uncommitted_directory``).
    path:
        The file or directory the issue concerns.
    detail:
        Human-readable description of what was found.
    severity:
        ``"error"`` (the store cannot be fully trusted), ``"warning"``
        (wasted space / debris, answers unaffected) or ``"info"``.
    repaired:
        Whether a ``repair=True`` run resolved it.
    action:
        What the repair did (empty when not repaired).
    """

    kind: str
    path: str
    detail: str
    severity: str = "error"
    repaired: bool = False
    action: str = ""

    def as_row(self) -> dict[str, object]:
        """The issue as one flat report row (CLI/JSON output)."""
        return {
            "kind": self.kind,
            "severity": self.severity,
            "path": self.path,
            "detail": self.detail,
            "repaired": self.repaired,
            "action": self.action,
        }


@dataclass
class FsckReport:
    """Everything one :func:`fsck_store` run found (and possibly repaired)."""

    root: str | None
    datasets: list[str] = field(default_factory=list)
    issues: list[FsckIssue] = field(default_factory=list)

    @property
    def errors(self) -> list[FsckIssue]:
        """The error-severity issues (repaired or not)."""
        return [issue for issue in self.issues if issue.severity == "error"]

    @property
    def unrepaired_errors(self) -> list[FsckIssue]:
        """Error-severity issues a repair did not (or could not) resolve."""
        return [issue for issue in self.errors if not issue.repaired]

    @property
    def clean(self) -> bool:
        """Whether the store can be trusted: no unrepaired errors remain."""
        return not self.unrepaired_errors

    def add(
        self,
        kind: str,
        path: Path | str,
        detail: str,
        severity: str = "error",
    ) -> FsckIssue:
        """Record one finding and return it (for later repair annotation)."""
        issue = FsckIssue(kind=kind, path=str(path), detail=detail, severity=severity)
        self.issues.append(issue)
        return issue

    def as_rows(self) -> list[dict[str, object]]:
        """All issues as flat report rows."""
        return [issue.as_row() for issue in self.issues]

    def summary(self) -> str:
        """One-line outcome summary for CLI output."""
        n_err = len(self.errors)
        n_warn = sum(1 for i in self.issues if i.severity == "warning")
        repaired = sum(1 for i in self.issues if i.repaired)
        state = "clean" if self.clean else "NOT clean"
        return (
            f"{len(self.datasets)} dataset(s), {n_err} error(s), "
            f"{n_warn} warning(s), {repaired} repaired — store is {state}"
        )


class _BytesPager(Pager):
    """Read-only pager over an in-memory file image (fsck never writes)."""

    def __init__(self, data: bytes) -> None:
        self._data = data

    def num_pages(self) -> int:
        return len(self._data) // PAGE_SIZE

    def allocate_page(self) -> int:  # pragma: no cover - fsck is read-only
        raise StorageError("fsck pagers are read-only")

    def read_page(self, page_no: int) -> Page:
        start = page_no * PAGE_SIZE
        return Page(self._data[start : start + PAGE_SIZE])

    def write_page(self, page_no: int, page: Page) -> None:  # pragma: no cover
        raise StorageError("fsck pagers are read-only")


def _record_count(data: bytes) -> int:
    """Number of complete records in a partition file image.

    Raises ``ValueError``/``KeyError`` when the heapfile structure itself
    is undecodable (corrupt slots, broken continuation chains).
    """
    pool = BufferPool(_BytesPager(data), capacity=max(1, len(data) // PAGE_SIZE + 1))
    return HeapFile(pool).count_records()


def _as_int(value) -> int | None:
    """``int(value)`` when it cleanly coerces, else ``None``.

    Corruption can turn a recorded count or CRC into a string, null or
    object that still parses as JSON; fsck's job is to *diagnose* such a
    manifest, so every number it reads from one goes through here instead
    of a bare ``int(...)`` that would crash the scan with a traceback.
    """
    if isinstance(value, bool):
        return None
    try:
        return int(value)
    except (TypeError, ValueError):
        return None


def _quarantine(root: Path, source: Path) -> Path:
    """Move a file or directory under ``<root>/_quarantine/``, never clobbering.

    The store-relative path is preserved: a dataset directory lands at
    ``_quarantine/<dataset>``, a partition file at
    ``_quarantine/<dataset>/<file>``.
    """
    relative = source.relative_to(root)
    target = root / QUARANTINE_DIRNAME / relative
    target_dir = target.parent
    target_dir.mkdir(parents=True, exist_ok=True)
    counter = 1
    while target.exists():
        target = target_dir / f"{source.name}.{counter}"
        counter += 1
    shutil.move(str(source), str(target))
    return target


def _check_dataset(
    root: Path, directory: Path, report: FsckReport, repair: bool, io: IOShim
) -> None:
    """Verify (and optionally repair) one dataset directory."""
    manifest_path = directory / MANIFEST_FILENAME
    debris = sorted(directory.glob("*.part")) + sorted(directory.glob("*.json.tmp"))

    if not manifest_path.exists():
        if debris:
            issue = report.add(
                "uncommitted_directory",
                directory,
                f"{len(debris)} partition/staging file(s) but no manifest "
                "(a crashed create or drop)",
                severity="warning",
            )
            if repair:
                for path in debris:
                    io.unlink(path)
                try:
                    directory.rmdir()
                except OSError:  # pragma: no cover - foreign files present
                    pass
                issue.repaired = True
                issue.action = "deleted uncommitted files"
        return

    # -- layer 1: the manifest itself -------------------------------------
    try:
        manifest = json.loads(io.read_bytes(manifest_path).decode("utf-8"))
        if not isinstance(manifest, dict):
            raise ValueError(f"top-level JSON is a {type(manifest).__name__}")
    except (ValueError, UnicodeDecodeError) as exc:
        issue = report.add(
            "manifest_unreadable", manifest_path, f"manifest is unreadable: {exc}"
        )
        if repair:
            target = _quarantine(root, directory)
            issue.repaired = True
            issue.action = f"dataset directory quarantined to {target}"
        return

    report.datasets.append(directory.name)
    stamp_issue: FsckIssue | None = None
    problem = manifest_problem(manifest)
    if problem is not None:
        kind, detail = problem
        stamp_issue = report.add(kind, manifest_path, detail)
        if kind == "manifest_unsupported":
            # Nothing else about this layout can be interpreted safely.
            if repair:
                target = _quarantine(root, directory)
                stamp_issue.repaired = True
                stamp_issue.action = f"dataset directory quarantined to {target}"
            return

    # -- layer 2: the referenced partitions --------------------------------
    checksums = manifest.get("checksums")
    expectations = list(manifest_partitions(manifest))
    referenced = {name for name, _, _ in expectations}
    damaged_roles: dict[str, FsckIssue] = {}
    damaged_issues: list[tuple[str, FsckIssue]] = []

    def damage(issue: FsckIssue, role: str) -> None:
        damaged_roles.setdefault(role, issue)
        damaged_issues.append((role, issue))

    if stamp_issue is not None and not isinstance(checksums, dict):
        # Without the checksums map no partition can be verified, so not
        # even the base archive is trustworthy: repair quarantines.
        damage(stamp_issue, "base")
        checksums = None

    for name, recorded_count, role in expectations:
        path = directory / f"{name}.part"
        expected_count = _as_int(recorded_count)
        if recorded_count is not None and expected_count is None:
            # The manifest itself is type-corrupt here (a count that is a
            # string/null/object); without a trustworthy expectation the
            # partition cannot be pronounced healthy — mark the role
            # damaged so repair degrades it rather than trusting it.
            damage(
                report.add(
                    "checksum_mismatch",
                    manifest_path,
                    f"manifest records a non-numeric count {recorded_count!r} "
                    f"for partition {name!r} (manifest value corrupt)",
                ),
                role,
            )
            continue
        if not path.exists():
            damage(
                report.add(
                    "missing_partition",
                    path,
                    f"partition {name!r} is referenced by the manifest ({role}) "
                    "but its file is missing",
                ),
                role,
            )
            continue
        data = io.read_bytes(path)
        if len(data) % PAGE_SIZE != 0:
            damage(
                report.add(
                    "torn_partition",
                    path,
                    f"size {len(data)} is not a multiple of the page size "
                    "(torn tail)",
                ),
                role,
            )
            continue
        expected_crcs = checksums.get(name) if checksums is not None else []
        if not isinstance(expected_crcs, list):
            damage(
                report.add(
                    "checksum_mismatch",
                    path,
                    f"partition {name!r} has no recorded page checksums; its "
                    "content cannot be verified",
                ),
                role,
            )
            continue
        if checksums is not None:
            actual_crcs = page_checksums(data)
            coerced_crcs = [_as_int(want) for want in expected_crcs]
            bad_page = next(
                (
                    i
                    for i, (got, want) in enumerate(zip(actual_crcs, coerced_crcs))
                    if want is None or got != want
                ),
                None,
            )
            if len(actual_crcs) != len(expected_crcs) or bad_page is not None:
                if bad_page is not None and coerced_crcs[bad_page] is None:
                    where = (
                        f"page {bad_page}: recorded checksum "
                        f"{expected_crcs[bad_page]!r} is not numeric "
                        "(manifest value corrupt)"
                    )
                elif bad_page is not None:
                    where = f"page {bad_page} (offset {bad_page * PAGE_SIZE})"
                else:
                    where = f"page count {len(actual_crcs)} != {len(expected_crcs)}"
                damage(
                    report.add(
                        "checksum_mismatch",
                        path,
                        f"partition {name!r} fails its CRC32 check at {where}",
                    ),
                    role,
                )
                continue
        try:
            count = _record_count(data)
        except (ValueError, KeyError) as exc:
            damage(
                report.add(
                    "torn_partition", path, f"partition {name!r} is undecodable: {exc}"
                ),
                role,
            )
            continue
        if expected_count is not None and count != expected_count:
            damage(
                report.add(
                    "torn_partition",
                    path,
                    f"partition {name!r} holds {count} records but the "
                    f"manifest recorded {expected_count} (torn commit)",
                ),
                role,
            )

    # -- layer 3: directory debris -----------------------------------------
    orphan_issues: list[FsckIssue] = []
    for path in sorted(directory.glob("*.part")):
        if path.stem not in referenced:
            orphan_issues.append(
                report.add(
                    "orphan_file",
                    path,
                    "partition file is referenced by nothing (crash debris)",
                    severity="warning",
                )
            )
    for path in sorted(directory.glob("*.json.tmp")):
        orphan_issues.append(
            report.add(
                "stale_staging",
                path,
                "manifest staging file from an interrupted commit",
                severity="warning",
            )
        )

    if not repair:
        return

    # -- repair -------------------------------------------------------------
    manifest_dirty = False

    base_issue = damaged_roles.get("base")
    if base_issue is not None:
        target = _quarantine(root, directory)
        for _role, issue in damaged_issues:
            issue.repaired = True
            issue.action = f"dataset directory quarantined to {target}"
        for issue in orphan_issues:
            issue.repaired = True
            issue.action = "removed with the quarantined dataset"
        if stamp_issue is not None:
            stamp_issue.repaired = True
            stamp_issue.action = f"dataset directory quarantined to {target}"
        return

    degraded = [d for d in manifest.get("degraded") or [] if isinstance(d, str)]
    delta_roles = sorted(
        (role for role in damaged_roles if role.startswith("delta:")),
        key=lambda role: int(role.split(":", 1)[1]),
        reverse=True,
    )
    for role in delta_roles:
        index = int(role.split(":", 1)[1])
        deltas = list(manifest.get("deltas") or [])
        dropped = deltas.pop(index)
        manifest["deltas"] = deltas
        issue = damaged_roles[role]
        name = dropped.get("partition")
        part_path = directory / f"{name}.part"
        action = f"append batch {index} dropped from the manifest"
        if part_path.exists():
            target = _quarantine(root, part_path)
            action += f"; file quarantined to {target}"
        degraded.append(
            f"append batch {index} (partition {name!r}) was corrupt and has "
            "been removed; its trajectories are lost"
        )
        issue.repaired = True
        issue.action = action
        # Losing a delta invalidates any tree serialised over it.
        if manifest.get("tree") is not None:
            damaged_roles.setdefault("tree", issue)
        manifest_dirty = True

    if "tree" in damaged_roles and manifest.get("tree") is not None:
        # Reset the serialised tree structure; its partitions become
        # unreferenced and the commit's sweep removes them.
        manifest["tree"] = None
        for role, issue in damaged_issues:
            if role == "tree" and not issue.repaired:
                issue.repaired = True
                issue.action = (
                    "tree entry reset (next query rebuilds from the verified "
                    "archive); its partition files removed"
                )
        manifest_dirty = True
    # Tree-role issues on an already-reset tree ride on that reset.
    for role, issue in damaged_issues:
        if role == "tree" and not issue.repaired and manifest.get("tree") is None:
            issue.repaired = True
            issue.action = "tree entry reset; next query rebuilds"

    if degraded != (manifest.get("degraded") or []):
        manifest["degraded"] = degraded
        manifest_dirty = True

    # What remains referenced verified against the checksums map, so the
    # manifest may be committed anew (dropping the entries of removed
    # partitions); the commit's sweep — or, with the manifest untouched, a
    # bare sweep — deletes the orphans and every un-referenced partition.
    storage = StorageManager(directory, io=io)
    try:
        if manifest_dirty or stamp_issue is not None:
            commit_manifest(storage, manifest, set())
        else:
            sweep(storage, manifest)
    finally:
        storage.close()
    for issue in orphan_issues:
        issue.repaired = True
        issue.action = "deleted"
    if stamp_issue is not None:
        stamp_issue.repaired = True
        stamp_issue.action = (
            "manifest re-stamped (content verified against partition "
            "checksums and record counts)"
        )


def fsck_store(
    root: str | Path, repair: bool = False, io: IOShim | None = None
) -> FsckReport:
    """Check (and with ``repair=True`` fix) an engine storage directory.

    Parameters
    ----------
    root:
        The engine's storage directory — the one holding one subdirectory
        per dataset (what ``HermesEngine.on_disk(root)`` opens).
    repair:
        When ``True``, act on the findings: delete orphans, quarantine
        corrupt files under ``<root>/_quarantine/``, degrade datasets in
        their manifests (see the module docstring for the full policy).
    io:
        Optional :class:`~repro.storage.faults.IOShim` for fault-injection
        tests.

    Returns
    -------
    An :class:`FsckReport`; ``report.clean`` is the exit-code criterion
    (``True`` iff no unrepaired errors remain).
    """
    io = io if io is not None else DEFAULT_IO
    root = Path(root)
    report = FsckReport(root=str(root))
    if not root.exists():
        return report
    for sub in sorted(p for p in root.iterdir() if p.is_dir()):
        if sub.name == QUARANTINE_DIRNAME:
            continue
        _check_dataset(root, sub, report, repair, io)
    return report
