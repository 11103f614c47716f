"""Offline catalog verification and repair — the ``repro-fsck`` engine.

:func:`fsck_store` walks an engine storage directory (one subdirectory per
dataset, each owning a ``manifest.json`` catalog root) and cross-checks
three layers of evidence against each other:

1. **the manifest** — readable JSON that
   :func:`~repro.storage.durable.manifest_problem` accepts: format 4, a
   matching ``manifest_crc`` stamp, a ``checksums`` map, a row order
   (``row_keys`` and ``deltas``) it can decode, an int CRC list and record
   count for every partition.  Anything else is an error, never "legacy";
2. **the partition files it references** (walked by
   :func:`~repro.storage.durable.manifest_partitions`, which types what the
   manifest recorded for each) — present, and passing
   :func:`~repro.storage.catalog.verify_partitions`, the one verifier the
   cold open runs too: whole pages, their count and CRC32s as recorded, a
   decodable heap holding the recorded number of records.  A finding's
   kind and detail are the damage's ``CorruptPartitionError`` — the open
   raises the same text.  Under a stale stamp, a partition without a
   typed expectation is a ``checksum_mismatch`` on its role;
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

from repro.storage.catalog import MANIFEST_FILENAME, Expected, StorageManager, verify_partitions
from repro.storage.durable import (
    QUARANTINE_DIRNAME,
    commit_manifest,
    expectation_problem,
    manifest_partitions,
    manifest_problem,
    sweep,
)
from repro.storage.faults import DEFAULT_IO, IOShim
from repro.storage.page import PAGE_SIZE

__all__ = ["FsckIssue", "FsckReport", "fsck_store", "QUARANTINE_DIRNAME"]

#: Partition bytes verified per call: one record-count pass over many small
#: files costs what one over a single file does, and memory stays bounded.
_BATCH_BYTES = 64 * PAGE_SIZE


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

    def resolve(self, action: str) -> None:
        """Mark the issue repaired by ``action``."""
        self.repaired = True
        self.action = action

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
                issue.resolve("deleted uncommitted files")
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
            issue.resolve(f"dataset directory quarantined to {_quarantine(root, directory)}")
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
                stamp_issue.resolve(f"dataset directory quarantined to {_quarantine(root, directory)}")
            return

    # -- layer 2: the referenced partitions --------------------------------
    expectations = list(manifest_partitions(manifest))
    referenced = {name for name, _, _ in expectations}
    damaged_roles: dict[str, FsckIssue] = {}
    damaged_issues: list[tuple[str, FsckIssue]] = []

    def damage(kind: str, path: Path, detail: str, role: str) -> None:
        issue = report.add(kind, path, detail)
        damaged_roles.setdefault(role, issue)
        damaged_issues.append((role, issue))

    if stamp_issue is not None and not isinstance(manifest.get("checksums"), dict):
        # Without the checksums map no partition can be verified, so not
        # even the base archive is trustworthy: repair quarantines.
        damaged_roles["base"] = stamp_issue
    batch: list[tuple[str, bytes | None, Expected, str]] = []

    def verify() -> None:
        for (name, _, _, role), problem in zip(batch, verify_partitions([b[:3] for b in batch], directory)):
            if problem is not None:
                damage(problem.kind, directory / f"{name}.part", problem.detail, role)
        batch.clear()

    for name, expected, role in expectations:
        path = directory / f"{name}.part"
        unverifiable = expectation_problem(name, expected)
        if unverifiable is not None:
            # Only under a stale stamp: a stamped manifest lacking an
            # expectation is unsupported, and was returned from above.
            damage("checksum_mismatch", path, unverifiable, role)
        else:
            try:
                image: bytes | None = io.read_bytes(path)
            except FileNotFoundError:
                image = None  # verify_partitions calls it a missing_partition
            batch.append((name, image, expected, role))
            if sum(len(held or b"") for _, held, _, _ in batch) >= _BATCH_BYTES:
                verify()
    verify()

    # -- layer 3: directory debris -----------------------------------------
    orphan_issues = [
        report.add("orphan_file", path, "partition file is referenced by nothing (crash debris)", "warning")
        for path in sorted(directory.glob("*.part"))
        if path.stem not in referenced
    ] + [
        report.add("stale_staging", path, "manifest staging file from an interrupted commit", "warning")
        for path in sorted(directory.glob("*.json.tmp"))
    ]

    if not repair:
        return

    # -- repair -------------------------------------------------------------
    manifest_dirty = False

    if "base" in damaged_roles:
        target = _quarantine(root, directory)
        for issue in [stamp_issue, *(issue for _, issue in damaged_issues)]:
            if issue is not None:
                issue.resolve(f"dataset directory quarantined to {target}")
        for issue in orphan_issues:
            issue.resolve("removed with the quarantined dataset")
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
        issue.resolve(action)
        # Losing a delta invalidates any tree serialised over it.
        if manifest.get("tree") is not None:
            damaged_roles.setdefault("tree", issue)
        manifest_dirty = True

    if "tree" in damaged_roles and manifest.get("tree") is not None:
        # Reset the serialised tree structure; its partitions become
        # unreferenced and the commit's sweep removes them.
        manifest["tree"] = None
        manifest_dirty = True
        for role, issue in damaged_issues:
            if role == "tree" and not issue.repaired:
                issue.resolve(
                    "tree entry reset (next query rebuilds from the verified "
                    "archive); its partition files removed"
                )

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
            commit_manifest(storage, manifest)
        else:
            sweep(storage, manifest)
    finally:
        storage.close()
    for issue in orphan_issues:
        issue.resolve("deleted")
    if stamp_issue is not None:
        stamp_issue.resolve(
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
