"""Structured corruption diagnostics for the storage layer.

Robustness rule number one for the durable engine: a damaged store must
*fail loudly with a diagnosis*, never feed wrong bytes into query answers.
These exception types are how every detection site (page checksum
verification, manifest integrity checks, heapfile decoding, catalog
recovery) reports what it found:

* :class:`StorageError` — root of the storage layer's *exception
  contract*: the only project type public storage functions are allowed
  to let escape (held by ``tests/storage/test_error_contract.py``),
* :class:`StorageCorruptionError` — base for corruption findings; every
  message carries the remediation hint (``run repro-fsck``) so an
  operator landing on a stack trace knows the next step,
* :class:`CorruptPartitionError` — a partition heapfile failed validation;
  names the file, the byte offset of the first bad page and the partition
  generation parsed from its ``_g<N>`` suffix, and carries the ``repro-fsck``
  finding kind it is reported under,
* :class:`CorruptManifestError` — the catalog's ``manifest.json`` root is
  unreadable or fails its integrity check.

Both concrete types also subclass :class:`ValueError`, so call sites that
historically handled decoding problems generically (``except ValueError``)
keep working; the subclassing only *adds* structure.
"""

from __future__ import annotations

import re
from pathlib import Path

__all__ = [
    "StorageError",
    "StorageCorruptionError",
    "CorruptPartitionError",
    "CorruptManifestError",
    "partition_generation",
]

#: The remediation hint appended to every corruption diagnostic.
REMEDIATION = "run `repro-fsck <storage-dir>` to diagnose and `--repair` to recover"

_GENERATION_RE = re.compile(r"_g(\d+)$")


def partition_generation(name: str | Path) -> int | None:
    """The generation number of a ``…_g<N>`` partition name, or ``None``.

    Accepts a bare partition name, a ``.part`` filename or a full path;
    the generation is the trailing ``_g<N>`` suffix the engine stamps on
    staged dataset/representatives partitions.
    """
    stem = Path(name).stem if isinstance(name, (Path, str)) else str(name)
    match = _GENERATION_RE.search(str(stem))
    return int(match.group(1)) if match else None


class StorageError(RuntimeError):
    """Base class for every error the storage layer's public surface raises.

    The exception *contract* of ``repro.storage`` (damaged stores drive it
    in ``tests/storage/test_error_contract.py``): a public storage function may only let
    ``StorageError`` subclasses escape, plus a short documented list of
    pass-through builtins (``ValueError``, ``KeyError``, ``OSError``...).
    Callers therefore get one type to catch that cleanly separates "the
    store is damaged or misused, here is what to do" from a programming
    bug.  Subclasses :class:`RuntimeError` so pre-existing callers that
    caught ``RuntimeError`` keep working.
    """


class StorageCorruptionError(StorageError):
    """Base class for on-disk corruption detected by the storage layer.

    Subclasses :class:`StorageError` via :class:`RuntimeError`
    (catalogued-but-damaged state has always surfaced as
    ``RuntimeError``); the message always ends with the fsck remediation
    hint.
    """

    #: What an operator should do about it.
    remediation = REMEDIATION

    def __init__(self, message: str) -> None:
        super().__init__(f"{message}; {self.remediation}")


class CorruptPartitionError(StorageCorruptionError, ValueError):
    """A partition file failed checksum/size/decode validation.

    Attributes
    ----------
    path:
        The partition file that failed validation (``None`` when the
        failure is not tied to one file).
    offset:
        Byte offset of the first failing page/record inside the file, or
        ``None`` when unknown.
    generation:
        The partition generation parsed from the ``_g<N>`` name suffix, or
        ``None`` for unsuffixed partitions.
    kind:
        The ``repro-fsck`` finding kind of the damage: ``checksum_mismatch``
        (a page count or page CRC other than the manifest's) or
        ``torn_partition`` (a torn tail, an undecodable heap, a record count
        other than the manifest's).
    detail:
        ``message`` alone, without location or remediation: the text
        ``repro-fsck`` reports for the same damage.
    """

    def __init__(
        self,
        message: str,
        *,
        path: str | Path | None = None,
        offset: int | None = None,
        generation: int | None = None,
        kind: str = "torn_partition",
    ) -> None:
        self.detail = message
        self.kind = kind
        self.path = Path(path) if path is not None else None
        self.offset = offset
        if generation is None and path is not None:
            generation = partition_generation(Path(path))
        self.generation = generation
        where = []
        if self.path is not None:
            where.append(f"file={self.path}")
        if self.offset is not None:
            where.append(f"offset={self.offset}")
        if self.generation is not None:
            where.append(f"generation={self.generation}")
        suffix = f" [{', '.join(where)}]" if where else ""
        super().__init__(f"{message}{suffix}")


class CorruptManifestError(StorageCorruptionError, ValueError):
    """The catalog manifest is unreadable or fails its integrity check.

    Attributes
    ----------
    path:
        The manifest file (or the dataset directory) the failure concerns,
        when known.
    """

    def __init__(self, message: str, *, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        suffix = f" [file={self.path}]" if self.path is not None else ""
        super().__init__(f"{message}{suffix}")
