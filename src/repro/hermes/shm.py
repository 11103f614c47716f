"""Shared-memory segment bookkeeping for the zero-copy frame transport.

The partition-parallel scheduler (:mod:`repro.core.parallel`) ships a
dataset's :class:`~repro.hermes.frame.MODFrame` to worker processes.  The pickle wire
format copies every column per task; the shared-memory transport instead
publishes the columns **once** into a ``multiprocessing.shared_memory``
segment (:meth:`~repro.hermes.frame.MODFrame.to_shm`) and ships only the
segment name plus a few integers per task — workers attach zero-copy views
(:meth:`~repro.hermes.frame.MODFrame.from_shm`).

What this module owns is the part that is easy to get wrong: **segment
lifetime**.  Every segment a process creates or attaches is registered in a
:class:`ShmArena`; draining the arena closes (and, for created segments,
unlinks) everything it tracks.  The scheduler drains its arena in a
``finally`` block, a module-level arena is drained at interpreter exit
(``atexit``), and the arena doubles as a context manager — so ``/dev/shm``
is left clean after normal runs, worker crashes and ``KeyboardInterrupt``
alike (the hygiene contract pinned by ``tests/hermes/test_shm.py``).

Attached segments are deliberately *untracked* by the stdlib resource
tracker: the creating process owns the unlink, and letting every attaching
worker register the name too only produces spurious "leaked shared_memory"
warnings at worker shutdown.
"""

from __future__ import annotations

import atexit
from multiprocessing import shared_memory

__all__ = ["ShmArena", "ShmTransportError", "default_arena"]


class ShmTransportError(RuntimeError):
    """A shared-memory frame handoff failed (create or attach).

    Raised by :meth:`~repro.hermes.frame.MODFrame.from_shm` when the named
    segment cannot be attached (e.g. the creator unlinked it early, or the
    platform lacks ``/dev/shm``).  The scheduler catches it and retries the
    whole job over the pickle transport — shm is an optimisation, never a
    correctness dependency.
    """


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment, leaving the unlink to the creator.

    Python 3.13+ supports ``track=False`` natively.  On older versions the
    attach is left *registered*: with the default ``fork`` start method the
    workers share the parent's resource-tracker daemon, whose registry is a
    set — re-registering the same name is a no-op and the creator's unlink
    removes the single entry.  Explicitly unregistering here instead would
    race the creator's unlink into a double-unregister, which the shared
    tracker daemon reports as a spurious ``KeyError`` traceback on stderr.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:  # pragma: no cover - Python < 3.13 path (exercised there)
        return shared_memory.SharedMemory(name=name)


class ShmArena:
    """Registry of shared-memory segments with refcounted cleanup.

    Every segment obtained through :meth:`create` (owned: closed **and**
    unlinked on release) or :meth:`attach` (borrowed: closed only) is
    tracked until :meth:`release`/:meth:`drain`.  Using the arena as a
    context manager drains it on exit, exceptions included::

        with ShmArena() as arena:
            name, meta = frame.to_shm(arena)
            ...ship (name, meta) to workers...
        # segment closed + unlinked here, even on KeyboardInterrupt
    """

    def __init__(self) -> None:
        self._segments: dict[str, tuple[shared_memory.SharedMemory, bool]] = {}

    def create(self, nbytes: int) -> shared_memory.SharedMemory:
        """Create (and track) a new segment of at least ``nbytes`` bytes."""
        try:
            shm = shared_memory.SharedMemory(create=True, size=max(int(nbytes), 1))
        except (OSError, ValueError) as exc:
            raise ShmTransportError(f"cannot create shared-memory segment: {exc}") from exc
        self._segments[shm.name] = (shm, True)
        return shm

    def attach(self, name: str) -> shared_memory.SharedMemory:
        """Attach (and track) an existing segment by name.

        Attaching the same name twice returns the already-open handle, so
        repeated tasks over one shipped frame reuse a single mapping.
        """
        entry = self._segments.get(name)
        if entry is not None:
            return entry[0]
        try:
            shm = _attach_untracked(name)
        except (OSError, ValueError) as exc:
            raise ShmTransportError(
                f"cannot attach shared-memory segment {name!r}: {exc}"
            ) from exc
        self._segments[name] = (shm, False)
        return shm

    def release(self, name: str) -> None:
        """Close one tracked segment (and unlink it if this arena created it)."""
        entry = self._segments.pop(name, None)
        if entry is None:
            return
        shm, owned = entry
        try:
            shm.close()
        finally:
            if owned:
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass

    def drain(self) -> None:
        """Release every tracked segment (idempotent)."""
        for name in list(self._segments):
            self.release(name)

    def live_segments(self) -> list[str]:
        """Names of the segments currently tracked (the hygiene-test probe)."""
        return sorted(self._segments)

    def __enter__(self) -> "ShmArena":
        """Enter a ``with`` block; the arena itself is the context object."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Drain the arena on block exit, exceptions included."""
        self.drain()


_DEFAULT_ARENA = ShmArena()
atexit.register(_DEFAULT_ARENA.drain)


def default_arena() -> ShmArena:
    """The process-wide fallback arena (drained via ``atexit``)."""
    return _DEFAULT_ARENA
