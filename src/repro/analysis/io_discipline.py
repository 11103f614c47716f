"""REPRO101 ``io-discipline`` — all mutating I/O goes through the shim.

PR 6's crash-safety story rests on one rule: every syscall that can
leave bytes on disk (open-for-write, write, fsync, rename/replace,
unlink) is issued through an :class:`~repro.storage.faults.IOShim`, so
the fault injector can cut power at any single operation and the crash
sweep can prove recovery.  A raw ``open()`` or ``os.replace()`` in the
storage/ingest layers is invisible to that sweep — a silent hole in the
durability proof.  (The engine facade commits nothing itself: it goes
through :class:`~repro.storage.durable.DurableCatalog`, which lives under
``storage/`` and is covered by path.)

The rule therefore flags, in modules under ``storage/`` and in
``core/ingest.py``:

* calls to the ``open`` builtin,
* ``os.rename`` / ``os.replace`` / ``os.unlink`` / ``os.remove`` /
  ``os.fsync`` / ``os.open`` / ``os.truncate``,
* ``Path``-style method calls — ``.write_bytes`` / ``.write_text`` /
  ``.open`` / ``.unlink`` / ``.rename`` / ``.touch`` — whose receiver
  is not an I/O shim (a name ending in ``io`` or called ``shim``).

``storage/faults.py`` is exempt wholesale: it *is* the shim, the one
blessed home for raw syscalls.
"""

from __future__ import annotations

import ast

from repro.analysis.base import Checker, Finding, SourceModule, dotted_name, receiver_tail

__all__ = ["IoDisciplineChecker"]

#: ``os.<name>`` calls that mutate the filesystem (or open fds raw).
_OS_CALLS = frozenset(
    {"rename", "replace", "unlink", "remove", "fsync", "open", "truncate", "rmdir"}
)

#: Method names that write or open when called on a ``Path``/file-like
#: receiver.  ``.replace`` is deliberately absent: ``str.replace`` is
#: pervasive and a receiver-name heuristic cannot tell the two apart —
#: the ``os.replace`` form above covers the real rename-over syscall.
_PATH_METHODS = frozenset({"write_bytes", "write_text", "open", "unlink", "rename", "touch"})

#: Receiver tail names recognised as a shim: ``self.io.open`` is the
#: blessed pattern, ``shim``/``injector`` appear in the fault tests.
_SHIM_TAILS = frozenset({"io", "_io", "shim", "_shim", "injector"})


def _is_shim_receiver(node: ast.AST) -> bool:
    """Whether a call receiver looks like an ``IOShim`` instance."""
    tail = receiver_tail(node)
    return tail is not None and (tail in _SHIM_TAILS or tail.endswith("io"))


class IoDisciplineChecker(Checker):
    """Flag raw filesystem mutation that bypasses the ``IOShim``."""

    rule = "REPRO101"
    slug = "io-discipline"
    hint = (
        "route the call through the module's IOShim (`self.io.open/write/"
        "fsync/replace/unlink`) so the fault injector and crash sweep see it; "
        "use `staged_tmp_path()` for staged-manifest tmp files"
    )

    def applies(self, module: SourceModule) -> bool:
        """Storage layer plus the append path that drives its commits."""
        parts = module.logical_parts
        if not parts:
            return False
        if parts[0] == "storage":
            return parts[-1] != "faults.py"  # the shim itself: raw by design
        return parts == ("core", "ingest.py")

    def check(self, module: SourceModule) -> list[Finding]:
        """Walk every call; flag the raw-syscall shapes documented above."""
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                findings.append(
                    self.finding(module, node, "raw `open()` builtin bypasses the IOShim")
                )
                continue
            if not isinstance(func, ast.Attribute):
                continue
            qual = dotted_name(func)
            if qual is not None and qual.startswith("os.") and func.attr in _OS_CALLS:
                findings.append(
                    self.finding(module, node, f"raw `{qual}()` bypasses the IOShim")
                )
                continue
            if func.attr in _PATH_METHODS and not _is_shim_receiver(func.value):
                receiver = dotted_name(func.value) or "<expr>"
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"`{receiver}.{func.attr}()` writes without going through the IOShim",
                    )
                )
        return findings
