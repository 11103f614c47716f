"""Shared infrastructure for the ``repro-lint`` checker suite.

The analysis package enforces *project invariants* — conventions the
durable engine relies on but no generic linter knows about (I/O routed
through the fault shim, generation tokens bumped on every dataset
mutation, frozen logical plans, drained shared-memory arenas).  Every
checker is a small :mod:`ast` visitor built on three pieces defined
here:

* :class:`Finding` — one diagnostic: rule id, location, message and a
  remediation hint (mirroring the :class:`~repro.storage.errors.StorageCorruptionError`
  convention that every error tells the operator what to do next),
* :class:`SourceModule` — a parsed source file plus its comment map
  (comments carry the ``# repro-lint: allow[...]`` suppressions and the
  ``# guarded-by:`` / ``# holds:`` lock annotations, which plain
  :mod:`ast` discards),
* :class:`Checker` — the base class wiring rule metadata, per-module
  applicability and suppression filtering together.

Everything in this package is stdlib-only and engine-free on purpose:
``repro-lint`` must run in CI *before* the test jobs, on interpreters
with no third-party packages installed.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from repro.analysis.flow.summaries import ProjectIndex

__all__ = [
    "Checker",
    "Finding",
    "ProjectChecker",
    "SourceModule",
    "dotted_name",
    "receiver_tail",
]

_ALLOW_RE = re.compile(r"repro-lint:\s*allow\[([^\]]+)\]")

#: Path components stripped from the front of a module's path when
#: computing its :attr:`SourceModule.logical_parts` — checkers reason
#: about package-relative locations (``("storage", "catalog.py")``)
#: regardless of whether the scan root was ``src``, ``src/repro`` or a
#: test fixture tree.
_ROOT_PARTS = ("src", "repro")


def dotted_name(node: ast.AST) -> str | None:
    """Flatten a ``Name``/``Attribute`` chain into ``"a.b.c"``.

    Returns ``None`` when the chain is rooted in anything other than a
    plain name (a call result, a subscript, a literal), because then the
    receiver's identity cannot be judged statically.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def receiver_tail(node: ast.AST) -> str | None:
    """The last identifier of a receiver expression, or ``None``.

    ``self.io`` → ``"io"``; ``tmp`` → ``"tmp"``; ``frame()`` → ``None``.
    """
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a checker.

    Attributes
    ----------
    rule:
        The rule id (``"REPRO101"``).
    slug:
        The human-readable rule slug (``"io-discipline"``).
    path:
        The file the finding is in, as given to the driver.
    line:
        1-based source line of the offending node.
    message:
        What is wrong, specific to the site.
    hint:
        How to fix it — every finding carries a remediation hint, same
        convention as the storage layer's corruption errors.
    """

    rule: str
    slug: str
    path: str
    line: int
    message: str
    hint: str

    def format(self) -> str:
        """Render the finding as the two-line text-format diagnostic."""
        return (
            f"{self.path}:{self.line}: {self.rule} [{self.slug}] {self.message}\n"
            f"    hint: {self.hint}"
        )


class SourceModule:
    """A parsed source file plus the comment map the checkers need.

    Parameters
    ----------
    path:
        Where the source came from (used verbatim in findings).
    text:
        The file's source text.

    Attributes
    ----------
    tree:
        The parsed :class:`ast.Module`.
    comments:
        Mapping of 1-based line number to the comment on that line
        (including the leading ``#``), built with :mod:`tokenize` so
        trailing annotations like ``# guarded-by: _lock`` survive
        parsing.
    """

    def __init__(self, path: str | Path, text: str, root: Path | None = None) -> None:
        self.path = Path(path)
        self.root = root
        self.text = text
        self.tree = ast.parse(text, filename=str(path))
        self.comments = self._comment_map(text)
        self.decorator_starts = self._decorator_map(self.tree)

    @classmethod
    def from_path(cls, path: str | Path, root: Path | None = None) -> SourceModule:
        """Read and parse ``path`` (raises ``SyntaxError`` on bad source).

        ``root`` is the directory the driver was asked to scan, when there
        was one; :attr:`logical_parts` is computed relative to it, so a
        fixture tree laid out like ``src/repro`` triggers the same rules.
        """
        return cls(path, Path(path).read_text(), root=root)

    @staticmethod
    def _comment_map(text: str) -> dict[int, str]:
        """1-based line → comment text, via :mod:`tokenize`."""
        comments: dict[int, str] = {}
        try:
            tokens = tokenize.generate_tokens(io.StringIO(text).readline)
            for tok in tokens:
                if tok.type == tokenize.COMMENT:
                    comments[tok.start[0]] = tok.string
        except tokenize.TokenError:  # pragma: no cover - ast.parse catches first
            pass
        return comments

    @staticmethod
    def _decorator_map(tree: ast.Module) -> dict[int, int]:
        """``def``/``class`` line → first decorator line, for decorated defs.

        Findings anchor to the ``def`` line, but a suppression comment
        naturally sits *above the decorator stack*; this map lets
        :meth:`allowed_rules` bridge the gap.
        """
        starts: dict[int, int] = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.decorator_list:
                    starts[node.lineno] = min(d.lineno for d in node.decorator_list)
        return starts

    @property
    def logical_parts(self) -> tuple[str, ...]:
        """Path components with any leading ``src``/``repro`` stripped.

        Checkers match on these (``("storage", "catalog.py")``) so the
        same rules fire whether the driver scanned ``src/repro`` or a
        fixture tree laid out the same way.
        """
        parts = self.path.parts
        if self.root is not None:
            try:
                parts = self.path.relative_to(self.root).parts
            except ValueError:
                pass
        else:
            # No scan root known: drop everything up to a "repro"/"src"
            # component buried in the path (e.g. /repo/src/repro/storage/x.py).
            for anchor in ("repro", "src"):
                if anchor in parts:
                    parts = parts[parts.index(anchor) + 1 :]
        while parts and parts[0] in _ROOT_PARTS:
            parts = parts[1:]
        return parts

    def comment(self, line: int) -> str | None:
        """The comment on ``line`` (1-based), or ``None``."""
        return self.comments.get(line)

    def allowed_rules(self, line: int) -> frozenset[str]:
        """Suppression tokens in scope for a finding on ``line``.

        A ``# repro-lint: allow[RULE]`` directive suppresses matching
        findings when it trails the offending line or sits on the line
        immediately above it.  For findings anchored to a decorated
        ``def``, a directive above the *decorator stack* counts too —
        that is where suppression comments naturally live.  Tokens are
        rule ids or slugs, comma separated, case-insensitive.
        """
        candidates = [line, line - 1]
        first_decorator = self.decorator_starts.get(line)
        if first_decorator is not None:
            candidates.extend((first_decorator, first_decorator - 1))
        tokens: set[str] = set()
        for candidate in candidates:
            comment = self.comments.get(candidate)
            if not comment:
                continue
            match = _ALLOW_RE.search(comment)
            if match:
                tokens.update(
                    part.strip().lower() for part in match.group(1).split(",") if part.strip()
                )
        return frozenset(tokens)


class Checker:
    """Base class for one repro-lint rule.

    Subclasses set :attr:`rule`, :attr:`slug` and :attr:`hint`, override
    :meth:`applies` to scope themselves to the part of the tree their
    invariant covers, and implement :meth:`check`.  :meth:`run` is the
    driver entry point: it applies the scope filter and drops findings
    suppressed with ``# repro-lint: allow[...]`` comments.
    """

    #: Rule id, ``REPRO1xx``.
    rule = "REPRO100"
    #: Human-readable slug used in output and suppression comments.
    slug = "base"
    #: Remediation hint appended to every finding of this rule.
    hint = "see docs/static-analysis.md"

    def applies(self, module: SourceModule) -> bool:
        """Whether this rule covers ``module`` (default: every module)."""
        return True

    def check(self, module: SourceModule) -> list[Finding]:
        """Produce raw findings for ``module`` (before suppression)."""
        raise NotImplementedError

    def run(self, module: SourceModule) -> list[Finding]:
        """Scope-filtered, suppression-filtered findings for ``module``."""
        if not self.applies(module):
            return []
        tokens = {self.rule.lower(), self.slug.lower()}
        return [
            finding
            for finding in self.check(module)
            if not (tokens & module.allowed_rules(finding.line))
        ]

    def finding(self, module: SourceModule, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` for ``node`` in ``module``."""
        return Finding(
            rule=self.rule,
            slug=self.slug,
            path=str(module.path),
            line=getattr(node, "lineno", 1),
            message=message,
            hint=self.hint,
        )


class ProjectChecker(Checker):
    """Base class for rules that need a whole-project view.

    Per-module checkers cannot see that a helper's *caller* holds a lock
    or that an exception propagates across modules.  A ``ProjectChecker``
    runs once per lint invocation over the shared
    :class:`~repro.analysis.flow.summaries.ProjectIndex` (modules, call
    graph, interprocedural summaries) instead of once per module.
    Suppression comments still work: each finding is filtered against the
    ``# repro-lint: allow[...]`` directives of the module it anchors to.
    """

    def check(self, module: SourceModule) -> list[Finding]:
        """Project rules produce nothing in the per-module pass."""
        return []

    def check_project(self, index: ProjectIndex) -> list[Finding]:
        """Produce raw findings for the whole project (before suppression)."""
        raise NotImplementedError

    def run_project(self, index: ProjectIndex) -> list[Finding]:
        """Suppression-filtered findings for the whole project."""
        tokens = {self.rule.lower(), self.slug.lower()}
        by_path = {str(module.path): module for module in index.modules}
        kept: list[Finding] = []
        for finding in self.check_project(index):
            module = by_path.get(finding.path)
            if module is not None and (tokens & module.allowed_rules(finding.line)):
                continue
            kept.append(finding)
        return kept
