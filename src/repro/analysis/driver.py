"""The ``repro-lint`` driver: walk a tree, run the checkers, report.

This is the console-script entry point (``repro-lint`` in
``pyproject.toml``) and the programmatic API the test suite uses.  It
is deliberately engine-free — importing it pulls in nothing beyond the
stdlib and the checker modules — so the CI ``static-analysis`` job can
run it on a bare interpreter before any test dependency is installed.

Usage::

    repro-lint                      # lint src/repro (the default root)
    repro-lint path/to/tree ...     # lint explicit files or directories
    repro-lint --select io-discipline,REPRO105
    repro-lint --ignore determinism
    repro-lint --list-rules

The per-module rules run file by file; the flow-sensitive project rules
(REPRO111–112 and friends, any :class:`~repro.analysis.base.ProjectChecker`)
run once over a shared :class:`~repro.analysis.flow.summaries.ProjectIndex`
built from every file that parsed.  The one per-site escape is a
``# repro-lint: allow[RULE]`` comment (see :mod:`repro.analysis.base`).

Exit status is ``0`` when the tree is clean, ``1`` when any finding is
reported (including files that fail to parse, reported as ``REPRO100
parse-error``), and ``2`` on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.base import Checker, Finding, ProjectChecker, SourceModule
from repro.analysis.determinism import DeterminismChecker
from repro.analysis.durability import DurabilityChecker
from repro.analysis.exception_contracts import ExceptionContractChecker
from repro.analysis.flow.summaries import ProjectIndex
from repro.analysis.io_discipline import IoDisciplineChecker
from repro.analysis.plan_purity import PlanPurityChecker
from repro.analysis.shm_hygiene import ShmHygieneChecker

__all__ = ["ALL_CHECKERS", "lint_paths", "main", "select_checkers"]

#: Every registered rule, in rule-id order.
ALL_CHECKERS: tuple[Checker, ...] = (
    IoDisciplineChecker(),
    PlanPurityChecker(),
    DeterminismChecker(),
    ShmHygieneChecker(),
    ExceptionContractChecker(),
    DurabilityChecker(),
)

_PARSE_HINT = "fix the syntax error; repro-lint only checks files that parse"


def _iter_source_files(paths: list[Path]) -> list[tuple[Path, Path | None]]:
    """Expand files/directories into sorted, de-duplicated ``(file, root)`` pairs.

    ``root`` is the scanned directory a file came from (``None`` for files
    given explicitly); it anchors each module's logical location so the
    path-scoped rules fire correctly in fixture trees too.
    """
    files: dict[Path, Path | None] = {}
    for path in paths:
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if "__pycache__" not in candidate.parts:
                    files.setdefault(candidate, path)
        else:
            files.setdefault(path, None)
    return sorted(files.items())


def select_checkers(
    select: list[str] | None = None, ignore: list[str] | None = None
) -> list[Checker]:
    """Resolve ``--select`` / ``--ignore`` tokens against the registry.

    Tokens are rule ids (``REPRO101``) or slugs (``io-discipline``),
    case-insensitive.  Unknown tokens raise ``ValueError`` — a typo in a
    CI config must fail loudly, not silently lint nothing.
    """
    known = {c.rule.lower(): c for c in ALL_CHECKERS}
    known.update({c.slug.lower(): c for c in ALL_CHECKERS})

    def resolve(tokens: list[str]) -> set[str]:
        rules: set[str] = set()
        for token in tokens:
            checker = known.get(token.strip().lower())
            if checker is None:
                raise ValueError(f"unknown rule {token!r}; see `repro-lint --list-rules`")
            rules.add(checker.rule)
        return rules

    active = {c.rule for c in ALL_CHECKERS}
    if select:
        active = resolve(select)
    if ignore:
        active -= resolve(ignore)
    return [c for c in ALL_CHECKERS if c.rule in active]


def lint_paths(
    paths: list[Path], checkers: list[Checker] | None = None
) -> tuple[list[Finding], int]:
    """Lint every source file under ``paths``.

    Returns ``(findings, files_checked)``; findings are sorted by path,
    line and rule so output is deterministic across runs.
    """
    if checkers is None:
        checkers = list(ALL_CHECKERS)
    findings: list[Finding] = []
    files = _iter_source_files(paths)
    modules: list[SourceModule] = []
    for path, root in files:
        try:
            module = SourceModule.from_path(path, root=root)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    rule="REPRO100",
                    slug="parse-error",
                    path=str(path),
                    line=exc.lineno or 1,
                    message=f"file does not parse: {exc.msg}",
                    hint=_PARSE_HINT,
                )
            )
            continue
        modules.append(module)
        for checker in checkers:
            findings.extend(checker.run(module))
    # Flow-sensitive rules run once over the whole parsed project: their
    # facts (call-graph summaries) span module boundaries by design.
    project_checkers = [c for c in checkers if isinstance(c, ProjectChecker)]
    if project_checkers and modules:
        index = ProjectIndex(modules)
        for checker in project_checkers:
            findings.extend(checker.run_project(index))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings, len(files)


def _default_root() -> Path | None:
    """The implicit scan root: ``src/repro`` relative to the cwd."""
    root = Path("src") / "repro"
    return root if root.is_dir() else None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Project-invariant checker suite (stdlib-ast, engine-free).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids/slugs to run exclusively",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids/slugs to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def _split_tokens(raw: list[str] | None) -> list[str] | None:
    if raw is None:
        return None
    return [token for chunk in raw for token in chunk.split(",") if token.strip()]


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for checker in ALL_CHECKERS:
            print(f"{checker.rule}  {checker.slug}")
        return 0

    paths = list(args.paths)
    if not paths:
        root = _default_root()
        if root is None:
            parser.error("no paths given and ./src/repro does not exist")
        paths = [root]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        parser.error(f"no such path: {', '.join(missing)}")

    try:
        checkers = select_checkers(_split_tokens(args.select), _split_tokens(args.ignore))
    except ValueError as exc:
        parser.error(str(exc))

    findings, files_checked = lint_paths(paths, checkers)
    for finding in findings:
        print(finding.format())
    if findings:
        noun = "finding" if len(findings) == 1 else "findings"
        print(f"repro-lint: {len(findings)} {noun} in {files_checked} files")
    else:
        print(f"repro-lint: clean ({files_checked} files, {len(checkers)} rules)")
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
