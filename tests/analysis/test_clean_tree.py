"""Meta-test: the shipped ``src/repro`` tree is repro-lint clean.

This is the suite's keystone: the six invariants are not aspirations but
facts about the tree as committed, and any PR that breaks one fails here
(and in the CI ``static-analysis`` job) before the functional suites run.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import ALL_CHECKERS, lint_paths
from repro.analysis.base import SourceModule

SRC_REPRO = Path(__file__).resolve().parent.parent.parent / "src" / "repro"


def test_src_repro_is_clean():
    findings, files_checked = lint_paths([SRC_REPRO])
    rendered = "\n".join(finding.format() for finding in findings)
    assert findings == [], f"repro-lint findings on the shipped tree:\n{rendered}"
    assert files_checked > 80  # the walk really covered the package


def test_every_rule_covers_part_of_the_real_tree():
    # Guard against vacuous cleanliness: each rule must consider at least
    # one real module.
    modules = [
        SourceModule.from_path(path, root=SRC_REPRO)
        for path in sorted(SRC_REPRO.rglob("*.py"))
        if "__pycache__" not in path.parts
    ]
    for checker in ALL_CHECKERS:
        covered = [module for module in modules if checker.applies(module)]
        assert covered, f"{checker.rule} applies to no real module"

