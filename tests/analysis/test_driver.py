"""The ``repro-lint`` driver: CLI surface, exit codes, text output."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis import ALL_CHECKERS, select_checkers
from repro.analysis.driver import main

BAD_STORAGE = textwrap.dedent(
    """\
    def commit(path, data):
        handle = open(path, "wb")
        handle.close()
    """
)

CLEAN_STORAGE = textwrap.dedent(
    """\
    def commit(io, path, data):
        handle = io.open(path, "wb")
        handle.close()
    """
)


def _tree(tmp_path: Path, files: dict[str, str]) -> Path:
    for relative, source in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return tmp_path


def test_exit_zero_and_clean_summary_on_clean_tree(tmp_path, capsys):
    tree = _tree(tmp_path, {"storage/ok.py": CLEAN_STORAGE})
    assert main([str(tree)]) == 0
    out = capsys.readouterr().out
    assert "repro-lint: clean" in out


def test_exit_nonzero_with_location_rule_and_hint(tmp_path, capsys):
    tree = _tree(tmp_path, {"storage/bad.py": BAD_STORAGE})
    assert main([str(tree)]) == 1
    out = capsys.readouterr().out
    assert f"{tree / 'storage' / 'bad.py'}:2: REPRO101 [io-discipline]" in out
    assert "hint:" in out
    assert "repro-lint: 1 finding" in out


def test_select_restricts_to_named_rules(tmp_path):
    tree = _tree(tmp_path, {"storage/bad.py": BAD_STORAGE})
    assert main([str(tree), "--select", "determinism"]) == 0
    assert main([str(tree), "--select", "determinism,REPRO101"]) == 1


def test_ignore_drops_named_rules(tmp_path):
    tree = _tree(tmp_path, {"storage/bad.py": BAD_STORAGE})
    assert main([str(tree), "--ignore", "io-discipline"]) == 0
    assert main([str(tree), "--ignore", "REPRO105"]) == 1


def test_unknown_rule_is_a_usage_error(tmp_path):
    tree = _tree(tmp_path, {"storage/bad.py": BAD_STORAGE})
    with pytest.raises(SystemExit) as excinfo:
        main([str(tree), "--select", "no-such-rule"])
    assert excinfo.value.code == 2


def test_missing_path_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main([str(tmp_path / "nowhere")])
    assert excinfo.value.code == 2


def test_parse_error_is_a_finding(tmp_path, capsys):
    tree = _tree(tmp_path, {"storage/broken.py": "def broken(:\n"})
    assert main([str(tree)]) == 1
    out = capsys.readouterr().out
    assert "REPRO100 [parse-error]" in out


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for checker in ALL_CHECKERS:
        assert checker.rule in out
        assert checker.slug in out


def test_explicit_file_argument(tmp_path):
    # A single file (not a directory) can be linted; its logical location
    # is inferred from the path itself, so scoped rules still fire.
    target = tmp_path / "src" / "repro" / "storage" / "bad.py"
    target.parent.mkdir(parents=True)
    target.write_text(BAD_STORAGE)
    assert main([str(target)]) == 1


def test_registry_ids_are_unique_and_ordered():
    rules = [checker.rule for checker in ALL_CHECKERS]
    slugs = [checker.slug for checker in ALL_CHECKERS]
    assert len(set(rules)) == len(rules) == 6
    assert len(set(slugs)) == len(slugs) == 6
    assert rules == sorted(rules)


def test_select_checkers_roundtrip():
    by_slug = select_checkers(["shm-hygiene"])
    by_rule = select_checkers(["REPRO106"])
    assert by_slug == by_rule
    assert [checker.slug for checker in by_slug] == ["shm-hygiene"]
    with pytest.raises(ValueError):
        select_checkers(["REPRO999"])


# ---------------------------------------------------------------------------
# Suppressions on decorated defs
# ---------------------------------------------------------------------------


def test_suppression_above_decorator_reaches_the_def_line(tmp_path):
    # The finding anchors to the `class` line, below the decorator stack;
    # the suppression comment naturally sits above the stack.  Regression:
    # it used to be matched only against the anchor line and the one above.
    source = textwrap.dedent(
        """\
        from dataclasses import dataclass


        # repro-lint: allow[plan-purity]
        @dataclass
        class MutablePlan:
            name: str
        """
    )
    tree = _tree(tmp_path, {"sql/plan.py": source})
    assert main([str(tree), "--select", "plan-purity"]) == 0

    unsuppressed = source.replace("# repro-lint: allow[plan-purity]\n", "")
    (tree / "sql" / "plan.py").write_text(unsuppressed)
    assert main([str(tree), "--select", "plan-purity"]) == 1


def test_suppression_above_multi_decorator_stack(tmp_path):
    source = textwrap.dedent(
        """\
        from dataclasses import dataclass


        def noop(cls):
            return cls


        # repro-lint: allow[REPRO103]
        @noop
        @dataclass
        class MutablePlan:
            name: str
        """
    )
    tree = _tree(tmp_path, {"sql/plan.py": source})
    assert main([str(tree), "--select", "plan-purity"]) == 0
