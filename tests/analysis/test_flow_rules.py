"""REPRO111/112 fixtures: each flow rule fires where expected, stays quiet
on the compliant twin and honours suppressions."""

from __future__ import annotations

from pathlib import Path

from tests.analysis.test_rules import line_of

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


# ---------------------------------------------------------------------------
# REPRO111 exception-contract
# ---------------------------------------------------------------------------

CONTRACT_ERRORS = """\
    class StorageError(RuntimeError):
        pass


    class CorruptThing(StorageError):
        pass
"""

CONTRACT_POSITIVE = """\
    from repro.storage.errors import StorageError


    def load(path):
        if not path:
            raise RuntimeError("boom")  # MARK-direct
        return path


    def fetch(data):
        return _pick(data)


    def _pick(data):
        raise LookupError("missing")  # MARK-via-helper


    def reraised():
        try:
            risky()
        except ArithmeticError:
            raise  # MARK-bare-reraise
"""

CONTRACT_NEGATIVE = """\
    from repro.storage.errors import CorruptThing, StorageError


    def load(path):
        if not path:
            raise ValueError("bad argument")  # documented builtin
        raise CorruptThing("damaged")  # StorageError subclass


    def convert(data):
        try:
            return _decode(data)
        except RuntimeError as exc:
            raise StorageError(str(exc))  # caught and converted


    def _decode(data):
        raise RuntimeError("internal")  # private: the contract binds public names


    def iterate(items):
        for item in items:
            yield item
        raise StopIteration  # documented protocol builtin
"""


def test_exception_contract_positive(lint_tree):
    findings = lint_tree(
        {"storage/errors.py": CONTRACT_ERRORS, "storage/widget.py": CONTRACT_POSITIVE},
        select=["exception-contract"],
    )
    assert {f.rule for f in findings} == {"REPRO111"}
    assert {f.line for f in findings} == {
        line_of(CONTRACT_POSITIVE, "MARK-direct"),
        line_of(CONTRACT_POSITIVE, "MARK-via-helper"),
        line_of(CONTRACT_POSITIVE, "MARK-bare-reraise"),
    }
    direct = next(f for f in findings if f.line == line_of(CONTRACT_POSITIVE, "MARK-direct"))
    assert "`RuntimeError`" in direct.message and "`load`" in direct.message
    assert "StorageError" in direct.hint
    helper = next(
        f for f in findings if f.line == line_of(CONTRACT_POSITIVE, "MARK-via-helper")
    )
    assert "`_pick`" in helper.message and "`fetch`" in helper.message


def test_exception_contract_negative(lint_tree):
    findings = lint_tree(
        {"storage/errors.py": CONTRACT_ERRORS, "storage/widget.py": CONTRACT_NEGATIVE},
        select=["exception-contract"],
    )
    assert findings == []


def test_exception_contract_scoped_to_storage_and_api(lint_tree):
    findings = lint_tree(
        {"hermes/widget.py": CONTRACT_POSITIVE, "core/widget.py": CONTRACT_POSITIVE},
        select=["exception-contract"],
    )
    assert findings == []


def test_exception_contract_subtype_aware_catching(lint_tree):
    source = """\
        from repro.storage.errors import CorruptThing


        def guarded():
            try:
                raise CorruptThing("x")  # caught below via the base class
            except RuntimeError:
                return None
    """
    findings = lint_tree(
        {"storage/errors.py": CONTRACT_ERRORS, "storage/widget.py": source},
        select=["exception-contract"],
    )
    assert findings == []


def test_exception_contract_suppression(lint_tree):
    source = CONTRACT_POSITIVE.replace(
        "# MARK-direct", "# repro-lint: allow[exception-contract]"
    )
    findings = lint_tree(
        {"storage/errors.py": CONTRACT_ERRORS, "storage/widget.py": source},
        select=["exception-contract"],
    )
    assert line_of(CONTRACT_POSITIVE, "MARK-direct") not in {f.line for f in findings}


# ---------------------------------------------------------------------------
# REPRO112 durability-ordering
# ---------------------------------------------------------------------------

DURABILITY_POSITIVE = """\
    def publish(io, path, tmp, payload):
        handle = io.open(tmp, "wb")
        io.write(handle, payload)
        io.replace(tmp, path)  # MARK-unsynced
        io.fsync_dir(path.parent)


    def relink(io, path, tmp, payload):
        handle = io.open(tmp, "wb")
        io.write(handle, payload)
        io.fsync(handle)
        io.replace(tmp, path)  # MARK-nodirsync
        return path


    def branchy(io, path, tmp, payload, fast):
        handle = io.open(tmp, "wb")
        io.write(handle, payload)
        if not fast:
            io.fsync(handle)
        io.replace(tmp, path)  # MARK-one-arm-dirty
        io.fsync_dir(path.parent)
"""

DURABILITY_NEGATIVE = """\
    class Catalog:
        def __init__(self, io):
            self.io = io

        def _retry(self, fn):
            return fn()

        def write(self, path, tmp, payload):
            def stage():
                handle = self.io.open(tmp, "wb")
                self.io.write(handle, payload)
                self.io.fsync(handle)
            self._retry(stage)
            self._retry(lambda: self.io.replace(tmp, path))
            self.io.fsync_dir(path.parent)


    def straight(io, path, tmp, payload):
        if payload is None:
            return None
        handle = io.open(tmp, "wb")
        io.write(handle, payload)
        io.fsync(handle)
        io.replace(tmp, path)
        if io.failed:
            raise OSError("disk gone")  # crash path: dirsync not required
        io.fsync_dir(path.parent)
        return path
"""


def test_durability_positive(lint_tree):
    findings = lint_tree({"storage/commit.py": DURABILITY_POSITIVE}, select=["REPRO112"])
    assert {f.rule for f in findings} == {"REPRO112"}
    by_line = {f.line: f for f in findings}
    unsynced = by_line[line_of(DURABILITY_POSITIVE, "MARK-unsynced")]
    assert "not fsynced" in unsynced.message and "`publish`" in unsynced.message
    nodirsync = by_line[line_of(DURABILITY_POSITIVE, "MARK-nodirsync")]
    assert "fsync_dir" in nodirsync.message and "`relink`" in nodirsync.message
    one_arm = by_line[line_of(DURABILITY_POSITIVE, "MARK-one-arm-dirty")]
    assert "not fsynced" in one_arm.message  # must-analysis: one dirty arm is enough
    assert all("staged write -> io.fsync" in f.hint for f in findings)


def test_durability_negative_including_retry_closures(lint_tree):
    findings = lint_tree({"storage/commit.py": DURABILITY_NEGATIVE}, select=["REPRO112"])
    assert findings == []


def test_durability_scoped_like_io_discipline(lint_tree):
    findings = lint_tree(
        {
            "hermes/commit.py": DURABILITY_POSITIVE,
            "storage/faults.py": DURABILITY_POSITIVE,  # the shim is exempt
        },
        select=["REPRO112"],
    )
    assert findings == []


def test_durability_suppression(lint_tree):
    source = DURABILITY_POSITIVE.replace(
        "# MARK-unsynced", "# repro-lint: allow[durability-ordering]"
    )
    findings = lint_tree({"storage/commit.py": source}, select=["REPRO112"])
    assert line_of(DURABILITY_POSITIVE, "MARK-unsynced") not in {f.line for f in findings}


def test_durability_real_write_manifest_is_clean(lint_tree):
    # The shipped StorageManager.write_manifest commits through retry
    # closures; the checker must follow them and stay quiet.
    findings = lint_tree(
        {"storage/catalog.py": (REPO_SRC / "storage" / "catalog.py").read_text()},
        select=["REPRO112"],
    )
    assert findings == []
