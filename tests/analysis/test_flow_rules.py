"""REPRO110/111/112 fixtures: each flow rule fires where expected, stays quiet
on the compliant twin, honours suppressions — and, for REPRO110, turns the
*real* tree red when a seeded lock acquisition is deleted."""

from __future__ import annotations

from pathlib import Path

import pytest

from tests.analysis.test_rules import line_of

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


# ---------------------------------------------------------------------------
# REPRO110 race-detection
# ---------------------------------------------------------------------------

RACE_POSITIVE = """\
    import threading


    class Pool:
        def __init__(self):
            self._lock = threading.Lock()
            self._cache = {}  # guarded-by: _lock

        def _evict(self, key):
            self._cache.pop(key, None)  # MARK-helper-mutation

        def flush(self, key):
            self._evict(key)

        def peek(self, key):
            return self._cache.get(key)  # MARK-unlocked-read

        def racy_branch(self, key, value):
            if key:
                with self._lock:
                    self._cache[key] = value
            else:
                self._cache[key] = value  # MARK-unlocked-arm

        def after_with(self, key):
            with self._lock:
                value = self._cache.get(key)
            return value or self._cache.get(key)  # MARK-after-with
"""

RACE_NEGATIVE = """\
    import threading


    class Pool:
        def __init__(self):
            self._lock = threading.Lock()
            self._cache = {}  # guarded-by: _lock
            self._cache["warm"] = True  # __init__ is exempt

        def _evict(self, key):
            self._cache.pop(key, None)

        def _chain(self, key):
            self._evict(key)

        def flush(self, key):
            with self._lock:
                self._chain(key)  # discharged here, two hops above the access

        def read(self, key):
            with self._lock:
                return self._cache.get(key)

        # holds: _lock
        def served(self, key):
            return self._cache.get(key)  # public root: explicit caller contract
"""


def test_race_positive_interprocedural_and_flow_sensitive(lint_tree):
    findings = lint_tree({"core/pool.py": RACE_POSITIVE}, select=["race-detection"])
    assert {f.rule for f in findings} == {"REPRO110"}
    assert {f.line for f in findings} == {
        line_of(RACE_POSITIVE, "MARK-helper-mutation"),
        line_of(RACE_POSITIVE, "MARK-unlocked-read"),
        line_of(RACE_POSITIVE, "MARK-unlocked-arm"),
        line_of(RACE_POSITIVE, "MARK-after-with"),
    }
    assert all(f.path.endswith("core/pool.py") for f in findings)
    assert all("with self.<lockname>:" in f.hint for f in findings)
    # The helper's finding names the public entry point it leaks from.
    helper = next(
        f for f in findings if f.line == line_of(RACE_POSITIVE, "MARK-helper-mutation")
    )
    assert "`Pool.flush`" in helper.message and "`Pool._evict`" in helper.message


def test_race_negative_discharge_holds_and_locked_paths(lint_tree):
    assert lint_tree({"core/pool.py": RACE_NEGATIVE}, select=["race-detection"]) == []


def test_race_suppression_on_the_access_line(lint_tree):
    source = RACE_POSITIVE.replace(
        "# MARK-helper-mutation", "# repro-lint: allow[race-detection]"
    )
    findings = lint_tree({"core/pool.py": source}, select=["race-detection"])
    assert line_of(RACE_POSITIVE, "MARK-helper-mutation") not in {f.line for f in findings}


def test_race_private_only_cycles_stay_quiet(lint_tree):
    # Obligations that circulate only among private helpers that project
    # code calls are not reported: no entry point reaches them.  (A helper
    # that nothing calls is an entry itself; see the thread-target case.)
    source = """\
        import threading


        class Pool:
            def __init__(self):
                self._lock = threading.Lock()
                self._cache = {}  # guarded-by: _lock

            def _ping(self, key):
                self._pong(key)

            def _pong(self, key):
                self._cache.pop(key, None)
                self._ping(key)
    """
    assert lint_tree({"core/pool.py": source}, select=["race-detection"]) == []


# The cases of the former per-method lock rule (REPRO102), carried over:
# REPRO110 flags each of its positives at the same line.

LOCK_POSITIVE = """\
    import threading


    class Pool:
        def __init__(self):
            self._lock = threading.Lock()
            self._cache = {}  # guarded-by: _lock

        def unlocked_write(self, key, value):
            self._cache[key] = value  # MARK-assign

        def unlocked_pop(self, key):
            if key:
                return self._cache.pop(key, None)  # MARK-pop
            return None
"""

LOCK_NEGATIVE = """\
    import threading


    class Pool:
        def __init__(self):
            self._lock = threading.Lock()
            self._cache = {}  # guarded-by: _lock
            self._cache["warm"] = True  # __init__ is exempt

        def locked_write(self, key, value):
            with self._lock:
                self._cache[key] = value

        def locked_read(self, key):
            with self._lock:
                return self._cache.get(key)

        def unguarded_other(self):
            self.stats = {}  # not a guarded attribute
"""

LOCK_NESTED_WITH = """\
    class Pool:
        def __init__(self):
            self._lock = object()
            self._cache = {}  # guarded-by: _lock

        def nested(self, key):
            with self._lock:
                if key:
                    del self._cache[key]
"""

LOCK_TUPLE_UNPACK = """\
    class Pool:
        def __init__(self):
            self._lock = object()
            self._state = None  # guarded-by: _lock

        def swap(self):
            old, self._state = self._state, None  # MARK-unpack
            return old
"""

LOCK_SUPPRESSED = """\
    class Pool:
        def __init__(self):
            self._lock = object()
            self._cache = {}  # guarded-by: _lock

        def blessed(self, key):
            # repro-lint: allow[REPRO110]
            self._cache.pop(key, None)
"""

LOCK_THREAD_TARGET = """\
    import threading


    class Pump:
        def __init__(self):
            self._lock = threading.Lock()
            self._queue = []  # guarded-by: _lock
            self._thread = threading.Thread(target=self._worker)

        def _worker(self):
            self._queue.clear()  # MARK-worker
"""

LOCK_UNCALLED_HOLDS_HELPER = """\
    import threading


    class Pump:
        def __init__(self):
            self._lock = threading.Lock()
            self._queue = []  # guarded-by: _lock

        # holds: _lock
        def _drain(self):
            return self._queue.pop()
"""

LOCK_CASES = {
    "positive": (LOCK_POSITIVE, ["MARK-assign", "MARK-pop"]),
    "negative": (LOCK_NEGATIVE, []),
    "nested_with": (LOCK_NESTED_WITH, []),
    "tuple_unpack": (LOCK_TUPLE_UNPACK, ["MARK-unpack"]),
    "suppression": (LOCK_SUPPRESSED, []),
    "uncalled_thread_target": (LOCK_THREAD_TARGET, ["MARK-worker"]),
    "uncalled_holds_helper": (LOCK_UNCALLED_HOLDS_HELPER, []),
}


@pytest.mark.parametrize("case", list(LOCK_CASES))
def test_former_lock_discipline_cases(lint_tree, case):
    source, marks = LOCK_CASES[case]
    findings = lint_tree({"core/pool.py": source}, select=["race-detection"])
    assert sorted(f.line for f in findings) == sorted(line_of(source, m) for m in marks)
    assert all(f.rule == "REPRO110" and "`_lock`" in f.message for f in findings)


def test_uncalled_helper_is_named_as_its_own_entry(lint_tree):
    (finding,) = lint_tree({"core/pump.py": LOCK_THREAD_TARGET}, select=["race-detection"])
    assert "entry `Pump._worker`" in finding.message
    assert "locally" in finding.message


# The three PR 8 lock-seeded sites, verified interprocedurally on the real
# tree: deleting any one `with self.<lock>:` turns the tree red.

_SEEDED_SITES = [
    # (module, method owning the acquisition, with-statement text, guarded attr)
    ("core/engine.py", "def _invalidate", "with self._catalog_lock:", "_frames"),
    ("core/parallel.py", "def executor", "with self._lock:", "_executor"),
    ("api.py", "def execute", "with self._memo_lock:", "_cache"),
]


def _without_lock(text: str, method: str, with_text: str) -> str:
    start = text.index(method)
    site = text.index(with_text, start)
    return text[:site] + "if True:" + text[site + len(with_text) :]


def test_deleting_any_seeded_lock_turns_the_real_tree_red(lint_tree):
    for relative, method, with_text, attr in _SEEDED_SITES:
        original = (REPO_SRC / relative).read_text()
        assert with_text in original[original.index(method) :], (relative, method)
        broken = _without_lock(original, method, with_text)
        findings = lint_tree({relative: broken}, select=["race-detection"])
        assert any(
            f.rule == "REPRO110" and f"`self.{attr}`" in f.message for f in findings
        ), f"deleting {with_text!r} in {relative}:{method} was not detected"


def test_real_tree_seeded_sites_are_clean_as_shipped(lint_tree):
    for relative, _, _, _ in _SEEDED_SITES:
        findings = lint_tree(
            {relative: (REPO_SRC / relative).read_text()}, select=["race-detection"]
        )
        assert findings == [], f"shipped {relative} should satisfy REPRO110"


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
