"""Damaged stores fail only with the documented error types.

Callers of the storage layer catch :class:`~repro.storage.errors.StorageError`
to tell "the data is damaged, run repro-fsck" from a bug, and callers of
:mod:`repro.api` catch ``SQLError``.  Both contracts break the moment one
path lets a bare ``RuntimeError`` (or any other undocumented type) through.
Here hypothesis damages a real store and drives every public entry to it —
:meth:`StorageManager.read_manifest`, :class:`DurableCatalog`,
``fsck_store`` with and without repair, and ``repro.connect(path)`` before
and after the repair — and fails on any exception outside :data:`CONTRACT`:

* manifests that are valid JSON of the wrong shape: a list, a number, a
  string, ``null``, or the real object with keys removed or retyped, its
  ``manifest_crc`` restamped over the damage or left stale;
* archives that are consistent but incomplete: one partition rewritten
  without one of its records, its page CRCs and the manifest CRC restamped,
  so only the record counts can tell.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.datagen import lane_scenario
from repro.hermes.mod import MOD
from repro.sql.errors import SQLError
from repro.storage.catalog import (
    MANIFEST_FILENAME,
    StorageManager,
    manifest_checksum,
    page_checksums,
)
from repro.storage.durable import DurableCatalog, manifest_partitions
from repro.storage.errors import CorruptManifestError, StorageError
from repro.storage.faults import InjectedCrash
from repro.storage.fsck import fsck_store
from repro.storage.heapfile import read_records

#: What a public storage or API function may raise: the storage hierarchy,
#: the DB-API hierarchy (``InterfaceError`` is an ``SQLError``), the fault
#: injector's simulated process death, and the builtins documented as
#: pass-through — ``ValueError`` for bad arguments, ``OSError`` for the
#: filesystem, ``KeyError`` / ``IndexError`` / ``TypeError`` for lookups and
#: typing, ``NotImplementedError``, ``StopIteration`` for iterators and
#: ``AssertionError`` for unreachable states.  ``StorageError`` subclasses
#: ``RuntimeError``; a bare ``RuntimeError`` is outside the contract.
CONTRACT: tuple[type[BaseException], ...] = (
    StorageError,
    SQLError,
    InjectedCrash,
    ValueError,
    KeyError,
    TypeError,
    IndexError,
    OSError,
    NotImplementedError,
    StopIteration,
    AssertionError,
)

LANES, _TRUTH = lane_scenario(n_trajectories=10, n_lanes=2, n_samples=12, seed=3, name="d")
PERIOD = LANES.period
STATEMENTS = (
    "SHOW DATASETS",
    "SELECT COUNT(*) FROM d",
    "SELECT * FROM d LIMIT 3",
    "SELECT SUMMARY(d)",
    f"SELECT QUT(d, {PERIOD.tmin}, {PERIOD.tmax})",
)

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-5, 5)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)

SETTINGS = settings(max_examples=20, deadline=None)


def within_contract(call) -> None:
    """Run ``call``; a contract-typed failure is an answer, anything else escapes."""
    try:
        call()
    except CONTRACT:
        pass


def open_and_query(root: Path) -> None:
    with repro.connect(root) as conn:
        for sql in STATEMENTS:
            within_contract(lambda: conn.execute(sql).fetchall())


def catalog_calls(root: Path) -> None:
    catalog = DurableCatalog(root)
    try:
        for name in ["d", *catalog.pending()]:
            within_contract(lambda: catalog.load(name))
            within_contract(lambda: catalog.tree_section(name))
            within_contract(lambda: catalog.status(name))
    finally:
        catalog.close()


def read_manifest(directory: Path, verify: bool) -> None:
    storage = StorageManager(directory)
    try:
        storage.read_manifest(verify=verify)
    finally:
        storage.close()


def exercise(root: Path) -> None:
    """Every public entry to the store, each held to the contract."""
    for verify in (True, False):
        within_contract(lambda: read_manifest(root / "d", verify))
    within_contract(lambda: catalog_calls(root))
    within_contract(lambda: fsck_store(root))
    within_contract(lambda: open_and_query(root))
    within_contract(lambda: fsck_store(root, repair=True))
    within_contract(lambda: open_and_query(root))


@pytest.fixture(scope="module")
def store(tmp_path_factory) -> Path:
    """Base archive, one delta and a persisted tree."""
    root = tmp_path_factory.mktemp("contract") / "s"
    with repro.connect(root) as conn:
        trajectories = LANES.trajectories()
        conn.engine.load_mod("d", MOD(name="d", trajectories=trajectories[:8]))
        conn.execute(STATEMENTS[-1]).fetchall()
        assert conn.dataset("d").append(trajectories[8:]).persisted
    return root


def damaged_copy(store: Path, scratch: str) -> tuple[Path, dict]:
    root = Path(scratch) / "s"
    shutil.copytree(store, root)
    return root, json.loads((root / "d" / MANIFEST_FILENAME).read_text())


def write_manifest(root: Path, document: object, restamp: bool) -> None:
    if restamp and isinstance(document, dict):
        document["manifest_crc"] = manifest_checksum(document)
    (root / "d" / MANIFEST_FILENAME).write_text(json.dumps(document))


def without_record(path: Path, drop: int, scratch: Path) -> bytes | None:
    """The partition file at ``path`` rewritten without one record (``None`` when empty)."""
    shutil.copy(path, scratch / "src.part")
    storage = StorageManager(scratch)
    try:
        records = read_records([storage.get_or_create("src").heapfile])
        spans = list(zip(records.starts.tolist(), records.lengths.tolist()))
        if not spans:
            return None
        del spans[drop % len(spans)]
        rewritten = storage.create_partition("dst").heapfile
        for start, length in spans:
            rewritten.insert(records.image[start : start + length])
        storage.checkpoint()
    finally:
        storage.close()
    return (scratch / "dst.part").read_bytes()


class TestDamagedStoresRaiseContractTypes:
    @given(
        document=st.one_of(
            st.lists(JSON_VALUES, max_size=3),
            st.integers(),
            st.floats(allow_nan=False, allow_infinity=False),
            st.text(max_size=12),
            st.none(),
            st.booleans(),
        )
    )
    @SETTINGS
    def test_a_manifest_that_is_not_an_object(self, store, document):
        with tempfile.TemporaryDirectory() as scratch:
            root, _ = damaged_copy(store, scratch)
            write_manifest(root, document, restamp=False)
            exercise(root)

    @given(data=st.data(), restamp=st.booleans())
    @SETTINGS
    def test_a_manifest_object_missing_or_retyping_keys(self, store, data, restamp):
        with tempfile.TemporaryDirectory() as scratch:
            root, manifest = damaged_copy(store, scratch)
            keys = sorted(k for k in manifest if k != "manifest_crc")
            removed = data.draw(st.sets(st.sampled_from(keys), max_size=3), "removed")
            retyped = data.draw(
                st.sets(st.sampled_from(keys), min_size=0 if removed else 1, max_size=2), "retyped"
            )
            for key in removed:
                del manifest[key]
            for key in retyped:
                manifest[key] = data.draw(JSON_VALUES, f"value of {key}")
            write_manifest(root, manifest, restamp)
            exercise(root)

    @pytest.mark.parametrize("role", ["base", "delta", "tree"])
    @given(data=st.data())
    @settings(SETTINGS, max_examples=8)
    def test_a_consistent_archive_missing_one_record(self, store, role, data):
        with tempfile.TemporaryDirectory() as scratch:
            root, manifest = damaged_copy(store, scratch)
            names = sorted(
                name for name, _, kind in manifest_partitions(manifest) if kind.startswith(role)
            )
            name = data.draw(st.sampled_from(names), "partition")
            work = Path(scratch) / "work"
            work.mkdir()
            image = without_record(root / "d" / f"{name}.part", data.draw(st.integers(0, 99)), work)
            if image is not None:
                (root / "d" / f"{name}.part").write_bytes(image)
                manifest["checksums"][name] = page_checksums(image)
            write_manifest(root, manifest, restamp=True)
            exercise(root)


@pytest.mark.parametrize("owner", ["base", "delta"])
def test_a_restamped_manifest_without_row_keys_serves_no_rows(store, tmp_path, owner):
    """A stamp over a manifest that lost a ``row_keys`` list does not make it
    a smaller dataset: nothing is served, and the diagnostic names the list."""
    root, manifest = damaged_copy(store, str(tmp_path))
    del (manifest if owner == "base" else manifest["deltas"][0])["row_keys"]
    write_manifest(root, manifest, restamp=True)
    with repro.connect(root) as conn:
        with pytest.raises(CorruptManifestError, match="row_keys"):
            conn.execute("SELECT COUNT(*) FROM d").fetchall()
        with pytest.raises(CorruptManifestError, match="row_keys"):
            conn.execute("SELECT SUMMARY(d)").fetchall()
    assert [issue.kind for issue in fsck_store(root).errors] == ["manifest_unsupported"]


class TestTheContractCheckItself:
    """``within_contract`` lets the documented types through and nothing else."""

    @pytest.mark.parametrize(
        "error",
        [
            CorruptManifestError("damaged", path="manifest.json"),
            StorageError("damaged"),
            SQLError("bad statement"),
            InjectedCrash("power cut"),
            ValueError("bad argument"),
        ],
        ids=lambda e: type(e).__name__,
    )
    def test_a_contract_type_is_an_answer(self, error):
        def fail():
            raise error

        within_contract(fail)

    @pytest.mark.parametrize(
        "error",
        [RuntimeError("bare"), AttributeError("typo"), ZeroDivisionError("empty")],
        ids=lambda e: type(e).__name__,
    )
    def test_any_other_type_escapes(self, error):
        def fail():
            raise error

        with pytest.raises(type(error)):
            within_contract(fail)
