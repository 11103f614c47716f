"""The Hermes engine facade.

The engine is the Python analogue of a Hermes@PostgreSQL installation:
datasets are registered under names, clustering runs are invoked against a
dataset name, and the per-dataset derived state is cached:

* the **frame catalog** — a dataset *is* one immutable columnar
  :class:`~repro.hermes.frame.MODFrame` (``engine.frame``), the engine's
  only copy of it.  ``load_mod`` snapshots the caller's MOD once, so later
  changes to that MOD do not reach the dataset; every consumer (S2T,
  range-then-cluster, the ReTraTree, the SQL scans and ``SUMMARY``) reads
  the frame, and :meth:`HermesEngine.get_mod` is a
  :class:`~repro.hermes.mod.MOD` view of it, built on request for the
  boundary (CSV export, the baselines, holding patterns);
* the **ReTraTree** built for a dataset, so subsequent QuT queries are
  progressive (no rebuilding).

The tree — plus the SQL executor's INSERT buffers — is invalidated whenever
a dataset is replaced (``load_mod``) or removed (``drop``).  Each mutation
bumps the dataset's *generation* token, which is how the SQL executor
detects externally replaced datasets.  The SQL front-end (:mod:`repro.sql`)
executes against an engine instance.

Appending (:meth:`HermesEngine.append`, the path SQL ``INSERT`` for *new*
trajectories takes) is different: nothing is invalidated.  One
concatenation makes the dataset's new frame and it is swapped in (a cursor
keeps the frame it captured), a cached ReTraTree absorbs the batch
incrementally (:mod:`repro.core.ingest`), and the generation token moves —
so memoised results recompute while the expensive derived state survives.

Durability
----------
An ``HermesEngine.on_disk(directory)`` engine is *persistent*, mirroring the
paper's in-DBMS deployment where S2T runs once and the ReTraTree lives in
PostgreSQL.  Durability is the storage layer's job: the engine owns a
:class:`~repro.storage.durable.DurableCatalog` (``engine.catalog``) — the one
module that knows the manifest layout and the stage → checkpoint → stamp →
commit → sweep protocol — and only tells it *when* to commit:

* ``load_mod`` commits the dataset's archive (``catalog.commit_dataset``);
* ``retratree`` commits the built tree's structure next to the member
  partitions the build already wrote (``catalog.commit_tree``), and
  ``append`` commits the batch together with the maintained tree
  (``catalog.commit_append``);
* constructing a new engine over the same directory **recovers** every
  catalogued dataset — its frame, decoded on first use, and (lazily) the
  ReTraTree — so a cold process answers ``qut`` and SQL
  queries from disk without re-running S2T;
* ``drop`` (and dataset replacement through ``load_mod``) deletes the
  dataset's partition files and manifest, reclaiming the disk space.

In-memory engines have no catalog; their partitions die with the process.
"""

from __future__ import annotations

import threading
import weakref
from pathlib import Path
from typing import TYPE_CHECKING

from repro.baselines.convoy import ConvoyDiscovery, ConvoyParams
from repro.baselines.range_then_cluster import RangeThenCluster
from repro.baselines.toptics import TOpticsClustering, TOpticsParams
from repro.baselines.traclus import TraclusClustering, TraclusParams
from repro.core.parallel import WorkerPool, partitioned_s2t
from repro.hermes.frame import MODFrame, as_frame
from repro.hermes.io import read_csv, write_csv
from repro.hermes.mod import MOD
from repro.hermes.types import Period
from repro.qut.params import QuTParams
from repro.qut.query import QuTClustering
from repro.qut.retratree import ReTraTree
from repro.s2t.params import S2TParams
from repro.s2t.pipeline import S2TClustering
from repro.s2t.result import ClusteringResult
from repro.storage.durable import DurableCatalog
from repro.storage.errors import StorageError
from repro.storage.faults import IOShim

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.ingest import AppendReport
    from repro.storage.fsck import FsckReport

__all__ = ["HermesEngine"]


class HermesEngine:
    """Manage datasets and run in-engine sub-trajectory clustering.

    Examples
    --------
    >>> from repro.core import HermesEngine
    >>> from repro.datagen import lane_scenario
    >>> engine = HermesEngine.in_memory()
    >>> mod, _ = lane_scenario(n_trajectories=25, seed=3)
    >>> engine.load_mod("demo", mod)
    >>> engine.s2t("demo").num_clusters > 0
    True
    """

    def __init__(
        self,
        storage_directory: str | Path | None = None,
        io: IOShim | None = None,
    ) -> None:
        self.storage_directory = Path(storage_directory) if storage_directory else None
        #: The thread that created the engine.  The engine holds no locks:
        #: :mod:`repro.api` refuses a call from any other thread.
        self.thread_id = threading.get_ident()
        # Optional OS-call shim threaded through every storage manager the
        # catalog opens; fault-injection tests pass a FaultInjector here.
        self.io = io
        #: The durable catalog (``None`` on in-memory engines): manifests,
        #: per-dataset storage managers, commits and recovery.
        self.catalog: DurableCatalog | None = None
        #: The datasets: one immutable frame each, the only copy.
        self._frames: dict[str, MODFrame] = {}
        self._retratrees: dict[str, ReTraTree] = {}
        self._last_results: dict[str, ClusteringResult] = {}
        self._generations: dict[str, int] = {}
        self._generation_counter = 0
        # Append batches applied per dataset since its last (re)load; purely
        # observability (EXPLAIN's artifact lines), reset on replacement.
        self._append_batches: dict[str, int] = {}
        self._plan_executor = None
        # Engine-owned persistent worker pool (lazily started by pool());
        # shared by every partition-parallel S2T run so consecutive jobs
        # reuse warm worker processes.
        self._worker_pool: WorkerPool | None = None
        self._pool_finalizer = None
        if self.storage_directory is not None:
            self._open_catalog()

    # -- constructors -------------------------------------------------------------

    @classmethod
    def in_memory(cls) -> "HermesEngine":
        """An engine whose ReTraTree partitions live purely in memory."""
        return cls(storage_directory=None)

    @classmethod
    def on_disk(cls, directory: str | Path, io: IOShim | None = None) -> "HermesEngine":
        """An engine whose ReTraTree partitions are stored under ``directory``.

        ``io`` optionally substitutes the OS-call shim every storage manager
        uses (:class:`~repro.storage.faults.IOShim`); fault-injection tests
        pass a :class:`~repro.storage.faults.FaultInjector` to simulate
        crashes and transient I/O errors on a deterministic schedule.
        """
        return cls(storage_directory=directory, io=io)

    # -- dataset management ----------------------------------------------------------

    def load_mod(self, name: str, mod: MOD) -> None:
        """Register a snapshot of ``mod`` under ``name`` (replaces any previous one).

        The dataset is one frame of ``mod``'s trajectories, taken here: a
        later change to ``mod`` does not reach it.  Invalidates every cache
        derived from the previous registration — the ReTraTree and the last
        clustering result — and bumps the dataset's generation token (which is how the SQL
        executor notices an externally replaced dataset).  On an on-disk
        engine the new dataset is archived *before* the previous
        registration's partition files are reclaimed — the manifest write is
        the commit point, so a crash mid-replacement leaves either the old
        or the new archive recoverable, never neither (see
        :meth:`repro.storage.durable.DurableCatalog.commit_dataset`).
        """
        if self.catalog is not None:
            self.catalog.check_name(name)
        self.resolve(name)  # a name withheld as damaged is refused: repro-fsck --repair first
        frame = as_frame(mod)
        self._frames[name] = frame
        self._invalidate(name)
        if self.catalog is not None:
            self.catalog.commit_dataset(name, frame, self._generations[name])

    def _invalidate(self, name: str) -> None:
        """Evict every cache derived from dataset ``name``'s frame and bump its generation.

        The SQL executor's buffered ``INSERT`` points for ``name`` go too:
        they belong to the registration being replaced or dropped.  Purely
        in-memory: on-disk state is left alone so that replacement
        (``load_mod``) can stage the successor before the predecessor's
        files go away; :meth:`drop` reclaims the disk explicitly.
        """
        tree = self._retratrees.pop(name, None)
        if tree is not None and self.catalog is None:
            # A private (in-memory) manager dies with the tree; the
            # catalog's shared manager stays open for the successor's commit.
            tree.storage.close()
        self._last_results.pop(name, None)
        self._append_batches.pop(name, None)
        self._generation_counter += 1
        self._generations[name] = self._generation_counter
        if self._plan_executor is not None:
            self._plan_executor.forget(name)

    def _note_append(self, name: str) -> None:
        """Record an append: bump the generation *without* evicting caches.

        The generation move is what makes consumers that memoise by
        generation (prepared-statement result caches, the SQL executor's
        point buffers) recompute against the extended dataset; the
        ingestion pipeline swapped the new frame in and maintained the tree,
        and both stay.
        """
        self._append_batches[name] = self._append_batches.get(name, 0) + 1
        self._generation_counter += 1
        self._generations[name] = self._generation_counter

    def append(self, name: str, trajectories) -> "AppendReport":
        """Append new trajectories to a dataset without invalidating caches.

        This is the ingestion fast path (see :mod:`repro.core.ingest`): one
        concatenation makes the dataset's new frame, a cached ReTraTree
        absorbs the batch incrementally (voting against existing
        representatives; no bulk rebuild), and on a durable engine the batch
        is committed as a delta heapfile partition.  Open cursors streaming
        the dataset keep the frame they captured.

        Parameters
        ----------
        name:
            A registered dataset name.
        trajectories:
            An iterable of new :class:`~repro.hermes.trajectory.Trajectory`
            objects (or a delta :class:`~repro.hermes.frame.MODFrame`).
            Keys must not already exist in the dataset.

        Returns
        -------
        An :class:`~repro.core.ingest.AppendReport` describing what the
        batch did.  An empty batch is a complete no-op.

        Raises
        ------
        KeyError
            If ``name`` is not registered.
        ValueError
            If a batch key collides with an existing trajectory or repeats
            within the batch.
        """
        from repro.core.ingest import IngestPipeline

        return IngestPipeline(self).append(name, trajectories)

    def load_csv(self, name: str, path: str | Path) -> MOD:
        """Load a point-record CSV and register it under ``name``."""
        mod = read_csv(path, name=name)
        self.load_mod(name, mod)
        return mod

    def export_csv(self, name: str, path: str | Path) -> None:
        """Write a registered dataset to a point-record CSV."""
        write_csv(self.get_mod(name), path)

    def get_mod(self, name: str) -> MOD:
        """A :class:`~repro.hermes.mod.MOD` view of dataset ``name``, built on request.

        Its trajectories are zero-copy views of the dataset's frame
        (:meth:`frame`, :meth:`~repro.hermes.frame.MODFrame.to_mod`); the
        engine keeps no MOD, so changing the returned one changes nothing.
        Raises :class:`KeyError` for an unknown name.
        """
        return self.frame(name).to_mod(name)

    def resolve(self, name: str) -> bool:
        """Whether ``name`` is a dataset of this engine: the one dataset lookup.

        Registered datasets and catalogued ones not yet decoded are found.
        A name whose on-disk manifest was withheld at recovery as damaged
        raises :class:`~repro.storage.errors.CorruptManifestError` — the
        data may well still be there, it just cannot be trusted until
        ``repro-fsck`` has looked at it — so no caller can answer "unknown
        dataset" for it.  :meth:`get_mod`, :meth:`load_mod` and every SQL
        statement and table function look their dataset up here; ``DROP``
        catches the error to give such a dataset up.
        """
        if name in self._frames or (self.catalog is not None and name in self.catalog.pending()):
            return True
        if self.catalog is not None:
            self.catalog.raise_if_damaged(name)
        return False

    def datasets(self) -> list[str]:
        """Names of the registered datasets (including recovered ones)."""
        pending = self.catalog.pending() if self.catalog is not None else []
        return sorted({*self._frames, *pending})

    def drop(self, name: str) -> None:
        """Remove a dataset, its cached index and any SQL buffered state.

        On an on-disk engine this also deletes the dataset's partition files
        and manifest, so disk usage is reclaimed and a future same-named
        dataset starts from a clean directory instead of stale heapfiles.
        """
        self._frames.pop(name, None)
        self._invalidate(name)
        if self.catalog is not None:
            self.catalog.drop(name)

    def dataset_generation(self, name: str) -> int:
        """Monotonic token bumped on every mutation of dataset ``name``.

        Consumers that buffer state derived from a dataset (e.g. the SQL
        executor's INSERT buffers) record the generation they read from and
        re-seed when it moved.
        """
        return self._generations.get(name, 0)

    def frame(self, name: str) -> MODFrame:
        """Dataset ``name``: its one immutable frame.

        Every engine consumer (S2T, range-then-cluster, the ReTraTree, the
        SQL scans) reads this frame.  A dataset recovered from disk is
        decoded on first access here.  The name is looked up by
        :meth:`resolve`, so a dataset withheld as damaged raises
        :class:`~repro.storage.errors.CorruptManifestError`; an unknown one
        raises :class:`KeyError`.
        """
        if not self.resolve(name):
            raise KeyError(f"unknown dataset {name!r}; loaded: {self.datasets()}")
        if name not in self._frames:
            # The generation token was assigned when the catalog was opened;
            # decoding only reads what that generation committed.
            self._frames[name] = self.catalog.load(name)
        return self._frames[name]

    def dataset_summary(self, name: str) -> dict[str, object]:
        """Descriptive statistics of a dataset (used by ``SELECT SUMMARY``).

        An empty dataset (just created, or holding only buffered INSERT
        points) has zero counts and ``None`` bounds.
        """
        frame = self.frame(name)
        summary: dict[str, object] = {
            "dataset": name,
            "trajectories": len(frame),
            "objects": len({obj_id for obj_id, _ in frame.keys}),
            "points": frame.total_points,
        }
        if len(frame) == 0:
            return summary | dict.fromkeys(("tmin", "tmax", "xmin", "xmax", "ymin", "ymax"))
        bbox = frame.bbox
        return summary | {
            "tmin": bbox.tmin,
            "tmax": bbox.tmax,
            "xmin": bbox.xmin,
            "xmax": bbox.xmax,
            "ymin": bbox.ymin,
            "ymax": bbox.ymax,
        }

    # -- clustering methods ----------------------------------------------------------------

    def pool(self) -> WorkerPool:
        """The engine-owned persistent worker pool, starting it lazily.

        One :class:`~repro.core.parallel.WorkerPool` per engine: every
        partition-parallel S2T run submits to the same pool, so consecutive
        parallel calls reuse warm worker processes instead of forking a
        fresh ``ProcessPoolExecutor`` per call.  The pool itself defers
        process creation to the first job.  It is shut down by :meth:`close`
        and — as a backstop — by a ``weakref`` finalizer when the engine is
        garbage-collected, so dropping an engine never leaks worker
        processes.
        """
        if self._worker_pool is None:
            self._worker_pool = WorkerPool()
            self._pool_finalizer = weakref.finalize(self, self._worker_pool.shutdown)
        return self._worker_pool

    def s2t(
        self,
        name: str,
        params: S2TParams | None = None,
        n_jobs: int | None = None,
        n_partitions: int | None = None,
    ) -> ClusteringResult:
        """Run S2T-Clustering on the dataset.

        ``n_jobs`` (or ``params.n_jobs``) selects the execution mode: ``1``
        fits the whole MOD in-process; ``> 1`` runs the partition-parallel
        scheduler (:func:`repro.core.parallel.partitioned_s2t`).  Either way
        the operator reads the dataset's frame — it is never rebuilt per run.

        .. warning::
           The two modes are different operators, not just different
           speeds: partitioned S2T cuts trajectories at temporal partition
           boundaries, so clusters cannot span partitions and memberships
           generally differ from the whole-MOD fit.  The determinism
           guarantee is *within* the partitioned mode — any ``n_jobs > 1``
           reproduces a partitioned serial run exactly.

        ``n_partitions`` overrides the temporal partition count of the
        partitioned mode (SQL surfaces it as the ``PARTITIONS`` knob);
        passing it with ``n_jobs`` left at 1 selects the partitioned
        operator executed serially — same memberships as any parallel run.
        Parallel runs submit to the engine's persistent worker pool
        (:meth:`pool`), so consecutive calls reuse warm workers.
        """
        params = params or S2TParams()
        jobs = n_jobs if n_jobs is not None else params.n_jobs
        if jobs < 1:
            raise ValueError("n_jobs must be at least 1")
        frame = self.frame(name)
        if len(frame) and (jobs > 1 or n_partitions is not None):
            result = partitioned_s2t(
                frame,
                params,
                n_jobs=jobs,
                n_partitions=n_partitions,
                pool=self.pool() if jobs > 1 else None,
            )
        else:
            result = S2TClustering(params).fit(frame)
        self._last_results[name] = result
        return result

    def retratree(
        self,
        name: str,
        params: QuTParams | None = None,
        rebuild: bool = False,
    ) -> ReTraTree:
        """The (cached) ReTraTree of a dataset, building it on first use.

        On an on-disk engine a persisted tree (from a previous process, or a
        previous ``retratree`` call) is *recovered* from the storage
        manifest instead of rebuilt — no S2T runs — provided the requested
        ``params`` match the ones it was built with; a mismatch, or
        ``rebuild=True``, discards the persisted structure and bulk-loads a
        fresh tree, which is then persisted in its turn.  The same rule
        applies to the warm in-process cache: explicit ``params`` that
        differ from the cached tree's build parameters trigger a rebuild,
        while ``params=None`` always accepts the existing tree — so warm
        and cold processes answer identical calls identically.
        """
        if rebuild:
            self._forget_tree(name)
        cached = self._retratrees.get(name)
        if cached is not None and not self._params_satisfied(
            params,
            cached.raw_params.to_dict(),
            cached.params.to_dict() if cached.params is not None else None,
        ):
            self._forget_tree(name)
        if name not in self._retratrees:
            tree = self._reopen_tree(name, params)
            if tree is None:
                self._forget_tree(name)
                tree = ReTraTree.build(
                    self.frame(name),
                    params=params,
                    storage=self.catalog.storage(name) if self.catalog is not None else None,
                    name=name,
                )
                if self.catalog is not None and tree.params is not None:
                    # An empty tree (no resolved params) has nothing to
                    # persist; a cold successor rebuilds it for free.
                    self.catalog.commit_tree(name, self.dataset_generation(name), tree)
            self._retratrees[name] = tree
        return self._retratrees[name]

    def qut(
        self,
        name: str,
        window: Period,
        params: QuTParams | None = None,
    ) -> ClusteringResult:
        """QuT-Clustering: clusters/outliers intersecting ``window``.

        The first call builds (and caches) the dataset's ReTraTree; later
        calls only pay the query cost — that is the progressive behaviour the
        paper demonstrates.
        """
        tree = self.retratree(name, params=params)
        result = QuTClustering(tree).query(window)
        self._last_results[name] = result
        return result

    def range_then_cluster(
        self, name: str, window: Period, params: S2TParams | None = None
    ) -> ClusteringResult:
        """The paper's scenario-2 baseline: range query + S2T on the slice."""
        result = RangeThenCluster(self.frame(name), params).query(window)
        self._last_results[name] = result
        return result

    def traclus(self, name: str, params: TraclusParams | None = None) -> ClusteringResult:
        """TRACLUS baseline."""
        result = TraclusClustering(params).fit(self.get_mod(name))
        self._last_results[name] = result
        return result

    def toptics(self, name: str, params: TOpticsParams | None = None) -> ClusteringResult:
        """T-OPTICS baseline."""
        result = TOpticsClustering(params).fit(self.get_mod(name))
        self._last_results[name] = result
        return result

    def convoy(self, name: str, params: ConvoyParams | None = None) -> ClusteringResult:
        """Convoy-discovery baseline."""
        result = ConvoyDiscovery(params).fit(self.get_mod(name))
        self._last_results[name] = result
        return result

    # -- persistence & recovery -------------------------------------------------------------------

    def _open_catalog(self) -> None:
        """(Re)open the durable catalog and register what it recovered.

        Deliberately cheap — the catalog reads one manifest per dataset
        (:class:`~repro.storage.durable.DurableCatalog`); archives decode on
        first :meth:`frame` access and the persisted tree
        reopens on the first :meth:`retratree` call.  Every recovered
        dataset gets a fresh generation token.
        """
        self.catalog = DurableCatalog(self.storage_directory, io=self.io)
        for name in self.catalog.pending():
            self._generation_counter += 1
            self._generations[name] = self._generation_counter

    def is_persisted(self, name: str) -> bool:
        """Whether dataset ``name`` has a durable manifest on disk."""
        return self.catalog is not None and self.catalog.is_persisted(name)

    @staticmethod
    def _params_satisfied(
        requested: QuTParams | None,
        raw_params: dict | None,
        resolved_params: dict | None,
    ) -> bool:
        """Whether an existing tree satisfies an explicit params request.

        ``None`` always accepts (the progressive workflow: the tree in the
        store *is* the index).  Explicit params match when they equal either
        the tree's *raw* build parameters or their *resolved* form — so
        passing back ``tree.params`` / ``result.params`` from a previous run
        pins the same tree instead of triggering a redundant rebuild.
        """
        if requested is None:
            return True
        data = requested.to_dict()
        return data == raw_params or data == resolved_params

    def _forget_tree(self, name: str) -> None:
        """Discard the cached *and* persisted tree, keeping the dataset archive.

        Used before a rebuild: the ReTraTree partitions (members,
        unclustered, representatives) are dropped so the new bulk load
        starts from empty heapfiles rather than appending to stale ones.
        """
        self._retratrees.pop(name, None)
        if self.catalog is not None:
            self.catalog.forget_tree(name)

    def _reopen_tree(self, name: str, params: QuTParams | None) -> ReTraTree | None:
        """Reopen the persisted tree if it satisfies the request.

        The catalog hands back the persisted section only while its
        ``dataset_state`` is current (an append in a process that never
        loaded the tree leaves it stale); explicit ``params`` must match
        the persisted build parameters (``None`` accepts — the tree in the
        store *is* the index).  What a damaged or stale store can raise
        while reopening — ``StorageError`` (page CRCs, record counts that
        disagree with the manifest), ``ValueError`` / ``LookupError`` /
        ``TypeError`` (undecodable records, missing slots, missing or
        retired keys and shapes in the tree section), ``OSError`` — returns
        ``None`` too: a rebuild is always a correct answer, so queries never
        fail permanently.  Anything else is a bug in the reopen path and
        propagates instead of hiding behind a slow, correct rebuild.
        """
        if self.catalog is None:
            return None
        section = self.catalog.tree_section(name)
        if section is None:
            return None
        if not self._params_satisfied(params, section.get("raw_params"), section.get("params")):
            return None
        try:
            return ReTraTree.from_manifest(section, storage=self.catalog.storage(name))
        except (StorageError, ValueError, LookupError, TypeError, OSError):
            return None

    def verify(self, repair: bool = False) -> "FsckReport":
        """Check the engine's storage directory for corruption (``repro-fsck``).

        Scans every dataset directory: manifest readability and CRC,
        per-page partition checksums, record counts against the committed
        manifests, and orphaned partition/staging files.  With
        ``repair=True`` the findings are acted on (orphans deleted, corrupt
        files quarantined under ``_quarantine/``, datasets degraded or
        withdrawn — see :mod:`repro.storage.fsck` for the policy) and the
        engine then *reopens* its catalog so the in-process view matches
        the repaired store.

        Returns the :class:`~repro.storage.fsck.FsckReport`;
        ``report.clean`` means the store can be trusted.  On an in-memory
        engine the report is trivially clean.
        """
        from repro.storage.fsck import FsckReport, fsck_store

        if self.catalog is None:
            return FsckReport(root=None)
        if not repair:
            self.catalog.checkpoint()
            return fsck_store(self.catalog.root, repair=False, io=self.io)
        self.close()
        report = fsck_store(self.catalog.root, repair=True, io=self.io)
        # Reopen the catalog: repairs may have quarantined datasets, dropped
        # deltas or reset trees, and the caches must not outlive the state
        # they were derived from.  The generation counter keeps running so
        # generation-keyed consumers notice the world changed.
        for cache in (
            self._frames,
            self._retratrees,
            self._last_results,
            self._append_batches,
        ):
            cache.clear()
        self._open_catalog()
        return report

    # -- results ----------------------------------------------------------------------------------

    def last_result(self, name: str) -> ClusteringResult:
        """The most recent clustering result produced for a dataset."""
        if name not in self._last_results:
            raise KeyError(f"no clustering has been run on dataset {name!r} yet")
        return self._last_results[name]

    # -- SQL / public-API integration --------------------------------------------------------

    def plan_executor(self):
        """The engine's shared :class:`~repro.sql.executor.PlanExecutor`.

        One executor per engine: every connection, cursor and prepared
        statement over this engine runs plans (and buffers ``INSERT``
        records) through the same instance, so their view of half-built
        datasets is consistent.
        """
        from repro.sql.executor import PlanExecutor

        if self._plan_executor is None:
            self._plan_executor = PlanExecutor(self)
        return self._plan_executor

    def artifact_status(self, name: str) -> dict[str, object]:
        """Cached/persisted derived state of a dataset, for ``EXPLAIN``.

        Reports whether the dataset is loaded, its generation token, whether
        its frame is decoded and its ReTraTree cached in this process, whether
        a tree structure is persisted in the storage manifest, how many
        storage partitions back it on disk, and the append-path state: how
        many append batches this process applied since the last (re)load
        (``append_batches``), how many durable delta partitions the
        manifest has committed (``delta_partitions``), and whether the
        persisted tree is *stale* — serialised against a dataset state the
        deltas have since outgrown, so the next ``retratree`` call will
        rebuild instead of recovering it (``tree_stale``).

        ``degraded`` reports whether the dataset's durable state is less
        than what was once committed: its manifest is damaged, or a
        ``repro-fsck --repair`` had to drop corrupt append batches (the
        manifest's ``degraded`` list records what was lost).  The durable
        fields come from
        :meth:`repro.storage.durable.DurableCatalog.status`.
        """
        cached_tree = self._retratrees.get(name)
        pending = self.catalog.pending() if self.catalog is not None else []
        status: dict[str, object] = {
            "dataset": name,
            "loaded": name in self._frames or name in pending,
            "generation": self.dataset_generation(name),
            "frame_cached": name in self._frames,
            "tree_cached": cached_tree is not None,
            "tree_persisted": False,
            "tree_stale": False,
            "persisted": False,
            "storage_partitions": 0,
            "append_batches": self._append_batches.get(name, 0),
            "delta_partitions": 0,
            "degraded": False,
        }
        if self.catalog is not None:
            status.update(self.catalog.status(name))
        return status

    def close(self) -> None:
        """Release the engine's storage handles and stop its worker pool.

        Storage release is a no-op on in-memory engines; the worker pool is
        only stopped if a parallel call ever started it (:meth:`pool` —
        its GC finalizer covers engines that are dropped without closing).
        """
        if self._worker_pool is not None:
            self._worker_pool.shutdown()
            self._worker_pool = None
        if self.catalog is not None:
            self.catalog.close()
