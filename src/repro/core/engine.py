"""The Hermes engine facade.

The engine is the Python analogue of a Hermes@PostgreSQL installation:
datasets are registered under names, clustering runs are invoked against a
dataset name, and the per-dataset derived state is cached:

* the **frame catalog** — each dataset's columnar
  :class:`~repro.hermes.frame.MODFrame` is built once (``engine.frame``)
  and handed to every consumer (S2T, range-then-cluster, the ReTraTree bulk
  load), so no phase rebuilds its own snapshot;
* the **ReTraTree** built for a dataset, so subsequent QuT queries are
  progressive (no rebuilding).

Both caches — plus the SQL executor's INSERT buffers — are invalidated
together whenever a dataset is replaced (``load_mod``) or removed
(``drop``).  Each mutation bumps the dataset's *generation* token, which is
how the SQL executor detects externally replaced datasets.  The SQL
front-end (:mod:`repro.sql`) executes against an engine instance.

Appending (:meth:`HermesEngine.append`, the path SQL ``INSERT`` for *new*
trajectories takes) is different: nothing is invalidated.  The cached frame
grows in place, a cached ReTraTree absorbs the batch incrementally
(:mod:`repro.core.ingest`), and only the generation token moves — so
memoised results recompute while the expensive derived state survives.

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
  catalogued dataset — the MOD, its frame-catalog entry and (lazily, on
  first use) the ReTraTree — so a cold process answers ``qut`` and SQL
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
from repro.core.shard import ShardPlan, build_sharded_tree
from repro.hermes.frame import MODFrame
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
        # Optional OS-call shim threaded through every storage manager the
        # catalog opens; fault-injection tests pass a FaultInjector here.
        self.io = io
        #: The durable catalog (``None`` on in-memory engines): manifests,
        #: per-dataset storage managers, commits and recovery.
        self.catalog: DurableCatalog | None = None
        self._datasets: dict[str, MOD] = {}
        # The frame catalog is the first cache the multi-client server mode
        # (ROADMAP) will share across threads; its mutations are lock-checked
        # today (repro-lint REPRO102) so that refactor starts from a verified
        # baseline.  RLock: frame() materialises recovered datasets, which
        # seeds the catalog while the caller may already hold the lock.
        self._catalog_lock = threading.RLock()
        self._frames: dict[str, MODFrame] = {}  # guarded-by: _catalog_lock
        self._retratrees: dict[str, ReTraTree] = {}
        self._last_results: dict[str, ClusteringResult] = {}
        self._generations: dict[str, int] = {}
        self._generation_counter = 0
        # Append batches applied per dataset since its last (re)load; purely
        # observability (EXPLAIN's artifact lines), reset on replacement.
        self._append_batches: dict[str, int] = {}
        # Generation at the last *replacement* (load_mod/drop) per dataset;
        # appends bump _generations but not this (see
        # dataset_replacement_generation).
        self._replacements: dict[str, int] = {}
        self._plan_executor = None
        # Engine-owned persistent worker pool (lazily started by pool());
        # shared by every partition-parallel S2T run and fanned-out tree
        # load so consecutive jobs reuse warm worker processes.
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
        """Register an in-memory MOD under ``name`` (replaces any previous one).

        Invalidates every cache derived from the previous registration: the
        frame-catalog entry, the ReTraTree and the last clustering result,
        and bumps the dataset's generation token (which is how the SQL
        executor notices an externally replaced dataset).  On an on-disk
        engine the new dataset is archived *before* the previous
        registration's partition files are reclaimed — the manifest write is
        the commit point, so a crash mid-replacement leaves either the old
        or the new archive recoverable, never neither (see
        :meth:`repro.storage.durable.DurableCatalog.commit_dataset`).
        """
        if self.catalog is not None:
            self.catalog.check_name(name)
        self._datasets[name] = mod
        self._invalidate(name)
        if self.catalog is not None:
            self.catalog.commit_dataset(name, mod, self._generations[name])

    def _invalidate(self, name: str) -> None:
        """Evict every cache derived from dataset ``name`` and bump its generation.

        Purely in-memory: on-disk state is left alone so that replacement
        (``load_mod``) can stage the successor before the predecessor's
        files go away; :meth:`drop` reclaims the disk explicitly.
        """
        with self._catalog_lock:
            self._frames.pop(name, None)
        tree = self._retratrees.pop(name, None)
        if tree is not None and self.catalog is None:
            # A private (in-memory) manager dies with the tree; the
            # catalog's shared manager stays open for the successor's commit.
            tree.storage.close()
        self._last_results.pop(name, None)
        self._append_batches.pop(name, None)
        self._generation_counter += 1
        self._generations[name] = self._generation_counter
        self._replacements[name] = self._generation_counter

    def dataset_replacement_generation(self, name: str) -> int:
        """Token bumped only when dataset ``name`` is *replaced* or dropped.

        Appends do not move it: consumers whose buffered state survives an
        append but not a replacement (the SQL executor's incomplete-point
        buffers) key on this instead of :meth:`dataset_generation`, which
        moves on every mutation including appends.
        """
        return self._replacements.get(name, 0)

    def _note_append(self, name: str) -> None:
        """Record an append: bump the generation *without* evicting caches.

        The generation move is what makes consumers that memoise by
        generation (prepared-statement result caches, the SQL executor's
        point buffers) recompute against the extended dataset; the frame
        and tree caches were maintained in place by the ingestion pipeline
        and stay.
        """
        self._append_batches[name] = self._append_batches.get(name, 0) + 1
        self._generation_counter += 1
        self._generations[name] = self._generation_counter

    def append(self, name: str, trajectories) -> "AppendReport":
        """Append new trajectories to a dataset without invalidating caches.

        This is the ingestion fast path (see :mod:`repro.core.ingest`): the
        registered MOD is replaced by an extended snapshot, the cached
        columnar frame grows through the delta-concat path, a cached
        ReTraTree absorbs the batch incrementally (voting against existing
        representatives; no bulk rebuild), and on a durable engine the batch
        is committed as a delta heapfile partition.  Open cursors streaming
        the dataset keep their pre-append view.

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
        """The MOD registered under ``name``; raises :class:`KeyError` if unknown.

        A dataset recovered from disk is materialised (archive records
        decoded) on first access here.  A dataset whose on-disk manifest
        was found damaged at recovery raises
        :class:`~repro.storage.errors.CorruptManifestError` instead of
        ``KeyError`` — the data may well still be there, it just cannot be
        trusted until ``repro-fsck`` has looked at it.
        """
        self._materialise(name)
        if name not in self._datasets:
            if self.catalog is not None:
                self.catalog.raise_if_damaged(name)
            raise KeyError(f"unknown dataset {name!r}; loaded: {self.datasets()}")
        return self._datasets[name]

    def datasets(self) -> list[str]:
        """Names of the registered datasets (including recovered ones)."""
        pending = self.catalog.pending() if self.catalog is not None else []
        return sorted({*self._datasets, *pending})

    def drop(self, name: str) -> None:
        """Remove a dataset, its cached frame/index and any SQL buffered state.

        On an on-disk engine this also deletes the dataset's partition files
        and manifest, so disk usage is reclaimed and a future same-named
        dataset starts from a clean directory instead of stale heapfiles.
        """
        self._datasets.pop(name, None)
        self._invalidate(name)
        if self.catalog is not None:
            self.catalog.drop(name)
        if self._plan_executor is not None:
            self._plan_executor.forget(name)

    def dataset_generation(self, name: str) -> int:
        """Monotonic token bumped on every mutation of dataset ``name``.

        Consumers that buffer state derived from a dataset (e.g. the SQL
        executor's INSERT buffers) record the generation they read from and
        re-seed when it moved.
        """
        return self._generations.get(name, 0)

    def frame(self, name: str) -> MODFrame:
        """The dataset's cached columnar frame, building it on first use.

        This is the frame-catalog entry point: every engine consumer (S2T,
        range-then-cluster, the ReTraTree bulk load) reads the dataset
        through this one frame, so it is constructed at most once per
        registration.  ``load_mod``/``drop`` evict the entry.
        """
        self._materialise(name)  # seeds the frame entry too
        with self._catalog_lock:
            if name not in self._frames:
                self._frames[name] = MODFrame.from_mod(self.get_mod(name))
            return self._frames[name]

    def dataset_summary(self, name: str) -> dict[str, object]:
        """Descriptive statistics of a dataset (used by ``SELECT SUMMARY``)."""
        mod = self.get_mod(name)
        period = mod.period
        bbox = mod.bbox
        return {
            "dataset": name,
            "trajectories": len(mod),
            "objects": len(mod.object_ids()),
            "points": mod.total_points,
            "tmin": period.tmin,
            "tmax": period.tmax,
            "xmin": bbox.xmin,
            "xmax": bbox.xmax,
            "ymin": bbox.ymin,
            "ymax": bbox.ymax,
        }

    # -- clustering methods ----------------------------------------------------------------

    def pool(self) -> WorkerPool:
        """The engine-owned persistent worker pool, starting it lazily.

        One :class:`~repro.core.parallel.WorkerPool` per engine: every
        partition-parallel S2T run and fanned-out ReTraTree bulk load submits
        to the same pool, so consecutive parallel calls reuse warm worker
        processes instead of forking a fresh ``ProcessPoolExecutor`` per
        call.  The pool itself defers process creation to the first job.
        It is shut down by :meth:`close` and — as a backstop — by a
        ``weakref`` finalizer when the engine is garbage-collected, so
        dropping an engine never leaks worker processes.
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
        scheduler (:func:`repro.core.parallel.partitioned_s2t`) over the
        dataset's cached frame.  Either way the frame comes from the
        engine's frame catalog — it is never rebuilt per run.

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
        mod = self.get_mod(name)
        if len(mod) == 0:
            result = S2TClustering(params).fit(mod)
        elif jobs > 1 or n_partitions is not None:
            result = partitioned_s2t(
                mod,
                params,
                n_jobs=jobs,
                n_partitions=n_partitions,
                frame=self.frame(name),
                pool=self.pool() if jobs > 1 else None,
            )
        else:
            result = S2TClustering(params).fit(mod, frame=self.frame(name))
        self._last_results[name] = result
        return result

    def retratree(
        self,
        name: str,
        params: QuTParams | None = None,
        rebuild: bool = False,
        shards: int | None = None,
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

        ``shards`` (SQL surfaces it as the ``SHARDS`` knob) only says how a
        *needed* bulk load runs: ``N >= 2`` fans it out over ``N`` chunk
        windows on the engine's persistent worker pool
        (:func:`~repro.core.shard.build_sharded_tree`); ``1`` or ``None``
        loads in process.  The result is the same plain
        :class:`~repro.qut.retratree.ReTraTree` either way — bit-identical
        sub-chunks — so a cached or persisted tree is accepted whatever
        fan-out built it.
        """
        if shards is not None and shards < 1:
            raise ValueError("shards must be at least 1")
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
                tree = self._build_tree(name, params, shards)
                if self.catalog is not None and tree.params is not None:
                    # An empty tree (no resolved params) has nothing to
                    # persist; a cold successor rebuilds it for free.
                    self.catalog.commit_tree(name, self.dataset_generation(name), tree)
            self._retratrees[name] = tree
        return self._retratrees[name]

    def _build_tree(self, name: str, params: QuTParams | None, shards: int | None) -> ReTraTree:
        """Bulk-load a dataset's index, fanned out over ``shards`` chunk windows.

        ``shards >= 2`` resolves the grid **once over the whole MOD**
        (origin and parameters shared by every window — the invariant the
        bit-identity guarantee rests on), plans the chunk-axis split and
        loads the windows on the engine's worker pool; anything else
        (including an empty dataset, which has no grid to split) is the
        plain in-process bulk load.
        """
        mod = self.get_mod(name)
        storage = self.catalog.storage(name) if self.catalog is not None else None
        if shards is not None and shards > 1 and len(mod) > 0:
            raw = params or QuTParams()
            resolved = raw.resolved(mod)
            plan = ShardPlan.for_layout(mod.period.duration, resolved.tau, shards)
            return build_sharded_tree(
                self.frame(name),
                raw,
                resolved,
                mod.period.tmin,
                plan,
                storage=storage,
                name=name,
                pool=self.pool(),
            )
        return ReTraTree.build(
            mod,
            params=params,
            storage=storage,
            name=name,
            frame=self.frame(name),
        )

    def qut(
        self,
        name: str,
        window: Period,
        params: QuTParams | None = None,
        shards: int | None = None,
    ) -> ClusteringResult:
        """QuT-Clustering: clusters/outliers intersecting ``window``.

        The first call builds (and caches) the dataset's ReTraTree; later
        calls only pay the query cost — that is the progressive behaviour the
        paper demonstrates.  ``shards`` is forwarded to :meth:`retratree`;
        any value returns bit-identical clusters, it only changes how a
        needed bulk load runs.
        """
        tree = self.retratree(name, params=params, shards=shards)
        result = QuTClustering(tree).query(window)
        self._last_results[name] = result
        return result

    def range_then_cluster(
        self, name: str, window: Period, params: S2TParams | None = None
    ) -> ClusteringResult:
        """The paper's scenario-2 baseline: range query + fresh index + S2T."""
        result = RangeThenCluster(
            self.get_mod(name), params, frame=self.frame(name)
        ).query(window)
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
        first :meth:`get_mod`/:meth:`frame` access and the persisted tree
        reopens on the first :meth:`retratree` call.  Every recovered
        dataset gets a fresh generation token.
        """
        self.catalog = DurableCatalog(self.storage_directory, io=self.io)
        for name in self.catalog.pending():
            self._generation_counter += 1
            self._generations[name] = self._generation_counter

    def _materialise(self, name: str) -> None:
        """Decode a catalogued-but-pending dataset into a live MOD + frame.

        A no-op for anything else.  Corruption surfaces as
        :class:`~repro.storage.errors.CorruptPartitionError` (a
        ``RuntimeError``, not ``KeyError``), so callers can tell catalog
        corruption apart from a simple unknown-dataset typo, and corrupt
        bytes never materialise into query answers.
        """
        if name in self._datasets or self.catalog is None or name not in self.catalog.pending():
            return
        ordered = self.catalog.load(name)
        # The generation token was assigned when the catalog was opened;
        # materialisation only decodes what that generation committed, so no
        # bump happens (or is needed) here.
        self._datasets[name] = MOD(name=name, trajectories=ordered)  # repro-lint: allow[generation-discipline]
        with self._catalog_lock:
            self._frames[name] = MODFrame.from_trajectories(ordered)

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
        with self._catalog_lock:
            for cache in (
                self._datasets,
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
        its columnar frame and ReTraTree are cached in this process, whether
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
        with self._catalog_lock:
            frame_cached = name in self._frames
        status: dict[str, object] = {
            "dataset": name,
            "loaded": name in self._datasets or name in pending,
            "generation": self.dataset_generation(name),
            "frame_cached": frame_cached,
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
