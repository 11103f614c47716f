"""The append-path ingestion subsystem.

The source paper's central structural claim is that the ReTraTree is
*incrementally maintainable*: newly arriving trajectory data is absorbed
into the existing temporally-partitioned chunks and clustered sub-chunks
without rebuilding the index.  This module is that claim's engine-side
implementation — the machinery behind ``engine.append(name, trajectories)``,
the fluent ``conn.dataset(name).append(...)`` and SQL ``INSERT``-as-append:

* :class:`AppendBuffer` accumulates raw *point* records (the SQL ``INSERT``
  unit) per ``(obj_id, traj_id)`` key and assembles them into complete
  :class:`~repro.hermes.trajectory.Trajectory` objects once a key has at
  least two temporally distinct samples — the same sort/dedup rules the
  historical full-rebuild materialisation applied, so the two paths produce
  identical trajectories from identical inserts.
* :class:`IngestPipeline` applies a batch of complete trajectories to a
  dataset *in place*: the registered MOD is replaced by an extended snapshot
  (open cursors streaming the old one keep their pre-append view), the
  cached :class:`~repro.hermes.frame.MODFrame` grows through the
  delta-concat path (:meth:`~repro.hermes.frame.MODFrame.extend`), a cached
  :class:`~repro.qut.retratree.ReTraTree` absorbs the batch incrementally
  (:meth:`~repro.qut.retratree.ReTraTree.append` — voting against existing
  representatives, opening fresh chunks for unseen time ranges, localised
  re-clustering of touched sub-chunks only), the dataset's generation token
  is bumped (so memoised prepared-statement results recompute), and on a
  durable engine the batch is staged as a generation-suffixed *delta*
  heapfile partition committed by a single manifest write.

The load-bearing guarantee: after any sequence of appends, queries see the
same dataset a from-scratch load of the concatenated data would see, QuT
answers stay within the paper's assignment tolerance of a full rebuild, and
``ReTraTree.build_calls`` does not move on the append path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

from repro.hermes.frame import MODFrame
from repro.hermes.mod import MOD
from repro.hermes.trajectory import Trajectory

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import HermesEngine

__all__ = ["AppendBuffer", "AppendReport", "IngestPipeline"]


@dataclass
class AppendReport:
    """What one append batch did, returned by :meth:`IngestPipeline.append`.

    Attributes
    ----------
    dataset:
        The dataset the batch was appended to.
    trajectories:
        Number of trajectories appended (0 for an empty batch, which is a
        complete no-op: no generation bump, no disk write).
    points:
        Total samples across the appended trajectories.
    generation:
        The dataset's generation token *after* the append (unchanged for an
        empty batch).
    frame_extended:
        Whether a cached columnar frame was extended in place (``False``
        when the frame catalog had no entry — the next ``engine.frame``
        call builds from the extended MOD instead).
    tree_maintained:
        Whether a cached ReTraTree absorbed the batch incrementally.
    tree_counters:
        The maintenance counters from
        :meth:`repro.qut.retratree.ReTraTree.append` (``None`` when no tree
        was cached).
    persisted:
        Whether the batch was committed to disk as a delta partition
        (always ``False`` on in-memory engines).
    io_retries:
        Transient I/O failures the storage layer absorbed (retried with
        backoff) while committing this batch — 0 on a healthy disk; a
        nonzero value is an early warning the operator should see before
        the disk fails outright.
    seconds:
        Wall-clock duration of the whole append.
    """

    dataset: str
    trajectories: int = 0
    points: int = 0
    generation: int = 0
    frame_extended: bool = False
    tree_maintained: bool = False
    tree_counters: dict[str, int] | None = None
    persisted: bool = False
    io_retries: int = 0
    seconds: float = 0.0

    def as_dict(self) -> dict[str, object]:
        """The complete report as one JSON-friendly dict.

        Convenience for ingestion logs and benchmark reports; includes the
        tree-maintenance counters (flattened under ``tree_``) when a tree
        was maintained.
        """
        row: dict[str, object] = {
            "dataset": self.dataset,
            "trajectories": self.trajectories,
            "points": self.points,
            "generation": self.generation,
            "frame_extended": self.frame_extended,
            "tree_maintained": self.tree_maintained,
            "persisted": self.persisted,
            "io_retries": self.io_retries,
            "seconds": self.seconds,
        }
        for key, value in (self.tree_counters or {}).items():
            row[f"tree_{key}"] = value
        return row


@dataclass
class AppendBuffer:
    """Accumulates point records until they form complete trajectories.

    The SQL front-end inserts *points* (``obj_id, traj_id, x, y, t``), but
    the ingestion unit is a whole trajectory: a key's samples are sorted by
    time, duplicate instants are dropped (first sample at an instant wins,
    matching the historical rebuild materialisation), and the key graduates
    once at least two distinct instants remain.  Incomplete keys stay
    buffered across statements until they graduate or the buffer is
    discarded (dataset drop/replace).
    """

    #: Pending samples per ``(obj_id, traj_id)``, as ``(t, x, y)`` triples.
    pending: dict[tuple[str, str], list[tuple[float, float, float]]] = field(
        default_factory=dict
    )

    def add_point(self, obj_id: str, traj_id: str, x: float, y: float, t: float) -> None:
        """Buffer one point record for key ``(obj_id, traj_id)``."""
        self.pending.setdefault((obj_id, traj_id), []).append(
            (float(t), float(x), float(y))
        )

    def __len__(self) -> int:
        return sum(len(samples) for samples in self.pending.values())

    @staticmethod
    def _assemble(
        key: tuple[str, str], samples: list[tuple[float, float, float]]
    ) -> Trajectory | None:
        """A trajectory from a key's samples, or ``None`` while incomplete.

        The sort is *stable and by time only*, so when two samples share an
        instant the first-arriving one wins — the rule the class docstring
        promises (a plain tuple sort would instead pick the smallest
        coordinates at a tied instant).
        """
        ts: list[float] = []
        xs: list[float] = []
        ys: list[float] = []
        last_t: float | None = None
        for t, x, y in sorted(samples, key=lambda sample: sample[0]):
            if last_t is not None and t <= last_t:
                continue
            ts.append(t)
            xs.append(x)
            ys.append(y)
            last_t = t
        if len(ts) < 2:
            return None
        return Trajectory(key[0], key[1], xs, ys, ts)

    def drain_complete(self) -> list[Trajectory]:
        """Remove and return every key that has graduated to a trajectory.

        Keys with fewer than two distinct instants stay buffered; the
        returned trajectories are ordered by first arrival (dict insertion
        order), which is also the row order the append will create.
        """
        out: list[Trajectory] = []
        for key in list(self.pending):
            traj = self._assemble(key, self.pending[key])
            if traj is not None:
                del self.pending[key]
                out.append(traj)
        return out

    def clear(self) -> None:
        """Discard every buffered point (dataset dropped or replaced)."""
        self.pending.clear()


class IngestPipeline:
    """Applies append batches to an engine dataset, maintaining all caches.

    One pipeline per engine is enough — it holds no per-dataset state; all
    state lives on the engine (datasets, frame catalog, trees, generations)
    and, for durable engines, in the storage manifests.  See the module
    docstring for the full dataflow.
    """

    def __init__(self, engine: "HermesEngine") -> None:
        self.engine = engine

    def append(
        self, name: str, trajectories: Iterable[Trajectory] | MODFrame
    ) -> AppendReport:
        """Append a batch of complete trajectories to dataset ``name``.

        Parameters
        ----------
        name:
            A registered dataset (recovered-but-unmaterialised datasets are
            materialised first).
        trajectories:
            New trajectories in arrival order, or a delta
            :class:`~repro.hermes.frame.MODFrame` of them.  Keys must be new
            to the dataset; appending *points* to an existing trajectory is
            a replacement, not an append — use the SQL ``INSERT`` fallback
            or ``load_mod`` for that.

        Returns
        -------
        An :class:`AppendReport`.  An empty batch returns an all-zero
        report without bumping the generation or touching disk.

        Raises
        ------
        KeyError
            If ``name`` is not a registered dataset.
        ValueError
            If a batch trajectory's key already exists in the dataset or
            repeats within the batch.
        """
        start = time.perf_counter()
        engine = self.engine
        if isinstance(trajectories, MODFrame):
            # A caller-built delta frame is used as-is; only the MOD
            # extension and the tree need Trajectory objects, and those are
            # zero-copy views into the frame's columns.
            delta_frame: MODFrame | None = trajectories
            trajs = [trajectories.trajectory_of(r) for r in range(len(trajectories))]
        else:
            delta_frame = None
            trajs = list(trajectories)
        mod = engine.get_mod(name)
        report = AppendReport(dataset=name, generation=engine.dataset_generation(name))
        if not trajs:
            report.seconds = time.perf_counter() - start
            return report
        self._check_new_keys(mod, trajs)
        if delta_frame is None:
            delta_frame = MODFrame.from_trajectories(trajs)

        # 1. Dataset: register an *extended snapshot* — a new MOD object —
        #    so open cursors that captured the old one keep streaming their
        #    pre-append view (snapshot isolation at the MOD level).
        extended = MOD(name=mod.name, trajectories=[*mod.trajectories(), *trajs])
        engine._datasets[name] = extended

        # Steps 2–3 can fail (a pathological batch tripping an overflow
        # re-clustering, say) — but the dataset above HAS changed, so the
        # generation token must move regardless, or memoised results keyed
        # by generation would keep serving pre-append answers against the
        # already-extended dataset.  Hence the try/finally around them with
        # step 4 in the finally.  And a failure mid-maintenance leaves the
        # frame/tree half-mutated: they are evicted (the persisted tree
        # structure too) so the next consumer rebuilds from the consistent
        # extended MOD instead of serving a tree containing part of a batch.
        try:
            # 2. Frame catalog: grow the cached frame through the
            #    delta-concat path; an absent entry just rebuilds lazily
            #    from the new MOD.
            frame = engine._frames.get(name)
            if frame is not None:
                frame.extend(delta_frame)
                report.frame_extended = True

            # 3. Index maintenance: a cached ReTraTree absorbs the batch
            #    incrementally.  A tree that is only *persisted* (cold
            #    manifest, never queried in this process) is left untouched
            #    — its manifest becomes stale, which ``artifact_status``
            #    reports and the next ``retratree`` call resolves by
            #    rebuilding.
            tree = engine._retratrees.get(name)
            if tree is not None:
                report.tree_counters = tree.append(trajs, frame=delta_frame)
                report.tree_maintained = True
        except BaseException:
            engine._frames.pop(name, None)
            engine._forget_tree(name)
            raise
        finally:
            # 4. Generation token: consumers that memoise by generation
            #    (prepared-statement COUNT caches, SQL INSERT buffers) must
            #    see the dataset move — without evicting the caches we just
            #    updated.
            engine._note_append(name)

        # 5. Durability: the catalog stages the batch as a delta partition
        #    and one manifest write commits dataset + maintained tree
        #    atomically (an empty tree has nothing to persist).  The retry
        #    delta around the commit surfaces absorbed transient I/O errors.
        catalog = engine.catalog
        if catalog is not None:
            storage = catalog.storage(name)
            retries_before = storage.io_stats()["io_retries"]
            maintained = tree is not None and tree.params is not None
            report.persisted = catalog.commit_append(
                name, trajs, engine.dataset_generation(name), tree if maintained else None
            )
            report.io_retries = storage.io_stats()["io_retries"] - retries_before

        report.trajectories = len(trajs)
        report.points = int(delta_frame.total_points)
        report.generation = engine.dataset_generation(name)
        report.seconds = time.perf_counter() - start
        return report

    @staticmethod
    def _check_new_keys(mod: MOD, trajs: Sequence[Trajectory]) -> None:
        """Reject batches that collide with existing keys or repeat keys."""
        seen: set[tuple[str, str]] = set()
        for traj in trajs:
            if traj.key in mod:
                raise ValueError(
                    f"cannot append trajectory {traj.key!r}: the key already "
                    "exists in the dataset (appending points to an existing "
                    "trajectory is a replacement; reload the dataset instead)"
                )
            if traj.key in seen:
                raise ValueError(
                    f"cannot append trajectory {traj.key!r}: the key repeats "
                    "within the batch"
                )
            seen.add(traj.key)
