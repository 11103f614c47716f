"""What the append path takes in and reports.

The source paper's central structural claim is that the ReTraTree is
*incrementally maintainable*: newly arriving trajectory data is absorbed
into the existing temporally-partitioned chunks and clustered sub-chunks
without rebuilding the index.  :meth:`repro.core.engine.HermesEngine.append`
applies a batch — behind ``engine.append(name, trajectories)``, the fluent
``conn.dataset(name).append(...)`` and SQL ``INSERT``-as-append — and this
module holds what surrounds it:

* :class:`AppendBuffer` accumulates raw *point* records (the SQL ``INSERT``
  unit) per ``(obj_id, traj_id)`` key and assembles them into complete
  :class:`~repro.hermes.trajectory.Trajectory` objects once a key has at
  least two temporally distinct samples — the same sort/dedup rules the
  full-rebuild materialisation applies, so the two paths produce identical
  trajectories from identical inserts.  A key given two different positions
  at one instant is refused, never resolved silently.
* :class:`AppendReport` says what one batch did.

The load-bearing guarantee: after any sequence of appends, queries see the
same dataset a from-scratch load of the concatenated data would see, QuT
answers stay within the paper's assignment tolerance of a full rebuild, and
``ReTraTree.build_calls`` does not move on the append path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable

from repro.hermes.trajectory import Trajectory

__all__ = ["AppendBuffer", "AppendReport"]


@dataclass
class AppendReport:
    """What one append batch did, returned by :meth:`~repro.core.engine.HermesEngine.append`.

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
    time, an exact duplicate (same instant, same position) is dropped, and
    the key graduates once at least two distinct instants remain.  Two
    *different* positions at one instant are a conflict the buffer cannot
    resolve: :meth:`extend` refuses them, and so does :meth:`_assemble`.
    Incomplete keys stay buffered across statements until they graduate or
    the buffer is discarded (dataset drop/replace).
    """

    #: Pending samples per ``(obj_id, traj_id)``, as ``(t, x, y)`` triples.
    pending: dict[tuple[str, str], list[tuple[float, float, float]]] = field(
        default_factory=dict
    )

    def extend(
        self, points: Iterable[tuple[tuple[str, str], tuple[float, float, float]]]
    ) -> None:
        """Buffer a statement's ``(key, (t, x, y))`` points: all of them or none.

        Raises :class:`ValueError` naming the key and the instant when a
        point gives a key a second, different position at one instant
        (against the statement's other points or those already buffered);
        the buffer is then unchanged.
        """
        staged: dict[tuple[str, str], list[tuple[float, float, float]]] = {}
        for key, (t, x, y) in points:
            staged.setdefault(key, list(self.pending.get(key, ()))).append(
                (float(t), float(x), float(y))
            )
        for key, samples in staged.items():
            self._assemble(key, samples)
        self.pending.update(staged)

    def __len__(self) -> int:
        return sum(len(samples) for samples in self.pending.values())

    @staticmethod
    def _assemble(
        key: tuple[str, str], samples: list[tuple[float, float, float]]
    ) -> Trajectory | None:
        """A trajectory from a key's samples, or ``None`` while incomplete.

        Samples are sorted by time; a sample repeating an instant with the
        same position is dropped.  Raises :class:`ValueError` naming the key
        and the instant when two samples put the key at different positions
        at one instant.
        """
        ts: list[float] = []
        xs: list[float] = []
        ys: list[float] = []
        for t, x, y in sorted(samples, key=lambda sample: sample[0]):
            if ts and t == ts[-1]:
                if (x, y) != (xs[-1], ys[-1]):
                    raise ValueError(
                        f"trajectory {key!r} has two positions at t={t!r}: "
                        f"({xs[-1]!r}, {ys[-1]!r}) and ({x!r}, {y!r})"
                    )
                continue
            ts.append(t)
            xs.append(x)
            ys.append(y)
        if len(ts) < 2:
            return None
        return Trajectory(key[0], key[1], xs, ys, ts)

    def drain_complete(self) -> list[Trajectory]:
        """Remove and return every key that has graduated to a trajectory.

        Keys with fewer than two distinct instants stay buffered; the
        returned trajectories are ordered by first arrival (dict insertion
        order), which is also the row order the append will create.  When a
        key holds conflicting positions (:meth:`_assemble` raises) nothing
        is removed.
        """
        out: list[Trajectory] = []
        for key, samples in self.pending.items():
            traj = self._assemble(key, samples)
            if traj is not None:
                out.append(traj)
        for traj in out:
            del self.pending[traj.key]
        return out

    def clear(self) -> None:
        """Discard every buffered point (dataset dropped or replaced)."""
        self.pending.clear()
