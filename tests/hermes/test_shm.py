"""Shared-memory transport hygiene: arena lifetime and ``/dev/shm`` cleanliness.

The zero-copy transport's one hard obligation is that no shared-memory
segment outlives the call that published it — after normal runs, after a
worker crash mid-fit, after ``KeyboardInterrupt``, and when fault injection
forces the pickle fallback.  These tests pin that contract directly against
``/dev/shm`` (filtered to the ``psm_`` segment prefix so unrelated
semaphores never flake the assertion) and against the arenas' own ledgers.
"""

import os
from pathlib import Path

import numpy as np
import pytest

import repro.core.parallel as parallel_mod
from repro.core.parallel import WorkerPool, partitioned_s2t
from repro.datagen import aircraft_scenario
from repro.hermes.frame import MODFrame
from repro.hermes.shm import ShmArena, ShmTransportError, default_arena
from tests.conftest import membership_signature

SHM_DIR = Path("/dev/shm")


def _segment_listing() -> set[str]:
    """Names of the shared-memory segments currently backing ``/dev/shm``."""
    if not SHM_DIR.exists():  # pragma: no cover - non-Linux hosts
        return set()
    return {p.name for p in SHM_DIR.iterdir() if p.name.startswith("psm_")}


def _segment_file_exists(name: str) -> bool:
    return SHM_DIR.exists() and (SHM_DIR / name).exists()


# -- fault-injection worker entry points -------------------------------------------------
#
# Module-level so they pickle by qualified name into forked workers; each
# replaces a module attribute via monkeypatch *before* the pool forks, so the
# workers inherit the patched module state.


def _crash_task(task):  # pragma: no cover - runs (briefly) inside a worker
    os._exit(17)


def _raise_in_worker(task):  # pragma: no cover - runs inside a worker
    raise RuntimeError("injected worker bug")


def _refuse_attach(segment, meta):  # pragma: no cover - runs inside a worker
    raise ShmTransportError(f"injected attach failure for {segment!r}")


def _refuse_publish(self, arena=None):
    raise ShmTransportError("injected publish failure")


class TestShmArena:
    def test_create_tracks_and_release_unlinks(self):
        arena = ShmArena()
        shm = arena.create(64)
        name = shm.name
        assert arena.live_segments() == [name]
        if SHM_DIR.exists():
            assert _segment_file_exists(name)
        arena.release(name)
        assert arena.live_segments() == []
        assert not _segment_file_exists(name)
        # release is idempotent
        arena.release(name)

    def test_attach_is_borrowed_and_idempotent(self):
        owner = ShmArena()
        shm = owner.create(32)
        borrower = ShmArena()
        first = borrower.attach(shm.name)
        second = borrower.attach(shm.name)
        assert first is second
        # Draining the borrower closes its handle but must NOT unlink the
        # segment — the creator owns the unlink.
        borrower.drain()
        if SHM_DIR.exists():
            assert _segment_file_exists(shm.name)
        owner.drain()
        assert not _segment_file_exists(shm.name)

    def test_attach_missing_segment_raises_transport_error(self):
        arena = ShmArena()
        with pytest.raises(ShmTransportError, match="cannot attach"):
            arena.attach("psm_repro_does_not_exist")
        assert arena.live_segments() == []

    def test_context_manager_drains_on_exception(self):
        name = None
        with pytest.raises(RuntimeError, match="boom"):
            with ShmArena() as arena:
                name = arena.create(16).name
                raise RuntimeError("boom")
        assert arena.live_segments() == []
        assert name is not None and not _segment_file_exists(name)


class TestFrameRoundTrip:
    def test_to_shm_from_shm_is_exact_and_zero_copy(self, lanes_small):
        mod, _ = lanes_small
        frame = MODFrame.from_mod(mod)
        before = _segment_listing()
        with ShmArena() as arena:
            segment, meta = frame.to_shm(arena)
            attached = MODFrame.from_shm(segment, meta, arena=arena)
            assert attached.keys == frame.keys
            np.testing.assert_array_equal(attached.xs, frame.xs)
            np.testing.assert_array_equal(attached.ys, frame.ys)
            np.testing.assert_array_equal(attached.ts, frame.ts)
            np.testing.assert_array_equal(attached.offsets, frame.offsets)
            # The attached columns are views into the segment, not copies.
            assert not attached.xs.flags.owndata
            assert not attached.ys.flags.owndata
            assert not attached.ts.flags.owndata
            # Views must be dropped before the segment can be closed — the
            # same discipline the worker-side attach cache follows.
            del attached
        assert arena.live_segments() == []
        # Without an arena the segment belongs to the process-wide default,
        # which drains at exit; any other owner would leak it past the call.
        segment, _meta = frame.to_shm()
        assert segment in default_arena().live_segments()
        default_arena().release(segment)
        assert _segment_listing() - before == set()


# -- the pooled S2T fit, the one scatter's caller ------------------------------------


def _s2t_job(mod, pool):
    """The partitioned fit on ``pool`` (``None``: its in-process reference)."""
    result = partitioned_s2t(mod, n_jobs=2 if pool is not None else 1, pool=pool)
    return membership_signature(result)


@pytest.fixture
def scatter_infos(monkeypatch):
    """The ``info`` dict of every :func:`scatter` call the fit makes."""
    infos = []
    real = parallel_mod.scatter

    def spy(*args, **kwargs):
        results, info = real(*args, **kwargs)
        infos.append(info)
        return results, info

    monkeypatch.setattr(parallel_mod, "scatter", spy)
    return infos


class TestSchedulerHygiene:
    """No segment outlives a scatter — in success or in failure."""

    def test_normal_parallel_run_leaves_dev_shm_clean(self, scatter_infos, lanes_small):
        mod, _ = lanes_small
        before = _segment_listing()
        pool = WorkerPool()
        try:
            assert _s2t_job(mod, pool) == _s2t_job(mod, None)
        finally:
            pool.shutdown()
        assert [info["transport"] for info in scatter_infos] == ["shm"]
        assert _segment_listing() - before == set()
        assert default_arena().live_segments() == []

    def test_worker_crash_falls_back_serial_and_leaks_nothing(
        self, scatter_infos, monkeypatch, lanes_small
    ):
        mod, _ = lanes_small
        expected = _s2t_job(mod, None)
        before = _segment_listing()
        # The patched entry point kills the worker outright; the in-process
        # fallback never goes through it.
        monkeypatch.setattr(parallel_mod, "_fit_partition_task", _crash_task)
        pool = WorkerPool()
        try:
            assert _s2t_job(mod, pool) == expected
            assert pool._executor is None  # the broken executor was discarded
        finally:
            pool.shutdown()
        assert "pool_error" in scatter_infos[-1]
        assert _segment_listing() - before == set()
        assert default_arena().live_segments() == []

    def test_worker_error_propagates_instead_of_degrading(self, monkeypatch, lanes_small):
        mod, _ = lanes_small
        before = _segment_listing()
        monkeypatch.setattr(parallel_mod, "_fit_partition_task", _raise_in_worker)
        pool = WorkerPool()
        try:
            with pytest.raises(RuntimeError, match="injected worker bug"):
                _s2t_job(mod, pool)
        finally:
            pool.shutdown()
        assert _segment_listing() - before == set()
        assert default_arena().live_segments() == []

    def test_keyboard_interrupt_drains_published_segments(self, lanes_small):
        mod, _ = lanes_small

        class InterruptingPool:
            """Stands in for a pool whose job is interrupted at submit time."""

            def executor(self, n_jobs):
                raise KeyboardInterrupt

        before = _segment_listing()
        with pytest.raises(KeyboardInterrupt):
            _s2t_job(mod, InterruptingPool())
        # The frame segment WAS published before the interrupt; the arena's
        # context manager must have unlinked it on the way out.
        assert _segment_listing() - before == set()
        assert default_arena().live_segments() == []

    def test_worker_attach_failure_routes_to_pickle_fallback(
        self, scatter_infos, monkeypatch, lanes_small
    ):
        mod, _ = lanes_small
        expected = _s2t_job(mod, None)
        before = _segment_listing()
        # Workers fork after the patch, so every attach attempt fails in the
        # worker; the scatter must retry the whole job over pickle.
        monkeypatch.setattr(parallel_mod, "attached_frame", _refuse_attach)
        pool = WorkerPool()
        try:
            assert _s2t_job(mod, pool) == expected
        finally:
            pool.shutdown()
        assert scatter_infos[-1]["transport"] == "pickle"
        assert "injected attach failure" in scatter_infos[-1]["shm_error"]
        assert _segment_listing() - before == set()
        assert default_arena().live_segments() == []

    def test_publish_failure_routes_to_pickle_fallback(
        self, scatter_infos, monkeypatch, lanes_small
    ):
        mod, _ = lanes_small
        expected = _s2t_job(mod, None)
        monkeypatch.setattr(MODFrame, "to_shm", _refuse_publish)
        pool = WorkerPool()
        try:
            assert _s2t_job(mod, pool) == expected
        finally:
            pool.shutdown()
        assert scatter_infos[-1]["transport"] == "pickle"
        assert "injected publish failure" in scatter_infos[-1]["shm_error"]
        assert default_arena().live_segments() == []

    # -- what ``partitioned_s2t`` surfaces of it in ``result.extras`` --------------------

    def test_forced_transports_agree_and_shm_ships_100x_fewer_bytes(self, monkeypatch):
        # The wire economics the zero-copy transport exists for: a task
        # carries a segment name plus a period, not the frame columns.
        mod, _ = aircraft_scenario(n_trajectories=100, n_samples=50, seed=1)
        pool = WorkerPool()
        try:
            shm = partitioned_s2t(mod, n_jobs=2, pool=pool)
            monkeypatch.setattr(MODFrame, "to_shm", _refuse_publish)
            pickled = partitioned_s2t(mod, n_jobs=2, pool=pool)
        finally:
            pool.shutdown()
        assert (shm.extras["transport"], pickled.extras["transport"]) == ("shm", "pickle")
        assert membership_signature(shm) == membership_signature(pickled)
        assert shm.extras["bytes_shipped_per_task"] > 0
        assert (
            pickled.extras["bytes_shipped_per_task"]
            >= 100 * shm.extras["bytes_shipped_per_task"]
        )

    def test_extras_record_the_execution_that_happened(self, monkeypatch, lanes_small):
        mod, _ = lanes_small
        pooled = partitioned_s2t(mod, n_jobs=2)
        assert pooled.extras["n_jobs"] == 2 and pooled.extras["transport"] == "shm"
        # One partition to fit: no pool runs, whatever n_jobs asked for.
        single = partitioned_s2t(mod, n_jobs=4, n_partitions=1)
        assert single.extras["n_jobs"] == 1
        assert "transport" not in single.extras
        # A pool that falls over is recorded too.
        monkeypatch.setattr(parallel_mod, "_fit_partition_task", _crash_task)
        crashed = partitioned_s2t(mod, n_jobs=2)
        assert crashed.extras["n_jobs"] == 1
        assert "pool_error" in crashed.extras
        assert membership_signature(crashed) == membership_signature(pooled)
