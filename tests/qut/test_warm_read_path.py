"""Warm QuT windows validate nothing and decode each partition once.

A stored partition loads as one checked ``MODFrame`` and every member the
query handles is a view of it, so progressive windows over an existing
ReTraTree construct no ``Trajectory`` through the validating constructor.
The record-at-a-time decode path built 34 912 of them for the 20 windows
below (aircraft 300 x 50, seed 100).  The read-path counters of each query
are pinned exactly: the batching changes how records are decoded, never
which partitions a window reads or which merge pairs it evaluates.
"""

import numpy as np
import pytest

import repro
from repro.datagen import aircraft_scenario
from repro.hermes.trajectory import Trajectory
from repro.hermes.types import Period

# (partitions_decoded, merge_pairs_evaluated) of each window's first query
# on a freshly built tree.
READ_PATH_DELTAS = [
    (139, 1879), (80, 0), (94, 825), (113, 0), (28, 0),
    (124, 16), (63, 0), (144, 0), (118, 0), (12, 0),
    (49, 0), (35, 0), (15, 0), (159, 0), (156, 0),
    (37, 0), (90, 0), (162, 0), (21, 0), (132, 0),
]  # fmt: skip


def progressive_windows(period: Period, n: int, seed: int) -> list[Period]:
    """``n`` windows 5-60 % of the lifespan wide, at seeded even-grid places."""
    rng = np.random.default_rng(seed)
    widths = rng.permutation(np.linspace(0.05, 0.6, n)) * period.duration
    places = rng.permutation((np.arange(n) + 0.5) / n)
    starts = period.tmin + places * (period.duration - widths)
    return [Period(float(s), float(s + w)) for s, w in zip(starts, widths)]


@pytest.fixture(scope="module")
def flights_store(tmp_path_factory):
    mod, _truth = aircraft_scenario(n_trajectories=300, n_samples=50, seed=100, name="f")
    conn = repro.connect(tmp_path_factory.mktemp("store"))
    conn.engine.load_mod("f", mod)
    conn.engine.retratree("f")
    windows = progressive_windows(mod.period, 20, 100)
    counters = ("partitions_decoded", "merge_pairs_evaluated")
    extras = [conn.engine.qut("f", window).extras for window in windows]
    deltas = [tuple(e[name] for name in counters) for e in extras]
    yield conn, windows, deltas
    conn.close()


def test_each_query_reads_what_it_read_before(flights_store):
    _conn, _windows, deltas = flights_store
    assert deltas == READ_PATH_DELTAS


def test_warm_windows_construct_no_validated_trajectory(flights_store, monkeypatch):
    conn, windows, _deltas = flights_store
    stmt = conn.prepare("SELECT QUT(f, :wi, :we)")
    bindings = [{"wi": w.tmin, "we": w.tmax} for w in windows]
    for binding in bindings[:3]:
        stmt.execute(binding).fetchall()
    calls = []
    real = Trajectory.__init__
    monkeypatch.setattr(Trajectory, "__init__", lambda self, *a: calls.append(1) or real(self, *a))
    rows = [stmt.execute(binding).fetchall() for binding in bindings]
    assert all(rows)
    assert len(calls) == 0
