"""repro: reproduction of "Time-aware Sub-Trajectory Clustering in
Hermes@PostgreSQL" (Tampakis et al., ICDE 2018).

The package provides a pure-Python Moving Object Database (MOD) engine in
the spirit of Hermes@PostgreSQL, together with the two sub-trajectory
clustering modules the paper demonstrates:

* :mod:`repro.s2t` -- Sampling-based Sub-Trajectory Clustering
  (voting, segmentation, sampling, greedy clustering, outlier detection),
* :mod:`repro.qut` -- Query-based Trajectory Clustering on top of the
  ReTraTree hierarchical index,

plus the substrates they need (storage engine, 3D R-tree indexing,
SQL front-end, baselines, visual-analytics data products and synthetic
data generation).

The public API v1 is the database-style connection layer of
:mod:`repro.api`:

>>> import repro
>>> from repro.datagen import aircraft_scenario
>>> conn = repro.connect()                        # ":memory:"; a path = durable
>>> mod, _ = aircraft_scenario(n_trajectories=40, seed=7)
>>> conn.engine.load_mod("flights", mod)
>>> rows = conn.dataset("flights").s2t().run()    # same plan as SELECT S2T(flights)
>>> len(rows) > 1
True

The engine facade underneath lives in :mod:`repro.core`
(:class:`~repro.core.engine.HermesEngine`).
"""

from repro._version import __version__


def connect(path=":memory:"):
    """Open a :class:`repro.api.Connection` (see :func:`repro.api.connect`).

    Imported lazily so ``import repro`` stays dependency-light.
    """
    from repro.api import connect as _connect

    return _connect(path)


__all__ = ["__version__", "connect"]
