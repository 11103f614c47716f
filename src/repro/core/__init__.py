"""Engine facade and sessions.

:class:`~repro.core.engine.HermesEngine` manages named datasets (MODs),
builds and caches ReTraTrees, and exposes every clustering method.  End
users should normally reach it through the public API v1
(:func:`repro.connect` → :class:`repro.api.Connection`), whose SQL and
fluent front-ends share one logical-plan layer.
:class:`~repro.core.session.ProgressiveSession` wraps the progressive
time-aware analysis workflow of the paper's scenario 2.
:func:`~repro.core.parallel.partitioned_s2t` is the partition-parallel S2T
scheduler behind ``HermesEngine.s2t(name, n_jobs=...)``.
:class:`~repro.core.ingest.IngestPipeline` (behind ``HermesEngine.append``)
is the append-path ingestion subsystem: batches of new trajectories extend
the cached frame and ReTraTree incrementally instead of invalidating them.
"""

from repro.core.engine import HermesEngine
from repro.core.ingest import AppendBuffer, AppendReport, IngestPipeline
from repro.core.parallel import partitioned_s2t
from repro.core.session import ProgressiveSession

__all__ = [
    "AppendBuffer",
    "AppendReport",
    "HermesEngine",
    "IngestPipeline",
    "ProgressiveSession",
    "partitioned_s2t",
]
