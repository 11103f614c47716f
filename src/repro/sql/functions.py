"""Table functions exposed through the SQL front-end.

These are the Python counterparts of the stored procedures the paper's
Hermes@PostgreSQL API offers; each takes the arguments of a
:class:`~repro.sql.plan.FunctionPlan` and returns a list of dict rows.

The flagship is the paper's own signature::

    SELECT QUT(D, Wi, We, tau, delta, t, d, gamma);

Each function's argument names, order and defaults live in one table,
:data:`repro.sql.plan.SIGNATURES`; the plan node has already refused
surplus arguments and filled NULL or omitted ones from it, so ``args``
always holds the full signature.  An argument still ``None`` after that is
left to the underlying parameter object's data-driven default.  The
functions here check types and ranges only.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from repro.baselines.convoy import ConvoyParams
from repro.baselines.toptics import TOpticsParams
from repro.baselines.traclus import TraclusParams
from repro.core.engine import HermesEngine
from repro.hermes.types import Period
from repro.qut.params import QuTParams
from repro.s2t.params import S2TParams
from repro.s2t.result import ClusteringResult
from repro.sql.errors import SQLExecutionError
from repro.storage.errors import StorageError
from repro.va.histogram import cluster_time_histogram
from repro.va.patterns import detect_holding_patterns

__all__ = ["FUNCTIONS", "call_function"]


def _cluster_rows(result: ClusteringResult) -> list[dict[str, object]]:
    """The standard result-set shape of every clustering table function."""
    rows: list[dict[str, object]] = []
    for cluster in result.clusters:
        period = cluster.period
        rows.append(
            {
                "cluster_id": cluster.cluster_id,
                "members": cluster.size,
                "objects": len(cluster.object_ids()),
                "tmin": round(period.tmin, 3),
                "tmax": round(period.tmax, 3),
                "representative_obj": cluster.representative.obj_id,
            }
        )
    rows.append(
        {
            "cluster_id": "outliers",
            "members": result.num_outliers,
            "objects": len(result.outliers.object_ids()),
            "tmin": "-",
            "tmax": "-",
            "representative_obj": "-",
        }
    )
    return rows


def _require_dataset(engine: HermesEngine, args: tuple, function: str) -> str:
    """The dataset named by the first argument; refused if it is not registered.

    The name is looked up by :meth:`~repro.core.engine.HermesEngine.resolve`:
    an unknown one gets the executor's ``unknown dataset`` error, a dataset
    withheld at recovery as damaged its ``CorruptManifestError``.
    """
    if not isinstance(args[0], str):
        raise SQLExecutionError(f"{function} requires a dataset name as its first argument")
    dataset = args[0]
    if not engine.resolve(dataset):
        raise SQLExecutionError(f"unknown dataset {dataset!r}")
    return dataset


def _opt_float(args: tuple, idx: int) -> float | None:
    value = args[idx]
    if value is None:
        return None
    # bool is an int subclass, but TRUE is not a number: gamma = TRUE must not mean 1.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SQLExecutionError(f"argument {idx + 1} must be numeric, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise SQLExecutionError(f"argument {idx + 1} is out of range, got {value!r}") from None


def _opt_int(args: tuple, idx: int) -> int | None:
    value = _opt_float(args, idx)
    if value is None:
        return None
    if not math.isfinite(value):
        raise SQLExecutionError(f"argument {idx + 1} must be a finite number, got {value!r}")
    if not value.is_integer():
        raise SQLExecutionError(f"argument {idx + 1} must be an integer, got {args[idx]!r}")
    return int(value)


def _str(args: tuple, idx: int) -> str:
    value = args[idx]
    if not isinstance(value, str):
        raise SQLExecutionError(f"argument {idx + 1} must be a string, got {value!r}")
    return value


# -- the individual functions ----------------------------------------------------------


def _fn_qut(engine: HermesEngine, args: tuple) -> list[dict[str, object]]:
    """``QUT(D, Wi, We [, tau, delta, t, d, gamma])``"""
    dataset = _require_dataset(engine, args, "QUT")
    wi = _opt_float(args, 1)
    we = _opt_float(args, 2)
    if wi is None or we is None:
        raise SQLExecutionError("QUT requires the window bounds Wi and We")
    params = QuTParams(
        tau=_opt_float(args, 3),
        delta=_opt_float(args, 4),
        temporal_tolerance=_opt_float(args, 5),
        distance_threshold=_opt_float(args, 6),
        gamma=_opt_int(args, 7),
    )
    return _cluster_rows(engine.qut(dataset, Period(wi, we), params=params))


def _fn_s2t(engine: HermesEngine, args: tuple) -> list[dict[str, object]]:
    """``S2T(D [, sigma, eps, gamma, strategy, jobs, partitions])``

    ``strategy`` accepts only ``NULL`` or ``'batched'``: voting has one
    engine (:mod:`repro.s2t.voting`), and any other value is refused.
    ``jobs > 1`` runs the partition-parallel scheduler
    (:mod:`repro.core.parallel`) with that many worker processes; note that
    partitioned S2T is a coarser operator than the whole-MOD fit (clusters
    cannot span partition boundaries), so its memberships differ from
    ``jobs = 1``.  ``partitions`` overrides the scheduler's temporal
    partition count (omitted/NULL keeps the default).
    """
    dataset = _require_dataset(engine, args, "S2T")
    params = S2TParams(
        sigma=_opt_float(args, 1),
        eps=_opt_float(args, 2),
        min_cluster_support=_opt_int(args, 3),
        voting_strategy=_str(args, 4),
        n_jobs=_opt_int(args, 5),
    )
    return _cluster_rows(engine.s2t(dataset, params, n_partitions=_opt_int(args, 6)))


def _fn_traclus(engine: HermesEngine, args: tuple) -> list[dict[str, object]]:
    """``TRACLUS(D [, eps, min_lns])``"""
    dataset = _require_dataset(engine, args, "TRACLUS")
    params = TraclusParams(eps=_opt_float(args, 1), min_lns=_opt_int(args, 2))
    return _cluster_rows(engine.traclus(dataset, params))


def _fn_toptics(engine: HermesEngine, args: tuple) -> list[dict[str, object]]:
    """``TOPTICS(D [, eps_cut, min_pts])``"""
    dataset = _require_dataset(engine, args, "TOPTICS")
    params = TOpticsParams(eps_cut=_opt_float(args, 1), min_pts=_opt_int(args, 2))
    return _cluster_rows(engine.toptics(dataset, params))


def _fn_convoy(engine: HermesEngine, args: tuple) -> list[dict[str, object]]:
    """``CONVOY(D [, eps, m, k])``"""
    dataset = _require_dataset(engine, args, "CONVOY")
    params = ConvoyParams(
        eps=_opt_float(args, 1),
        min_objects=_opt_int(args, 2),
        min_duration_snapshots=_opt_int(args, 3),
    )
    return _cluster_rows(engine.convoy(dataset, params))


def _fn_summary(engine: HermesEngine, args: tuple) -> list[dict[str, object]]:
    """``SUMMARY(D)``"""
    dataset = _require_dataset(engine, args, "SUMMARY")
    return [engine.dataset_summary(dataset)]


def _fn_cluster_histogram(engine: HermesEngine, args: tuple) -> list[dict[str, object]]:
    """``CLUSTER_HISTOGRAM(D [, n_bins])`` — over the dataset's last clustering result."""
    dataset = _require_dataset(engine, args, "CLUSTER_HISTOGRAM")
    n_bins = _opt_int(args, 1)
    try:
        result = engine.last_result(dataset)
    except KeyError as exc:
        raise SQLExecutionError(str(exc)) from exc
    if result.num_clustered + result.num_outliers == 0:
        return []  # an empty clustering (of an empty dataset) spans no time to bin
    return cluster_time_histogram(result, n_bins=n_bins).to_rows()


def _fn_holding_patterns(engine: HermesEngine, args: tuple) -> list[dict[str, object]]:
    """``HOLDING_PATTERNS(D [, min_turns])`` — loop detection over the raw dataset."""
    dataset = _require_dataset(engine, args, "HOLDING_PATTERNS")
    min_turns = _opt_float(args, 1)
    patterns = detect_holding_patterns(engine.get_mod(dataset), min_turns=min_turns)
    return [
        {
            "obj_id": p.obj_id,
            "tmin": round(p.period.tmin, 3),
            "tmax": round(p.period.tmax, 3),
            "center_x": round(p.center[0], 3),
            "center_y": round(p.center[1], 3),
            "radius": round(p.radius, 3),
            "turns": round(p.turns, 2),
        }
        for p in patterns
    ]


FUNCTIONS: dict[str, Callable[[HermesEngine, tuple], list[dict[str, object]]]] = {
    "QUT": _fn_qut,
    "S2T": _fn_s2t,
    "TRACLUS": _fn_traclus,
    "TOPTICS": _fn_toptics,
    "CONVOY": _fn_convoy,
    "SUMMARY": _fn_summary,
    "CLUSTER_HISTOGRAM": _fn_cluster_histogram,
    "HOLDING_PATTERNS": _fn_holding_patterns,
}


def call_function(engine: HermesEngine, name: str, args: tuple) -> list[dict[str, object]]:
    """Dispatch a ``SELECT FUNC(...)`` call to its implementation.

    A ``ValueError`` from the function (an argument its parameter object,
    the engine or the operator refuses) becomes a ``SQLExecutionError``;
    a damaged store's ``StorageError`` keeps its type and its fsck hint.
    """
    try:
        fn = FUNCTIONS[name]
    except KeyError as exc:
        raise SQLExecutionError(
            f"unknown function {name}; available: {sorted(FUNCTIONS)}"
        ) from exc
    try:
        return fn(engine, args)
    except StorageError:
        raise
    except ValueError as exc:
        raise SQLExecutionError(str(exc)) from exc
