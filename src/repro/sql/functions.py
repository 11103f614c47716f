"""Table functions exposed through the SQL front-end.

These are the Python counterparts of the stored procedures the paper's
Hermes@PostgreSQL API offers; each takes the positional arguments of its SQL
call and returns a list of dict rows.

The flagship is the paper's own signature::

    SELECT QUT(D, Wi, We, tau, delta, t, d, gamma);

All numeric arguments after the dataset name are optional; omitted ones fall
back to the data-driven defaults of the underlying parameter objects.
"""

from __future__ import annotations

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
            "objects": len({o.obj_id for o in result.outliers}),
            "tmin": "-",
            "tmax": "-",
            "representative_obj": "-",
        }
    )
    return rows


def _require_dataset(args: tuple, function: str) -> str:
    if not args or not isinstance(args[0], str):
        raise SQLExecutionError(f"{function} requires a dataset name as its first argument")
    return args[0]


def _opt_float(args: tuple, idx: int) -> float | None:
    if len(args) <= idx or args[idx] is None:
        return None
    value = args[idx]
    if not isinstance(value, (int, float)):
        raise SQLExecutionError(f"argument {idx + 1} must be numeric, got {value!r}")
    return float(value)


def _opt_int(args: tuple, idx: int, default: int) -> int:
    value = _opt_float(args, idx)
    return default if value is None else int(value)


def _opt_str(args: tuple, idx: int, default: str) -> str:
    if len(args) <= idx or args[idx] is None:
        return default
    value = args[idx]
    if not isinstance(value, str):
        raise SQLExecutionError(f"argument {idx + 1} must be a string, got {value!r}")
    return value


# -- the individual functions ----------------------------------------------------------


def _fn_qut(engine: HermesEngine, args: tuple) -> list[dict[str, object]]:
    """``QUT(D, Wi, We [, tau, delta, t, d, gamma, shards])``

    ``shards`` only says how a *needed* ReTraTree bulk load runs: ``N >= 2``
    fans it out over ``N`` chunk windows on the worker pool.  The tree — and
    so the answer — is the same for every value, and a cached or persisted
    tree is reused whatever ``shards`` says.
    """
    dataset = _require_dataset(args, "QUT")
    wi = _opt_float(args, 1)
    we = _opt_float(args, 2)
    if wi is None or we is None:
        raise SQLExecutionError("QUT requires the window bounds Wi and We")
    params = QuTParams(
        tau=_opt_float(args, 3),
        delta=_opt_float(args, 4),
        temporal_tolerance=_opt_float(args, 5) or 0.0,
        distance_threshold=_opt_float(args, 6),
        gamma=_opt_int(args, 7, 2),
    )
    shards = _opt_float(args, 8)
    try:
        result = engine.qut(
            dataset,
            Period(wi, we),
            params=params,
            shards=None if shards is None else int(shards),
        )
    except ValueError as exc:
        raise SQLExecutionError(str(exc)) from exc
    return _cluster_rows(result)


def _fn_s2t(engine: HermesEngine, args: tuple) -> list[dict[str, object]]:
    """``S2T(D [, sigma, eps, gamma, strategy, jobs, shards])``

    ``strategy`` selects the voting execution path: ``'dense'`` or
    ``'batched'`` (default) — see :mod:`repro.s2t.voting`.
    ``jobs > 1`` runs the partition-parallel scheduler
    (:mod:`repro.core.parallel`) with that many worker processes; note that
    partitioned S2T is a coarser operator than the whole-MOD fit (clusters
    cannot span partition boundaries), so its memberships differ from
    ``jobs = 1``.  ``shards`` overrides the scheduler's temporal partition
    count (each shard is one partition; omitted/NULL keeps the default).
    """
    dataset = _require_dataset(args, "S2T")
    strategy = _opt_str(args, 4, "batched")
    try:
        params = S2TParams(
            sigma=_opt_float(args, 1),
            eps=_opt_float(args, 2),
            min_cluster_support=_opt_int(args, 3, 2),
            voting_strategy=strategy,
            n_jobs=_opt_int(args, 5, 1),
        )
    except ValueError as exc:
        raise SQLExecutionError(str(exc)) from exc
    shards = _opt_float(args, 6)
    return _cluster_rows(
        engine.s2t(
            dataset, params, n_partitions=None if shards is None else int(shards)
        )
    )


def _fn_traclus(engine: HermesEngine, args: tuple) -> list[dict[str, object]]:
    """``TRACLUS(D [, eps, min_lns])``"""
    dataset = _require_dataset(args, "TRACLUS")
    params = TraclusParams(eps=_opt_float(args, 1), min_lns=_opt_int(args, 2, 3))
    return _cluster_rows(engine.traclus(dataset, params))


def _fn_toptics(engine: HermesEngine, args: tuple) -> list[dict[str, object]]:
    """``TOPTICS(D [, eps_cut, min_pts])``"""
    dataset = _require_dataset(args, "TOPTICS")
    params = TOpticsParams(eps_cut=_opt_float(args, 1), min_pts=_opt_int(args, 2, 3))
    return _cluster_rows(engine.toptics(dataset, params))


def _fn_convoy(engine: HermesEngine, args: tuple) -> list[dict[str, object]]:
    """``CONVOY(D [, eps, m, k])``"""
    dataset = _require_dataset(args, "CONVOY")
    params = ConvoyParams(
        eps=_opt_float(args, 1),
        min_objects=_opt_int(args, 2, 3),
        min_duration_snapshots=_opt_int(args, 3, 3),
    )
    return _cluster_rows(engine.convoy(dataset, params))


def _fn_summary(engine: HermesEngine, args: tuple) -> list[dict[str, object]]:
    """``SUMMARY(D)``"""
    dataset = _require_dataset(args, "SUMMARY")
    return [engine.dataset_summary(dataset)]


def _fn_cluster_histogram(engine: HermesEngine, args: tuple) -> list[dict[str, object]]:
    """``CLUSTER_HISTOGRAM(D [, n_bins])`` — over the dataset's last clustering result."""
    dataset = _require_dataset(args, "CLUSTER_HISTOGRAM")
    n_bins = _opt_int(args, 1, 60)
    try:
        result = engine.last_result(dataset)
    except KeyError as exc:
        raise SQLExecutionError(str(exc)) from exc
    return cluster_time_histogram(result, n_bins=n_bins).to_rows()


def _fn_holding_patterns(engine: HermesEngine, args: tuple) -> list[dict[str, object]]:
    """``HOLDING_PATTERNS(D [, min_turns])`` — loop detection over the raw dataset."""
    dataset = _require_dataset(args, "HOLDING_PATTERNS")
    min_turns = _opt_float(args, 1) or 0.9
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
    """Dispatch a ``SELECT FUNC(...)`` call to its implementation."""
    try:
        fn = FUNCTIONS[name]
    except KeyError as exc:
        raise SQLExecutionError(
            f"unknown function {name}; available: {sorted(FUNCTIONS)}"
        ) from exc
    return fn(engine, args)
