"""Cross-scenario clustering-quality harness (the ``BENCH_scenarios`` matrix).

Nine perf PRs pinned *bit-identity* per feature; this module pins
*accuracy*: it sweeps every synthetic scenario under every degradation
profile, across the voting strategies, the partitioned-operator shard
counts and warm-vs-cold-recovered engines, and records ARI/NMI against the
planted ground truth for every cell.  A future optimisation that trades
clustering accuracy for speed on *any* workload turns a cell red against the
checked-in ``quality_floor.json``.

Three layers, smallest first:

* :func:`run_cell` — one fully specified matrix cell, reproducible from its
  recorded seed alone (``tests/eval/test_quality.py`` pins a re-run to
  return an equal record),
* :func:`run_quality_matrix` — the sweep; derives one deterministic seed
  per ``(scenario, profile)`` pair (so the strategy/shards/engine axes
  compare operators on the *same* degraded dataset) and records it in
  every cell,
* :func:`check_floor` — the regression gate; the ``repro-bench-scenarios``
  CLI exits nonzero while any cell's minimum ARI sits below its floor.

Determinism contract: this module draws no randomness of its own — every
random choice happens inside the seeded scenario generators and degradation
profiles — and it reads no clock, so a report is a pure function of its
recorded seeds: two runs write byte-identical files and accuracy history is
a diff (timings are ``benchmarks/e2e``'s job).  The module is inside the
scope of the ``repro-lint`` REPRO105 determinism rule.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from tempfile import mkdtemp
from typing import Any

from repro.core.engine import HermesEngine
from repro.datagen import (
    GroundTruth,
    aircraft_scenario,
    lane_scenario,
    maritime_scenario,
    orbit_scenario,
    parse_profile,
    urban_scenario,
)
from repro.eval.metrics import clustering_quality
from repro.hermes.mod import MOD
from repro.s2t.params import VOTING_STRATEGIES, S2TParams

__all__ = [
    "SCENARIOS",
    "DEFAULT_PROFILES",
    "DEFAULT_STRATEGIES",
    "DEFAULT_SHARD_COUNTS",
    "DEFAULT_ENGINE_MODES",
    "cell_key",
    "cell_seed",
    "generate_cell_data",
    "run_cell",
    "run_quality_matrix",
    "check_floor",
    "load_floor",
    "write_report",
]

#: Scenario registry: name -> (factory, fixed size kwargs).  Sizes are part
#: of the harness contract — the floors in ``quality_floor.json`` are pinned
#: against exactly these datasets, so the smoke matrix must not shrink them.
SCENARIOS: dict[str, tuple[Any, dict[str, Any]]] = {
    "lanes": (lane_scenario, {"n_trajectories": 24, "n_lanes": 3, "n_samples": 32}),
    "aircraft": (aircraft_scenario, {"n_trajectories": 24, "n_corridors": 3, "n_samples": 32}),
    "urban": (urban_scenario, {"n_trajectories": 24, "grid_size": 4, "n_samples": 32}),
    "maritime": (maritime_scenario, {"n_trajectories": 20, "n_lanes": 3, "n_samples": 32}),
    "orbit": (orbit_scenario, {"n_trajectories": 24, "n_sites": 3, "n_samples": 32}),
}

DEFAULT_PROFILES: tuple[str, ...] = ("clean", "gps_noise", "dropout", "rush_hour", "jitter")
DEFAULT_STRATEGIES: tuple[str, ...] = VOTING_STRATEGIES
DEFAULT_SHARD_COUNTS: tuple[int, ...] = (1, 2, 4)
DEFAULT_ENGINE_MODES: tuple[str, ...] = ("warm", "cold")


def cell_key(scenario: str, profile: str, strategy: str, shards: int, engine_mode: str) -> str:
    """The canonical ``|``-joined identifier of one matrix cell."""
    return f"{scenario}|{profile}|{strategy}|{shards}|{engine_mode}"


def cell_seed(base_seed: int, scenario: str, profile: str) -> int:
    """Deterministic per-``(scenario, profile)`` seed.

    Strategy/shards/engine cells of one pair share the seed on purpose:
    those axes must compare operators on the *same* degraded dataset, so
    an accuracy difference between two cells of a pair is attributable to
    the operator, never to dataset luck.  The CRC folds the pair name into
    the base seed, so neighbouring pairs get unrelated streams.
    """
    digest = zlib.crc32(f"{scenario}|{profile}".encode())
    return (int(base_seed) * 1_000_003 + digest) % (2**31 - 1)


def generate_cell_data(scenario: str, profile: str, seed: int) -> tuple[MOD, GroundTruth]:
    """The degraded dataset of a cell: scenario factory, then profile.

    The scenario consumes ``seed`` and the profile consumes ``seed + 1``,
    both as :func:`numpy.random.default_rng` seeds, so the pair
    ``(scenario, profile, seed)`` fully determines every byte of the data.
    """
    factory, kwargs = SCENARIOS[scenario]
    mod, truth = factory(seed=seed, **kwargs)
    return parse_profile(profile).apply(mod, truth, seed=seed + 1)


def _fit(engine: HermesEngine, name: str, strategy: str, shards: int):
    """Run the cell's S2T call — the exact call the SQL path makes.

    ``shards`` maps to the partitioned operator's partition count (the SQL
    ``SHARDS`` knob): ``1`` is the classic whole-MOD fit, ``> 1`` the
    partitioned operator executed serially (worker counts do not change
    memberships, so the matrix stays meaningful on a single-CPU host).
    """
    params = S2TParams(voting_strategy=strategy)
    return engine.s2t(name, params, n_partitions=shards if shards > 1 else None)


def run_cell(
    scenario: str,
    profile: str,
    strategy: str,
    shards: int,
    engine_mode: str,
    seed: int,
    work_dir: str | Path | None = None,
) -> dict[str, Any]:
    """Execute one matrix cell and return its record.

    ``engine_mode`` selects where the dataset lives when S2T runs:
    ``"warm"`` fits on a fresh in-memory engine; ``"cold"`` persists the
    dataset to an on-disk engine, closes it, reopens the store cold and
    fits on the *recovered* dataset — pinning that recovery does not change
    answers.  ``work_dir`` hosts the cold store (a fresh temporary
    directory when omitted).

    The returned record carries everything needed to reproduce the cell
    exactly: its axes, its ``seed`` and the quality metrics (ARI/NMI, purity,
    coverage, cluster and outlier counts) — nothing that varies between runs.
    """
    if engine_mode not in DEFAULT_ENGINE_MODES:
        raise ValueError(f"unknown engine mode {engine_mode!r}")
    mod, truth = generate_cell_data(scenario, profile, seed)
    dataset = f"q_{scenario}"

    if engine_mode == "cold":
        root = Path(work_dir) if work_dir is not None else Path(mkdtemp(prefix="quality_"))
        store = root / f"{scenario}_{profile}_{strategy}_{shards}"
        warm = HermesEngine.on_disk(store)
        warm.load_mod(dataset, mod)
        warm.close()
        engine = HermesEngine.on_disk(store)
    else:
        engine = HermesEngine.in_memory()
        engine.load_mod(dataset, mod)

    result = _fit(engine, dataset, strategy, shards)
    quality = clustering_quality(result, truth)
    engine.close()

    return {
        "scenario": scenario,
        "profile": profile,
        "strategy": strategy,
        "shards": shards,
        "engine": engine_mode,
        "seed": seed,
        "ari": quality.ari,
        "nmi": quality.nmi,
        "purity": quality.purity,
        "coverage": quality.coverage,
        "clusters": result.num_clusters,
        "outliers": result.num_outliers,
    }


def run_quality_matrix(
    scenarios: tuple[str, ...] | None = None,
    profiles: tuple[str, ...] | None = None,
    strategies: tuple[str, ...] = DEFAULT_STRATEGIES,
    shard_counts: tuple[int, ...] = DEFAULT_SHARD_COUNTS,
    engine_modes: tuple[str, ...] = DEFAULT_ENGINE_MODES,
    base_seed: int = 20_18,
    work_dir: str | Path | None = None,
) -> dict[str, Any]:
    """Sweep the full cross product and assemble the matrix report.

    Every cell records its own seed (derived via :func:`cell_seed`), so any
    single cell reproduces without re-running the sweep.  The report also
    cross-checks the warm/cold axis: when both modes of a
    ``(scenario, profile, strategy, shards)`` combination ran, their ARIs
    must agree bit-for-bit (``warm_cold_identical``) — recovery is not
    allowed to change answers.
    """
    scenarios = tuple(scenarios) if scenarios is not None else tuple(SCENARIOS)
    profiles = tuple(profiles) if profiles is not None else DEFAULT_PROFILES
    for scenario in scenarios:
        if scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {scenario!r}; available: {', '.join(sorted(SCENARIOS))}"
            )

    cells: dict[str, dict[str, Any]] = {}
    for scenario in scenarios:
        for profile in profiles:
            seed = cell_seed(base_seed, scenario, profile)
            for strategy in strategies:
                for shards in shard_counts:
                    for engine_mode in engine_modes:
                        cell = run_cell(
                            scenario, profile, strategy, shards, engine_mode,
                            seed=seed, work_dir=work_dir,
                        )
                        cells[cell_key(scenario, profile, strategy, shards, engine_mode)] = cell

    warm_cold_identical = True
    if "warm" in engine_modes and "cold" in engine_modes:
        for key, cell in cells.items():
            if cell["engine"] != "warm":
                continue
            twin = cells.get(key[: key.rfind("|")] + "|cold")
            if twin is not None and twin["ari"] != cell["ari"]:
                warm_cold_identical = False

    return {
        "axes": {
            "scenarios": list(scenarios),
            "profiles": list(profiles),
            "strategies": list(strategies),
            "shard_counts": list(shard_counts),
            "engine_modes": list(engine_modes),
        },
        "base_seed": base_seed,
        "sizes": {name: dict(SCENARIOS[name][1]) for name in scenarios},
        "warm_cold_identical": warm_cold_identical,
        "cells": cells,
    }


def load_floor(path: str | Path) -> dict[str, float]:
    """Read a ``quality_floor.json`` file into ``{"scenario|profile": min_ari}``."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or "floors" not in data:
        raise ValueError(f"{path}: not a quality-floor file (missing 'floors')")
    return {str(key): float(value) for key, value in data["floors"].items()}


def check_floor(report: dict[str, Any], floors: dict[str, float]) -> list[str]:
    """Violations of the floor file against a matrix report.

    For every ``(scenario, profile)`` pair present in the report, the
    *minimum* ARI across that pair's strategy/shards/engine cells must meet
    the pair's floor.  Pairs without a floor entry are skipped (a reduced
    smoke matrix checks only the pairs it ran) — adding a scenario or
    profile without extending the floor file is caught by the full-matrix
    test, not silently ignored forever.
    """
    worst: dict[str, float] = {}
    for cell in report["cells"].values():
        pair = f"{cell['scenario']}|{cell['profile']}"
        worst[pair] = min(worst.get(pair, float("inf")), float(cell["ari"]))
    violations = []
    for pair, observed in sorted(worst.items()):
        floor = floors.get(pair)
        if floor is not None and observed < floor:
            violations.append(
                f"{pair}: min ARI {observed:.4f} fell below the floor {floor:.4f}"
            )
    return violations


def write_report(report: dict[str, Any], path: str | Path) -> Path:
    """Write the matrix report as pretty-printed JSON."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path
