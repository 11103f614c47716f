"""Cross-scenario quality matrix (the accuracy-regression tentpole).

The full run sweeps every scenario x degradation profile x voting strategy
x shard count x warm/cold engine cell, writes ``BENCH_scenarios.json`` at
the repository root and asserts the checked-in ``quality_floor.json``: the
minimum ARI of every ``(scenario, profile)`` pair must stay at or above its
floor, so a future optimisation that trades accuracy for speed on *any*
workload fails here.  Both variants also prove the gate is non-vacuous by
re-checking against an artificially raised floor and requiring it to fire.

The smoke variant (the CI ``quality-smoke`` gate) runs the reduced
2-scenarios x 2-profiles matrix over the same full strategy/shards/engine
axes — scenario sizes are identical to the full run (they are part of the
floor contract), only the pair count shrinks — and writes
``BENCH_scenarios_smoke.json``.
"""

from pathlib import Path

import pytest

from repro.eval.harness import format_table
from repro.eval.quality import (
    DEFAULT_ENGINE_MODES,
    DEFAULT_PROFILES,
    DEFAULT_SHARD_COUNTS,
    DEFAULT_STRATEGIES,
    SCENARIOS,
    check_floor,
    load_floor,
    run_quality_matrix,
    write_report,
)

ROOT = Path(__file__).resolve().parent.parent
REPORT_PATH = ROOT / "BENCH_scenarios.json"
FLOOR_PATH = ROOT / "quality_floor.json"


def _print_summary(report: dict, title: str) -> None:
    by_pair: dict[str, list[dict]] = {}
    for cell in report["cells"].values():
        by_pair.setdefault(f"{cell['scenario']}|{cell['profile']}", []).append(cell)
    rows = []
    for pair in sorted(by_pair):
        cells = by_pair[pair]
        rows.append(
            {
                "scenario|profile": pair,
                "min_ari": round(min(c["ari"] for c in cells), 4),
                "mean_nmi": round(sum(c["nmi"] for c in cells) / len(cells), 4),
            }
        )
    print()
    print(format_table(rows, title=title))


def _assert_matrix_contract(report: dict, n_pairs: int) -> None:
    """Structure every matrix run must satisfy, full or smoke."""
    expected = (
        n_pairs
        * len(DEFAULT_STRATEGIES)
        * len(DEFAULT_SHARD_COUNTS)
        * len(DEFAULT_ENGINE_MODES)
    )
    assert len(report["cells"]) == expected, (len(report["cells"]), expected)
    for cell in report["cells"].values():
        assert isinstance(cell["seed"], int)
        assert -1.0 <= cell["ari"] <= 1.0 and 0.0 <= cell["nmi"] <= 1.0
    # Recovery must never change answers.
    assert report["warm_cold_identical"] is True


def _assert_gate_fires(report: dict) -> None:
    """The floor gate is non-vacuous: a raised floor must trip it."""
    some_cell = next(iter(report["cells"].values()))
    pair = f"{some_cell['scenario']}|{some_cell['profile']}"
    raised = {pair: 1.01}  # above any reachable ARI
    violations = check_floor(report, raised)
    assert violations and pair in violations[0], violations


@pytest.mark.repro("E13")
def test_scenarios_quality_matrix_full():
    report = run_quality_matrix()
    _print_summary(report, "Quality matrix: all scenarios x profiles")
    write_report(report, REPORT_PATH)
    print(f"report written to {REPORT_PATH} ({len(report['cells'])} cells)")

    _assert_matrix_contract(report, n_pairs=len(SCENARIOS) * len(DEFAULT_PROFILES))
    violations = check_floor(report, load_floor(FLOOR_PATH))
    assert not violations, "\n".join(violations)
    # Every (scenario, profile) pair the matrix runs has a checked-in floor:
    # adding a scenario or profile without extending the floor file fails
    # here, not silently.
    floors = load_floor(FLOOR_PATH)
    for scenario in SCENARIOS:
        for profile in DEFAULT_PROFILES:
            assert f"{scenario}|{profile}" in floors, (scenario, profile)
    _assert_gate_fires(report)


@pytest.mark.repro("E13")
def test_scenarios_quality_smoke_small():
    """Reduced 2x2 matrix (the CI gate): same sizes, fewer pairs."""
    report = run_quality_matrix(
        scenarios=("lanes", "urban"), profiles=("clean", "gps_noise")
    )
    _print_summary(report, "Quality matrix smoke: 2 scenarios x 2 profiles")
    write_report(report, REPORT_PATH.with_name("BENCH_scenarios_smoke.json"))

    _assert_matrix_contract(report, n_pairs=4)
    violations = check_floor(report, load_floor(FLOOR_PATH))
    assert not violations, "\n".join(violations)
    _assert_gate_fires(report)
