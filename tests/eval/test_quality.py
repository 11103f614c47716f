"""Tests for the cross-scenario quality harness (``repro.eval.quality``).

Pins the three properties the BENCH_scenarios matrix is trusted for:

* every cell reproduces exactly from its recorded seed (equal dicts),
* the floor gate actually fires — an artificially raised floor turns into
  violations and a nonzero ``repro-bench-scenarios`` exit code,
* the SQL surface computes the *same* cells: ``SELECT S2T(..., strategy,
  jobs, shards)`` on the same degraded dataset matches the Python harness
  bit for bit.
"""

import json

import pytest

from repro.cli import main_bench_scenarios
from repro.core.engine import HermesEngine
from repro.eval.metrics import clustering_quality
from repro.eval.quality import (
    DEFAULT_ENGINE_MODES,
    DEFAULT_PROFILES,
    DEFAULT_SHARD_COUNTS,
    DEFAULT_STRATEGIES,
    SCENARIOS,
    cell_key,
    cell_seed,
    check_floor,
    generate_cell_data,
    load_floor,
    run_cell,
    run_quality_matrix,
    write_report,
)

from tests.conftest import run_sql


@pytest.fixture(scope="module")
def small_matrix(tmp_path_factory):
    """One scenario x two profiles over the full strategy/shards/engine axes."""
    work = tmp_path_factory.mktemp("quality")
    return run_quality_matrix(
        scenarios=("lanes",), profiles=("clean", "dropout"), work_dir=work
    )


class TestCellSeeds:
    def test_deterministic_and_pair_specific(self):
        assert cell_seed(1, "lanes", "clean") == cell_seed(1, "lanes", "clean")
        assert cell_seed(1, "lanes", "clean") != cell_seed(1, "lanes", "dropout")
        assert cell_seed(1, "lanes", "clean") != cell_seed(2, "lanes", "clean")

    def test_generate_cell_data_reproducible(self):
        import numpy as np

        mod_a, truth_a = generate_cell_data("urban", "gps_noise", seed=123)
        mod_b, truth_b = generate_cell_data("urban", "gps_noise", seed=123)
        for key in mod_a.keys():
            np.testing.assert_array_equal(mod_a.get(key).xs, mod_b.get(key).xs)
            np.testing.assert_array_equal(
                truth_a.labels_for(key), truth_b.labels_for(key)
            )


class TestMatrixReport:
    def test_full_cross_product_with_seeds(self, small_matrix):
        expected = (
            2 * len(DEFAULT_STRATEGIES) * len(DEFAULT_SHARD_COUNTS) * len(DEFAULT_ENGINE_MODES)
        )
        assert len(small_matrix["cells"]) == expected
        for profile in ("clean", "dropout"):
            for strategy in DEFAULT_STRATEGIES:
                for shards in DEFAULT_SHARD_COUNTS:
                    for mode in DEFAULT_ENGINE_MODES:
                        key = cell_key("lanes", profile, strategy, shards, mode)
                        cell = small_matrix["cells"][key]
                        assert cell["seed"] == cell_seed(
                            small_matrix["base_seed"], "lanes", profile
                        )

    def test_warm_cold_identical(self, small_matrix):
        assert small_matrix["warm_cold_identical"] is True

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            run_quality_matrix(scenarios=("atlantis",))

    @pytest.mark.parametrize("n_cells", [3])
    def test_cells_reproduce_from_recorded_seed(self, small_matrix, tmp_path, n_cells):
        """Re-running any cell with only its recorded axes + seed yields the
        recorded cell, key for key — a cell holds nothing that varies between
        runs, which is what makes the checked-in matrix byte-diffable."""
        cells = list(small_matrix["cells"].values())
        picked = cells[:: max(1, len(cells) // n_cells)][:n_cells]
        for cell in picked:
            rerun = run_cell(
                cell["scenario"],
                cell["profile"],
                cell["strategy"],
                cell["shards"],
                cell["engine"],
                seed=cell["seed"],
                work_dir=tmp_path,
            )
            assert rerun == cell


class TestFloorGate:
    def test_roundtrip_and_violation(self, small_matrix, tmp_path):
        floor_path = tmp_path / "floor.json"
        floor_path.write_text(
            json.dumps({"floors": {"lanes|clean": 0.0, "lanes|dropout": 1.01}})
        )
        floors = load_floor(floor_path)
        violations = check_floor(small_matrix, floors)
        assert len(violations) == 1 and violations[0].startswith("lanes|dropout")

    def test_pairs_without_floor_are_skipped(self, small_matrix):
        assert check_floor(small_matrix, {"orbit|clean": 0.99}) == []

    def test_malformed_floor_file_rejected(self, tmp_path):
        bad = tmp_path / "floor.json"
        bad.write_text(json.dumps({"minimums": {}}))
        with pytest.raises(ValueError):
            load_floor(bad)

    def test_checked_in_floor_covers_full_matrix(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        floors = load_floor(root / "quality_floor.json")
        for scenario in SCENARIOS:
            for profile in DEFAULT_PROFILES:
                assert f"{scenario}|{profile}" in floors

    def test_write_report_round_trips(self, small_matrix, tmp_path):
        path = write_report(small_matrix, tmp_path / "report.json")
        assert json.loads(path.read_text())["cells"] == small_matrix["cells"]


class TestBenchScenariosCLI:
    def test_exit_zero_without_floor(self, tmp_path, capsys):
        rc = main_bench_scenarios(
            [
                "--scenarios", "lanes", "--profiles", "clean",
                "--strategies", "batched", "--shards", "1", "--engines", "warm",
                "--out", str(tmp_path / "out.json"), "--no-floor",
            ]
        )
        assert rc == 0
        assert (tmp_path / "out.json").exists()

    def test_exit_nonzero_on_raised_floor(self, tmp_path, capsys):
        """The regression gate: a floor above the reachable ARI fails the run."""
        floor_path = tmp_path / "floor.json"
        floor_path.write_text(json.dumps({"floors": {"lanes|clean": 1.01}}))
        rc = main_bench_scenarios(
            [
                "--scenarios", "lanes", "--profiles", "clean",
                "--strategies", "batched", "--shards", "1", "--engines", "warm",
                "--out", str(tmp_path / "out.json"), "--floor", str(floor_path),
            ]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert "FLOOR VIOLATION" in captured.out + captured.err


    def test_retired_strategy_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main_bench_scenarios(["--strategies", "indexed"])
        assert exc.value.code == 2
        assert "invalid choice: 'indexed'" in capsys.readouterr().err


class TestSQLPathParity:
    """`SELECT S2T(...)` computes the same matrix cells as the harness."""

    @pytest.mark.parametrize("strategy", DEFAULT_STRATEGIES)
    @pytest.mark.parametrize("shards", [1, 2])
    def test_sql_cells_match_harness_bit_for_bit(self, strategy, shards):
        seed = cell_seed(20_18, "lanes", "dropout")
        expected = run_cell("lanes", "dropout", strategy, shards, "warm", seed=seed)

        mod, truth = generate_cell_data("lanes", "dropout", seed=seed)
        engine = HermesEngine.in_memory()
        engine.load_mod("d", mod)
        shards_sql = "NULL" if shards == 1 else str(shards)
        run_sql(engine, f"SELECT S2T(d, NULL, NULL, NULL, '{strategy}', 1, {shards_sql})")
        quality = clustering_quality(engine.last_result("d"), truth)
        engine.close()

        assert quality.ari == expected["ari"]
        assert quality.nmi == expected["nmi"]
        assert quality.purity == expected["purity"]
