"""Smoke test of the benchmark: every workload and metric it declares is emitted.

Runs ``run.py --smoke`` (all five workloads, each in its own subprocess) once
untraced and once traced, side by side, and holds the output against
``BENCHMARK.json`` and ``spec``.  Sizes are tiny (at most 40 trajectories, 3
timed operations), so the numbers mean nothing; names, units, checks and
clean-up are what is asserted.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
from harness import shm_segments  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Result sets of one untraced and one traced smoke run of every workload."""
    out = tmp_path_factory.mktemp("e2e")
    before = shm_segments()
    procs = {
        trace: subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", str(trace),
             "--out", str(out / f"set{trace}.json")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for trace in (0, 1)
    }
    sets = {}
    for trace, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, f"run.py --smoke --trace {trace} failed:\n{stdout}\n{stderr}"
        sets[trace] = json.loads((out / f"set{trace}.json").read_text())
    return {"sets": sets, "out": out, "leaked": shm_segments() - before}


def test_benchmark_json_matches_the_instrument():
    contract = spec.contract()
    assert contract["paths"] == ["benchmarks/e2e"]
    assert contract["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [w["name"] for w in contract["workloads"]] == spec.WORKLOADS
    assert set(spec.EXPECT) == set(spec.WORKLOADS) == set(spec.FULL) == set(spec.SMOKE)
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    names = [*spec.end_to_end(), *spec.DETAIL, *spec.per_layer()]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names + spec.WORKLOADS)
    assert spec.EXACT <= set(names)
    for sizes in spec.SMOKE.values():
        assert sizes.trajectories <= 40 and sizes.ops <= 3 * 5


def test_every_workload_emits_every_end_to_end_metric(smoke):
    runs = smoke["sets"][0]["runs"]
    assert list(runs) == spec.WORKLOADS
    for workload, (run,) in runs.items():
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1, run["failures"]
        expected = set(spec.end_to_end()) | {
            name for name, meta in spec.DETAIL.items() if workload in meta["workloads"]
        }
        assert set(run["metrics"]) == expected
        for name, record in run["metrics"].items():
            assert record["unit"] == spec.unit_of(name)
            assert record["n"] >= 1 and record["q1"] <= record["q3"]
            if name in spec.end_to_end():
                assert record["value"] > 0, f"{workload} {name} must never read 0"
        assert {"nproc", "cpu_model", "python", "numpy", "git_sha", "seed"} <= set(run["environment"])


def test_traced_run_emits_every_per_layer_metric(smoke):
    for workload, (run,) in smoke["sets"][1]["runs"].items():
        assert run["correct"], run["failures"]
        assert set(run["metrics"]) == set(spec.per_layer())
        assert run["spans"] and {"name", "layer", "start", "end", "parent", "workload", "op"} <= set(run["spans"][0])
        dominant = max(run["layer_share"], key=run["layer_share"].get)
        assert dominant == spec.EXPECT[workload]["dominant"]


def test_nothing_is_left_behind(smoke):
    assert not smoke["leaked"], f"shared-memory segments left behind: {smoke['leaked']}"
    assert not list(spec.OUT.glob("tmp-*")), "a scratch store outlived its run"


def test_compare_accepts_a_set_against_itself(smoke):
    for trace in (0, 1):
        path = str(smoke["out"] / f"set{trace}.json")
        done = subprocess.run(
            [sys.executable, str(HERE / "compare.py"), path, path], capture_output=True, text=True
        )
        assert done.returncode == 0, done.stdout + done.stderr
        assert "regressed" not in done.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory with only BENCHMARK.json and the benchmark: no result, exit != 0."""
    shutil.copy(spec.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "s2t_batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
