"""Console entry points (see ``[project.scripts]`` in ``pyproject.toml``).

* ``repro-sql`` — load a dataset (CSV file or a built-in demo scenario) and
  run SQL statements over a public-API connection, one-shot or as a REPL.
  Statements may use ``:name`` parameters (bound from ``--param NAME=VALUE``
  or the REPL's ``\\set NAME VALUE``) and ``EXPLAIN <stmt>`` renders the
  logical plan plus cached-artifact info instead of executing.
* ``repro-datagen`` — generate a seeded synthetic scenario (optionally
  degraded through a profile spec) as a points CSV plus ground-truth
  labels JSON.
* ``repro-bench-scenarios`` — run the cross-scenario quality matrix
  (scenarios x profiles x S2T partition counts x warm/cold engines), write
  ``BENCH_scenarios.json`` and exit nonzero when any cell falls below the
  ``quality_floor.json`` regression floor.
* ``repro-fsck`` — verify (and with ``--repair`` recover) a durable engine's
  storage directory: manifest CRCs, per-page partition checksums, record
  counts, orphaned crash debris.  Exits nonzero while unrepaired errors
  remain.

The project's invariants that no linter states — every write through the
I/O shim, frozen plans, deterministic answer paths, scoped shared memory,
typed storage errors — are tier-1 tests (``tests/pins.txt`` names them).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

__all__ = [
    "main_sql",
    "main_fsck",
    "main_datagen",
    "main_bench_scenarios",
]


def _scenario_factories():
    from repro.datagen import (
        aircraft_scenario,
        lane_scenario,
        maritime_scenario,
        orbit_scenario,
        urban_scenario,
    )

    return {
        "aircraft": aircraft_scenario,
        "lanes": lane_scenario,
        "urban": urban_scenario,
        "maritime": maritime_scenario,
        "orbit": orbit_scenario,
    }


def _load_demo_engine(dataset: str, scenario: str, n: int, seed: int):
    from repro.core.engine import HermesEngine

    mod, _truth = _scenario_factories()[scenario](n_trajectories=n, seed=seed)
    engine = HermesEngine.in_memory()
    engine.load_mod(dataset, mod)
    return engine


def _print_rows(rows: list[dict]) -> None:
    from repro.eval.harness import format_table

    if rows:
        print(format_table(rows))
    else:
        print("(no rows)")


def _coerce_param(text: str) -> object:
    """``--param`` values: numbers become numbers, everything else a string.

    Quoting keeps a numeric-looking value a string: ``--param o="'123'"``
    (or ``\\set o '123'`` in the REPL) binds the string ``"123"``.
    """
    if len(text) >= 2 and text[0] == text[-1] and text[0] in ("'", '"'):
        return text[1:-1]
    try:
        # int first: round-tripping through float would corrupt integers
        # above 2**53 (large object/timestamp IDs).
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def main_sql(argv: list[str] | None = None) -> int:
    """Run SQL statements against a CSV dataset or a demo scenario."""
    parser = argparse.ArgumentParser(
        prog="repro-sql",
        description="SQL front-end of the S2T/QuT reproduction engine.",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--csv", help="load this CSV file as dataset DATASET")
    source.add_argument(
        "--demo",
        choices=("aircraft", "lanes", "urban", "maritime", "orbit"),
        default="aircraft",
        help="generate a demo scenario as dataset DATASET (default: aircraft)",
    )
    parser.add_argument("--dataset", default="demo", help="dataset name (default: demo)")
    parser.add_argument("--n", type=int, default=40, help="demo scenario size")
    parser.add_argument("--seed", type=int, default=7, help="demo scenario seed")
    parser.add_argument(
        "--disk",
        metavar="DIR",
        help="open a durable on-disk engine under DIR instead of :memory:",
    )
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help=(
            "bind :NAME placeholders in the statements (repeatable); numeric "
            "values coerce to numbers — quote to force a string: o=\"'123'\""
        ),
    )
    parser.add_argument(
        "statements",
        nargs="*",
        help="SQL statements to execute; none starts a REPL on stdin",
    )
    args = parser.parse_args(argv)

    from repro.api import Connection
    from repro.core.engine import HermesEngine

    from repro.storage.errors import StorageCorruptionError

    if args.disk:
        engine = HermesEngine.on_disk(args.disk)
    else:
        engine = None
    try:
        if args.csv:
            engine = engine or HermesEngine.in_memory()
            engine.load_csv(args.dataset, args.csv)
        elif engine is not None and engine.resolve(args.dataset):
            pass  # recovered from disk; keep it
        else:
            demo = _load_demo_engine(args.dataset, args.demo, args.n, args.seed)
            if engine is None:
                engine = demo
            else:
                engine.load_mod(args.dataset, demo.get_mod(args.dataset))
    except StorageCorruptionError as exc:  # withheld as damaged: never replaced
        print(f"error: {exc}", file=sys.stderr)
        return 1
    conn = Connection(engine=engine)

    bound_params: dict[str, object] = {}
    for item in args.param:
        name, sep, value = item.partition("=")
        if not sep or not name:
            print(f"error: --param expects NAME=VALUE, got {item!r}", file=sys.stderr)
            return 2
        bound_params[name] = _coerce_param(value)

    corruption_seen = False

    def run(statement: str) -> None:
        from repro.sql.plan import ExplainPlan, bind_for_execution
        from repro.sql.planner import plan_sql

        nonlocal corruption_seen
        try:
            plan = plan_sql(statement)
            # Bind :NAME placeholders from the --param / \set table; the
            # policy itself (EXPLAIN may stay unbound, everything else must
            # bind fully) is the shared bind_for_execution.  EXPLAIN binds
            # only when every declared name is available, so a partially
            # populated table still renders the plan instead of erroring.
            names = {p.name for p in plan.parameters() if p.name is not None}
            supplied = {k: v for k, v in bound_params.items() if k in names}
            if isinstance(plan, ExplainPlan) and not names <= set(supplied):
                params = None
            else:
                params = supplied or None
            plan = bind_for_execution(plan, params)
            _print_rows(conn.cursor().execute_plan(plan).fetchall())
        except StorageCorruptionError as exc:
            # Corruption must not exit 0: scripts piping repro-sql need to
            # notice that the store itself — not the statement — is bad.
            corruption_seen = True
            print(f"error: {exc}", file=sys.stderr)
        except Exception as exc:  # surface engine/SQL errors without a stack trace
            print(f"error: {exc}", file=sys.stderr)

    if args.statements:
        for statement in args.statements:
            run(statement)
        return 1 if corruption_seen else 0

    print(
        f"dataset {args.dataset!r} loaded; enter SQL (empty line quits).\n"
        "  \\set NAME VALUE binds :NAME in later statements; EXPLAIN <stmt> shows the plan"
    )
    for line in sys.stdin:
        line = line.strip()
        if not line:
            break
        if line.startswith("\\set "):
            parts = line.split(maxsplit=2)
            if len(parts) != 3:
                print("error: \\set expects NAME VALUE", file=sys.stderr)
                continue
            bound_params[parts[1]] = _coerce_param(parts[2])
            continue
        run(line)
    return 1 if corruption_seen else 0


def main_fsck(argv: list[str] | None = None) -> int:
    """Verify (and optionally repair) a durable engine's storage directory."""
    parser = argparse.ArgumentParser(
        prog="repro-fsck",
        description=(
            "Check an on-disk S2T/QuT engine store for corruption: manifest "
            "CRCs, per-page partition checksums, committed record counts and "
            "orphaned crash debris.  --repair quarantines what cannot be "
            "trusted (under <DIR>/_quarantine/) and degrades datasets "
            "instead of letting them answer wrong."
        ),
    )
    parser.add_argument("directory", help="the engine storage directory to check")
    parser.add_argument(
        "--repair",
        action="store_true",
        help="act on the findings instead of only reporting them",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the full report as JSON on stdout",
    )
    args = parser.parse_args(argv)

    from repro.storage.fsck import fsck_store

    report = fsck_store(args.directory, repair=args.repair)
    if args.as_json:
        print(
            json.dumps(
                {
                    "root": report.root,
                    "datasets": report.datasets,
                    "clean": report.clean,
                    "issues": report.as_rows(),
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for issue in report.issues:
            line = f"{issue.severity}: [{issue.kind}] {issue.path}: {issue.detail}"
            if issue.repaired:
                line += f" (repaired: {issue.action})"
            print(line)
        print(report.summary())
    return 0 if report.clean else 1


def main_datagen(argv: list[str] | None = None) -> int:
    """Generate a seeded synthetic scenario, optionally degraded, as CSV + labels."""
    from repro.datagen.profiles import PROFILES

    parser = argparse.ArgumentParser(
        prog="repro-datagen",
        description=(
            "Seeded synthetic-scenario generator: writes a points CSV "
            "(obj_id,traj_id,x,y,t — loadable via repro-sql --csv or "
            "engine.load_csv) plus the per-sample ground-truth labels as "
            "JSON.  Same seed, same bytes."
        ),
    )
    parser.add_argument(
        "scenario",
        nargs="?",
        choices=("aircraft", "lanes", "urban", "maritime", "orbit"),
        help="which scenario to generate (omit with --list)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_only",
        help="list available scenarios and degradation profiles, then exit",
    )
    parser.add_argument("--n", type=int, default=None, help="trajectory count override")
    parser.add_argument("--samples", type=int, default=None, help="samples per trajectory")
    parser.add_argument("--seed", type=int, default=0, help="generator seed (default: 0)")
    parser.add_argument(
        "--profile",
        default="clean",
        help=(
            "degradation profile spec, e.g. 'dropout:fraction=0.4' or "
            "'gps_noise+jitter' (default: clean)"
        ),
    )
    parser.add_argument("--out", default=None, metavar="CSV", help="points CSV path")
    parser.add_argument(
        "--truth", default=None, metavar="JSON", help="ground-truth labels path"
    )
    args = parser.parse_args(argv)

    if args.list_only:
        print("scenarios: " + ", ".join(sorted(_scenario_factories())))
        print("profiles:  " + ", ".join(sorted(PROFILES)))
        print("profile spec grammar: name[:key=value[,key=value]] composed with '+'")
        return 0
    if args.scenario is None:
        parser.error("a scenario name is required (or --list)")

    from repro.datagen import parse_profile
    from repro.hermes.io import write_csv

    try:
        profile = parse_profile(args.profile)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    kwargs: dict = {"seed": args.seed}
    if args.n is not None:
        kwargs["n_trajectories"] = args.n
    if args.samples is not None:
        kwargs["n_samples"] = args.samples
    mod, truth = _scenario_factories()[args.scenario](**kwargs)
    mod, truth = profile.apply(mod, truth, seed=args.seed + 1)

    flows = truth.flow_ids()
    summary = {
        "scenario": args.scenario,
        "profile": profile.name,
        "seed": args.seed,
        "trajectories": len(mod),
        "points": mod.total_points,
        "flows": len(flows),
    }
    if args.out:
        write_csv(mod, args.out)
        summary["out"] = args.out
    if args.truth:
        labels = {
            f"{key[0]}|{key[1]}": [lbl for lbl in truth.labels_for(key)]
            for key in (traj.key for traj in mod)
        }
        Path(args.truth).write_text(
            json.dumps({"scenario": summary["scenario"], "seed": args.seed, "labels": labels},
                       indent=2, sort_keys=True)
            + "\n"
        )
        summary["truth"] = args.truth
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def main_bench_scenarios(argv: list[str] | None = None) -> int:
    """Run the cross-scenario quality matrix and assert the ARI floors."""
    from repro.eval.quality import (
        DEFAULT_ENGINE_MODES,
        DEFAULT_PARTITION_COUNTS,
        DEFAULT_PROFILES,
        SCENARIOS,
    )

    parser = argparse.ArgumentParser(
        prog="repro-bench-scenarios",
        description=(
            "Sweep scenarios x degradation profiles x S2T partition counts x "
            "warm/cold engines, computing ARI/NMI against "
            "ground truth per cell; writes the BENCH_scenarios.json matrix "
            "(a pure function of its seeds) and exits nonzero when any "
            "(scenario, profile) cell falls below quality_floor.json."
        ),
    )
    parser.add_argument(
        "--scenarios", nargs="+", choices=tuple(SCENARIOS), default=tuple(SCENARIOS)
    )
    parser.add_argument("--profiles", nargs="+", default=list(DEFAULT_PROFILES))
    parser.add_argument(
        "--partitions", type=int, nargs="+", default=list(DEFAULT_PARTITION_COUNTS)
    )
    parser.add_argument(
        "--engines", nargs="+", default=list(DEFAULT_ENGINE_MODES),
        choices=("warm", "cold"),
    )
    parser.add_argument("--seed", type=int, default=2018, help="base seed of the sweep")
    parser.add_argument("--out", default="BENCH_scenarios.json")
    parser.add_argument(
        "--floor",
        default="quality_floor.json",
        help="floor file to assert against (default: quality_floor.json)",
    )
    parser.add_argument(
        "--no-floor",
        action="store_true",
        help="skip the floor assertion (report-only run)",
    )
    args = parser.parse_args(argv)

    from repro.eval.harness import format_table
    from repro.eval.quality import check_floor, load_floor, run_quality_matrix, write_report

    report = run_quality_matrix(
        scenarios=tuple(args.scenarios),
        profiles=tuple(args.profiles),
        partition_counts=tuple(args.partitions),
        engine_modes=tuple(args.engines),
        base_seed=args.seed,
    )
    rows: list[dict[str, object]] = []
    by_pair: dict[str, list[dict]] = {}
    for cell in report["cells"].values():
        by_pair.setdefault(f"{cell['scenario']}|{cell['profile']}", []).append(cell)
    for pair in sorted(by_pair):
        cells = by_pair[pair]
        rows.append(
            {
                "scenario|profile": pair,
                "cells": len(cells),
                "min_ari": round(min(c["ari"] for c in cells), 4),
                "mean_ari": round(sum(c["ari"] for c in cells) / len(cells), 4),
                "mean_nmi": round(sum(c["nmi"] for c in cells) / len(cells), 4),
            }
        )
    print(format_table(rows, title="Cross-scenario quality matrix"))
    path = write_report(report, args.out)
    print(f"report written to {path} ({len(report['cells'])} cells)", file=sys.stderr)

    if not report["warm_cold_identical"]:
        print("error: cold-recovered ARI diverged from warm", file=sys.stderr)
        return 1
    if args.no_floor:
        return 0
    floor_path = Path(args.floor)
    if not floor_path.exists():
        print(f"warning: floor file {floor_path} not found; gate skipped", file=sys.stderr)
        return 0
    violations = check_floor(report, load_floor(floor_path))
    for violation in violations:
        print(f"FLOOR VIOLATION: {violation}", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":  # pragma: no cover - direct execution helper
    sys.exit(main_sql())
