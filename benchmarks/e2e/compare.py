#!/usr/bin/env python3
"""Compare two result sets of the benchmark, metric by metric.

    python3 benchmarks/e2e/run.py --repeat 3 --out A.json     # e.g. the parent commit
    python3 benchmarks/e2e/run.py --repeat 3 --out B.json     # e.g. the change
    python3 benchmarks/e2e/compare.py A.json B.json

For every workload and every end-to-end metric it emits — the gated ones of
``BENCHMARK.json`` and the detail ones of ``spec.DETAIL`` — prints the two
medians over the sets' runs and one verdict:

``unchanged``   B is within the metric's bound of A;
``improved`` / ``regressed``   B is outside the bound, on the better / worse side;
``unresolved``  the run-to-run spread of either set (distance between its
                quartiles; within-run quartiles when the set holds one run)
                is wider than the bound, so the sets cannot tell.

Counts that must repeat exactly for a fixed seed (``spec.EXACT``) are also
compared value by value when both sets used the same seed; with traced sets
(``run.py --trace``) that is the whole comparison, because per-layer timings
have no bound.  Exit code 1 when a metric regressed or an exact count moved.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spec  # noqa: E402


def spread(records: list[dict]) -> float:
    """Distance between the quartiles: across runs, or within the only run."""
    values = [r["value"] for r in records]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return q3 - q1
    return records[0]["q3"] - records[0]["q1"]


def verdict(meta: dict, a: list[dict], b: list[dict]) -> tuple[float, float, str]:
    """Medians of both sets and the verdict for one metric."""
    med_a = statistics.median(r["value"] for r in a)
    med_b = statistics.median(r["value"] for r in b)
    bound = meta["bound"] if meta.get("abs") else meta["bound"] * abs(med_a)
    if max(spread(a), spread(b)) > bound > 0:
        return med_a, med_b, "unresolved"
    delta = med_b - med_a
    if abs(delta) <= bound:
        return med_a, med_b, "unchanged"
    worse = delta > 0 if meta["better"] == "lower" else delta < 0
    return med_a, med_b, "regressed" if worse else "improved"


def seeds(runs: list[dict]) -> set[int]:
    return {r["environment"]["seed"] for r in runs}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    set_a, set_b = (json.loads(Path(p).read_text()) for p in argv)
    if set_a["trace"] != set_b["trace"]:
        print("one set is traced and the other is not", file=sys.stderr)
        return 2
    tables = {} if set_a["trace"] else {**spec.end_to_end(), **spec.DETAIL}
    failed = False
    for workload in spec.WORKLOADS:
        runs_a, runs_b = set_a["runs"].get(workload, []), set_b["runs"].get(workload, [])
        if not runs_a or not runs_b:
            print(f"{workload:16s} missing from one set")
            continue
        names = [n for n in runs_a[0]["metrics"] if n in runs_b[0]["metrics"]]
        for name in names:
            a = [r["metrics"][name] for r in runs_a]
            b = [r["metrics"][name] for r in runs_b]
            if name in tables:
                med_a, med_b, word = verdict(tables[name], a, b)
                change = (med_b - med_a) / med_a if med_a else 0.0
                print(f"{workload:16s} {name:24s} {med_a:12.6g} -> {med_b:12.6g} {a[0]['unit']:6s} "
                      f"{change:+7.2%}  {word}")
                failed |= word == "regressed"
            if name in spec.EXACT and seeds(runs_a) == seeds(runs_b) and len(seeds(runs_a)) == 1:
                values = {r["value"] for r in a + b}
                if len(values) > 1:
                    print(f"{workload:16s} {name:24s} exact count moved: {sorted(values)}")
                    failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
