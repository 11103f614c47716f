#!/usr/bin/env python3
"""The repository's benchmark: one command, five workloads, every layer.

    python3 benchmarks/e2e/run.py                        # all workloads
    python3 benchmarks/e2e/run.py --workload qut_progressive --seed 2
    python3 benchmarks/e2e/run.py --trace                # per-layer numbers
    python3 benchmarks/e2e/run.py --smoke                # seconds, not minutes
    python3 benchmarks/e2e/run.py --repeat 3 --out A.json   # a set for compare.py

Every workload runs in a fresh child process of its own, so no workload sees
another's caches, pool or peak memory, and this process stays behind as the
child's supervisor: it adopts whatever the child leaves running (pool
workers after a crash, ``multiprocessing``'s resource tracker, which only
ends once its parent has) and does not return before each has ended.  Each run
prints every metric by name with its unit, checks the program's outputs and
ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics of ``BENCHMARK.json`` with tracing off, its per-layer
metrics with ``--trace``.  The exit code is 1 when any operation or check
failed.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

# A run that has not ended by then is killed (the driver allows 180 s); what
# a finished run left behind gets REAP_GRACE_S to end by itself first.
RUN_TIMEOUT_S = 170.0
REAP_GRACE_S = 5.0
PR_SET_CHILD_SUBREAPER = 36


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--in-process", action="store_true",
                        help="run the workload in this process, unsupervised (what the supervisor starts)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed script (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: the traced run that yields the per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload when running all of them")
    parser.add_argument("--out", type=Path, default=None,
                        help="where the all-workload run writes its result set")
    return parser.parse_args(argv)


def print_metrics(workload: str, records: dict[str, dict], notes: list[str]) -> None:
    """Every metric by name, with its unit, sample count and quartiles."""
    for name, rec in records.items():
        spread = f"  n={rec['n']} q1={rec['q1']:.6g} q3={rec['q3']:.6g}" if rec["n"] > 1 else ""
        print(f"{workload:16s} {name:36s} {rec['value']:>14.6g} {rec['unit']}{spread}")
    for note in notes:
        print(f"{workload:16s} note: {note}")


def run_one(args: argparse.Namespace) -> int:
    """Run one workload in this process; returns the exit code."""
    import spec
    from harness import environment, keep_freed_memory, metric, peak_rss_mb, scratch
    from workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else float(spec.run_seconds())
    malloc_tuned = keep_freed_memory()
    notes: list[str] = []
    extra: dict = {}
    with scratch(args.workload) as tmp:
        run = Run(args.workload, args.seed, seconds, args.smoke, tmp)
        if args.trace:
            import tracing

            records, extra = tracing.TRACED[args.workload](run, notes)
            wanted = spec.per_layer()
        else:
            records = WORKLOADS[args.workload](run)
            wanted = spec.end_to_end()
    if not args.trace:
        records["peak_rss_mb"] = metric("peak_rss_mb", peak_rss_mb())
        records["failed_ops_share"] = metric(
            "failed_ops_share", run.ops.failed / max(run.ops.attempted, 1)
        )
    missing = sorted(set(wanted) - set(records))
    if missing:
        raise SystemExit(f"{args.workload}: metrics not emitted: {missing}")

    print_metrics(args.workload, records, notes)
    for failure in run.ops.failures:
        print(f"{args.workload:16s} FAILED {failure}", file=sys.stderr)
    result = {
        "workload": args.workload,
        "trace": bool(args.trace),
        "environment": environment(args.seed, seconds, args.smoke, malloc_tuned),
        "correct": run.ops.failed == 0,
        "attempted": run.ops.attempted,
        "failed": run.ops.failed,
        "failures": run.ops.failures,
        "metrics": records,
        **extra,
    }
    spec.OUT.mkdir(exist_ok=True)
    kind = "trace" if args.trace else "result"
    (spec.OUT / f"{kind}-{args.workload}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": records[n]["value"], "unit": records[n]["unit"]} for n in wanted},
    }))
    return 0 if result["correct"] else 1


def workload_argv(args: argparse.Namespace, workload: str) -> list[str]:
    """The arguments of one supervised run of ``workload``."""
    argv = ["--workload", workload, "--seed", str(args.seed), "--trace", str(args.trace)]
    if args.seconds is not None:
        argv += ["--seconds", str(args.seconds)]
    if args.smoke:
        argv.append("--smoke")
    return argv


def supervise(argv: list[str]) -> int:
    """Run one workload in a child process; return once no process of it is left.

    This process makes itself the *child subreaper*, so every descendant the
    child orphans is handed to it instead of to init, and ``waitpid(-1)``
    failing with ``ECHILD`` means exactly "nothing I started still exists".
    The child leads a session of its own, so stragglers can be killed as one
    group once the grace period is over.
    """
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    child = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--in-process", *argv], start_new_session=True
    )
    code = 3
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py {' '.join(argv)}: no result after {RUN_TIMEOUT_S:.0f} s, killed", file=sys.stderr)
    finally:
        reap_session(child)
        for store in (HERE / "out").glob(f"tmp-*-{child.pid}"):  # scratch of a killed run
            shutil.rmtree(store, ignore_errors=True)
    return code if code >= 0 else 128 - code  # killed by a signal: the shell's 128 + signal


def reap_session(child: subprocess.Popen) -> None:
    """Wait until the child and every descendant it orphaned have ended.

    Whoever is still there after a grace period gets SIGTERM, then SIGKILL.
    SIGTERM first because the resource tracker ignores it: the workers die,
    the tracker sees its pipe close, unlinks the shared-memory segments of
    the dead run and ends by itself.
    """
    escalation = [signal.SIGTERM, signal.SIGKILL]
    if child.poll() is None:  # timed out or interrupted: no grace for a run without a result
        os.killpg(child.pid, escalation.pop(0))
    deadline = time.monotonic() + REAP_GRACE_S
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if escalation and time.monotonic() > deadline:
            try:
                os.killpg(child.pid, escalation.pop(0))
            except ProcessLookupError:
                pass
            deadline = time.monotonic() + REAP_GRACE_S
        time.sleep(0.005)


def run_all(args: argparse.Namespace) -> int:
    """Run every workload ``--repeat`` times, each in a fresh child process."""
    import spec

    kind = "trace" if args.trace else "result"
    runs: dict[str, list[dict]] = {w: [] for w in spec.WORKLOADS}
    worst = 0
    for _ in range(args.repeat):
        for workload in spec.WORKLOADS:
            code = supervise(workload_argv(args, workload))
            worst = max(worst, code)
            if code in (0, 1):
                runs[workload].append(json.loads((spec.OUT / f"{kind}-{workload}.json").read_text()))
    out = args.out or spec.OUT / f"{kind}s.json"
    out.write_text(json.dumps({"trace": bool(args.trace), "runs": runs}, indent=1) + "\n")
    print(f"wrote {out}")
    return worst


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"{SRC}/repro not found: run from a checkout of the repository", file=sys.stderr)
        return 2
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    if args.in_process:
        return run_one(args)
    # The driver may end a run with SIGTERM: leave through supervise()'s finally.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    return supervise(workload_argv(args, args.workload)) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
