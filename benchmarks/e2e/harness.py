"""Shared plumbing of the benchmark: clocks, samples, checks, environment.

Nothing here knows a workload.  The pieces:

* :class:`Samples` — timed samples of one metric, reported as median and
  quartiles with the sample count beside them;
* :class:`Ops` — every timed operation and every output check is one
  *attempted* operation; one that raises or fails its check is *failed*;
* :class:`CountingIO` — a count-only :class:`~repro.storage.faults.IOShim`
  (no clocks in it) for the untraced durable workloads;
* digests of result rows and clustering results, the environment block,
  peak RSS and the scratch-store directory.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.storage.faults import IOShim

import spec

clock = time.perf_counter


class Samples:
    """Timed samples of one quantity."""

    def __init__(self, values: list[float] | None = None) -> None:
        self.values: list[float] = list(values or [])

    def add(self, value: float) -> None:
        """Record one sample."""
        self.values.append(value)

    def extend(self, other: "Samples") -> None:
        """Record every sample of ``other``."""
        self.values.extend(other.values)

    def timed(self, fn: Callable[[], object]):
        """Run ``fn``, record how long it took, return its result."""
        start = clock()
        result = fn()
        self.add(clock() - start)
        return result

    def __len__(self) -> int:
        return len(self.values)

    @property
    def median(self) -> float:
        """The median sample."""
        return statistics.median(self.values)

    @property
    def total(self) -> float:
        """The sum of the samples."""
        return sum(self.values)

    def quartiles(self) -> tuple[float, float]:
        """First and third quartile (the single sample twice when n = 1)."""
        if len(self.values) < 2:
            return self.values[0], self.values[0]
        q1, _, q3 = statistics.quantiles(self.values, n=4)
        return q1, q3

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile ``p`` in (0, 100]."""
        ordered = sorted(self.values)
        rank = max(1, -(-len(ordered) * p // 100))
        return ordered[int(rank) - 1]


def metric(name: str, value: float, samples: Samples | None = None, scale: float = 1.0) -> dict:
    """One metric record: value, unit, and the samples behind it.

    ``samples`` (scaled by ``scale`` into the metric's unit) gives the
    count and the quartiles; a value that is not a median of samples — a
    count, a ratio of sums — is reported with ``n = 1``.
    """
    record = {"value": value, "unit": spec.unit_of(name), "n": 1, "q1": value, "q3": value}
    if samples is not None and len(samples):
        q1, q3 = samples.quartiles()
        record.update(n=len(samples), q1=q1 * scale, q3=q3 * scale)
    return record


def ratio_note(numerator: Samples, denominator: Samples) -> str | None:
    """The honesty rule for ratios of two timed quantities.

    A ratio whose operands' quartile ranges overlap is not a measured
    difference; the caller prints the note instead of a speed-up.
    """
    n1, n3 = numerator.quartiles()
    d1, d3 = denominator.quartiles()
    if n1 <= d3 and d1 <= n3:
        return "no measurable difference (quartile ranges overlap)"
    return None


class Ops:
    """Attempted and failed operations of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def timed(self, label: str, fn: Callable[[], object]) -> tuple[float, object]:
        """Run one operation; returns ``(seconds, result)``.

        An exception counts the operation as failed and yields ``None`` —
        the run goes on so the failure is reported beside the numbers
        instead of hiding them.
        """
        self.attempted += 1
        start = clock()
        try:
            result = fn()
        except Exception:
            self.failed += 1
            self.failures.append(f"{label}: {traceback.format_exc(limit=3).strip()}")
            return clock() - start, None
        return clock() - start, result

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        """Count one output check as an operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"check {label} failed{': ' + detail if detail else ''}")
        return ok


class CountingIO(IOShim):
    """Counts the mutating OS calls the storage layer makes.  No clocks."""

    def __init__(self) -> None:
        self.write_calls = 0
        self.write_bytes = 0
        self.fsync_calls = 0
        self.replace_calls = 0

    def write(self, fh, data: bytes) -> None:
        self.write_calls += 1
        self.write_bytes += len(data)
        super().write(fh, data)

    def fsync(self, fh) -> None:
        self.fsync_calls += 1
        super().fsync(fh)

    def fsync_dir(self, path) -> None:
        self.fsync_calls += 1
        super().fsync_dir(path)

    def replace(self, src, dst) -> None:
        self.replace_calls += 1
        super().replace(src, dst)


def keep_freed_memory() -> bool:
    """Tell glibc's allocator to keep freed memory instead of returning it.

    An S2T call on 20 k points frees and re-faults ~600 MB of pages with the
    default trim/mmap thresholds; in the microVM sandbox those 150 k minor
    faults cost ~10 % of the call and vary with the host's memory pressure,
    which made run-to-run spread 3-4x wider than the compute itself.  The
    setting is inherited by forked pool workers.  Returns whether it took
    (``False`` on a libc without ``mallopt``; the run goes on, noisier).
    """
    m_trim_threshold, m_top_pad, m_mmap_threshold = -1, -2, -3
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    return all([
        mallopt(m_mmap_threshold, 32 << 20),
        mallopt(m_trim_threshold, 1 << 30),
        mallopt(m_top_pad, 256 << 20),
    ])


def rows_digest(rows: list[dict] | None) -> str:
    """Digest of a statement's result rows, as the client saw them."""
    return hashlib.sha1(json.dumps(rows, sort_keys=True, default=str).encode()).hexdigest()


def result_digest(result) -> str:
    """Digest of a :class:`~repro.s2t.result.ClusteringResult`'s memberships."""
    def key(sub):
        return [*sub.parent_key, sub.start_idx, sub.end_idx]

    body = {
        "clusters": [
            [key(c.representative), sorted(key(m) for m in c.members)] for c in result.clusters
        ],
        "outliers": sorted(key(o) for o in result.outliers),
    }
    return hashlib.sha1(json.dumps(body).encode()).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KB


def directory_bytes(path: Path) -> int:
    """Total size of the regular files under ``path``."""
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def shm_segments() -> set[str]:
    """Names of the POSIX shared-memory segments currently on the host."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def leaked_shm_segments(before: set[str], grace: float = 5.0) -> set[str]:
    """Segments that appeared since ``before`` and stay.

    Another process's live segments (a second benchmark run beside this
    one) look like leaks for as long as its call lasts, so a suspect is
    only reported once it has outlived ``grace`` seconds.
    """
    suspects = shm_segments() - before
    deadline = clock() + grace
    while suspects and clock() < deadline:
        time.sleep(0.05)
        suspects &= shm_segments()
    return suspects


@contextmanager
def scratch(workload: str) -> Iterator[Path]:
    """A scratch directory for stores, inside the checkout, removed at exit."""
    root = spec.OUT / f"tmp-{workload}-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    try:
        yield root
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    # Read the ref by hand: the benchmark starts no process it does not need,
    # and the driver's checkout is not a git repository at all.
    git = spec.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref:"):
            return (git / head.split(" ", 1)[1]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def available_cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def environment(seed: int, seconds: float, smoke: bool, malloc_tuned: bool) -> dict:
    """The environment block every result file carries."""
    return {
        "malloc_keeps_freed_memory": malloc_tuned,
        "nproc": available_cpus(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "argv": sys.argv[1:],
    }
