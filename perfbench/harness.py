"""Shared pieces of the HumMer benchmark: statistics, inputs, quality, output.

Every workload module returns a :class:`RunResult`; :func:`emit` prints it
as a human-readable table, one provenance line, and the final JSON line the
benchmark contract asks for (``correct``, ``attempted``, ``failed``,
``metrics``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import bisect
import platform
import resource
import signal
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
BENCHMARK_FILE = os.path.join(ROOT, "BENCHMARK.json")

#: Percentiles a tail may be reported at; the highest one with at least
#: ``TAIL_BEYOND`` samples above it is used.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10

#: The FUSE BY statement of the ``fuseby_key`` workload (and the one query
#: of every ``service_mixed`` cycle).
FUSE_BY_QUERY = (
    "SELECT name, RESOLVE(age, max), RESOLVE(semester, max), "
    "RESOLVE(email, longest), RESOLVE(major, vote), RESOLVE(university, vote) "
    "FUSE FROM EE_Students, CS_Students FUSE BY (name)"
)


# -- statistics --------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """(value, percentile) at the highest ladder step with ≥10 samples beyond it."""
    count = len(values)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100.0 * count))
        if count - rank >= TAIL_BEYOND:
            return percentile(values, pct), pct
    return max(values), 100.0


def peak_rss_mb_self() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- machine speed ---------------------------------------------------------------

#: Size of :func:`calibration_unit`, and the unit's duration on the
#: reference machine (a 2-vCPU KVM guest, Xeon, Python 3.11) in its
#: fastest phase.
CALIBRATION_ROWS = 1000
CALIBRATION_REFERENCE_S = 0.0012
SPEED_INTERVAL_S = 0.1
#: Samples :meth:`SpeedMeter.sample_before` takes.  They also keep the core
#: busy for a few milliseconds after the caller idled: with one ~1.5 ms
#: sample after the probe's pacing sleep, one write in ten ran 2-10x slower.
SAMPLES_BEFORE = 3
SPEED_WINDOW_PAD_S = 0.05


def calibration_unit() -> int:
    """A fixed slice of work: build small rows of tuples and render them as text.

    Allocation and string formatting are what the measured operations do
    most.  Over eight minutes of machine phases on a 2-vCPU VM, the ratio of
    a fusion, a CSV read or a CSV write to this unit varied 4-7% between
    windows of a few seconds, against 9-13% for a unit of dict and str ops
    plus reads scattered over a 3.6 MB heap, and 11-16% for raw times.
    """
    rows = [(index, "name%d" % index, index * 0.5, None) for index in range(CALIBRATION_ROWS)]
    return len("\n".join(",".join("" if value is None else str(value) for value in row)
                          for row in rows))


class SpeedMeter:
    """Tracks the interpreter speed of the machine while a run measures.

    On a small shared VM, co-tenant load comes in phases of seconds to
    minutes that slow every operation 1.5-2x, often for a whole run, so raw
    wall times spread far more between runs than any bound a regression
    check can use.  The meter times :func:`calibration_unit` every
    ``SPEED_INTERVAL_S``, and :meth:`normalized` rescales an interval's
    wall time to the reference speed: it drops the calibration time that
    fell inside the interval, then multiplies by ``CALIBRATION_REFERENCE_S``
    / (median calibration time near the interval).  Raw times are kept
    beside the normalized ones in the provenance line.

    Inside ``with meter:`` a SIGALRM handler in the main thread takes the
    samples, even in the middle of a long operation of the program under
    test, on the very core that runs it.  Callers that time short
    operations also call :meth:`sample_before` right before each one, which
    gives every operation a dense local speed estimate; the service client,
    whose program runs in another process, relies on those samples alone.
    """

    def __init__(self):
        self.starts: List[float] = []
        self.ends: List[float] = []
        self._previous = None
        self._sampling = False

    def sample(self) -> None:
        self._sampling = True
        try:
            started = time.perf_counter()
            calibration_unit()
            self.starts.append(started)
            self.ends.append(time.perf_counter())
        finally:
            self._sampling = False

    def sample_before(self) -> None:
        """Samples right before a short timed operation."""
        for _ in range(SAMPLES_BEFORE):
            self.sample()

    def _tick(self, signum, frame) -> None:
        if not self._sampling:  # a tick inside a sample would inflate it
            self.sample()

    def __enter__(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SPEED_INTERVAL_S, SPEED_INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """Reference speed ÷ the speed measured around ``[start, end]``."""
        low = bisect.bisect_left(self.starts, start - SPEED_WINDOW_PAD_S)
        high = bisect.bisect_right(self.starts, end + SPEED_WINDOW_PAD_S)
        if high - low < 3:  # too few samples: widen to the nearest ones
            low, high = max(0, low - 3), min(len(self.starts), high + 3)
        if high <= low:
            raise RuntimeError("no speed samples near the measured interval")
        durations = [self.ends[i] - self.starts[i] for i in range(low, high)]
        return CALIBRATION_REFERENCE_S / statistics.median(durations)

    def normalized(self, start: float, end: float) -> float:
        """Seconds ``[start, end]`` would take at the reference speed."""
        busy = 0.0
        for index in range(bisect.bisect_left(self.ends, start), len(self.starts)):
            if self.starts[index] >= end:
                break
            busy += min(self.ends[index], end) - max(self.starts[index], start)
        return (end - start - busy) * self.factor(start, end)


# -- results -----------------------------------------------------------------------


@dataclass
class RunResult:
    """What one workload run measured."""

    workload: str
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    details: Dict[str, Any] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str, samples: int = 1, **extra) -> None:
        entry = {"value": float(value), "unit": unit, "samples": int(samples)}
        entry.update(extra)
        self.metrics[name] = entry

    def put_timings(self, prefix: str, intervals: Sequence[Tuple[float, float]],
                    meter: SpeedMeter, unit_scale: float, unit: str) -> None:
        """``<prefix>_p50_<unit>`` and ``<prefix>_tail_<unit>`` of normalized intervals."""
        normalized = [meter.normalized(start, end) * unit_scale for start, end in intervals]
        self.put(f"{prefix}_p50_{unit}", median(normalized), unit, len(intervals))
        value, pct = tail(normalized)
        self.put(f"{prefix}_tail_{unit}", value, unit, len(intervals), percentile=pct)

    def attempt(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def finish_reliability(self) -> None:
        """``ok_ratio``: completed operations ÷ attempted (1.0 = nothing failed)."""
        attempted = max(1, self.attempted)
        self.put("ok_ratio", 1.0 - self.failed / attempted, "ratio", attempted,
                 failed=self.failed)


# -- provenance ---------------------------------------------------------------------


def source_digest() -> str:
    """sha256 over every file under ``src/`` (path and bytes)."""
    digest = hashlib.sha256()
    for directory, subdirectories, files in os.walk(SRC):
        subdirectories[:] = sorted(d for d in subdirectories if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, ROOT).encode("utf-8"))
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip() or "unknown"


def provenance(seed: int, seconds: int, trace: bool, scale: str) -> Dict[str, Any]:
    return {
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "scale": scale,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "tail_rule": f"highest of {list(TAIL_LADDER)} with >= {TAIL_BEYOND} samples beyond",
    }


# -- quality against the generator's ground truth -----------------------------------


def row_order_matches(transformed, origin: Sequence[Tuple[str, int]]) -> bool:
    """Whether *transformed* lists its rows in ``combined_row_origin()`` order."""
    if len(transformed) != len(origin):
        return False
    sources = transformed.column("sourceID")
    return all(source == alias for source, (alias, _) in zip(sources, origin))


def cluster_scores(assignment: Sequence[int], dataset):
    """Pairwise :class:`PrecisionRecall` of a cluster assignment vs. ground truth."""
    from repro.evaluation.dedup_metrics import evaluate_clusters

    truth = dataset.truth.duplicate_pairs_within(dataset.combined_row_origin())
    return evaluate_clusters(assignment, truth)


def fused_accuracy(relation, dataset) -> float:
    """Share of filled fused cells equal to the generator's clean value."""
    from repro.evaluation.fusion_metrics import evaluate_fusion

    return evaluate_fusion(relation, dataset.truth.clean_records, "name", "name").correctness


# -- output -------------------------------------------------------------------------


def load_benchmark() -> Dict[str, Any]:
    with open(BENCHMARK_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def emit(results: List[RunResult], names: Sequence[str], info: Dict[str, Any]) -> None:
    """Print the table, the provenance line and the final JSON line.

    *names* are the metric names the contract asks for (end-to-end without
    tracing, per-layer with it).  A single workload reports them under
    their own names; ``--workload all`` prefixes each with the workload.
    """
    metrics: Dict[str, Dict[str, Any]] = {}
    for result in results:
        print(f"== {result.workload}")
        for name in names:
            entry = result.metrics[name]
            extra = ""
            if "percentile" in entry:
                extra = f"  (p{entry['percentile']:g})"
            print(f"  {name:<32} {entry['value']:>14.6g} {entry['unit']:<6} "
                  f"n={entry['samples']}{extra}")
            key = name if len(results) == 1 else f"{result.workload}.{name}"
            metrics[key] = {"value": entry["value"], "unit": entry["unit"]}
        for failure in result.failures:
            print(f"  FAILED: {failure}")
    print(json.dumps({
        "provenance": info,
        "runs": [
            {
                "workload": result.workload,
                "samples": {name: result.metrics[name]["samples"] for name in names},
                "tails": {
                    name: entry["percentile"]
                    for name, entry in result.metrics.items()
                    if "percentile" in entry
                },
                "details": result.details,
                "failures": result.failures,
            }
            for result in results
        ],
    }, default=str))
    print(json.dumps({
        "correct": all(result.correct for result in results),
        "attempted": sum(result.attempted for result in results),
        "failed": sum(result.failed for result in results),
        "metrics": metrics,
    }))

