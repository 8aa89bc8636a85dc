"""The ``service_mixed`` workload: ``hummer serve`` under a closed loop of clients.

The server runs as a subprocess (``python -m repro.cli serve --port 0
--data-dir <dir>``) with its default settings.  One client repeats one
cycle back to back (a closed loop; its only think time is the speed
sample it takes before each request):

    create tenant · upload two small CSVs · create session · session status ·
    run to completion · download the result · one FUSE BY query · stats ·
    list sources · delete tenant

Every cycle checks that the downloaded result equals an in-process
``HumMer.fuse`` over the same CSV texts, and that the query answer equals an
in-process ``HumMer.query``.  The CSVs come from a pool of generated
datasets, so quality is scored over the whole pool.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from harness import (
    FUSE_BY_QUERY,
    SRC,
    WORK_DIR,
    RunResult,
    SpeedMeter,
    cluster_scores,
    fused_accuracy,
    median,
    row_order_matches,
)
from layers import averaged, put_layer_metrics, totals_of
from spans import SpanRecorder, children_of, self_times

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
POOL = 10
ENTITIES = 15
TINY_POOL = 2
TINY_ENTITIES = 8
BOOTS = 7
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
REQUEST_TIMEOUT_S = 60.0
ALIASES = ("EE_Students", "CS_Students")

Interval = Tuple[float, float]


# -- the server process ------------------------------------------------------------


class Server:
    """One ``hummer serve`` subprocess."""

    def __init__(self, data_dir: str, span_path: Optional[str] = None):
        os.makedirs(data_dir, exist_ok=True)
        self.data_dir = data_dir
        serve_args = ["serve", "--port", "0", "--data-dir", data_dir]
        if span_path is None:
            command = [sys.executable, "-m", "repro.cli", *serve_args]
        else:
            command = [sys.executable, os.path.join(BENCH_DIR, "traced_serve.py"),
                       span_path, *serve_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        self.log_path = data_dir.rstrip("/") + ".log"
        self._log = open(self.log_path, "wb")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log, env=env,
        )
        try:
            self.port = self._wait_listening(started + BOOT_TIMEOUT_S)
            status, _, _ = request(self.port, "GET", "/health")
            if status != 200:
                raise RuntimeError(f"service /health answered {status}")
        except BaseException:
            self.stop()
            raise
        self.boot = (started, time.perf_counter())

    def _wait_listening(self, deadline: float) -> int:
        stream = self.process.stdout
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise RuntimeError("service did not announce its port in time")
            readable, _, _ = select.select([stream], [], [], remaining)
            if not readable:
                continue
            line = stream.readline().decode("utf-8", "replace")
            if not line:
                raise RuntimeError(f"service exited during start-up (see {self.log_path})")
            if line.startswith("listening on http://"):
                return int(line.rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        """The server's resident-memory high-water mark so far.

        Read from ``/proc``: the ``ru_maxrss`` that ``wait4`` reports would
        be the benchmark's own peak, which a spawned child inherits until
        it execs.
        """
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line for the service process")

    def stop(self) -> None:
        """Interrupt the server and reap it."""
        process = self.process
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()
        self._log.close()


def request(port: int, method: str, path: str, body: Any = None) -> Tuple[int, bytes, Interval]:
    """(status, body, (start, end)) of one request on a fresh connection."""
    started = time.perf_counter()
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        payload = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if payload is not None else {}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        data = response.read()
        return response.status, data, (started, time.perf_counter())
    finally:
        connection.close()


def directory_bytes(path: str) -> int:
    total = 0
    for directory, _, files in os.walk(path):
        for name in files:
            try:
                total += os.stat(os.path.join(directory, name)).st_size
            except FileNotFoundError:
                pass
    return total


# -- inputs and their in-process references ----------------------------------------


@dataclass
class PoolEntry:
    csv: Dict[str, str]
    expected_result_csv: str
    expected_query_rows: Any


def build_pool(seed: int, tiny: bool, result: RunResult) -> List[PoolEntry]:
    """Generated CSV pairs plus in-process reference answers; scores quality."""
    from repro import HumMer
    from repro.datagen.corruptor import CorruptionConfig
    from repro.datagen.scenarios import students_scenario
    from repro.engine.io.csv_source import relation_from_csv_text, relation_to_csv_text

    pool: List[PoolEntry] = []
    true_positives = predicted = actual = 0
    accuracies: List[float] = []
    for index in range(TINY_POOL if tiny else POOL):
        dataset = students_scenario(
            entity_count=TINY_ENTITIES if tiny else ENTITIES,
            corruption=CorruptionConfig.low(),
            seed=seed * 100 + index,
        )
        texts = {alias: relation_to_csv_text(dataset.sources[alias]) for alias in ALIASES}
        hummer = HumMer()
        for alias in ALIASES:
            hummer.register(alias, relation_from_csv_text(texts[alias], name=alias))
        fused = hummer.fuse(list(ALIASES))
        answer = hummer.query(FUSE_BY_QUERY)
        pool.append(PoolEntry(
            csv=texts,
            expected_result_csv=relation_to_csv_text(fused.relation),
            expected_query_rows=json.loads(json.dumps([list(row) for row in answer.rows])),
        ))
        result.attempt(row_order_matches(fused.transformed, dataset.combined_row_origin()),
                       "transformed row order differs from combined_row_origin()")
        scores = cluster_scores(fused.detection.cluster_assignment, dataset)
        true_positives += scores.true_positives
        predicted += scores.true_positives + scores.false_positives
        actual += scores.true_positives + scores.false_negatives
        accuracies.append(fused_accuracy(fused.relation, dataset))
    precision = true_positives / predicted if predicted else 0.0
    recall = true_positives / actual if actual else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    result.put("dedup_f1", f1, "ratio", actual, precision=precision, recall=recall)
    result.put("fused_accuracy", sum(accuracies) / len(accuracies), "ratio", len(accuracies))
    return pool


# -- the closed loop -----------------------------------------------------------------


@dataclass
class LoopStats:
    reads: List[Interval] = field(default_factory=list)
    writes: List[Interval] = field(default_factory=list)
    others: List[Interval] = field(default_factory=list)  # session runs and queries
    fusions: List[Interval] = field(default_factory=list)
    step_overheads_ms: List[float] = field(default_factory=list)
    journal_bytes_per_write: List[float] = field(default_factory=list)
    requests: int = 0
    completed: int = 0
    rejected: int = 0
    errors_5xx: int = 0
    cycles: int = 0
    attempts: List[Tuple[bool, str]] = field(default_factory=list)


class CycleFailed(Exception):
    pass


class Client:
    """The closed-loop client; samples machine speed before each request."""

    def __init__(self, server: Server, pool: List[PoolEntry], stats: LoopStats,
                 meter: Optional[SpeedMeter] = None):
        self.server = server
        self.pool = pool
        self.stats = stats
        self.meter = meter

    def call(self, method: str, path: str, body: Any = None, expect: int = 200,
             kind: Optional[str] = None) -> Tuple[bytes, Interval]:
        if self.meter is not None:
            self.meter.sample_before()
        stats = self.stats
        stats.requests += 1
        status, data, interval = request(self.server.port, method, path, body)
        if status in (409, 429):
            stats.rejected += 1
        elif status >= 500:
            stats.errors_5xx += 1
        if status != expect:
            stats.attempts.append((False, f"{method} {path} answered {status}, expected {expect}"))
            raise CycleFailed()
        stats.completed += 1
        stats.attempts.append((True, ""))
        {"read": stats.reads, "write": stats.writes}.get(kind, stats.others).append(interval)
        return data, interval

    def cycle(self, number: int) -> None:
        entry = self.pool[number % len(self.pool)]
        tenant = f"bench{number}"
        base = f"/tenants/{tenant}"
        self.call("POST", "/tenants", {"tenant": tenant}, 201, "write")
        try:
            self._cycle_body(entry, tenant, base)
        finally:
            self.call("DELETE", base, None, 200, "write")
        self.stats.cycles += 1

    def _cycle_body(self, entry: PoolEntry, tenant: str, base: str) -> None:
        for alias in ALIASES:
            self.call("POST", f"{base}/sources",
                      {"alias": alias, "format": "csv", "data": entry.csv[alias]}, 201, "write")
        started = time.perf_counter()
        data, _ = self.call("POST", f"{base}/sessions", {"aliases": list(ALIASES)}, 201, "write")
        session = json.loads(data)["session"]
        self.call("GET", f"{base}/sessions/{session}", None, 200, "read")
        data, (run_start, run_end) = self.call(
            "POST", f"{base}/sessions/{session}/advance", {"to": "done"}, 200
        )
        status = json.loads(data)
        step_s = sum(report["seconds"] for report in status["step_reports"].values())
        result_csv, _ = self.call("GET", f"{base}/sessions/{session}/result?format=csv",
                                  None, 200, "read")
        self.stats.fusions.append((started, time.perf_counter()))
        self.stats.step_overheads_ms.append((run_end - run_start - step_s) * 1000.0)
        self.stats.attempts.append((
            result_csv.decode("utf-8") == entry.expected_result_csv,
            "downloaded result differs from the in-process HumMer.fuse",
        ))
        data, _ = self.call("POST", f"{base}/query", {"statement": FUSE_BY_QUERY}, 200)
        self.stats.attempts.append((
            json.loads(data)["rows"] == entry.expected_query_rows,
            "FUSE BY answer differs from the in-process HumMer.query",
        ))
        self.call("GET", "/stats", None, 200, "read")
        self.call("GET", f"{base}/sources", None, 200, "read")
        journaled = self._tenant_bytes(tenant)
        # tenant create, two uploads, session create, run
        self.stats.journal_bytes_per_write.append(journaled / 5.0)

    def _tenant_bytes(self, tenant: str) -> int:
        """Bytes under the tenant's directory, wherever the service keeps it."""
        prefix = f"{tenant}-"
        total = 0
        for directory, subdirectories, _ in os.walk(self.server.data_dir):
            for name in list(subdirectories):
                if name.startswith(prefix):
                    total += directory_bytes(os.path.join(directory, name))
                    subdirectories.remove(name)
        return total


def closed_loop(server: Server, pool: List[PoolEntry], seconds: float,
                meter: Optional[SpeedMeter] = None) -> Tuple[LoopStats, Interval, int]:
    """One untimed warm-up cycle, then back-to-back cycles for *seconds*.

    Returns the loop's stats (warm-up checks included), its interval and
    the number of cycles including the warm-up.
    """
    warm = LoopStats()
    try:
        Client(server, pool, warm).cycle(len(pool))
    except CycleFailed:
        pass
    stats = LoopStats(attempts=warm.attempts)
    client = Client(server, pool, stats, meter)
    started = time.perf_counter()
    deadline = started + seconds
    number = 0
    while time.perf_counter() < deadline:
        try:
            client.cycle(number)
        except CycleFailed:
            pass
        except Exception as exc:  # the loop must report, not die
            stats.attempts.append((False, f"cycle raised {exc!r}"))
        number += 1
    return stats, (started, time.perf_counter()), stats.cycles + warm.cycles


# -- runs ----------------------------------------------------------------------------


class ServiceRun:
    def __init__(self, seed: int, seconds: int, trace: bool, tiny: bool):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tiny = tiny
        self.result = RunResult("service_mixed")
        self.work = os.path.join(WORK_DIR, f"service-{os.getpid()}")
        self._boots = 0

    def data_dir(self) -> str:
        self._boots += 1
        return os.path.join(self.work, f"data{self._boots}")

    def record(self, stats: LoopStats) -> None:
        for ok, what in stats.attempts:
            self.result.attempt(ok, what)

    def run(self) -> RunResult:
        os.makedirs(self.work, exist_ok=True)
        try:
            pool = build_pool(self.seed, self.tiny, self.result)
            if self.trace:
                self.run_traced(pool)
            else:
                self.run_untraced(pool)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        self.result.finish_reliability()
        return self.result

    def run_untraced(self, pool: List[PoolEntry]) -> None:
        meter = SpeedMeter()
        boots: List[Interval] = []
        while len(boots) < BOOTS:
            meter.sample_before()
            if boots:
                server.stop()
            server = Server(self.data_dir())
            boots.append(server.boot)
        try:
            stats, _, _ = closed_loop(server, pool, self.seconds, meter)
            peak_mb = server.peak_rss_mb()
        finally:
            server.stop()
        self.record(stats)

        def normalized(intervals):
            return [meter.normalized(start, end) for start, end in intervals]

        put = self.result.put
        put("setup_s", median(normalized(boots)), "s", len(boots))
        put("fusion_s", median(normalized(stats.fusions)), "s", len(stats.fusions))
        self.result.put_timings("read", stats.reads, meter, 1000.0, "ms")
        self.result.put_timings("write", stats.writes, meter, 1000.0, "ms")
        busy_s = sum(normalized(stats.reads + stats.writes + stats.others))
        put("requests_per_s", (len(stats.reads) + len(stats.writes) + len(stats.others)) / busy_s,
            "1/s", stats.completed)
        put("peak_rss_mb", peak_mb, "MB")
        self.result.details.update(
            cycles=stats.cycles, requests=stats.requests, rejected=stats.rejected,
            errors_5xx=stats.errors_5xx,
            raw_median_s={
                name: median([end - start for start, end in intervals])
                for name, intervals in (
                    ("setup", boots), ("fusion", stats.fusions),
                    ("read", stats.reads), ("write", stats.writes),
                )
            },
        )

    def run_traced(self, pool: List[PoolEntry]) -> None:
        meter = SpeedMeter()
        server = Server(self.data_dir())
        try:
            untraced, _, _ = closed_loop(server, pool, self.seconds / 2.0, meter)
        finally:
            server.stop()
        span_path = os.path.join(WORK_DIR, "spans-service_mixed.jsonl")
        server = Server(self.data_dir(), span_path=span_path)
        try:
            traced, _, cycles = closed_loop(server, pool, self.seconds / 2.0, meter)
        finally:
            server.stop()
        self.record(untraced)
        self.record(traced)
        spans = SpanRecorder.load(span_path)
        by_parent = children_of(spans)
        selfs = self_times(spans, by_parent)
        negative = [span.name for span in spans if selfs[span.span_id] < -0.0005]
        self.result.attempt(not negative, f"negative self time in server spans: {negative[:3]}")
        put_layer_metrics(
            self.result,
            reps=[averaged(totals_of(spans), cycles)],
            setups=[],
            untraced_fusion_s=median([meter.normalized(*i) for i in untraced.fusions] or [0.0]),
            traced_fusion_s=median([meter.normalized(*i) for i in traced.fusions] or [0.0]),
            service={
                "step_overhead_ms": median(untraced.step_overheads_ms or [0.0]),
                "step_overhead_samples": len(untraced.step_overheads_ms),
                "journal_bytes_per_write": median(untraced.journal_bytes_per_write or [0.0]),
                "journal_samples": len(untraced.journal_bytes_per_write),
                "rejected": untraced.rejected + traced.rejected,
                "errors_5xx": untraced.errors_5xx + traced.errors_5xx,
                "requests": untraced.requests + traced.requests,
            },
        )
        self.result.details.update(spans=len(spans), traced_cycles=cycles)


def run(seed: int, seconds: int, trace: bool, tiny: bool) -> RunResult:
    return ServiceRun(seed, seconds, trace, tiny).run()
