"""The in-process workloads: ``allpairs_default``, ``token_3k``, ``fuseby_key``.

Each run generates the ``students`` scenario (``CorruptionConfig.low()``)
from the seed (for ``allpairs_default`` a pool of small datasets: one
dataset large enough to average out the input is too slow to repeat), then

1. sets up several times (one HumMer per dataset: construction,
   registration of fresh copies of the generated sources, and ``prepare()``
   where the workload is prepared) and reports the median as ``setup_s``;
2. repeats the fusion for three quarters of the time budget, cycling through
   the pool (``fusion_s``, the median; prepared workloads are warm because
   ``prepare()`` ran in set-up); each dataset's first ``content_digest()``
   must be reproduced by every later repetition on it, and its result is
   scored against the ground truth;
3. for the last quarter, ingests a small CSV source and then reads the fused
   results back as CSV text, a fixed number of times each, paced evenly
   (the write and read latencies).

Every timing is normalized to the reference interpreter speed by a
:class:`harness.SpeedMeter` whose samples interrupt steps 1-3.

With tracing, half the budget runs untraced and half with the layer spans
installed; the per-layer metrics come from the traced half.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass
from statistics import mean
from typing import Callable, Dict, List, Optional, Tuple

from harness import (
    FUSE_BY_QUERY,
    RunResult,
    cluster_scores,
    fused_accuracy,
    median,
    peak_rss_mb_self,
    row_order_matches,
    WORK_DIR,
    SpeedMeter,
)
from layers import check_self_times, put_layer_metrics, root_trees, totals_of
from spans import SpanRecorder, install_layer_spans, uninstall

#: Fixed sample count of the read/write probe (one read and one write each),
#: so the tail percentile (p90) is the same in every run.
PROBE_OPERATIONS = 200
#: Share of the run the probe is spread over (its operations are paced, so
#: the samples cover several of the machine's load phases, not one burst).
PROBE_SHARE = 1.0 / 4.0
PROBE_ALIAS = "bench_probe"
PROBE_ENTITIES = 15

Interval = Tuple[float, float]

MIN_SETUPS = 3
SETUP_BUDGET_S = 1.0
MAX_SETUPS = 200


@dataclass(frozen=True)
class InProcessSpec:
    entities: int
    tiny_entities: int
    make_config: Optional[Callable[[], object]]
    prepared: bool
    query: bool
    #: Datasets in the pool, each generated at ``entities`` from its own seed.
    datasets: int = 1


def _token_config():
    from repro import DedupConfig, FusionConfig, PrepareConfig

    return FusionConfig(dedup=DedupConfig(blocking="token"), prepare=PrepareConfig(mode="lazy"))


def _prepared_config():
    from repro import FusionConfig, PrepareConfig

    return FusionConfig(prepare=PrepareConfig(mode="lazy"))


#: Seed offset between the datasets of a pool.
DATASET_SEED_STEP = 1000

SPECS: Dict[str, InProcessSpec] = {
    # plain HumMer(): no blocking, serial scoring, transitive closure, no prepare.
    # One 150-entity dataset takes ~11 s, so a run timed one or two fusions,
    # and its pair count alone varies 7% from seed to seed; eight 40-entity
    # datasets give ~20 fusions a run and average the input over the pool.
    "allpairs_default": InProcessSpec(40, 20, None, prepared=False, query=False, datasets=8),
    "token_3k": InProcessSpec(3000, 60, _token_config, prepared=True, query=False),
    "fuseby_key": InProcessSpec(20000, 200, _prepared_config, prepared=True, query=True),
}


def _generate(entities: int, seed: int):
    from repro.datagen.corruptor import CorruptionConfig
    from repro.datagen.scenarios import students_scenario

    return students_scenario(entity_count=entities, corruption=CorruptionConfig.low(), seed=seed)


def _fresh_copy(relation):
    from repro.engine.relation import Relation

    return Relation(relation.schema, list(relation.rows), name=relation.name)


class InProcessRun:
    def __init__(self, name: str, seed: int, seconds: int, trace: bool, tiny: bool):
        self.name = name
        self.spec = SPECS[name]
        self.seconds = seconds
        self.trace = trace
        self.result = RunResult(name)
        #: Per dataset: (relation, PipelineResult or None, digest) of its first fusion.
        self.references: Dict[int, tuple] = {}
        entities = self.spec.tiny_entities if tiny else self.spec.entities
        self.datasets = [_generate(entities, seed + DATASET_SEED_STEP * index)
                         for index in range(self.spec.datasets)]
        self.aliases = list(self.datasets[0].sources)
        from repro.engine.io.csv_source import relation_to_csv_text

        probe = _generate(PROBE_ENTITIES, seed + 1).sources["EE_Students"]
        self.probe_text = relation_to_csv_text(probe)
        self.probe_rows = len(probe)
        self.result.details.update(
            entities=entities,
            tuples=[sum(len(relation) for relation in dataset.sources.values())
                    for dataset in self.datasets],
        )

    # -- the program under test ---------------------------------------------------

    def setup(self):
        """One set-up: ``(one HumMer per dataset, (start, end))``."""
        from repro import HumMer

        copies = [[_fresh_copy(relation) for relation in dataset.sources.values()]
                  for dataset in self.datasets]
        hummers = []
        started = time.perf_counter()
        for sources in copies:
            hummer = HumMer(config=self.spec.make_config() if self.spec.make_config else None)
            for alias, relation in zip(self.aliases, sources):
                hummer.register(alias, relation)
            if self.spec.prepared:
                hummer.prepare()
            hummers.append(hummer)
        return hummers, (started, time.perf_counter())

    def fuse(self, hummer):
        """One complete fusion: ``(fused relation, PipelineResult or None)``."""
        if self.spec.query:
            return hummer.query(FUSE_BY_QUERY), None
        pipeline_result = hummer.fuse(self.aliases)
        return pipeline_result.relation, pipeline_result

    # -- phases (each returns the (start, end) of every timed operation) -----------

    def setups(self):
        intervals: List[Interval] = []
        hummers = None
        while len(intervals) < MIN_SETUPS or (
            sum(end - start for start, end in intervals) < SETUP_BUDGET_S
            and len(intervals) < MAX_SETUPS
        ):
            hummers = None
            gc.collect()
            hummers, interval = self.setup()
            intervals.append(interval)
        return hummers, intervals

    def timed_fusions(self, hummers, budget_s: float, root=None) -> List[Interval]:
        """Cycle the fusion through the pool until *budget_s* is spent and each dataset ran.

        The first repetition ever run on a dataset is its reference: its
        result is scored against the ground truth, and every later
        repetition on that dataset must reproduce its ``content_digest()``
        (warm equals cold).
        """
        intervals: List[Interval] = []
        deadline = time.perf_counter() + budget_s
        while True:
            index = len(intervals) % len(hummers)
            gc.collect()
            span = root.open("bench.fusion") if root is not None else None
            started = time.perf_counter()
            try:
                relation, pipeline_result = self.fuse(hummers[index])
            except Exception as exc:  # a failed fusion is a failed operation
                if span is not None:
                    root.close(span)
                self.result.attempt(False, f"fusion raised {exc!r}")
                return intervals
            ended = time.perf_counter()
            if span is not None:
                root.close(span)
                span.attrs["wall_s"] = ended - started
            intervals.append((started, ended))
            reference = self.references.setdefault(
                index, (relation, pipeline_result, relation.content_digest()))
            self.result.attempt(relation.content_digest() == reference[2],
                                "repetition digest differs from the first repetition")
            if ended >= deadline and len(intervals) >= len(hummers):
                return intervals

    def probe(self, hummer, relations, budget_s: float, meter: SpeedMeter):
        """Ingest a small source, then read the results back, each paced over half of *budget_s*.

        A write parses a small CSV and registers it (the source is dropped
        again, untimed); a read renders the fused *relations* as CSV text.  The
        two run in separate halves so that no write starts in the cache a
        large read just churned.  A speed sample before every operation gives
        each of these short operations a dense local speed estimate, which
        keeps the tail of the normalized times from picking up estimation
        noise.
        """
        from repro.engine.io.csv_source import relation_from_csv_text, relation_to_csv_text

        expected = [relation_to_csv_text(relation) for relation in relations]

        def write():
            hummer.register(PROBE_ALIAS, relation_from_csv_text(self.probe_text, name=PROBE_ALIAS))

        def check_write(_):
            self.result.attempt(
                len(hummer.relation(PROBE_ALIAS)) == self.probe_rows, "probe source not ingested"
            )
            hummer.unregister(PROBE_ALIAS)

        def read():
            return [relation_to_csv_text(relation) for relation in relations]

        def check_read(text):
            self.result.attempt(text == expected, "result read-back differs")

        # The process also holds the generated dataset, its ground truth and
        # the reference result; a full collection over them would be charged
        # to whichever probe operation it lands in, and the p90 flipped
        # between runs with it.  Frozen, collections walk only what the
        # probe itself allocates.
        gc.collect()
        gc.freeze()
        try:
            writes = self._paced(write, check_write, budget_s / 2.0, meter)
            reads = self._paced(read, check_read, budget_s / 2.0, meter)
        finally:
            gc.unfreeze()
        return reads, writes

    @staticmethod
    def _paced(operation, check, budget_s: float, meter: SpeedMeter) -> List[Interval]:
        """Run *operation* ``PROBE_OPERATIONS`` times, evenly spread over *budget_s*."""
        intervals: List[Interval] = []
        phase_start = time.perf_counter()
        for index in range(PROBE_OPERATIONS):
            pause = phase_start + budget_s * index / PROBE_OPERATIONS - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            meter.sample_before()
            started = time.perf_counter()
            outcome = operation()
            intervals.append((started, time.perf_counter()))
            check(outcome)
        return intervals

    def quality(self, hummers) -> None:
        """``dedup_f1`` and ``fused_accuracy``, each the mean over the pool."""
        f1s, precisions, recalls, accuracies, rows, fused_rows = [], [], [], [], 0, 0
        for index, (hummer, dataset) in enumerate(zip(hummers, self.datasets)):
            relation, pipeline_result, _ = self.references[index]
            if pipeline_result is not None:
                transformed = pipeline_result.transformed
                assignment = pipeline_result.detection.cluster_assignment
            else:
                transformed = self._fuse_by_input(hummer)
                assignment = _assignment_by_key(transformed, "name")
            self.result.attempt(row_order_matches(transformed, dataset.combined_row_origin()),
                                "transformed row order differs from combined_row_origin()")
            scores = cluster_scores(assignment, dataset)
            f1s.append(scores.f1)
            precisions.append(scores.precision)
            recalls.append(scores.recall)
            accuracies.append(fused_accuracy(relation, dataset))
            rows += len(assignment)
            fused_rows += len(relation)
        self.result.put("dedup_f1", mean(f1s), "ratio", rows,
                        precision=mean(precisions), recall=mean(recalls))
        self.result.put("fused_accuracy", mean(accuracies), "ratio", fused_rows)

    def _fuse_by_input(self, hummer):
        """The outer union the FUSE BY query groups (steps 1–2b of the wizard)."""
        pipeline = hummer.pipeline()
        sources = pipeline.step_choose_sources(self.aliases)
        matching = pipeline.step_schema_matching(sources)
        return pipeline.step_transform(sources, matching)

    # -- runs -----------------------------------------------------------------------

    def run(self) -> RunResult:
        if self.trace:
            hummers, _ = self.setups()
            self.run_traced(hummers)
        else:
            self.run_timed()
        self.result.finish_reliability()
        return self.result

    def run_timed(self) -> None:
        probe_s = self.seconds * PROBE_SHARE
        with SpeedMeter() as meter:
            hummers, setups = self.setups()
            fusions = self.timed_fusions(hummers, self.seconds - probe_s)
            relations = [self.references[index][0] for index in range(len(hummers))]
            reads, writes = self.probe(hummers[0], relations, probe_s, meter)
        put = self.result.put

        def normalized(intervals):
            return [meter.normalized(start, end) for start, end in intervals]

        put("setup_s", median(normalized(setups)), "s", len(setups))
        put("fusion_s", median(normalized(fusions)), "s", len(fusions))
        self.result.put_timings("read", reads, meter, 1000.0, "ms")
        self.result.put_timings("write", writes, meter, 1000.0, "ms")
        operations = normalized(reads) + normalized(writes)
        put("requests_per_s", len(operations) / sum(operations), "1/s", len(operations))
        put("peak_rss_mb", peak_rss_mb_self(), "MB")
        self.result.details["raw_median_s"] = {
            name: median([end - start for start, end in intervals])
            for name, intervals in (
                ("setup", setups), ("fusion", fusions), ("read", reads), ("write", writes)
            )
        }
        self.quality(hummers)

    def run_traced(self, hummers) -> None:
        recorder = SpanRecorder(f"{self.name}-traced")
        with SpeedMeter() as meter:
            untraced = self.timed_fusions(hummers, self.seconds / 2.0)
            restore = install_layer_spans(recorder)
            try:
                for _ in range(MIN_SETUPS):
                    gc.collect()
                    span = recorder.open("bench.setup")
                    self.setup()
                    recorder.close(span)
                traced = self.timed_fusions(hummers, self.seconds / 2.0, root=recorder)
            finally:
                uninstall(restore)
        recorder.dump(os.path.join(WORK_DIR, f"spans-{self.name}.jsonl"))
        fusion_trees = root_trees(recorder.spans, "bench.fusion")
        for tree in fusion_trees:
            root = next(span for span in tree if span.parent is None)
            check_self_times(self.result, tree, root.attrs["wall_s"])
        orphans = [span.name for span in recorder.spans
                   if span.parent is None and span.name not in ("bench.fusion", "bench.setup")]
        self.result.attempt(not orphans, f"spans outside any benchmark root: {orphans[:3]}")
        put_layer_metrics(
            self.result,
            reps=[totals_of(tree) for tree in fusion_trees],
            setups=[totals_of(tree) for tree in root_trees(recorder.spans, "bench.setup")],
            untraced_fusion_s=median([meter.normalized(*interval) for interval in untraced]),
            traced_fusion_s=median([meter.normalized(*interval) for interval in traced]),
        )
        self.result.details["spans"] = len(recorder.spans)


def _assignment_by_key(relation, key: str) -> List[int]:
    """Group id per row, grouped by *key* exactly as the fusion operator does."""
    from repro.engine.operators.groupby import group_rows
    from repro.engine.schema import Column
    from repro.engine.types import DataType

    indexed = relation.with_column(Column("_bench_row", DataType.INTEGER), list(range(len(relation))))
    assignment = [0] * len(relation)
    for group_id, (_, rows) in enumerate(group_rows(indexed, [key])):
        for row in rows:
            assignment[row[-1]] = group_id
    return assignment


def run(name: str, seed: int, seconds: int, trace: bool, tiny: bool) -> RunResult:
    return InProcessRun(name, seed, seconds, trace, tiny).run()
