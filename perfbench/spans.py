"""Outside-in span recording for the traced benchmark run.

The recorder wraps the public entry points of each ``repro`` layer from the
benchmark's own code; the program itself is not instrumented.  Wrappers are
installed only in a traced process (:func:`install_layer_spans` returns the
undo list) and record one span per call: name, start, end, parent span, run
id and a dict of counters.  Spans stay in memory until the run ends.

A layer's *self time* is its span's duration minus the time its child spans
cover; :func:`layer_totals` folds one span tree into the per-layer figures
the benchmark reports.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "Span",
    "SpanRecorder",
    "install_layer_spans",
    "uninstall",
    "children_of",
    "self_times",
    "tree_of",
    "layer_totals",
]


@dataclass
class Span:
    """One recorded call."""

    span_id: int
    parent: Optional[int]
    name: str
    start_ns: int
    end_ns: int
    run_id: str
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    def as_dict(self) -> Dict[str, Any]:
        return {
            "id": self.span_id,
            "parent": self.parent,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "run": self.run_id,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        return cls(
            data["id"], data["parent"], data["name"], data["start_ns"],
            data["end_ns"], data["run"], data.get("attrs") or {},
        )


class SpanRecorder:
    """Nested spans on ``perf_counter_ns``, one parent stack per thread."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._ids_lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        with self._ids_lock:
            span_id = next(self._ids)
        span = Span(span_id, stack[-1] if stack else None, name, 0, 0, self.run_id)
        stack.append(span_id)
        span.start_ns = time.perf_counter_ns()
        return span

    def close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._stack().pop()
        self.spans.append(span)

    def call(self, name: str, function: Callable, *args, **kwargs):
        span = self.open(name)
        try:
            return function(*args, **kwargs), span
        finally:
            self.close(span)

    def iterate(self, name: str, iterator: Iterable) -> Iterator:
        """Yield from *iterator*, recording every ``next()`` as a span."""
        source = iter(iterator)
        while True:
            span = self.open(name)
            try:
                item = next(source)
            except StopIteration:
                return
            finally:
                self.close(span)
            yield item

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")

    @staticmethod
    def load(path: str) -> List[Span]:
        with open(path, encoding="utf-8") as handle:
            return [Span.from_dict(json.loads(line)) for line in handle if line.strip()]


# -- layer wrappers ------------------------------------------------------------------


def _wrap(restore, recorder, owner, attribute, name, annotate=None, dynamic_name=None):
    """Replace ``owner.attribute`` by a span-recording wrapper.

    *annotate(attrs, args, result)* runs after the span has closed, so the
    cost of reading counters is not charged to the layer.
    """
    original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        span_name = dynamic_name(args) if dynamic_name is not None else name
        result, span = recorder.call(span_name, original, *args, **kwargs)
        if annotate is not None:
            annotate(span.attrs, args, result)
        return result

    setattr(owner, attribute, wrapper)
    restore.append((owner, attribute, original))


def uninstall(restore: List[Tuple[Any, str, Any]]) -> None:
    """Undo :func:`install_layer_spans`."""
    for owner, attribute, original in reversed(restore):
        setattr(owner, attribute, original)
    restore.clear()


def install_layer_spans(recorder: SpanRecorder) -> List[Tuple[Any, str, Any]]:
    """Wrap the public entry points of every layer; returns the undo list.

    Span names are ``<layer>.<entry point>`` where the layer is the
    ``repro`` module the entry point belongs to.
    """
    import repro.core.pipeline as core_pipeline
    import repro.dedup.detector as dedup_detector
    import repro.fuseby.executor as fuseby_executor
    import repro.prepare.preparer as preparer_module
    from repro.core.fusion import FusionOperator
    from repro.core.session import FusionSession
    from repro.dedup.graphcluster import CLUSTERING_STRATEGIES
    from repro.dedup.pairs import CandidatePairGenerator
    from repro.engine.catalog import Catalog
    from repro.fuseby.planner import Planner
    from repro.hummer import HumMer
    from repro.matching.multi import MultiMatcher
    from repro.prepare.preparer import SourcePreparer

    restore: List[Tuple[Any, str, Any]] = []

    # facade and wizard steps (the spans every layer span nests under)
    _wrap(restore, recorder, HumMer, "fuse", "hummer.fuse")
    _wrap(restore, recorder, HumMer, "query", "hummer.query")
    _wrap(restore, recorder, HumMer, "prepare", "hummer.prepare")

    def step_counters(attrs, args, result):
        session = args[0]
        step = session.completed_steps[-1]
        payload = session.step_reports.get(step, {}).get("payload", {})
        for key in ("seed_candidates", "seed_cosines"):
            if key in payload:
                attrs[key] = payload[key]

    _wrap(
        restore, recorder, FusionSession, "advance", None,
        annotate=step_counters,
        dynamic_name=lambda args: f"session.{args[0].current_step}",
    )

    # repro.engine
    _wrap(restore, recorder, Catalog, "fetch_many", "engine.fetch_many")
    _wrap(restore, recorder, core_pipeline, "transform_sources", "engine.transform_sources")

    # repro.prepare
    def prepare_counters(attrs, args, result):
        attrs["reused"] = result.counters.total_reused
        attrs["rebuilt"] = result.counters.total_rebuilt

    _wrap(restore, recorder, SourcePreparer, "prepare", "prepare.prepare",
          annotate=prepare_counters)
    for build_function in (
        "build_token_postings", "build_seed_statistics",
        "build_source_profile", "build_field_corpus",
    ):
        _wrap(restore, recorder, preparer_module, build_function, "prepare.build")

    # repro.matching
    _wrap(restore, recorder, MultiMatcher, "match", "matching.match")

    # repro.dedup: blocking (lazy candidate iterator), filter + executor
    # scoring, classification, graph clustering
    original_candidates = CandidatePairGenerator.__dict__["candidate_indices"]

    @functools.wraps(original_candidates)
    def candidate_indices(self, relation):
        return recorder.iterate("dedup.blocking.next", original_candidates(self, relation))

    CandidatePairGenerator.candidate_indices = candidate_indices
    restore.append((CandidatePairGenerator, "candidate_indices", original_candidates))

    def filter_counters(attrs, args, result):
        statistics = args[0].statistics
        attrs["total_pairs"] = statistics.total_pairs
        attrs["candidates"] = statistics.blocking_candidates
        attrs["considered"] = statistics.considered
        attrs["pruned"] = statistics.pruned
        attrs["compared"] = statistics.compared

    _wrap(restore, recorder, CandidatePairGenerator, "score_pairs", "dedup.score_pairs",
          annotate=filter_counters)

    def classify_counters(attrs, args, result):
        attrs["compared"] = len(args[0])
        attrs["accepted"] = len(result.accepted_pairs(accept_unsure_by_default=True))

    _wrap(restore, recorder, dedup_detector, "classify_pairs", "dedup.classify",
          annotate=classify_counters)

    def cluster_counters(attrs, args, result):
        attrs["largest_cluster"] = result.report.largest_cluster

    for strategy in CLUSTERING_STRATEGIES.values():
        if "cluster" in strategy.__dict__:
            _wrap(restore, recorder, strategy, "cluster", "dedup.cluster",
                  annotate=cluster_counters)

    # repro.core
    _wrap(restore, recorder, core_pipeline, "find_conflicts", "core.find_conflicts")

    def fuse_counters(attrs, args, result):
        attrs["groups"] = result.output_tuple_count

    _wrap(restore, recorder, FusionOperator, "fuse", "core.fuse", annotate=fuse_counters)

    # repro.fuseby
    _wrap(restore, recorder, fuseby_executor, "parse_query", "fuseby.parse")
    _wrap(restore, recorder, Planner, "plan", "fuseby.plan")
    return restore


# -- span trees ------------------------------------------------------------------------


def children_of(spans: Iterable[Span]) -> Dict[Optional[int], List[Span]]:
    by_parent: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        by_parent.setdefault(span.parent, []).append(span)
    return by_parent


def tree_of(root: Span, by_parent: Dict[Optional[int], List[Span]]) -> List[Span]:
    """*root* and every span below it."""
    tree, pending = [], [root]
    while pending:
        span = pending.pop()
        tree.append(span)
        pending.extend(by_parent.get(span.span_id, ()))
    return tree


def self_times(tree: List[Span], by_parent: Dict[Optional[int], List[Span]]) -> Dict[int, float]:
    """Span id → seconds not covered by the span's children."""
    return {
        span.span_id: span.seconds
        - sum(child.seconds for child in by_parent.get(span.span_id, ()))
        for span in tree
    }


def layer_totals(tree: List[Span], by_parent: Dict[Optional[int], List[Span]]) -> Dict[str, float]:
    """Fold one span tree into the raw per-layer sums and counters."""
    selfs = self_times(tree, by_parent)
    totals: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        totals[key] = totals.get(key, 0.0) + value

    for span in tree:
        name = span.name
        attrs = span.attrs
        if name == "engine.fetch_many":
            add("engine.fetch_s", span.seconds)
        elif name == "engine.transform_sources":
            add("engine.union_s", span.seconds)
        elif name == "prepare.build":
            add("prepare.build_s", span.seconds)
        elif name == "prepare.prepare":
            add("prepare.validate_s", selfs[span.span_id])
            add("prepare.reused", attrs.get("reused", 0))
            add("prepare.rebuilt", attrs.get("rebuilt", 0))
        elif name == "matching.match":
            add("matching.s", span.seconds)
        elif name == "session.schema_matching":
            add("matching.seed_candidates", attrs.get("seed_candidates", 0))
            add("matching.seed_cosines", attrs.get("seed_cosines", 0))
        elif name == "dedup.blocking.next":
            add("dedup.blocking_s", selfs[span.span_id])
        elif name == "dedup.score_pairs":
            add("dedup.score_pairs_s", span.seconds)
            for key in ("total_pairs", "candidates", "considered", "pruned", "compared"):
                add(f"dedup.{key}", attrs.get(key, 0))
        elif name == "dedup.classify":
            add("dedup.classified", attrs.get("compared", 0))
            add("dedup.accepted", attrs.get("accepted", 0))
        elif name == "dedup.cluster":
            add("dedup.cluster_s", span.seconds)
            totals["dedup.largest_cluster"] = max(
                totals.get("dedup.largest_cluster", 0), attrs.get("largest_cluster", 0)
            )
        elif name == "core.find_conflicts":
            add("core.conflicts_s", span.seconds)
        elif name == "core.fuse":
            add("core.fuse_op_s", span.seconds)
            add("core.groups", attrs.get("groups", 0))
        elif name in ("fuseby.parse", "fuseby.plan"):
            add("fuseby.plan_s", span.seconds)
    return totals
