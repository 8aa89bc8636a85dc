"""Per-layer metrics of the traced run, derived from span trees.

Each metric is listed in ``layer_map.json`` with the ``repro`` layer it
measures and the end-to-end metric it should move on a named workload.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from harness import RunResult, median
from spans import Span, children_of, layer_totals, self_times, tree_of

#: Totals that are maxima rather than sums (not divided when averaging).
MAX_KEYS = ("dedup.largest_cluster",)

#: Relative and absolute tolerance of the self-time check.
SELF_TIME_TOLERANCE = 0.01
SELF_TIME_SLACK_S = 0.0005


def root_trees(spans: Sequence[Span], root_name: str) -> List[List[Span]]:
    """One span tree per root span called *root_name*, in start order."""
    by_parent = children_of(spans)
    roots = sorted(
        (span for span in spans if span.parent is None and span.name == root_name),
        key=lambda span: span.start_ns,
    )
    return [tree_of(root, by_parent) for root in roots]


def check_self_times(result: RunResult, tree: List[Span], wall_s: float) -> None:
    """Self times must be non-negative and sum to the traced wall time."""
    by_parent = children_of(tree)
    selfs = self_times(tree, by_parent)
    negative = [span.name for span in tree if selfs[span.span_id] < -SELF_TIME_SLACK_S]
    total = sum(selfs.values())
    ok = not negative and abs(total - wall_s) <= SELF_TIME_TOLERANCE * wall_s + SELF_TIME_SLACK_S
    result.attempt(
        ok, f"self-time check: sum {total:.6f}s vs wall {wall_s:.6f}s, negative {negative[:3]}"
    )


def totals_of(tree: List[Span]) -> Dict[str, float]:
    return layer_totals(tree, children_of(tree))


def averaged(totals: Dict[str, float], count: int) -> Dict[str, float]:
    """Per-unit figures from totals summed over *count* units of work."""
    count = max(1, count)
    return {
        key: value if key in MAX_KEYS else value / count for key, value in totals.items()
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def put_layer_metrics(
    result: RunResult,
    reps: List[Dict[str, float]],
    setups: List[Dict[str, float]],
    untraced_fusion_s: float,
    traced_fusion_s: float,
    service: Optional[Dict[str, float]] = None,
) -> None:
    """Record every per-layer metric, the median over traced repetitions.

    *reps* holds one :func:`totals_of` dict per traced fusion, *setups* one
    per traced set-up.  Layers that did not run report 0.
    """
    samples = len(reps)

    def per_rep(function) -> float:
        return median([function(totals) for totals in reps]) if reps else 0.0

    def get(key: str):
        return lambda totals: totals.get(key, 0.0)

    def score_s(totals):
        return max(0.0, totals.get("dedup.score_pairs_s", 0.0) - totals.get("dedup.blocking_s", 0.0))

    put = result.put
    put("engine.fetch_s", per_rep(get("engine.fetch_s")), "s", samples)
    put("engine.union_s", per_rep(get("engine.union_s")), "s", samples)
    put("prepare.build_s",
        median([totals.get("prepare.build_s", 0.0) for totals in setups]) if setups else 0.0,
        "s", len(setups))
    put("prepare.validate_s", per_rep(get("prepare.validate_s")), "s", samples)
    put("prepare.reuse_ratio", per_rep(lambda t: _ratio(
        t.get("prepare.reused", 0.0), t.get("prepare.reused", 0.0) + t.get("prepare.rebuilt", 0.0)
    )), "ratio", samples)
    put("matching.s", per_rep(get("matching.s")), "s", samples)
    put("matching.seed_candidates", per_rep(get("matching.seed_candidates")), "count", samples)
    put("matching.seed_cosines", per_rep(get("matching.seed_cosines")), "count", samples)
    put("dedup.blocking_s", per_rep(get("dedup.blocking_s")), "s", samples)
    put("dedup.candidates", per_rep(get("dedup.candidates")), "count", samples)
    put("dedup.blocking_ratio", per_rep(
        lambda t: _ratio(t.get("dedup.candidates", 0.0), t.get("dedup.total_pairs", 0.0))
    ), "ratio", samples)
    put("dedup.filter_pruned_ratio", per_rep(
        lambda t: _ratio(t.get("dedup.pruned", 0.0), t.get("dedup.considered", 0.0))
    ), "ratio", samples)
    put("dedup.score_s", per_rep(score_s), "s", samples)
    put("dedup.compared_pairs", per_rep(get("dedup.compared")), "count", samples)
    put("dedup.score_us_per_pair", per_rep(
        lambda t: _ratio(score_s(t) * 1e6, t.get("dedup.compared", 0.0))
    ), "us", samples)
    put("dedup.accept_ratio", per_rep(
        lambda t: _ratio(t.get("dedup.accepted", 0.0), t.get("dedup.classified", 0.0))
    ), "ratio", samples)
    put("dedup.cluster_s", per_rep(get("dedup.cluster_s")), "s", samples)
    put("dedup.largest_cluster", per_rep(get("dedup.largest_cluster")), "count", samples)
    put("core.conflicts_s", per_rep(get("core.conflicts_s")), "s", samples)
    put("core.fuse_op_s", per_rep(get("core.fuse_op_s")), "s", samples)
    put("core.groups", per_rep(get("core.groups")), "count", samples)
    put("core.us_per_group", per_rep(
        lambda t: _ratio(t.get("core.fuse_op_s", 0.0) * 1e6, t.get("core.groups", 0.0))
    ), "us", samples)
    put("fuseby.plan_s", per_rep(get("fuseby.plan_s")), "s", samples)
    service = service or {}
    put("service.step_overhead_ms", service.get("step_overhead_ms", 0.0), "ms",
        service.get("step_overhead_samples", 0))
    put("service.journal_bytes_per_write", service.get("journal_bytes_per_write", 0.0),
        "bytes", service.get("journal_samples", 0))
    put("service.rejected", service.get("rejected", 0.0), "count", service.get("requests", 0))
    put("service.errors_5xx", service.get("errors_5xx", 0.0), "count", service.get("requests", 0))
    put("trace.overhead_ratio",
        _ratio(traced_fusion_s, untraced_fusion_s) - 1.0 if untraced_fusion_s else 0.0,
        "ratio", samples, untraced_fusion_s=untraced_fusion_s, traced_fusion_s=traced_fusion_s)
