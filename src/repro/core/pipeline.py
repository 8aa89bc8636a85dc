"""The HumMer fusion pipeline (Fig. 2 of the paper).

The six wizard steps are modelled as an explicit, inspectable pipeline:

1. *Choose sources* — fetch the relational form of each alias from the
   catalog.
2. *Adjust matching* — instance-based schema matching proposes attribute
   correspondences; the caller may add/remove correspondences before
   continuing.
3. *Adjust duplicate definition* — heuristics select the "interesting"
   attributes; the caller may add/remove attributes.
4. *Confirm duplicates* — duplicate detection classifies pairs into sure /
   unsure / non-duplicates; the caller may decide unsure pairs.
5. *Specify resolution functions* — conflicts are sampled; the fusion spec
   (per-column resolution functions) is applied.
6. *Browse result set* — the clean, consistent result with value lineage.

:class:`FusionPipeline.run` executes all steps automatically (the "usual
case" of the paper) by advancing one
:class:`~repro.core.session.FusionSession` to completion; the session is
also the interactive flow — advance step by step, adjust the intermediate
artefacts in place, continue (see :mod:`repro.core.session`).  The
``step_*`` methods remain the underlying per-step primitives.

A pipeline holds the wizard's settings as ready objects — matcher,
detector, resolution registry, the name-fallback flag and an optional
:class:`SourcePreparer`.  It does not read a
:class:`repro.config.FusionConfig`: :meth:`repro.hummer.HumMer.pipeline`
is the one place that turns a config into these settings, and both of
HumMer's query modes (:meth:`~repro.hummer.HumMer.fuse` and
:meth:`~repro.hummer.HumMer.query`) run on a pipeline it builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.baselines.name_matcher import NameBasedMatcher
from repro.core.conflicts import ConflictReport, find_conflicts
from repro.core.fusion import FusionOperator, FusionResult, FusionSpec
from repro.core.resolution.base import ResolutionRegistry, default_registry
from repro.dedup.descriptions import AttributeSelection, select_interesting_attributes
from repro.dedup.detector import DuplicateDetectionResult, DuplicateDetector, OBJECT_ID_COLUMN
from repro.engine.catalog import Catalog
from repro.engine.relation import Relation
from repro.exceptions import HummerError
from repro.matching.correspondences import CorrespondenceSet
from repro.matching.dumas import DumasMatcher
from repro.matching.multi import MultiMatcher, MultiMatchingResult
from repro.matching.transform import transform_sources
from repro.prepare import FIELD_KIND, PreparedQueryView, PreparedSources, SourcePreparer
from repro.prepare.artifacts import SEED_KIND

__all__ = ["PipelineTimings", "PipelineResult", "FusionPipeline"]

#: The artifact kinds the matching phase consumes — the ``match`` slice of
#: the reuse/rebuild counters in :meth:`PipelineResult.summary`.
MATCH_ARTIFACT_KINDS = (SEED_KIND, FIELD_KIND)


def detection_counters(detection: DuplicateDetectionResult) -> Dict[str, Any]:
    """The counters of one detection shared by step payloads and summaries.

    Clusters, blocking candidates, compared pairs and — for strategies that
    report them — the clustering strategy, largest cluster and split chains.
    """
    statistics = detection.filter_statistics
    counters: Dict[str, Any] = {
        "clusters": detection.cluster_count,
        "candidate_pairs": statistics.blocking_candidates,
        "compared_pairs": statistics.compared,
    }
    report = detection.clustering_report
    if report is not None:
        counters["clustering"] = report.strategy
        counters["largest_cluster"] = report.largest_cluster
        counters["chains_split"] = report.chains_split
    return counters


@dataclass
class PipelineTimings:
    """Wall-clock seconds spent in each phase (experiment E4).

    A view over the per-step seconds a
    :class:`~repro.core.session.FusionSession` records: ``fetch`` is
    ``choose_sources``, ``matching`` is ``schema_matching`` plus
    ``attribute_selection`` (the transform and the attribute heuristics),
    ``duplicate_detection`` is ``duplicate_detection``, and ``fusion`` is
    ``conflict_resolution`` plus ``fusion``.  :attr:`total` therefore equals
    the sum of the session's step seconds.

    ``prepare`` is the artifact build/validate pass of a prepared run (zero
    for unprepared pipelines).  On a warm run over unchanged sources it
    collapses to digest validation, and the matching / candidate-generation
    shares of the later phases shrink because they merge prepared artifacts
    instead of recomputing.
    """

    fetch: float = 0.0
    prepare: float = 0.0
    matching: float = 0.0
    duplicate_detection: float = 0.0
    fusion: float = 0.0

    @property
    def total(self) -> float:
        """Total time across all phases."""
        return (
            self.fetch
            + self.prepare
            + self.matching
            + self.duplicate_detection
            + self.fusion
        )

    def as_dict(self) -> Dict[str, float]:
        """Phase → seconds mapping (plus the total)."""
        return {
            "fetch": self.fetch,
            "prepare": self.prepare,
            "matching": self.matching,
            "duplicate_detection": self.duplicate_detection,
            "fusion": self.fusion,
            "total": self.total,
        }


@dataclass
class PipelineResult:
    """Everything a full pipeline run produces (the demo's intermediate artefacts).

    ``attribute_selection`` / ``detection`` / ``conflicts`` are ``None``
    only for runs that fused directly on natural keys (``FUSE BY (key)``)
    and therefore skipped duplicate detection.
    """

    sources: List[Relation]
    matching: Optional[MultiMatchingResult]
    transformed: Relation
    attribute_selection: Optional[AttributeSelection]
    detection: Optional[DuplicateDetectionResult]
    conflicts: Optional[ConflictReport]
    fusion: FusionResult
    timings: PipelineTimings
    #: Prepared-artifact report of this run (``None`` for unprepared runs):
    #: the participating aliases plus how many artifacts were reused vs
    #: rebuilt, per kind — see :meth:`PreparedSources.report`.
    prepared: Optional[Dict[str, Any]] = None

    @property
    def relation(self) -> Relation:
        """The clean and consistent result set (step 6)."""
        return self.fusion.relation

    @property
    def correspondences(self) -> CorrespondenceSet:
        """The attribute correspondences used (empty when only one source)."""
        if self.matching is None:
            return CorrespondenceSet()
        return self.matching.correspondences

    def summary(self) -> Dict[str, Any]:
        """Compact run summary for logging and the experiment harness."""
        summary = {
            "sources": len(self.sources),
            "input_tuples": sum(len(source) for source in self.sources),
            "correspondences": len(self.correspondences),
            "output_tuples": len(self.fusion.relation),
            "seconds": self.timings.total,
        }
        if self.detection is not None:
            summary.update(detection_counters(self.detection))
            summary["duplicate_pairs"] = len(self.detection.duplicate_pairs)
            plan = self.detection.filter_statistics.blocking_plan
            if plan is not None:
                summary["blocking_plan"] = plan.get("strategy")
        if self.conflicts is not None:
            summary["contradictions"] = self.conflicts.contradiction_count
            summary["uncertainties"] = self.conflicts.uncertainty_count
        if self.prepared is not None:
            summary["artifacts_reused"] = self.prepared.get("reused", 0)
            summary["artifacts_rebuilt"] = self.prepared.get("rebuilt", 0)
            # Matching-phase artifacts broken out, so warm matching is as
            # observable as warm dedup: seeding statistics + field corpora.
            reused_by_kind = self.prepared.get("reused_by_kind", {})
            rebuilt_by_kind = self.prepared.get("rebuilt_by_kind", {})
            summary["match_artifacts_reused"] = sum(
                reused_by_kind.get(kind, 0) for kind in MATCH_ARTIFACT_KINDS
            )
            summary["match_artifacts_rebuilt"] = sum(
                rebuilt_by_kind.get(kind, 0) for kind in MATCH_ARTIFACT_KINDS
            )
        return summary


class FusionPipeline:
    """Automatic (and optionally interactive) data-fusion pipeline.

    The pipeline is now a thin layer over one
    :class:`~repro.core.session.FusionSession` per run: :meth:`run` builds a
    session and advances it to completion, :meth:`session` hands the session
    out for step-by-step (adjust-then-continue) use, and the ``step_*``
    methods remain the underlying per-step primitives.

    Args:
        catalog: metadata repository holding the registered sources.
        matcher: pairwise schema matcher (default: DUMAS).
        detector: duplicate detector (default: stock settings).
        registry: resolution-function registry (default: all built-ins).
        use_name_fallback: when instance-based matching finds nothing for a
            relation, fall back to label-based matching instead of failing.
        prepare: a ready :class:`SourcePreparer` for per-source artifact
            preparation (see :mod:`repro.prepare`), or ``None`` for an
            unprepared run.

    The settings are taken as given: :meth:`repro.hummer.HumMer.pipeline`
    builds them from a :class:`repro.config.FusionConfig`.  Mid-run
    adjustment lives on the session (adjust-then-continue):
    :meth:`session`, then mutate ``session.matching`` / ``session.selection``
    / ``session.detection`` between
    :meth:`~repro.core.session.FusionSession.advance` calls.
    """

    def __init__(
        self,
        catalog: Catalog,
        matcher: Optional[DumasMatcher] = None,
        detector: Optional[DuplicateDetector] = None,
        registry: Optional[ResolutionRegistry] = None,
        use_name_fallback: bool = True,
        prepare: Optional[SourcePreparer] = None,
    ):
        self.catalog = catalog
        self.matcher = matcher or DumasMatcher()
        self.detector = detector or DuplicateDetector()
        self.registry = registry or default_registry()
        self.use_name_fallback = use_name_fallback
        self.preparer = prepare

    # -- individual steps ---------------------------------------------------------

    def step_choose_sources(self, aliases: Sequence[str]) -> List[Relation]:
        """Step 1: fetch the relational form of every alias."""
        if not aliases:
            raise HummerError("a fusion query needs at least one source alias")
        return self.catalog.fetch_many(aliases)

    def step_prepare(self, aliases: Sequence[str]) -> Optional[PreparedSources]:
        """Step 1b: build/validate the per-source artifacts (prepared runs only)."""
        if self.preparer is None:
            return None
        return self.preparer.prepare(aliases)

    def step_schema_matching(
        self,
        sources: List[Relation],
        prepared: Optional[PreparedSources] = None,
    ) -> Optional[MultiMatchingResult]:
        """Step 2: instance-based schema matching over all sources.

        With *prepared* artifacts, seed discovery reads each source's stored
        TF-IDF statistics, the SoftTFIDF field corpus is merged from stored
        per-source document frequencies, and only the cross-source merges
        and pair scoring run per query.
        """
        if len(sources) < 2:
            return None
        fallback = NameBasedMatcher() if self.use_name_fallback else None
        multi = MultiMatcher(self.matcher, fallback=fallback)
        if prepared is not None:
            with prepared.seeding(self.matcher.seeder), prepared.matching(self.matcher):
                result = multi.match(sources)
        else:
            result = multi.match(sources)
        return result

    def step_transform(
        self, sources: List[Relation], matching: Optional[MultiMatchingResult]
    ) -> Relation:
        """Step 2b: rename, add sourceID and outer-union the sources."""
        correspondences = matching.correspondences if matching else CorrespondenceSet()
        return transform_sources(sources, correspondences)

    def step_attribute_selection(self, transformed: Relation) -> AttributeSelection:
        """Step 3: heuristics select the attributes for duplicate detection."""
        return select_interesting_attributes(transformed)

    def step_duplicate_detection(
        self,
        transformed: Relation,
        selection: AttributeSelection,
        prepared_view: Optional[PreparedQueryView] = None,
        progress_callback: Optional[Callable[[str, int, int], None]] = None,
    ) -> DuplicateDetectionResult:
        """Steps 3+4: detect duplicates, then let the caller confirm unsure pairs.

        With a *prepared_view*, token indexes and planner profiles are merged
        from the per-source artifacts instead of being rebuilt from cell
        values (providers are installed on the blocking strategy only for
        the duration of this step).

        *progress_callback* is invoked as scored candidate chunks are
        merged — ``("pairs_scored", done, total)``, cumulative over
        the run — mirroring the fusion operator's group-at-a-time stream.
        """
        # with_overrides carries every detector field over automatically, so
        # a newly added knob can no longer be silently dropped here.
        detector = self.detector.with_overrides(selection=selection)
        detector.progress_callback = progress_callback
        if prepared_view is not None:
            with prepared_view.blocking(detector.blocking):
                result = detector.detect(transformed)
        else:
            result = detector.detect(transformed)
        return result

    def step_conflicts(self, detection: DuplicateDetectionResult) -> ConflictReport:
        """Step 5a: sample the conflicts among detected duplicates."""
        return find_conflicts(detection.relation)

    def step_fusion(
        self,
        relation: Relation,
        spec: Optional[FusionSpec] = None,
        metadata: Optional[Dict[str, Any]] = None,
        progress_callback: Optional[Callable[[str, int, int], None]] = None,
    ) -> FusionResult:
        """Steps 5b+6: fuse each object of *relation* into one tuple under *spec*.

        *relation* is a detection's relation (objects keyed by ``objectID``,
        the default spec) or, for runs that skip detection, the transformed
        union fused on the spec's own key columns.  *progress_callback* is
        forwarded to the operator's group-at-a-time stream
        (``("groups_resolved", done, total)`` per fused group).
        """
        fusion_spec = spec or FusionSpec(key_columns=[OBJECT_ID_COLUMN])
        operator = FusionOperator(
            fusion_spec,
            registry=self.registry,
            table_name="fused",
            metadata=metadata,
        )
        operator.progress_callback = progress_callback
        return operator.fuse(relation)

    # -- the automatic end-to-end run -----------------------------------------------

    def session(
        self,
        aliases: Sequence[str],
        spec: Optional[FusionSpec] = None,
        metadata: Optional[Dict[str, Any]] = None,
        skip_detection: bool = False,
        skip_conflicts: bool = False,
        transform_filter=None,
    ):
        """A single-use :class:`~repro.core.session.FusionSession` over *aliases*.

        The session exposes the wizard steps one
        :meth:`~repro.core.session.FusionSession.advance` at a time, with
        adjust-then-continue in between and subscribe-able
        :class:`~repro.core.session.StageEvent` progress.
        """
        from repro.core.session import FusionSession

        return FusionSession(
            self,
            aliases,
            spec=spec,
            metadata=metadata,
            skip_detection=skip_detection,
            skip_conflicts=skip_conflicts,
            transform_filter=transform_filter,
        )

    def run(
        self,
        aliases: Sequence[str],
        spec: Optional[FusionSpec] = None,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> PipelineResult:
        """Run all six steps automatically and return every intermediate artefact.

        Equivalent to advancing a fresh :meth:`session` to completion — the
        two spellings execute the same code path and produce bit-identical
        results.
        """
        return self.session(aliases, spec=spec, metadata=metadata).run()
