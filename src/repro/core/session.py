"""``repro.core.session`` — the HumMer wizard as an explicit state machine.

The paper's demo (Fig. 2) is a six-step *wizard*: the user inspects and
adjusts intermediate state between steps.  The library equivalent used to be
three mutation callbacks (``adjust_matching`` / ``adjust_selection`` /
``adjust_duplicates``) threaded through the pipeline constructor;
:class:`FusionSession` replaces them with *adjust-then-continue*: each
:meth:`~FusionSession.advance` call executes exactly one step, leaves its
artefact on the session (``session.matching``, ``session.selection``,
``session.detection``, …), and the caller mutates the artefact directly
before advancing again::

    session = hummer.session(["EE_Students", "CS_Students"])
    session.advance_to(FusionSession.SCHEMA_MATCHING)
    session.matching.correspondences.remove("Age", "Years")   # wizard step 2
    session.advance_to(FusionSession.DUPLICATE_DETECTION)
    session.detection.classified.confirm_all(True)            # wizard step 4
    session.apply_duplicate_decisions()
    result = session.run()                                    # steps 5 + 6

Progress on long runs is observable through subscribe-able
:class:`StageEvent`\\ s carrying per-step wall-clock seconds and payloads
(artifact reuse counters, the blocking plan report, classification counts).
:meth:`FusionSession.advance` is the one clock: it times each step once,
records the seconds in :attr:`FusionSession.step_reports`, and the run's
:class:`PipelineTimings` are summed from those reports (see
:data:`STEP_PHASES`).  The session takes its matcher, detector, registry
and preparer from its pipeline, which holds them as built by
:meth:`repro.hummer.HumMer.pipeline`.

A session run and :meth:`FusionPipeline.run` are the *same* code path —
``run()`` is now a thin loop over one session — so stepping manually and
running automatically produce bit-identical :class:`PipelineResult`\\ s.

Sessions survive process restarts: :meth:`FusionSession.to_dict` captures a
JSON-able snapshot (aliases, step cursor, per-step reports, duplicate
decisions, source content digests) and :meth:`FusionSession.from_dict`
rebuilds the session against a fresh pipeline by *replaying* the completed
steps — the pipeline is deterministic, so a resumed run is bit-identical to
an uninterrupted one (asserted in ``tests/core/test_session_snapshot.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.fusion import FusionSpec, ResolutionSpec
from repro.core.pipeline import PipelineResult, PipelineTimings, detection_counters
from repro.core.resolution.base import ResolutionFunction
from repro.dedup.detector import OBJECT_ID_COLUMN
from repro.engine.relation import Relation
from repro.exceptions import HummerError

__all__ = ["SESSION_STEPS", "SNAPSHOT_VERSION", "StageEvent", "ProgressEvent", "FusionSession"]

#: Version tag written into (and required from) session snapshots.
SNAPSHOT_VERSION = 1

#: The wizard steps, in execution order.  ``prepare`` is the paper's step 1b
#: (a no-op for unprepared sessions); ``schema_matching`` covers steps 2+2b
#: once the transform runs at the start of ``attribute_selection``.
SESSION_STEPS = (
    "choose_sources",
    "prepare",
    "schema_matching",
    "attribute_selection",
    "duplicate_detection",
    "conflict_resolution",
    "fusion",
)

#: The :class:`PipelineTimings` phase each step's seconds count toward.
STEP_PHASES = {
    "choose_sources": "fetch",
    "prepare": "prepare",
    "schema_matching": "matching",
    "attribute_selection": "matching",
    "duplicate_detection": "duplicate_detection",
    "conflict_resolution": "fusion",
    "fusion": "fusion",
}

#: Terminal pseudo-step reported by :attr:`FusionSession.current_step`.
DONE = "done"


@dataclass(frozen=True)
class StageEvent:
    """One completed wizard step, for progress observation on long runs.

    Attributes:
        step: the completed step (one of :data:`SESSION_STEPS`).
        index: 1-based position of the step in the run.
        total: total number of steps in the run.
        seconds: wall-clock seconds the step took.
        payload: step-specific report — artifact reuse counters for
            ``prepare``, correspondence counts for ``schema_matching``, the
            blocking plan and classification counts for
            ``duplicate_detection``, output size for ``fusion``, …
    """

    step: str
    index: int
    total: int
    seconds: float
    payload: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ProgressEvent:
    """Intra-step progress on long runs, for streamed UIs.

    Where :class:`StageEvent` reports a *completed* step, progress events
    stream out while a step is still running: seeds scored and field
    matrices built during ``schema_matching``, candidate-pair batches scored
    during ``duplicate_detection``, groups resolved during ``fusion``.
    Counters are cumulative over the step (across source pairs / scoring
    batches); ``total`` is the work-item count of the current unit of work
    (one source pair's tuples, the run's candidate pairs, one fusion input's
    groups).

    Attributes:
        step: the running step (one of :data:`SESSION_STEPS`).
        phase: what is being counted (``"seeds_scored"``,
            ``"field_matrices"``, ``"pairs_scored"``, ``"groups_resolved"``).
        done: cumulative completed work items of this phase within the step.
        total: work items of the current unit of work.
    """

    step: str
    phase: str
    done: int
    total: int


def _spec_to_dict(spec: Optional[FusionSpec]) -> Optional[Dict[str, Any]]:
    """JSON-able form of a name-based :class:`FusionSpec` (``None`` passthrough).

    Raises :class:`HummerError` on resolutions carrying live
    :class:`ResolutionFunction` instances — a snapshot must be rebuildable in
    a process that never saw the instance.
    """
    if spec is None:
        return None
    resolutions = []
    for item in spec.resolutions:
        function = item.function
        if isinstance(function, ResolutionFunction):
            raise HummerError(
                f"the resolution for column {item.column!r} is a "
                "ResolutionFunction instance; session snapshots need "
                "name-based resolutions (a registry name or [name, args])"
            )
        if isinstance(function, tuple):
            function = [function[0], list(function[1])]
        resolutions.append(
            {"column": item.column, "function": function, "alias": item.alias}
        )
    return {
        "key_columns": list(spec.key_columns),
        "resolutions": resolutions,
        "keep_source_column": spec.keep_source_column,
    }


def _spec_from_dict(data: Optional[Dict[str, Any]]) -> Optional[FusionSpec]:
    """Inverse of :func:`_spec_to_dict`."""
    if data is None:
        return None
    resolutions = []
    for item in data.get("resolutions", ()):
        function = item.get("function")
        if isinstance(function, list):
            function = (function[0], list(function[1]))
        resolutions.append(
            ResolutionSpec(item["column"], function, alias=item.get("alias"))
        )
    return FusionSpec(
        key_columns=list(data.get("key_columns", (OBJECT_ID_COLUMN,))),
        resolutions=resolutions,
        keep_source_column=bool(data.get("keep_source_column", False)),
    )


class FusionSession:
    """Stateful, event-emitting execution of the six-step fusion wizard.

    Sessions are single-use: construct one per fusion run (via
    :meth:`HumMer.session` or :meth:`FusionPipeline.session`), advance it to
    completion, read :attr:`result`.

    Args:
        pipeline: the :class:`~repro.core.pipeline.FusionPipeline` providing
            the per-step primitives (matcher, detector, registry, preparer).
        aliases: catalog aliases of the sources to fuse (wizard step 1).
        spec: fusion spec for step 5; ``None`` means fuse on ``objectID``
            with Coalesce everywhere.
        metadata: column metadata handed to metadata-based resolution
            functions.
        skip_detection: fuse directly on the transformed union without
            duplicate detection (the ``FUSE BY (key)`` query shape) — the
            selection / detection / conflict steps become no-ops.
        skip_conflicts: skip the conflict-sampling report (step 5a) — the
            SQL query path only needs the fused relation, and never paid
            for the report before the session existed.
        transform_filter: optional callable applied to the combined relation
            right after transformation (the query executor's WHERE push-in).
    """

    #: Step-name constants (mirrors :data:`SESSION_STEPS`).
    CHOOSE_SOURCES, PREPARE, SCHEMA_MATCHING, ATTRIBUTE_SELECTION, \
        DUPLICATE_DETECTION, CONFLICT_RESOLUTION, FUSION = SESSION_STEPS
    DONE = DONE

    def __init__(
        self,
        pipeline,
        aliases: Sequence[str],
        spec: Optional[FusionSpec] = None,
        metadata: Optional[Dict[str, Any]] = None,
        skip_detection: bool = False,
        skip_conflicts: bool = False,
        transform_filter: Optional[Callable[[Relation], Relation]] = None,
    ):
        self.pipeline = pipeline
        self.aliases = list(aliases)
        self.spec = spec
        self.metadata = metadata
        self.skip_detection = skip_detection
        self.skip_conflicts = skip_conflicts
        self.transform_filter = transform_filter

        # per-step artefacts (the wizard's intermediate state)
        self.sources: Optional[List[Relation]] = None
        self.prepared = None
        self.matching = None
        self.transformed: Optional[Relation] = None
        self.prepared_view = None
        self.selection = None
        self.detection = None
        self.conflicts = None
        self.fusion = None
        self.result: Optional[PipelineResult] = None

        #: Per-step reports recorded as steps complete — the
        #: :class:`StageEvent` payload plus wall-clock seconds, keyed by step
        #: name.  Carried into snapshots as the per-step artefact summaries.
        self.step_reports: Dict[str, Dict[str, Any]] = {}

        self._cursor = 0
        self._decisions_applied = False
        self._listeners: List[Callable[[StageEvent], None]] = []
        self._progress_listeners: List[Callable[[ProgressEvent], None]] = []
        self._runners = {
            self.CHOOSE_SOURCES: self._run_choose_sources,
            self.PREPARE: self._run_prepare,
            self.SCHEMA_MATCHING: self._run_schema_matching,
            self.ATTRIBUTE_SELECTION: self._run_attribute_selection,
            self.DUPLICATE_DETECTION: self._run_duplicate_detection,
            self.CONFLICT_RESOLUTION: self._run_conflict_resolution,
            self.FUSION: self._run_fusion,
        }

    # -- state inspection ----------------------------------------------------------

    @property
    def current_step(self) -> str:
        """The next step :meth:`advance` will execute (or :data:`DONE`)."""
        if self._cursor >= len(SESSION_STEPS):
            return DONE
        return SESSION_STEPS[self._cursor]

    @property
    def completed_steps(self) -> Sequence[str]:
        """The steps executed so far, in order."""
        return SESSION_STEPS[: self._cursor]

    @property
    def is_done(self) -> bool:
        """Whether every step has executed and :attr:`result` is available."""
        return self._cursor >= len(SESSION_STEPS)

    @property
    def timings(self) -> PipelineTimings:
        """Phase seconds of the steps run so far, summed from :attr:`step_reports`."""
        timings = PipelineTimings()
        for step, report in self.step_reports.items():
            phase = STEP_PHASES[step]
            setattr(timings, phase, getattr(timings, phase) + report["seconds"])
        return timings

    # -- observation ---------------------------------------------------------------

    def subscribe(self, listener: Callable[[StageEvent], None]) -> Callable[[], None]:
        """Receive a :class:`StageEvent` after each completed step.

        Returns an unsubscribe callable.  Listener exceptions propagate to
        the advancing caller — observers are part of the run, not detached
        best-effort logging.
        """
        self._listeners.append(listener)

        def unsubscribe() -> None:
            if listener in self._listeners:
                self._listeners.remove(listener)

        return unsubscribe

    def subscribe_progress(
        self, listener: Callable[[ProgressEvent], None]
    ) -> Callable[[], None]:
        """Receive :class:`ProgressEvent`\\ s *while* long steps are running.

        Returns an unsubscribe callable.  Like :meth:`subscribe`, listener
        exceptions propagate to the advancing caller.
        """
        self._progress_listeners.append(listener)

        def unsubscribe() -> None:
            if listener in self._progress_listeners:
                self._progress_listeners.remove(listener)

        return unsubscribe

    def _emit_progress(self, step: str, phase: str, done: int, total: int) -> None:
        if not self._progress_listeners:
            return
        event = ProgressEvent(step=step, phase=phase, done=done, total=total)
        for listener in list(self._progress_listeners):
            listener(event)

    # -- advancing -----------------------------------------------------------------

    def advance(self):
        """Execute the current step and return its artefact.

        Between calls the caller may adjust the produced artefacts in place
        (remove correspondences, change the attribute selection, decide
        unsure pairs + :meth:`apply_duplicate_decisions`) — the library
        counterpart of the demo's GUI interventions.
        """
        if self.is_done:
            raise HummerError("the session is complete; construct a new one to re-run")
        step = SESSION_STEPS[self._cursor]
        started = time.perf_counter()
        artefact, payload = self._runners[step]()
        seconds = time.perf_counter() - started
        if step == self.PREPARE and self.prepared is None:
            seconds = 0.0  # an unprepared run does no prepare work
        self._cursor += 1
        self.step_reports[step] = {"seconds": seconds, "payload": dict(payload)}
        if self.is_done:
            self.result = PipelineResult(
                sources=self.sources,
                matching=self.matching,
                transformed=self.transformed,
                attribute_selection=self.selection,
                detection=self.detection,
                conflicts=self.conflicts,
                fusion=self.fusion,
                timings=self.timings,
                prepared=self.prepared.report() if self.prepared is not None else None,
            )
        event = StageEvent(
            step=step,
            index=self._cursor,
            total=len(SESSION_STEPS),
            seconds=seconds,
            payload=payload,
        )
        for listener in list(self._listeners):
            listener(event)
        return artefact

    def advance_to(self, step: str):
        """Advance until *step* (inclusive) has executed; return its artefact."""
        if step not in SESSION_STEPS:
            raise HummerError(
                f"unknown session step {step!r} (steps: {', '.join(SESSION_STEPS)})"
            )
        if step in self.completed_steps:
            raise HummerError(f"session step {step!r} has already executed")
        artefact = None
        while step not in self.completed_steps:
            artefact = self.advance()
        return artefact

    def run(self) -> PipelineResult:
        """Advance through every remaining step and return the result."""
        while not self.is_done:
            self.advance()
        return self.result

    # -- mid-session adjustment ----------------------------------------------------

    def apply_duplicate_decisions(self):
        """Re-cluster after deciding unsure pairs (wizard step 4 confirmation).

        Call after mutating ``session.detection.classified`` (e.g.
        ``confirm_all`` or per-pair decisions) and before advancing past
        duplicate detection's successor steps.  Comparison scores are
        reused; only the transitive closure and the objectID column are
        recomputed.
        """
        if self.detection is None:
            raise HummerError(
                "no duplicate detection to re-cluster; advance the session "
                "through duplicate_detection first"
            )
        if self.conflicts is not None or self.fusion is not None:
            raise HummerError(
                "duplicate decisions must be applied before conflict "
                "resolution and fusion run"
            )
        self.detection = self.pipeline.detector.redetect_with_decisions(
            self.transformed, self.detection
        )
        self._decisions_applied = True
        return self.detection

    # -- snapshot / restore --------------------------------------------------------

    @property
    def can_snapshot(self) -> bool:
        """Whether :meth:`to_dict` can succeed for this session.

        False for sessions holding process-local state a snapshot cannot
        carry: a ``transform_filter`` callable, or a spec with live
        :class:`ResolutionFunction` instances.  Durable services use this
        to skip journaling such sessions instead of failing their steps.
        """
        if self.transform_filter is not None:
            return False
        if self.spec is not None:
            for item in self.spec.resolutions:
                if isinstance(item.function, ResolutionFunction):
                    return False
        return True

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-able snapshot of this session's progress.

        The snapshot captures everything needed to resume in another process
        (:meth:`from_dict`): aliases, the step cursor, per-step reports,
        user decisions on unsure pairs, the fusion spec (name-based only)
        and a content digest per source so a resume against changed data
        fails loudly instead of silently diverging.

        Raises:
            HummerError: for sessions that cannot be snapshotted — a
                ``transform_filter`` (an arbitrary callable) or a spec
                holding live :class:`ResolutionFunction` instances.
        """
        if self.transform_filter is not None:
            raise HummerError(
                "sessions with a transform_filter cannot be snapshotted "
                "(the filter is an arbitrary callable)"
            )
        decisions = []
        segments = None
        if self.detection is not None:
            classified = self.detection.classified
            decisions = [
                [int(left), int(right), bool(accept)]
                for (left, right), accept in sorted(classified.decisions.items())
            ]
            # Segment membership is snapshotted too: the wizard lets users
            # *move* pairs between segments (demote a sure duplicate to
            # unsure), and accepted_pairs() starts from sure_duplicates —
            # decisions alone would not reproduce such demotions on resume.
            segments = {
                name: [list(score.as_tuple()) for score in getattr(classified, name)]
                for name in ("sure_duplicates", "unsure", "sure_non_duplicates")
            }
        digests = None
        if self.sources is not None:
            digests = [
                [alias, source.content_digest()]
                for alias, source in zip(self.aliases, self.sources)
            ]
        return {
            "version": SNAPSHOT_VERSION,
            "aliases": list(self.aliases),
            "completed_steps": list(self.completed_steps),
            "skip_detection": self.skip_detection,
            "skip_conflicts": self.skip_conflicts,
            "spec": _spec_to_dict(self.spec),
            "metadata": self.metadata,
            "decisions": decisions,
            "classified_segments": segments,
            "decisions_applied": self._decisions_applied,
            "step_reports": {
                step: dict(report) for step, report in self.step_reports.items()
            },
            "source_digests": digests,
        }

    @classmethod
    def from_dict(cls, pipeline, data: Dict[str, Any]) -> "FusionSession":
        """Rebuild a session from :meth:`to_dict` against a fresh *pipeline*.

        Completed steps are *replayed* — the pipeline is deterministic, so
        the replay reproduces the snapshotted artefacts bit-identically;
        recorded duplicate decisions are restored (and re-applied when they
        had been applied) at the point in the replay where they originally
        happened.  Source content digests are verified right after
        ``choose_sources``: resuming over changed data raises
        :class:`HummerError`.
        """
        version = data.get("version")
        if version != SNAPSHOT_VERSION:
            raise HummerError(
                f"unsupported session snapshot version {version!r} "
                f"(expected {SNAPSHOT_VERSION})"
            )
        completed = [str(step) for step in data.get("completed_steps", ())]
        if tuple(completed) != SESSION_STEPS[: len(completed)]:
            raise HummerError(
                "snapshot completed_steps "
                f"{completed!r} is not a prefix of the wizard steps"
            )
        session = cls(
            pipeline,
            data.get("aliases", ()),
            spec=_spec_from_dict(data.get("spec")),
            metadata=data.get("metadata"),
            skip_detection=bool(data.get("skip_detection", False)),
            skip_conflicts=bool(data.get("skip_conflicts", False)),
        )
        decisions = data.get("decisions") or []
        decisions_applied = bool(data.get("decisions_applied", False))
        for step in completed:
            session.advance()
            if step == cls.CHOOSE_SOURCES:
                session._verify_source_digests(data.get("source_digests"))
            if step == cls.DUPLICATE_DETECTION and session.detection is not None:
                classified = session.detection.classified
                segments = data.get("classified_segments")
                if segments:
                    by_pair = {
                        score.as_tuple(): score
                        for name in (
                            "sure_duplicates", "unsure", "sure_non_duplicates"
                        )
                        for score in getattr(classified, name)
                    }
                    for name in (
                        "sure_duplicates", "unsure", "sure_non_duplicates"
                    ):
                        restored = []
                        for left, right in segments.get(name, ()):
                            score = by_pair.get((int(left), int(right)))
                            if score is not None:
                                restored.append(score)
                        setattr(classified, name, restored)
                if decisions:
                    classified.decisions = {
                        (int(left), int(right)): bool(accept)
                        for left, right, accept in decisions
                    }
                if decisions_applied:
                    session.apply_duplicate_decisions()
        return session

    def _verify_source_digests(self, digests) -> None:
        """Raise if any snapshotted source digest differs from the live one."""
        if not digests or self.sources is None:
            return
        current = {
            alias: source.content_digest()
            for alias, source in zip(self.aliases, self.sources)
        }
        for alias, digest in digests:
            if current.get(alias) != digest:
                raise HummerError(
                    f"source {alias!r} changed since the session was "
                    "snapshotted (content digest mismatch); re-run the "
                    "fusion instead of resuming"
                )

    # -- step implementations ------------------------------------------------------
    #
    # Each runner returns (artefact, event payload); advance() times it.

    def _run_choose_sources(self):
        self.sources = self.pipeline.step_choose_sources(self.aliases)
        payload = {
            "aliases": list(self.aliases),
            "tuples": sum(len(source) for source in self.sources),
        }
        return self.sources, payload

    def _run_prepare(self):
        self.prepared = self.pipeline.step_prepare(self.aliases)
        return self.prepared, (
            dict(self.prepared.report()) if self.prepared is not None else {}
        )

    def _run_schema_matching(self):
        matcher = self.pipeline.matcher
        seeder = getattr(matcher, "seeder", None)
        counters: Dict[str, int] = {"seeds_scored": 0, "field_matrices": 0}
        scoring: Dict[str, int] = {"seed_candidates": 0, "seed_cosines": 0}

        # Counters accumulate across source pairs (MultiMatcher matches
        # every non-preferred source against the preferred one), so `done`
        # is cumulative over the whole step.
        def forward(phase: str, done: int, total: int) -> None:
            counters[phase] = counters.get(phase, 0) + 1
            self._emit_progress(self.SCHEMA_MATCHING, phase, counters[phase], total)

        def record_scoring(statistics) -> None:
            scoring["seed_candidates"] += statistics.candidate_count
            scoring["seed_cosines"] += statistics.scored_count

        restore = []
        if hasattr(matcher, "progress_callback"):
            restore.append((matcher, "progress_callback", matcher.progress_callback))
            matcher.progress_callback = forward
        if seeder is not None and hasattr(seeder, "progress_callback"):
            restore.append((seeder, "progress_callback", seeder.progress_callback))
            seeder.progress_callback = forward
        if seeder is not None and hasattr(seeder, "scoring_listener"):
            restore.append((seeder, "scoring_listener", seeder.scoring_listener))
            seeder.scoring_listener = record_scoring
        try:
            self.matching = self.pipeline.step_schema_matching(
                self.sources, self.prepared
            )
        finally:
            for target, attribute, previous in reversed(restore):
                setattr(target, attribute, previous)
        payload = {
            "correspondences": (
                len(self.matching.correspondences) if self.matching is not None else 0
            ),
            "seeds_scored": counters["seeds_scored"],
            "field_matrices": counters["field_matrices"],
        }
        payload.update(scoring)
        return self.matching, payload

    def _run_attribute_selection(self):
        transformed = self.pipeline.step_transform(self.sources, self.matching)
        if self.transform_filter is not None:
            transformed = self.transform_filter(transformed)
        self.transformed = transformed
        if self.prepared is not None:
            self.prepared_view = self.prepared.view(
                transformed,
                correspondences=self.matching.correspondences if self.matching else None,
                preferred=self.matching.preferred if self.matching else None,
            )
        if self.skip_detection:
            return None, {"skipped": True}
        self.selection = self.pipeline.step_attribute_selection(transformed)
        return self.selection, {"attributes": list(self.selection.attributes)}

    def _run_duplicate_detection(self):
        if self.skip_detection:
            return None, {"skipped": True}
        counters: Dict[str, int] = {"pairs_scored": 0, "score_batches": 0}

        # Scoring reports cumulative pairs per merged chunk (one chunk
        # in-process, about four per worker in a pool).
        def forward(phase: str, done: int, total: int) -> None:
            counters["score_batches"] += 1
            counters["pairs_scored"] = done
            self._emit_progress(self.DUPLICATE_DETECTION, phase, done, total)

        self.detection = self.pipeline.step_duplicate_detection(
            self.transformed,
            self.selection,
            prepared_view=self.prepared_view,
            progress_callback=forward,
        )
        payload = detection_counters(self.detection)
        payload["counts"] = dict(self.detection.classified.counts)
        payload.update(counters)
        plan = self.detection.filter_statistics.blocking_plan
        if plan is not None:
            payload["blocking_plan"] = plan
        return self.detection, payload

    def _run_conflict_resolution(self):
        if self.skip_detection or self.skip_conflicts:
            return None, {"skipped": True}
        self.conflicts = self.pipeline.step_conflicts(self.detection)
        payload = {
            "contradictions": self.conflicts.contradiction_count,
            "uncertainties": self.conflicts.uncertainty_count,
        }
        return self.conflicts, payload

    def _run_fusion(self):
        counters: Dict[str, int] = {"groups_resolved": 0}

        def forward(phase: str, done: int, total: int) -> None:
            counters[phase] = counters.get(phase, 0) + 1
            self._emit_progress(self.FUSION, phase, done, total)

        # skip_detection fuses the transformed union on the spec's own keys
        relation = (
            self.detection.relation if self.detection is not None else self.transformed
        )
        self.fusion = self.pipeline.step_fusion(
            relation,
            spec=self.spec,
            metadata=self.metadata,
            progress_callback=forward,
        )
        return self.fusion, {
            "output_tuples": len(self.fusion.relation),
            "groups_resolved": counters["groups_resolved"],
        }
