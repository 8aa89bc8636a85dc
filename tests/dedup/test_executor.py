"""Determinism and parity tests for pair scoring, in-process and in a pool."""

import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

import repro.dedup.pairs as pairs_module
from repro.config import DedupConfig
from repro.dedup.classification import classify_pairs
from repro.dedup.descriptions import select_interesting_attributes
from repro.dedup.detector import DuplicateDetector
from repro.dedup.pairs import CandidatePairGenerator, chunk_size, score_chunk
from repro.dedup.similarity_measure import ColumnarPairScorer, DuplicateSimilarityMeasure
from repro.exceptions import ConfigError
from repro.matching.dumas import DumasMatcher
from repro.matching.multi import MultiMatcher
from repro.matching.transform import transform_sources
from tests.dedup.reference_scoring import ReferenceScorer, reference_scores


def combined_relation(dataset):
    sources = dataset.source_list
    matching = MultiMatcher(DumasMatcher()).match(sources)
    return transform_sources(sources, matching.correspondences)


def score_key(scores):
    return [(score.left_index, score.right_index, score.similarity) for score in scores]


@pytest.fixture
def force_pool(monkeypatch):
    """Fan out even tiny candidate sets once ``workers > 1``."""
    monkeypatch.setattr(pairs_module, "MIN_PARALLEL_PAIRS", 0)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Record the ``max_workers`` of every scoring pool that is started."""
    started = []

    def spy(*args, **kwargs):
        started.append(kwargs["max_workers"])
        return ProcessPoolExecutor(*args, **kwargs)

    monkeypatch.setattr(pairs_module, "ProcessPoolExecutor", spy)
    return started


class TestResolveExecutor:
    """How the ``workers`` knob selects in-process or pool scoring."""

    def test_none_is_serial(self, small_students_dataset, force_pool, pool_sizes):
        relation = combined_relation(small_students_dataset)
        DuplicateDetector(workers=None).detect(relation)
        DuplicateDetector(workers=1).detect(relation)
        assert pool_sizes == []

    def test_options_are_forwarded(self):
        detector = DedupConfig(workers=3).build_detector()
        assert detector.workers == 3
        assert detector.with_overrides(threshold=0.8).workers == 3

    def test_executor_for_workers(self, small_students_dataset, force_pool, pool_sizes):
        relation = combined_relation(small_students_dataset)
        DuplicateDetector(workers=2).detect(relation)
        assert pool_sizes == [2]

    def test_unknown_name_rejected(self):
        # the retired executor spelling stays retired, no shim
        with pytest.raises(TypeError):
            DuplicateDetector(executor="multiprocess")

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            DuplicateDetector(workers=0)
        with pytest.raises(ConfigError, match="workers must be at least 1"):
            DedupConfig(workers=0)


class TestChunking:
    def test_default_chunk_size_targets_four_batches_per_worker(self):
        assert chunk_size(8000, workers=2) == 1000

    def test_chunk_size_never_zero(self):
        assert chunk_size(1, workers=8) == 1


def setup_scoring(dataset):
    relation = combined_relation(dataset)
    selection = select_interesting_attributes(relation)
    measure = DuplicateSimilarityMeasure(selection).fit(relation)
    generator = CandidatePairGenerator(measure, filter_threshold=0.6)
    pairs = list(generator.candidate_indices(relation))
    return relation, measure, pairs


class TestMeasurePickling:
    def test_score_batch_matches_direct_scoring(self, small_students_dataset):
        # what a pool worker runs: score_chunk over an unpickled scorer
        relation, measure, pairs = setup_scoring(small_students_dataset)
        scorer = pickle.loads(pickle.dumps(ColumnarPairScorer(measure, relation)))
        scores, pruned = score_chunk(scorer, 0.6, False, pairs)
        generator = CandidatePairGenerator(measure, filter_threshold=0.6)
        expected = generator.score_pairs(relation)
        assert score_key(scores) == score_key(expected)
        assert generator.statistics.considered == len(pairs)
        assert pruned == generator.statistics.pruned


class TestColumnarBatchParity:
    """The columnar scorer is bit-identical to the per-pair reference: same
    floats, same pruning decisions, same evidence — for every combination of
    filter and evidence settings."""

    @pytest.mark.parametrize("use_filter", [True, False])
    @pytest.mark.parametrize("keep_evidence", [True, False])
    def test_score_batch_bit_identical(
        self, small_students_dataset, use_filter, keep_evidence
    ):
        relation, measure, pairs = setup_scoring(small_students_dataset)
        threshold = 0.6 if use_filter else None
        scores, pruned = score_chunk(
            ColumnarPairScorer(measure, relation), threshold, keep_evidence, pairs
        )
        expected, expected_pruned = reference_scores(
            measure, relation.rows, pairs, threshold, keep_evidence
        )
        assert pruned == expected_pruned
        assert scores == expected  # bit-identical floats and evidence
        assert all((score.evidence is not None) == keep_evidence for score in scores)

    def test_columnar_scorer_upper_bound_parity(self, small_students_dataset):
        relation, measure, pairs = setup_scoring(small_students_dataset)
        scorer = ColumnarPairScorer(measure, relation)
        reference = ReferenceScorer(measure)
        rows = relation.rows
        for i, j in pairs:
            assert scorer.upper_bound(i, j) == reference.upper_bound(rows[i], rows[j])


class TestOnePathParity:
    """In-process scoring, a forced 2-worker pool and the per-pair oracle
    agree exactly: scores, evidence, filter counters and clusters."""

    @pytest.mark.parametrize("keep_evidence", [False, True])
    @pytest.mark.parametrize("scenario", ["students", "cds"])
    def test_serial_pool_and_oracle_agree(
        self, request, force_pool, scenario, keep_evidence
    ):
        dataset = request.getfixturevalue(f"small_{scenario}_dataset")
        relation = combined_relation(dataset)
        serial = DuplicateDetector(keep_evidence=keep_evidence).detect(relation)
        pool = DuplicateDetector(keep_evidence=keep_evidence, workers=2).detect(relation)

        detector = DuplicateDetector()
        measure = DuplicateSimilarityMeasure(serial.selection).fit(relation)
        generator = CandidatePairGenerator(measure, filter_threshold=0.6)
        pairs = list(generator.candidate_indices(relation))
        oracle, oracle_pruned = reference_scores(
            measure, relation.rows, pairs, 0.6, keep_evidence
        )
        oracle_assignment, _ = detector._cluster_accepted(
            relation, classify_pairs(oracle, detector.threshold, detector.uncertainty_band)
        )

        assert serial.scores == oracle
        assert pool.scores == oracle
        assert pool.filter_statistics == serial.filter_statistics
        assert serial.filter_statistics.considered == len(pairs)
        assert serial.filter_statistics.pruned == oracle_pruned
        assert serial.cluster_assignment == oracle_assignment
        assert pool.cluster_assignment == oracle_assignment


class TestSerialParity:
    """Scoring defaults to the calling process."""

    def test_detector_defaults_to_serial(self):
        assert DuplicateDetector().workers is None

    def test_small_input_fallback_matches_serial(self, small_students_dataset, pool_sizes):
        relation = combined_relation(small_students_dataset)
        serial = DuplicateDetector().detect(relation)
        # below MIN_PARALLEL_PAIRS candidates the pool is never started
        fallback = DuplicateDetector(workers=2).detect(relation)
        assert pool_sizes == []
        assert score_key(fallback.scores) == score_key(serial.scores)
        assert fallback.cluster_assignment == serial.cluster_assignment
        assert (
            fallback.filter_statistics.as_dict() == serial.filter_statistics.as_dict()
        )


@pytest.mark.parametrize("blocking", ["allpairs", "token"])
class TestMultiprocessParity:
    """Pool scoring reproduces the in-process run exactly."""

    def parity_check(self, relation, blocking):
        serial = DuplicateDetector(blocking=blocking).detect(relation)
        parallel = DuplicateDetector(blocking=blocking, workers=2).detect(relation)
        assert score_key(parallel.scores) == score_key(serial.scores)
        assert set(parallel.duplicate_pairs) == set(serial.duplicate_pairs)
        assert parallel.cluster_assignment == serial.cluster_assignment
        assert (
            parallel.filter_statistics.as_dict() == serial.filter_statistics.as_dict()
        )
        return serial, parallel

    def test_students_parity(self, small_students_dataset, blocking, force_pool):
        relation = combined_relation(small_students_dataset)
        self.parity_check(relation, blocking)

    def test_cds_parity(self, small_cds_dataset, blocking, force_pool):
        relation = combined_relation(small_cds_dataset)
        self.parity_check(relation, blocking)

    def test_tiny_chunks_preserve_order(
        self, small_students_dataset, blocking, force_pool, monkeypatch
    ):
        # 7-pair chunks force many chunks per worker; the merged score list
        # must still come back in candidate order.
        monkeypatch.setattr(pairs_module, "chunk_size", lambda pair_count, workers: 7)
        relation = combined_relation(small_students_dataset)
        self.parity_check(relation, blocking)


class TestAdaptiveExecutorParity:
    """Adaptive blocking composes with pool scoring.

    On the parity fixture the planner falls back to all-pairs (the input is
    far below ``small_threshold``), so adaptive + pool must be bit-identical
    to an in-process all-pairs run — same ``PairScore`` list, same clusters,
    same filter counters; only the plan report is extra.
    """

    def test_adaptive_multiprocess_matches_serial_allpairs(
        self, small_students_dataset, force_pool
    ):
        from repro.dedup.blocking import AdaptiveBlocking

        relation = combined_relation(small_students_dataset)
        serial = DuplicateDetector(blocking="allpairs").detect(relation)
        adaptive = DuplicateDetector(blocking="adaptive", workers=2).detect(relation)
        assert score_key(adaptive.scores) == score_key(serial.scores)
        assert adaptive.cluster_assignment == serial.cluster_assignment
        serial_stats = serial.filter_statistics.as_dict()
        adaptive_stats = adaptive.filter_statistics.as_dict()
        plan = adaptive_stats.pop("blocking_plan")
        serial_stats.pop("blocking_plan")
        assert plan["strategy"] == "allpairs"
        assert adaptive_stats == serial_stats
        # sanity: the planner really did fall back because of input size
        assert isinstance(
            DuplicateDetector(blocking="adaptive").blocking, AdaptiveBlocking
        )

    def test_escalated_plan_is_executor_invariant(
        self, small_students_dataset, force_pool
    ):
        # Force the escalated (non-allpairs) path with small_threshold=0 and
        # check in-process vs. pool runs of the *same* plan agree exactly,
        # plan report included.
        from repro.dedup.blocking import AdaptiveBlocking

        relation = combined_relation(small_students_dataset)
        serial = DuplicateDetector(
            blocking=AdaptiveBlocking(small_threshold=0)
        ).detect(relation)
        parallel = DuplicateDetector(
            blocking=AdaptiveBlocking(small_threshold=0), workers=2
        ).detect(relation)
        assert serial.filter_statistics.blocking_plan["strategy"] != "allpairs"
        assert score_key(parallel.scores) == score_key(serial.scores)
        assert parallel.cluster_assignment == serial.cluster_assignment
        assert (
            parallel.filter_statistics.as_dict() == serial.filter_statistics.as_dict()
        )


class TestEvidenceAndThreading:
    def test_keep_evidence_survives_the_pool(self, small_students_dataset, force_pool):
        relation = combined_relation(small_students_dataset)
        serial = DuplicateDetector(keep_evidence=True).detect(relation)
        parallel = DuplicateDetector(keep_evidence=True, workers=2).detect(relation)
        assert score_key(parallel.scores) == score_key(serial.scores)
        for left, right in zip(serial.scores, parallel.scores):
            assert left.evidence is not None and right.evidence is not None
            assert left.evidence.similarity == right.evidence.similarity
            assert left.evidence.per_attribute == right.evidence.per_attribute

    def test_hummer_threads_executor_into_detector(self):
        from repro.config import FusionConfig
        from repro.hummer import HumMer

        hummer = HumMer(config=FusionConfig(dedup=DedupConfig(workers=2)))
        assert hummer.detector.workers == 2

    def test_injected_detector_executor_wins(self):
        from repro.config import FusionConfig
        from repro.hummer import HumMer

        detector = DuplicateDetector(workers=2)
        hummer = HumMer(
            detector=detector, config=FusionConfig(dedup=DedupConfig(workers=3))
        )
        assert hummer.detector.workers == 2

    def test_configured_pipeline_executor(self, small_students_dataset, force_pool):
        from repro.config import FusionConfig
        from repro.core.pipeline import FusionPipeline
        from repro.hummer import HumMer

        dataset = small_students_dataset
        hummer = HumMer(config=FusionConfig(dedup=DedupConfig(workers=2)))
        for alias, relation in dataset.sources.items():
            hummer.register(alias, relation)
        pipeline = hummer.pipeline()
        assert pipeline.detector.workers == 2
        result = pipeline.run(list(dataset.sources))
        serial_result = FusionPipeline(hummer.catalog).run(list(dataset.sources))
        assert result.detection.cluster_assignment == (
            serial_result.detection.cluster_assignment
        )
