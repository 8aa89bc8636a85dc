"""Candidate-pair generation and scoring.

A pluggable :class:`~repro.dedup.blocking.BlockingStrategy` proposes the
tuple pairs to look at (all pairs by default, sorted-neighborhood or token
blocking for near-linear scaling), the cross-source rule drops pairs whose
tuples share a source (when duplicates within one source are impossible by
assumption), the upper-bound filter prunes hopeless pairs and the survivors
are scored with the full measure.

Filtering and scoring run through one pure chunk function,
:func:`score_chunk`, over a :class:`ColumnarPairScorer` — in the calling
process, or fanned out over a process pool when ``workers > 1`` and there
are at least :data:`MIN_PARALLEL_PAIRS` candidates.  Chunks are contiguous
slices of the candidate list merged back in order, so the scores and the
:class:`FilterStatistics` are identical either way.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.dedup.blocking import BlockingSpec, BlockingStrategy, resolve_blocking
from repro.dedup.filters import FilterStatistics
from repro.dedup.similarity_measure import (
    ColumnarPairScorer,
    DuplicateSimilarityMeasure,
    PairEvidence,
)
from repro.engine.relation import Relation
from repro.engine.types import is_null

__all__ = ["PairScore", "CandidatePairGenerator", "MIN_PARALLEL_PAIRS", "score_chunk"]

#: Below this many candidate pairs scoring stays in-process even with
#: ``workers > 1``: starting a pool for a few hundred pairs costs more than
#: it saves.
MIN_PARALLEL_PAIRS = 2048

#: Chunks per worker when scoring fans out: large enough to amortise
#: dispatch, small enough to keep the pool busy when chunk runtimes vary
#: (blocks of near-duplicates filter less and score slower than random pairs).
CHUNKS_PER_WORKER = 4


@dataclass
class PairScore:
    """One fully compared tuple pair."""

    left_index: int
    right_index: int
    similarity: float
    evidence: Optional[PairEvidence] = None

    def as_tuple(self) -> Tuple[int, int]:
        """The index pair, smaller index first."""
        return (self.left_index, self.right_index)


def score_chunk(
    scorer: ColumnarPairScorer,
    filter_threshold: Optional[float],
    keep_evidence: bool,
    pairs: Sequence[Tuple[int, int]],
) -> Tuple[List[PairScore], int]:
    """Filter and score one slice of candidate pairs.

    Pure function of its arguments, so the calling process and pool workers
    run the same code.  Pairs whose upper bound falls below
    *filter_threshold* are pruned (``None`` disables the filter); the
    survivors are scored in one attribute-major batch.  Returns the scores
    in candidate order and the number of pruned pairs.
    """
    if filter_threshold is None:
        survivors = pairs
    else:
        survivors = [
            pair for pair in pairs if scorer.upper_bound(pair[0], pair[1]) >= filter_threshold
        ]
    if keep_evidence:
        scores = [
            PairScore(i, j, evidence.similarity, evidence)
            for (i, j), evidence in zip(survivors, scorer.explain(survivors))
        ]
    else:
        scores = [
            PairScore(i, j, similarity)
            for (i, j), similarity in zip(survivors, scorer.similarities(survivors))
        ]
    return scores, len(pairs) - len(survivors)


def chunk_size(pair_count: int, workers: int) -> int:
    """Pairs per chunk when *pair_count* candidates fan out over *workers*."""
    return max(1, math.ceil(pair_count / (workers * CHUNKS_PER_WORKER)))


#: ``score_chunk``'s fixed arguments, installed once per pool worker by the
#: initializer, so the scorer is shipped per worker rather than per chunk.
_worker_arguments: Optional[Tuple[ColumnarPairScorer, Optional[float], bool]] = None


def _install_worker(*arguments) -> None:
    global _worker_arguments
    _worker_arguments = arguments


def _score_in_worker(pairs: Sequence[Tuple[int, int]]) -> Tuple[List[PairScore], int]:
    return score_chunk(*_worker_arguments, pairs)


class CandidatePairGenerator:
    """Enumerates, filters and scores candidate tuple pairs.

    Args:
        measure: a fitted :class:`DuplicateSimilarityMeasure`.
        filter_threshold: threshold handed to the upper-bound filter
            (normally the duplicate threshold itself).
        use_filter: disable to measure the filter's benefit (experiment E2).
        cross_source_only: when true, tuples sharing the same ``sourceID`` are
            never paired (sources are assumed internally duplicate-free).
        keep_evidence: retain per-attribute evidence for each scored pair
            (needed by the demo's conflict preview, costs memory).
        blocking: a :class:`BlockingStrategy`, a strategy name
            (``"allpairs"``, ``"snm"``, ``"token"``, ``"union:snm+token"``,
            ``"adaptive"``) or ``None`` for the exact all-pairs baseline.
        workers: worker processes for filtering and scoring (``None`` or 1
            scores in the calling process).
        progress_callback: optional ``(phase, done, total)`` callable invoked
            as scored chunks are merged
            (``("pairs_scored", cumulative_pairs, total_candidates)``) — the
            dedup counterpart of the matcher's and fusion operator's
            intra-step progress streams.
    """

    def __init__(
        self,
        measure: DuplicateSimilarityMeasure,
        filter_threshold: float,
        use_filter: bool = True,
        cross_source_only: bool = False,
        source_column: str = "sourceID",
        keep_evidence: bool = False,
        blocking: BlockingSpec = None,
        workers: Optional[int] = None,
        progress_callback: Optional[Callable[[str, int, int], None]] = None,
    ):
        self.measure = measure
        self.filter_threshold = filter_threshold
        self.use_filter = use_filter
        #: Counters of every pruning stage (blocking, cross-source, filter).
        self.statistics = FilterStatistics()
        self.cross_source_only = cross_source_only
        self.source_column = source_column
        self.keep_evidence = keep_evidence
        self.blocking: BlockingStrategy = resolve_blocking(blocking)
        self.workers = workers
        self.progress_callback = progress_callback

    def blocking_attributes(self, relation: Relation) -> List[str]:
        """The selected attributes present in *relation* — the blocking keys.

        Ordered by selection weight (most identifying first), so strategies
        that cap their key count work on the attributes with the highest
        identifying power.
        """
        weights = self.measure.selection.weights
        present = [
            attribute
            for attribute in self.measure.selection.attributes
            if relation.schema.has_column(attribute)
        ]
        return sorted(present, key=lambda attribute: -weights.get(attribute, 1.0))

    def candidate_indices(self, relation: Relation) -> Iterator[Tuple[int, int]]:
        """Index pairs ``i < j`` proposed by blocking and the cross-source rule."""
        size = len(relation)
        statistics = self.statistics
        statistics.total_pairs += size * (size - 1) // 2
        attributes = self.blocking_attributes(relation)
        plan = self.blocking.plan_report(relation, attributes)
        if plan is not None:
            statistics.blocking_plan = plan
        source_values: Optional[List] = None
        if self.cross_source_only and relation.schema.has_column(self.source_column):
            # Zero-copy column fetch — the cross-source rule reads one
            # attribute, not whole row tuples.
            source_values = relation.column(self.source_column)
        for i, j in self.blocking.pairs(relation, attributes):
            statistics.blocking_candidates += 1
            if source_values is not None:
                left_source = source_values[i]
                right_source = source_values[j]
                if (
                    not is_null(left_source)
                    and not is_null(right_source)
                    and left_source == right_source
                ):
                    statistics.cross_source_skipped += 1
                    continue
            yield (i, j)

    def score_pairs(self, relation: Relation) -> List[PairScore]:
        """Filter and score every candidate pair of *relation*.

        Candidates are enumerated in the calling process; with ``workers > 1``
        and at least :data:`MIN_PARALLEL_PAIRS` of them, contiguous chunks
        (about :data:`CHUNKS_PER_WORKER` per worker) are scored in a process
        pool and merged in candidate order.
        """
        scorer = ColumnarPairScorer(self.measure, relation)
        pairs = list(self.candidate_indices(relation))
        arguments = (
            scorer,
            self.filter_threshold if self.use_filter else None,
            self.keep_evidence,
        )
        workers = self.workers or 1
        if workers <= 1 or len(pairs) < max(MIN_PARALLEL_PAIRS, 2):
            return self._merge([score_chunk(*arguments, pairs)], len(pairs))
        size = chunk_size(len(pairs), workers)
        chunks = [pairs[start : start + size] for start in range(0, len(pairs), size)]
        with ProcessPoolExecutor(
            max_workers=min(workers, len(chunks)),
            initializer=_install_worker,
            initargs=arguments,
        ) as pool:
            return self._merge(pool.map(_score_in_worker, chunks), len(pairs))

    def _merge(
        self, results: Iterable[Tuple[List[PairScore], int]], total: int
    ) -> List[PairScore]:
        """Fold chunk results, in candidate order, into one score list.

        Each chunk adds its considered and pruned pairs to :attr:`statistics`
        and reports cumulative progress.
        """
        scored: List[PairScore] = []
        done = 0
        for scores, pruned in results:
            considered = len(scores) + pruned
            self.statistics.considered += considered
            self.statistics.pruned += pruned
            scored.extend(scores)
            done += considered
            if self.progress_callback is not None:
                self.progress_callback("pairs_scored", done, total)
        return scored
