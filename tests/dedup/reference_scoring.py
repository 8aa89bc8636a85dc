"""Per-pair reference implementation of the duplicate measure (test oracle).

``ColumnarPairScorer`` is the one scoring path in ``src``: attribute-major,
memoised, over column lists.  This module keeps the straightforward
per-pair formulation it must reproduce bit for bit — row tuples in, one
filter bound and one full comparison per pair — so parity tests and bench
E4's columnar series have an exact oracle and an unchanged speed baseline.

The oracle reads only the fitted state of a
:class:`~repro.dedup.similarity_measure.DuplicateSimilarityMeasure` (column
positions, selection weights, soft IDF, per-attribute similarity), in the
measure's attribute order.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.dedup.pairs import PairScore
from repro.dedup.similarity_measure import DuplicateSimilarityMeasure, PairEvidence
from repro.engine.types import is_null


class ReferenceScorer:
    """Per-pair filter bound and full measure over raw row tuples.

    Trigram sets are memoised per row (keyed by the row tuple's hash), as the
    seed scoring loop did.
    """

    def __init__(self, measure: DuplicateSimilarityMeasure):
        self.measure = measure
        self._trigram_cache: Dict[int, frozenset] = {}

    def compare_rows(self, left: Sequence, right: Sequence) -> float:
        """Similarity of two raw row tuples."""
        return self.explain_rows(left, right).similarity

    def explain_rows(self, left: Sequence, right: Sequence) -> PairEvidence:
        """Similarity plus per-attribute evidence for two raw row tuples."""
        measure = self.measure
        weighted_sum = 0.0
        weight_total = 0.0
        evidence = PairEvidence(similarity=0.0)
        for attribute, position in measure._positions.items():
            left_value = left[position]
            right_value = right[position]
            if is_null(left_value) or is_null(right_value):
                # missing data has no influence on similarity
                evidence.missing_attributes.append(attribute)
                continue
            similarity = measure._attribute_similarity(attribute, left_value, right_value)
            idf = max(
                measure.soft_idf(attribute, left_value),
                measure.soft_idf(attribute, right_value),
            )
            weight = measure.selection.weights.get(attribute, 1.0) * (0.25 + 0.75 * idf)
            weighted_sum += weight * similarity
            weight_total += weight
            evidence.per_attribute[attribute] = similarity
            if similarity < measure.contradiction_threshold:
                evidence.contradicting_attributes.append(attribute)
            else:
                evidence.matched_attributes.append(attribute)
        evidence.similarity = weighted_sum / weight_total if weight_total > 0 else 0.0
        return evidence

    def upper_bound(self, left: Sequence, right: Sequence) -> float:
        """Trigram-overlap upper bound on :meth:`compare_rows`."""
        left_grams = self._row_trigrams(left)
        right_grams = self._row_trigrams(right)
        if not left_grams or not right_grams:
            return 1.0
        overlap = len(left_grams & right_grams)
        smaller = min(len(left_grams), len(right_grams))
        return min(1.0, overlap / smaller + 0.3)

    def _row_trigrams(self, values: Sequence) -> frozenset:
        try:
            key = hash(tuple(values))
        except TypeError:
            key = None
        if key is not None and key in self._trigram_cache:
            return self._trigram_cache[key]
        grams = set()
        for position in self.measure._positions.values():
            value = values[position]
            if is_null(value):
                continue
            padded = f"  {self.measure._normalise(value)} "
            grams.update(padded[i : i + 3] for i in range(len(padded) - 2))
        result = frozenset(grams)
        if key is not None:
            self._trigram_cache[key] = result
        return result


def reference_scores(
    measure: DuplicateSimilarityMeasure,
    rows: Sequence[Sequence],
    pairs: Sequence[Tuple[int, int]],
    filter_threshold,
    keep_evidence: bool,
) -> Tuple[List[PairScore], int]:
    """The per-pair scoring loop: ``(scores in candidate order, pruned)``.

    *filter_threshold* ``None`` disables the filter, as in
    :func:`repro.dedup.pairs.score_chunk`.
    """
    scorer = ReferenceScorer(measure)
    scores: List[PairScore] = []
    pruned = 0
    for i, j in pairs:
        if filter_threshold is not None and (
            scorer.upper_bound(rows[i], rows[j]) < filter_threshold
        ):
            pruned += 1
            continue
        if keep_evidence:
            evidence = scorer.explain_rows(rows[i], rows[j])
            scores.append(PairScore(i, j, evidence.similarity, evidence))
        else:
            scores.append(PairScore(i, j, scorer.compare_rows(rows[i], rows[j])))
    return scores, pruned
