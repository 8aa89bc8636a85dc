"""The duplicate-detection similarity measure.

Paper §2.3 — tuples are compared pairwise with a measure that takes into
account:

(i)   matched vs. unmatched attributes,
(ii)  data similarity between matched attributes using edit distance and
      numerical distance functions,
(iii) the identifying power of a data item, measured by a soft version of
      IDF, and
(iv)  matched but contradictory vs. non-specified (missing) data:
      contradictory data *reduces* similarity whereas missing data has *no*
      influence.

The measure implemented here scores a pair as a weighted average over the
attributes where **both** tuples carry a value:

    sim(t1, t2) = Σ_a w_a · s_a(t1[a], t2[a]) / Σ_a w_a        (a: both present)

where ``s_a`` is the type-aware value similarity (edit distance for text,
relative distance for numbers, decay for dates) and ``w_a`` combines the
attribute weight from the selection heuristics with the *soft IDF* of the
actual values: agreeing on a rare value is strong evidence, agreeing on a
frequent value is weak evidence.  Attributes missing on either side simply do
not contribute (neutral), while attributes present on both sides but very
dissimilar pull the score down (contradiction).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dedup.descriptions import AttributeSelection
from repro.engine.relation import Relation
from repro.engine.types import is_null
from repro.similarity.numeric import value_similarity

__all__ = ["PairEvidence", "DuplicateSimilarityMeasure", "ColumnarPairScorer"]


@dataclass
class PairEvidence:
    """Explanation of one pairwise comparison (used by the demo's inspection view)."""

    similarity: float
    matched_attributes: List[str] = field(default_factory=list)
    contradicting_attributes: List[str] = field(default_factory=list)
    missing_attributes: List[str] = field(default_factory=list)
    per_attribute: Dict[str, float] = field(default_factory=dict)


class DuplicateSimilarityMeasure:
    """Soft-IDF weighted, contradiction-aware tuple similarity.

    The measure holds the fitted state — value frequencies (soft IDF),
    numeric ranges and column positions — and the per-attribute similarity;
    :class:`ColumnarPairScorer` applies it to pairs of rows.

    Args:
        selection: the attributes to compare (from the heuristics or the user).
        contradiction_threshold: per-attribute similarity below which two
            present values are counted as *contradicting* (pure negative
            evidence).
        soft_idf_smoothing: additive smoothing for value frequencies.
        sharpness: exponent applied to each per-attribute similarity before
            aggregation.  Raw string/numeric similarities are optimistic —
            two unrelated e-mail addresses on the same domain already score
            around 0.5 — so sharpening (> 1) stretches the gap between
            "nearly identical" and "merely similar" values and keeps chains
            of borderline pairs from over-merging in the transitive closure.
        numeric_range_fraction: a numeric difference of this fraction of the
            column's observed value range maps to similarity ``exp(-1)``;
            this replaces the relative-difference similarity, which is far
            too forgiving for narrow-range attributes such as ages.
    """

    def __init__(
        self,
        selection: AttributeSelection,
        contradiction_threshold: float = 0.25,
        soft_idf_smoothing: float = 1.0,
        sharpness: float = 2.5,
        numeric_range_fraction: float = 0.2,
    ):
        self.selection = selection
        self.contradiction_threshold = contradiction_threshold
        self.soft_idf_smoothing = soft_idf_smoothing
        self.sharpness = sharpness
        self.numeric_range_fraction = numeric_range_fraction
        self._value_frequencies: Dict[str, Counter] = {}
        self._numeric_scales: Dict[str, float] = {}
        self._row_count = 0
        self._positions: Dict[str, int] = {}

    # -- fitting -----------------------------------------------------------------

    def fit(self, relation: Relation) -> "DuplicateSimilarityMeasure":
        """Learn value frequencies (soft IDF), numeric ranges and column positions."""
        self._row_count = len(relation)
        self._positions = {}
        self._value_frequencies = {}
        self._numeric_scales = {}
        for attribute in self.selection.attributes:
            if not relation.schema.has_column(attribute):
                continue
            position = relation.schema.position(attribute)
            self._positions[attribute] = position
            counter: Counter = Counter()
            numeric_values: List[float] = []
            # Columnar fit: one zero-copy column fetch plus its cached null
            # mask, instead of materialising every row tuple per attribute.
            column = relation.column_at(position)
            mask = relation.null_mask(attribute)
            for value, null in zip(column, mask):
                if null:
                    continue
                counter[self._normalise(value)] += 1
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    numeric_values.append(float(value))
            self._value_frequencies[attribute] = counter
            if len(numeric_values) >= 2:
                value_range = max(numeric_values) - min(numeric_values)
                if value_range > 0:
                    self._numeric_scales[attribute] = value_range * self.numeric_range_fraction
        return self

    @property
    def fitted_attributes(self) -> Tuple[str, ...]:
        """Selected attributes present in the fitted relation, in scoring order."""
        return tuple(self._positions)

    @staticmethod
    def _normalise(value) -> str:
        return str(value).strip().lower()

    def soft_idf(self, attribute: str, value) -> float:
        """Identifying power of *value* within *attribute* (soft IDF, in (0, 1]).

        Rare values approach 1, values occurring in every tuple approach 0.
        """
        if is_null(value) or self._row_count == 0:
            return 0.0
        counter = self._value_frequencies.get(attribute)
        if counter is None:
            return 0.5
        frequency = counter.get(self._normalise(value), 0) + self.soft_idf_smoothing
        total = self._row_count + self.soft_idf_smoothing
        return math.log(total / frequency) / math.log(total + 1.0)

    # -- comparison ----------------------------------------------------------------

    def _attribute_similarity(self, attribute: str, left, right) -> float:
        """Per-attribute similarity: range-scaled for numbers, sharpened overall."""
        both_numeric = (
            isinstance(left, (int, float))
            and isinstance(right, (int, float))
            and not isinstance(left, bool)
            and not isinstance(right, bool)
        )
        if both_numeric and attribute in self._numeric_scales:
            from repro.similarity.numeric import numeric_similarity

            raw = numeric_similarity(float(left), float(right), scale=self._numeric_scales[attribute])
        else:
            raw = value_similarity(left, right)
        if self.sharpness == 1.0:
            return raw
        return raw ** self.sharpness


class ColumnarPairScorer:
    """Filter bound and full measure over the selected columns of one relation.

    This is the one pair-scoring implementation.  It works
    **attribute-major** over zero-copy column lists and memoises every pure
    leaf across all the pairs it scores — blocking groups similar tuples, so
    the same cells and the same (value, value) pairs recur across pairs:

    * per-row trigram sets (the upper-bound filter), keyed by row index;
    * per-attribute cell-pair similarities, keyed by the cell values (with
      their types, mirroring the cross-type care of ``content_key``);
    * per-attribute soft-IDF weights, keyed by the cell value.

    **Bit-identity**: memoisation only short-circuits pure functions of the
    measure's fitted state, and each pair's weighted accumulation runs in
    the measure's attribute order, so every returned float is byte-identical
    to scoring the pair on its own.  The per-pair oracle in
    ``tests/dedup/reference_scoring.py`` and bench E4's columnar series
    assert it.

    The scorer pickles (for pool workers) as long as it is shipped before
    use; its memo tables then travel empty.
    """

    def __init__(self, measure: DuplicateSimilarityMeasure, relation: Relation):
        self.measure = measure
        #: per attribute: (name, values, null mask, selection weight)
        self._attributes: List[Tuple[str, List, bytes, float]] = [
            (
                attribute,
                relation.column(attribute),
                relation.null_mask(attribute),
                measure.selection.weights.get(attribute, 1.0),
            )
            for attribute in measure.fitted_attributes
        ]
        self._similarity_caches: List[Dict] = [{} for _ in self._attributes]
        self._idf_caches: List[Dict] = [{} for _ in self._attributes]
        self._trigram_sets: Dict[int, frozenset] = {}

    # -- upper bound ---------------------------------------------------------------

    def upper_bound(self, left_index: int, right_index: int) -> float:
        """Cheap upper bound on the full similarity of two rows.

        Character-trigram overlap of the rows' selected values, plus a
        constant slack: two tuples whose values share almost no trigrams
        cannot reach a high similarity under the full measure, while typo'd
        duplicates still share most of their trigrams.  This is the "filter
        (upper bound to the similarity measure)" of paper §2.3.
        """
        left_grams = self._trigrams(left_index)
        right_grams = self._trigrams(right_index)
        if not left_grams or not right_grams:
            return 1.0  # nothing to prune on — cannot rule the pair out
        overlap = len(left_grams & right_grams)
        smaller = min(len(left_grams), len(right_grams))
        # constant slack allows for similar-but-not-identical characters
        return min(1.0, overlap / smaller + 0.3)

    def _trigrams(self, index: int) -> frozenset:
        cached = self._trigram_sets.get(index)
        if cached is not None:
            return cached
        normalise = self.measure._normalise
        grams = set()
        for _, column, mask, _ in self._attributes:
            if mask[index]:
                continue
            text = normalise(column[index])
            padded = f"  {text} "
            grams.update(padded[i : i + 3] for i in range(len(padded) - 2))
        result = frozenset(grams)
        self._trigram_sets[index] = result
        return result

    # -- batched scoring ------------------------------------------------------------

    def similarities(self, pairs: Sequence[Tuple[int, int]]) -> List[float]:
        """Similarity per pair, computed attribute-major over the batch."""
        return self._accumulate(pairs, explain=False)

    def explain(self, pairs: Sequence[Tuple[int, int]]) -> List[PairEvidence]:
        """Per-pair :class:`PairEvidence`, attribute-major over the batch."""
        return self._accumulate(pairs, explain=True)

    def _accumulate(self, pairs: Sequence[Tuple[int, int]], explain: bool) -> List:
        """Each pair's weighted average over the attributes both rows carry.

        Missing values are neutral; present values below the measure's
        contradiction threshold are recorded as contradicting (evidence only).
        """
        per_attribute = [
            self._attribute_batch(slot, pairs) for slot in range(len(self._attributes))
        ]
        names = [attribute for attribute, _, _, _ in self._attributes]
        threshold = self.measure.contradiction_threshold
        results: List = []
        for k in range(len(pairs)):
            evidence = PairEvidence(similarity=0.0) if explain else None
            weighted_sum = 0.0
            weight_total = 0.0
            for attribute, cells in zip(names, per_attribute):
                cell = cells[k]
                if cell is None:
                    if evidence is not None:
                        evidence.missing_attributes.append(attribute)
                    continue
                similarity, weight = cell
                weighted_sum += weight * similarity
                weight_total += weight
                if evidence is not None:
                    evidence.per_attribute[attribute] = similarity
                    if similarity < threshold:
                        evidence.contradicting_attributes.append(attribute)
                    else:
                        evidence.matched_attributes.append(attribute)
            similarity = weighted_sum / weight_total if weight_total > 0 else 0.0
            if evidence is None:
                results.append(similarity)
            else:
                evidence.similarity = similarity
                results.append(evidence)
        return results

    def _attribute_batch(
        self, slot: int, pairs: Sequence[Tuple[int, int]]
    ) -> List[Optional[Tuple[float, float]]]:
        """One attribute's ``(similarity, weight)`` per pair (``None`` = missing).

        The similarity is memoised per distinct (left value, right value)
        cell pair and the soft-IDF per distinct cell value, both keyed with
        the values' types so Python's cross-type equality (``True == 1``)
        cannot conflate cells that normalise differently.  Unhashable cells
        fall back to direct computation.
        """
        measure = self.measure
        attribute, column, mask, base_weight = self._attributes[slot]
        similarity_cache = self._similarity_caches[slot]
        idf_cache = self._idf_caches[slot]
        results: List[Optional[Tuple[float, float]]] = []
        for i, j in pairs:
            if mask[i] or mask[j]:
                results.append(None)
                continue
            left = column[i]
            right = column[j]
            try:
                pair_key = (left.__class__, left, right.__class__, right)
                similarity = similarity_cache.get(pair_key)
                if similarity is None:
                    similarity = measure._attribute_similarity(attribute, left, right)
                    similarity_cache[pair_key] = similarity
            except TypeError:  # unhashable cell value
                similarity = measure._attribute_similarity(attribute, left, right)
            idf = max(
                self._soft_idf(idf_cache, attribute, left),
                self._soft_idf(idf_cache, attribute, right),
            )
            weight = base_weight * (0.25 + 0.75 * idf)
            results.append((similarity, weight))
        return results

    def _soft_idf(self, cache: Dict, attribute: str, value) -> float:
        try:
            key = (value.__class__, value)
            cached = cache.get(key)
            if cached is None:
                cached = self.measure.soft_idf(attribute, value)
                cache[key] = cached
            return cached
        except TypeError:  # unhashable cell value
            return self.measure.soft_idf(attribute, value)
