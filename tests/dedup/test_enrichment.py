"""Tests for child-table enrichment of duplicate detection."""

import pytest

from repro.dedup.enrichment import RelationshipSpec, enrich_with_children
from repro.engine.catalog import Catalog
from repro.engine.relation import Relation
from repro.exceptions import DedupError


@pytest.fixture
def catalog_with_children():
    catalog = Catalog()
    students = Relation.from_dicts(
        [
            {"student_id": 1, "name": "A. Schmidt"},
            {"student_id": 2, "name": "Anna Schmidt"},
            {"student_id": 3, "name": "A. Schmitt"},
        ],
        name="students",
    )
    enrollments = Relation.from_dicts(
        [
            {"student": 1, "course": "Database Systems", "grade": 1.3},
            {"student": 1, "course": "Information Integration", "grade": 1.7},
            {"student": 2, "course": "Database Systems", "grade": 1.3},
            {"student": 2, "course": "Information Integration", "grade": 1.7},
            {"student": 3, "course": "Organic Chemistry", "grade": 2.0},
        ],
        name="enrollments",
    )
    catalog.register("students", students)
    catalog.register("enrollments", enrollments)
    return catalog, students


class TestEnrichment:
    def test_appends_description_column(self, catalog_with_children):
        catalog, students = catalog_with_children
        enriched = enrich_with_children(
            students,
            catalog,
            [RelationshipSpec("enrollments", parent_key="student_id", child_key="student")],
        )
        assert "enrollments_description" in enriched.schema
        description = enriched.cell(0, "enrollments_description")
        assert "Database Systems" in description
        assert "Information Integration" in description

    def test_parents_without_children_get_null(self, catalog_with_children):
        catalog, students = catalog_with_children
        extra = students.append_rows([(4, "Zora Quux")])
        enriched = enrich_with_children(
            extra,
            catalog,
            [RelationshipSpec("enrollments", parent_key="student_id", child_key="student")],
        )
        assert enriched.cell(3, "enrollments_description") is None

    def test_explicit_child_attributes_and_output_name(self, catalog_with_children):
        catalog, students = catalog_with_children
        enriched = enrich_with_children(
            students,
            catalog,
            [
                RelationshipSpec(
                    "enrollments",
                    parent_key="student_id",
                    child_key="student",
                    child_attributes=["course"],
                    output_column="courses",
                )
            ],
        )
        assert "courses" in enriched.schema
        assert "1.3" not in enriched.cell(0, "courses")

    def test_unknown_parent_key_raises(self, catalog_with_children):
        catalog, students = catalog_with_children
        with pytest.raises(DedupError):
            enrich_with_children(
                students,
                catalog,
                [RelationshipSpec("enrollments", parent_key="ghost", child_key="student")],
            )

    def test_unknown_child_key_raises(self, catalog_with_children):
        catalog, students = catalog_with_children
        with pytest.raises(DedupError):
            enrich_with_children(
                students,
                catalog,
                [RelationshipSpec("enrollments", parent_key="student_id", child_key="ghost")],
            )

    def test_child_evidence_separates_lookalike_students(self, catalog_with_children):
        """The paper's point: related data distinguishes duplicates from non-duplicates."""
        catalog, students = catalog_with_children
        spec = RelationshipSpec("enrollments", parent_key="student_id", child_key="student")
        enriched = enrich_with_children(students, catalog, [spec])

        from repro.dedup.descriptions import select_interesting_attributes
        from repro.dedup.similarity_measure import DuplicateSimilarityMeasure
        from tests.dedup.reference_scoring import ReferenceScorer

        bare_selection = select_interesting_attributes(students, exclude=["student_id"])
        bare = ReferenceScorer(DuplicateSimilarityMeasure(bare_selection).fit(students))
        rich_selection = select_interesting_attributes(enriched, exclude=["student_id"])
        rich = ReferenceScorer(DuplicateSimilarityMeasure(rich_selection).fit(enriched))

        # students 1 and 2 share their whole course history (true duplicates);
        # student 3 has a similar name but a different history.
        same_gap_bare = bare.compare_rows(students.rows[0], students.rows[1]) - bare.compare_rows(
            students.rows[0], students.rows[2]
        )
        same_gap_rich = rich.compare_rows(enriched.rows[0], enriched.rows[1]) - rich.compare_rows(
            enriched.rows[0], enriched.rows[2]
        )
        assert same_gap_rich > same_gap_bare
