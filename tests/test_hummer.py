"""Tests for the HumMer facade (public API) and the package top level."""

import pytest

import repro
from repro import HumMer
from repro.core.resolution import ResolutionFunction
from repro.engine.relation import Relation
from repro.exceptions import CatalogError


class TestPackageTopLevel:
    def test_version_and_exports(self):
        assert repro.__version__
        for name in ["HumMer", "Relation", "Schema", "FusionPipeline", "DuplicateDetector"]:
            assert hasattr(repro, name)


class TestSourceManagement:
    def test_register_and_list(self, ee_students):
        hummer = HumMer()
        hummer.register("EE_Students", ee_students)
        hummer.register("people", [{"name": "X"}])
        assert hummer.sources() == ["EE_Students", "people"]
        assert len(hummer.relation("people")) == 1

    def test_register_duplicate_rejected(self, ee_students):
        hummer = HumMer()
        hummer.register("t", ee_students)
        with pytest.raises(CatalogError):
            hummer.register("t", ee_students)
        hummer.register("t", ee_students, replace=True)

    def test_unregister(self, ee_students):
        hummer = HumMer()
        hummer.register("t", ee_students)
        hummer.unregister("t")
        assert hummer.sources() == []


class TestQueries:
    def test_paper_query(self, hummer):
        result = hummer.query(
            "SELECT Name, RESOLVE(Age, max) FUSE FROM EE_Students, CS_Students FUSE BY (Name)"
        )
        assert len(result) == 5

    def test_plain_sql_query(self, hummer):
        result = hummer.query("SELECT Name FROM EE_Students WHERE Age >= 25 ORDER BY Name")
        assert result.column("Name") == ["Ben Mueller", "David Fischer"]

    def test_explain(self, hummer):
        plan = hummer.explain("SELECT * FUSE FROM EE_Students, CS_Students")
        assert plan.is_fusion


class TestFuse:
    def test_automatic_fusion(self, hummer):
        result = hummer.fuse(["EE_Students", "CS_Students"])
        assert len(result.relation) == 5
        assert result.detection.cluster_count == 5
        assert len(result.correspondences) >= 2

    def test_fusion_with_resolutions(self, hummer):
        result = hummer.fuse(
            ["EE_Students", "CS_Students"],
            resolutions={"Name": "coalesce", "Age": "max"},
        )
        by_name = {row["Name"]: row["Age"] for row in result.relation}
        assert by_name["Anna Schmidt"] == 23

    def test_fusion_with_metadata_for_most_recent(self):
        hummer = HumMer()
        hummer.register(
            "reports_a",
            [
                {"person": "Anna Schmidt", "status": "missing", "updated": "2005-01-02"},
                {"person": "Ben Mueller", "status": "safe", "updated": "2005-01-05"},
            ],
        )
        hummer.register(
            "reports_b",
            [
                {"person": "Anna Schmidt", "status": "safe", "updated": "2005-02-20"},
            ],
        )
        result = hummer.query(
            "SELECT person, RESOLVE(status, most_recent('updated')) "
            "FUSE FROM reports_a, reports_b FUSE BY (person)"
        )
        by_person = {row["person"]: row["status"] for row in result}
        assert by_person["Anna Schmidt"] == "safe"

    def test_session_exposes_selection_mid_run(self, hummer):
        session = hummer.session(["EE_Students", "CS_Students"])
        session.advance_to(session.ATTRIBUTE_SELECTION)
        assert len(session.selection) > 0
        session.run()


class TestExtensibility:
    def test_custom_resolution_function_usable_from_query(self, hummer):
        class CheapestPlusShipping(ResolutionFunction):
            """Example of a user-defined resolution function."""

            name = "youngest_age"

            def resolve(self, context):
                values = [v for v in context.non_null_values if isinstance(v, (int, float))]
                return min(values) if values else None

        hummer.register_resolution_function(CheapestPlusShipping())
        assert "youngest_age" in hummer.resolution_functions()
        result = hummer.query(
            "SELECT Name, RESOLVE(Age, youngest_age) "
            "FUSE FROM EE_Students, CS_Students FUSE BY (Name)"
        )
        by_name = {row["Name"]: row["Age"] for row in result}
        assert by_name["Anna Schmidt"] == 22


class TestOneWiring:
    """``fuse`` and ``query`` run on the settings of one ``HumMer.pipeline()``."""

    @staticmethod
    def disjoint_hummer(config) -> HumMer:
        # no shared values, so instance-based matching finds nothing and
        # only the label-based fallback could match Name with Name
        hummer = HumMer(config=config)
        hummer.register("a", [
            {"Name": "Anna Schmidt", "City": "Berlin"},
            {"Name": "Ben Mueller", "City": "Hamburg"},
        ])
        hummer.register("b", [
            {"Name": "Carla Rossi", "Town": "Milano"},
            {"Name": "Dario Bianchi", "Town": "Torino"},
        ])
        return hummer

    @pytest.fixture
    def fallback_calls(self, monkeypatch):
        from repro.baselines.name_matcher import NameBasedMatcher

        calls = []
        original = NameBasedMatcher.match

        def counting(matcher, *args, **kwargs):
            calls.append(args)
            return original(matcher, *args, **kwargs)

        monkeypatch.setattr(NameBasedMatcher, "match", counting)
        return calls

    @pytest.mark.parametrize("use_name_fallback", [False, True])
    def test_fuse_and_query_share_the_name_fallback_flag(
        self, fallback_calls, use_name_fallback
    ):
        from repro.config import FusionConfig, MatchingConfig

        hummer = self.disjoint_hummer(
            FusionConfig(matching=MatchingConfig(use_name_fallback=use_name_fallback))
        )
        expected = 1 if use_name_fallback else 0
        hummer.fuse(["a", "b"])
        assert len(fallback_calls) == expected
        hummer.query("SELECT * FUSE FROM a, b")
        assert len(fallback_calls) == 2 * expected


class TestBenchmarkHooks:
    """The module globals an outside tracer wraps are the ones the run calls.

    A refactor that imported ``transform_sources`` or ``find_conflicts``
    by name elsewhere would bypass a wrapper set on
    ``repro.core.pipeline`` and silently report zero time for it.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        import repro.core.pipeline as core_pipeline

        counts = {"transform_sources": 0, "find_conflicts": 0}
        for name in counts:
            original = getattr(core_pipeline, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(core_pipeline, name, counting)
        return counts

    def test_fuse_calls_each_hook_once(self, hummer, calls):
        hummer.fuse(["EE_Students", "CS_Students"])
        assert calls == {"transform_sources": 1, "find_conflicts": 1}

    def test_fuse_by_query_calls_transform_sources(self, hummer, calls):
        hummer.query("SELECT * FUSE FROM EE_Students, CS_Students FUSE BY (Name)")
        assert calls["transform_sources"] == 1
