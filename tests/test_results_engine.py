"""Unit tests for result sets, the engine facade and the system builder."""

import pytest

from repro.core.engine import GlobalQueryEngine
from repro.core.query import Path, Predicate, Query
from repro.core.results import GlobalResult, ResultKind, ResultSet, same_answers
from repro.core.strategies import (
    DEFAULT_REGISTRY,
    BasicLocalizedStrategy,
    resolve,
)
from repro.core.system import DistributedSystem
from repro.errors import ReproError, SchemaError
from repro.objectdb.ids import GOid
from repro.objectdb.values import NULL
from repro.workload.paper_example import (
    Q1_TEXT,
    _db1,
    _db2,
    _db3,
    correspondences,
)


def result(goid, kind=ResultKind.CERTAIN, **bindings):
    return GlobalResult(
        goid=GOid(goid),
        kind=kind,
        bindings={Path.parse(k): v for k, v in bindings.items()},
    )


class TestResultSet:
    def test_add_routes_by_kind(self):
        rs = ResultSet(targets=(Path.parse("a"),))
        rs.add(result("g1", a=1))
        rs.add(result("g2", ResultKind.MAYBE, a=2))
        assert len(rs.certain) == 1
        assert len(rs.maybe) == 1
        assert len(rs) == 2

    def test_rows_sorted_and_projected(self):
        rs = ResultSet(targets=(Path.parse("a"),))
        rs.add(result("g2", a="z"))
        rs.add(result("g1", a="a"))
        assert rs.certain_rows() == [("a",), ("z",)]

    def test_rows_tolerate_nulls_and_mixed_types(self):
        rs = ResultSet(targets=(Path.parse("a"),))
        rs.add(result("g1", a=NULL))
        rs.add(result("g2", a=3))
        rs.add(result("g3", a="x"))
        rows = rs.certain_rows()
        assert len(rows) == 3
        assert rows[-1] == (NULL,)  # nulls sort last

    def test_missing_target_binds_null(self):
        rs = ResultSet(targets=(Path.parse("a"), Path.parse("b")))
        rs.add(result("g1", a=1))
        assert rs.certain_rows() == [(1, NULL)]

    def test_find_and_sort(self):
        rs = ResultSet()
        rs.add(result("g2"))
        rs.add(result("g1"))
        rs.sort()
        assert [r.goid.value for r in rs.certain] == ["g1", "g2"]
        assert rs.find(GOid("g2")) is not None
        assert rs.find(GOid("zz")) is None

    def test_summary(self):
        rs = ResultSet()
        rs.add(result("g1"))
        assert "1 certain" in rs.summary()

    def test_same_answers(self):
        a, b = ResultSet(), ResultSet()
        a.add(result("g1"))
        b.add(result("g1"))
        assert same_answers(a, b)
        b.add(result("g2", ResultKind.MAYBE))
        assert not same_answers(a, b)

    def test_same_answers_compares_bindings(self):
        # Regression: the old check compared GOid membership only, so
        # two strategies binding different values still "agreed".
        from repro.core.results import same_entities

        targets = (Path.parse("a"),)
        a = ResultSet(targets=targets)
        b = ResultSet(targets=targets)
        a.add(result("g1", a=1))
        b.add(result("g1", a=2))
        assert same_entities(a, b)
        assert not same_answers(a, b)

    def test_same_answers_compares_unsolved(self):
        from repro.core.query import Op, Predicate
        from repro.core.results import same_entities

        pred = Predicate(Path.parse("a"), Op.EQ, 1)
        a, b = ResultSet(), ResultSet()
        a.add(result("g1", ResultKind.MAYBE))
        maybe = result("g1", ResultKind.MAYBE)
        b.add(GlobalResult(
            goid=maybe.goid, kind=maybe.kind,
            bindings=maybe.bindings, unsolved=(pred,),
        ))
        assert same_entities(a, b)
        assert not same_answers(a, b)

    def test_same_answers_ignores_projection_irrelevant_bindings(self):
        # Only projected targets participate in the comparison.
        targets = (Path.parse("a"),)
        a = ResultSet(targets=targets)
        b = ResultSet(targets=targets)
        a.add(result("g1", a=1, hidden=5))
        b.add(result("g1", a=1, hidden=6))
        assert same_answers(a, b)

    def test_scalar_vs_wrapped_multivalue_differ(self):
        # The fuzzer-found divergence: one side wrapped a single value
        # in MultiValue, the other bound the bare scalar.
        from repro.objectdb.values import MultiValue

        targets = (Path.parse("a"),)
        a = ResultSet(targets=targets)
        b = ResultSet(targets=targets)
        a.add(result("g1", a=MultiValue([7])))
        b.add(result("g1", a=7))
        assert not same_answers(a, b)


class TestStrategyRegistry:
    def test_lookup_by_name(self):
        assert resolve("bl").name == "BL"
        assert resolve("PL-S").name == "PL-S"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            resolve("nope")

    def test_all_strategies_have_unique_names(self):
        names = [info.create().name for info in DEFAULT_REGISTRY]
        assert len(names) == len(set(names)) == 6

    def test_repr(self):
        assert "BL" in repr(BasicLocalizedStrategy())


class TestSystemBuilder:
    def test_duplicate_db_names_rejected(self):
        db = _db1()
        with pytest.raises(SchemaError):
            DistributedSystem.build([db, db], correspondences())

    def test_build_discovers_catalog(self):
        system = DistributedSystem.build(
            [_db1(), _db2(), _db3()], correspondences()
        )
        assert len(system.catalog.table("Student")) == 5

    def test_site_names(self, school):
        assert school.site_names == ("DB1", "DB2", "DB3")

    def test_simulator_sites(self, school):
        fed = school.simulator()
        assert set(fed.sites) == {"DB1", "DB2", "DB3", "GPS"}

    def test_build_signatures(self, school):
        catalog = school.build_signatures()
        assert school.signatures is catalog
        from repro.objectdb.ids import LOid

        assert catalog.lookup("Teacher", LOid("DB2", "t1'")) is not None


class TestEngine:
    def test_default_strategy(self, school):
        engine = GlobalQueryEngine(school, default_strategy="CA")
        assert engine.default_strategy.name == "CA"
        outcome = engine.execute(Q1_TEXT)
        assert outcome.metrics.strategy == "CA"

    def test_strategy_instance_accepted(self, school):
        engine = GlobalQueryEngine(school)
        outcome = engine.execute(Q1_TEXT, BasicLocalizedStrategy())
        assert outcome.metrics.strategy == "BL"

    def test_parse(self, school_engine):
        query = school_engine.parse(Q1_TEXT)
        assert query.range_class == "Student"

    def test_query_object_accepted(self, school_engine):
        query = Query.conjunctive(
            "Student", ["name"], [Predicate.of("sex", "=", "female")]
        )
        outcome = school_engine.execute(query, "CA")
        names = {row[0] for row in outcome.results.certain_rows()}
        assert names == {"Mary", "Hedy", "Fanny"}
        # John's sex is null in DB1 but male in DB2 -> integrated certain
        # non-match; Tony male -> eliminated.
        assert outcome.results.maybe_rows() == []

    def test_compare_checks_agreement(self, school_engine):
        outcomes = school_engine.compare(Q1_TEXT)
        assert set(outcomes) == {"CA", "BL", "PL"}

    def test_compare_detects_disagreement(self, school_engine, monkeypatch):
        from repro.core.strategies.centralized import CentralizedStrategy

        real = CentralizedStrategy.execute

        def broken(self, system, query, ctx):
            outcome = real(self, system, query, ctx)
            outcome.results.certain.clear()
            return outcome

        monkeypatch.setattr(CentralizedStrategy, "execute", broken)
        with pytest.raises(ReproError):
            school_engine.compare(Q1_TEXT)


class TestResultExport:
    def test_to_dicts(self, school_engine):
        from repro.workload.paper_example import Q1_TEXT

        outcome = school_engine.execute(Q1_TEXT, "BL")
        rows = outcome.results.to_dicts()
        assert len(rows) == 2
        by_kind = {row["kind"]: row for row in rows}
        assert by_kind["certain"]["name"] == "Hedy"
        assert by_kind["maybe"]["name"] == "Tony"
        assert "unsolved" in by_kind["maybe"]
        assert "unsolved" not in by_kind["certain"]

    def test_to_dicts_nulls_and_multivalues(self):
        from repro.core.query import Path
        from repro.objectdb.values import MultiValue, NULL

        rs = ResultSet(targets=(Path.parse("a"), Path.parse("b")))
        rs.add(result("g1", a=NULL, b=MultiValue(["y", "x"])))
        row = rs.to_dicts()[0]
        assert row["a"] is None
        assert row["b"] == ["x", "y"]

    def test_to_json_parses(self, school_engine):
        import json

        from repro.workload.paper_example import Q1_TEXT

        outcome = school_engine.execute(Q1_TEXT, "CA")
        parsed = json.loads(outcome.results.to_json())
        assert {row["kind"] for row in parsed} == {"certain", "maybe"}

    def test_to_json_round_trips_multivalues_and_references(self):
        # Regression: to_json used ``default=str``, so MultiValue
        # members and GOid references serialized as repr strings that
        # did not round-trip: json.loads(to_json()) != to_dicts().
        import json

        from repro.core.query import Path
        from repro.objectdb.ids import GOid, LOid
        from repro.objectdb.values import MultiValue

        rs = ResultSet(targets=(Path.parse("a"), Path.parse("b")))
        rs.add(result(
            "g1",
            a=MultiValue([3, 1, 2]),
            b=GOid("g9"),
        ))
        rs.add(result("g2", a=LOid("DB1", "x7"), b=MultiValue([])))
        assert json.loads(rs.to_json()) == rs.to_dicts()
        row = rs.to_dicts()[0]
        assert row["a"] == [1, 2, 3]
        assert row["b"] == "g9"

    def test_export_value_canonical_forms(self):
        from repro.core.results import export_value
        from repro.objectdb.ids import GOid
        from repro.objectdb.values import MultiValue, NULL

        assert export_value(NULL) is None
        assert export_value(MultiValue(["b", "a"])) == ["a", "b"]
        assert export_value(GOid("g3")) == "g3"
        assert export_value(7) == 7
        assert export_value(MultiValue([GOid("g2"), GOid("g1")])) == [
            "g1", "g2"
        ]


class TestAvailabilityExport:
    def test_retry_counts_summed_per_site(self):
        # Regression: the old dict comprehension kept only the last
        # (site, count) pair, silently dropping duplicate sites.
        from repro.core.results import Availability

        availability = Availability(
            complete=False,
            sites_skipped=("DB3",),
            retries=(("DB2", 1), ("DB2", 2), ("DB1", 4)),
        )
        exported = availability.to_dict()
        assert exported["retries"] == {"DB1": 4, "DB2": 3}
        assert exported["sites_skipped"] == ["DB3"]

    def test_fault_free_export(self):
        from repro.core.results import Availability

        assert Availability().to_dict()["retries"] == {}
