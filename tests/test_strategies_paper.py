"""End-to-end reproduction of the paper's running example (Sections 2-3).

Every assertion here corresponds to a statement in the paper's text:
Q1's certain and maybe answers, the content of the local results R1/R2,
which assistant objects are checked where, and which unsolved items are
eliminated.
"""

import pytest

from repro.core.decompose import decompose
from repro.core.query import Path, Predicate
from repro.core.results import same_answers
from repro.core.strategies import plan_dispatch
from repro.objectdb.ids import GOid, LOid
from repro.objectdb.local_query import RowKind
from repro.sqlx import parse_query
from repro.workload.paper_example import Q1_TEXT, expected_q1_answers


ALL = ("CA", "BL", "PL", "BL-S", "PL-S")


class TestQ1Answers:
    @pytest.mark.parametrize("name", ALL)
    def test_answers_match_paper(self, school_engine, name):
        outcome = school_engine.execute(Q1_TEXT, strategy=name)
        expected = expected_q1_answers()
        assert tuple(outcome.results.certain_rows()) == expected["certain"]
        assert tuple(outcome.results.maybe_rows()) == expected["maybe"]

    def test_identities(self, school_engine):
        outcome = school_engine.execute(Q1_TEXT, strategy="BL")
        assert outcome.results.certain[0].goid == GOid("gs4")   # Hedy
        assert outcome.results.maybe[0].goid == GOid("gs2")     # Tony

    def test_tony_unsolved_predicates(self, school_engine):
        """Tony stays maybe 'because of the null values in address of
        Tony and speciality of Haley'."""
        outcome = school_engine.execute(Q1_TEXT, strategy="BL")
        tony = outcome.results.maybe[0]
        assert {str(p) for p in tony.unsolved} == {
            "address.city = 'Taipei'",
            "advisor.speciality = 'database'",
        }

    def test_all_strategies_agree(self, school_engine):
        outcomes = school_engine.compare(Q1_TEXT, strategies=list(ALL))
        baseline = outcomes["CA"].results
        for name in ALL[1:]:
            assert same_answers(baseline, outcomes[name].results)


class TestLocalResultsNarrative:
    """Figure 7: the local results R1 (DB1) and R2 (DB2) for Q1."""

    @pytest.fixture()
    def local_results(self, school):
        query = parse_query(Q1_TEXT)
        decomposed = decompose(query, school.global_schema)
        return {
            db: school.db(db).execute_local(lq)
            for db, lq in decomposed.local_queries.items()
        }

    def test_r1_rows(self, local_results):
        """R1: (s1, John), (s2, Tony), (s3, Mary) — all maybe."""
        r1 = local_results["DB1"]
        assert {row.loid.value for row in r1.rows} == {"s1", "s2", "s3"}
        assert all(row.kind is RowKind.MAYBE for row in r1.rows)

    def test_r1_bindings(self, local_results):
        r1 = local_results["DB1"]
        name = Path.parse("name")
        advisor_name = Path.parse("advisor.name")
        by_loid = {row.loid.value: row for row in r1.rows}
        assert by_loid["s1"].bindings[name] == "John"
        assert by_loid["s1"].bindings[advisor_name] == "Jeffery"
        assert by_loid["s2"].bindings[advisor_name] == "Haley"
        assert by_loid["s3"].bindings[advisor_name] == "Abel"

    def test_r1_unsolved_structure(self, local_results):
        """All R1 rows have unsolved address + advisor.speciality items;
        s3 additionally has an unsolved department predicate on t2."""
        r1 = local_results["DB1"]
        by_loid = {row.loid.value: row for row in r1.rows}
        for value in ("s1", "s2", "s3"):
            row = by_loid[value]
            assert any(
                u.original.path == Path.parse("address.city")
                for u in row.unsolved
            )
        s1_items = {i.loid.value: i for i in by_loid["s1"].unsolved_items}
        assert set(s1_items) == {"t1"}
        s3_items = {i.loid.value: i for i in by_loid["s3"].unsolved_items}
        assert set(s3_items) == {"t2"}
        s3_preds = {str(u.relative_predicate) for u in s3_items["t2"].unsolved}
        assert s3_preds == {
            "speciality = 'database'",
            "department.name = 'CS'",
        }

    def test_r2_rows(self, local_results):
        """R2: only (s1', Hedy) survives; John fails the city predicate,
        Fanny fails the speciality predicate."""
        r2 = local_results["DB2"]
        assert [row.loid.value for row in r2.rows] == ["s1'"]
        hedy = r2.rows[0]
        assert hedy.kind is RowKind.MAYBE
        items = {i.loid.value: i for i in hedy.unsolved_items}
        assert set(items) == {"t1'"}
        assert {str(u.relative_predicate) for u in items["t1'"].unsolved} == {
            "department.name = 'CS'"
        }


class TestAssistantDispatchNarrative:
    """Section 2.3: which assistants go where, with which predicates."""

    def dispatch_for(self, school, db_name):
        query = parse_query(Q1_TEXT)
        decomposed = decompose(query, school.global_schema)
        result = school.db(db_name).execute_local(
            decomposed.local_queries[db_name]
        )
        items = [i for row in result.maybe_rows for i in row.unsolved_items]
        return plan_dispatch(db_name, items, school)

    def test_db1_sends_t2prime_to_db2(self, school):
        """'the assistant object of t1, t2', is sent to DB2 with the
        predicate speciality=database'."""
        plan = self.dispatch_for(school, "DB1")
        to_db2 = [r for r in plan.requests if r.db_name == "DB2"]
        assert len(to_db2) == 1
        assert to_db2[0].loids == (LOid("DB2", "t2'"),)
        assert [str(p) for p in to_db2[0].predicates] == ["speciality = 'database'"]

    def test_db1_sends_t1doubleprime_to_db3(self, school):
        """'t1'' is sent to DB3 for the unsolved item t2 with the
        predicate on department' — and speciality is NOT sent ('no
        assistant object can provide the data of attribute speciality
        for object t2')."""
        plan = self.dispatch_for(school, "DB1")
        to_db3 = [r for r in plan.requests if r.db_name == "DB3"]
        assert len(to_db3) == 1
        assert to_db3[0].loids == (LOid("DB3", 't1"'),)
        assert [str(p) for p in to_db3[0].predicates] == [
            "department.name = 'CS'"
        ]

    def test_db2_sends_t2doubleprime_to_db3(self, school):
        """R2's unsolved item t1' is certified through t2''@DB3."""
        plan = self.dispatch_for(school, "DB2")
        to_db3 = [r for r in plan.requests if r.db_name == "DB3"]
        assert len(to_db3) == 1
        assert to_db3[0].loids == (LOid("DB3", 't2"'),)


class TestEliminationNarrative:
    """Section 2.3's post-certification eliminations."""

    def test_john_eliminated_by_absence(self, school_engine):
        """'the unsolved maybe result s1 is eliminated because its
        assistant objects are not obtained in the local results from
        DB2.'"""
        outcome = school_engine.execute(Q1_TEXT, strategy="BL")
        assert outcome.results.find(GOid("gs1")) is None

    def test_mary_eliminated_by_violation(self, school_engine):
        """t1''(Abel, EE) violates department.name=CS -> s3 eliminated."""
        outcome = school_engine.execute(Q1_TEXT, strategy="BL")
        assert outcome.results.find(GOid("gs3")) is None

    def test_fanny_eliminated_locally(self, school_engine):
        outcome = school_engine.execute(Q1_TEXT, strategy="BL")
        assert outcome.results.find(GOid("gs5")) is None

    def test_hedy_promoted_by_assistant(self, school_engine):
        """t2''@DB3 satisfies the department predicate -> Hedy certain."""
        outcome = school_engine.execute(Q1_TEXT, strategy="BL")
        hedy = outcome.results.find(GOid("gs4"))
        assert hedy is not None and hedy.is_certain


class TestDiscoveredCatalogEquivalence:
    def test_same_answers_with_discovered_isomerism(self, discovered_school):
        from repro.core.engine import GlobalQueryEngine

        engine = GlobalQueryEngine(discovered_school)
        outcome = engine.execute(Q1_TEXT, strategy="BL")
        expected = expected_q1_answers()
        assert tuple(outcome.results.certain_rows()) == expected["certain"]
        assert tuple(outcome.results.maybe_rows()) == expected["maybe"]


class TestMetricsSanity:
    @pytest.mark.parametrize("name", ALL)
    def test_times_positive_and_consistent(self, school_engine, name):
        outcome = school_engine.execute(Q1_TEXT, strategy=name)
        metrics = outcome.metrics
        assert metrics.total_time > 0
        assert 0 < metrics.response_time <= metrics.total_time
        assert metrics.certain_results == 1
        assert metrics.maybe_results == 1

    def test_localized_response_beats_centralized(self, school_engine):
        outcomes = school_engine.compare(Q1_TEXT)
        assert outcomes["BL"].response_time < outcomes["CA"].response_time * 2

    def test_signatures_reduce_network(self, school_engine):
        plain = school_engine.execute(Q1_TEXT, strategy="BL")
        signed = school_engine.execute(Q1_TEXT, strategy="BL-S")
        assert (
            signed.metrics.work.bytes_network
            <= plain.metrics.work.bytes_network
        )
        assert signed.metrics.work.signature_comparisons > 0


class TestDispatchGrouping:
    def test_same_target_requests_merge_loids(self, school):
        """Two unsolved items whose assistants live at one site with the
        same predicates travel in a single check request."""
        from repro.core.query import Path, Predicate
        from repro.core.strategies import plan_dispatch
        from repro.objectdb.ids import LOid
        from repro.objectdb.local_query import (
            UnsolvedItem,
            UnsolvedPredicateOnObject,
        )

        pred = Predicate.of("speciality", "=", "database")
        up = UnsolvedPredicateOnObject(
            original=Predicate.of("advisor.speciality", "=", "database"),
            relative_path=Path.parse("speciality"),
        )
        items = [
            UnsolvedItem(
                loid=LOid("DB1", "t1"), class_name="Teacher",
                reached_via=Path.parse("advisor"), unsolved=(up,),
            ),
            UnsolvedItem(
                loid=LOid("DB1", "t2"), class_name="Teacher",
                reached_via=Path.parse("advisor"), unsolved=(up,),
            ),
        ]
        plan = plan_dispatch("DB1", items, school)
        # t1's assistant t2' lives at DB2 (which defines speciality);
        # t2's only assistant t1''@DB3 cannot answer speciality (DB3's
        # Teacher lacks it), so nothing is dispatched for t2 — exactly
        # the paper's "no assistant object can provide the data".
        assert len(plan.requests) == 1
        request = plan.requests[0]
        assert request.db_name == "DB2"
        assert set(request.loids) == {LOid("DB2", "t2'")}

    def test_duplicate_items_dedupe_assistants(self, school):
        from repro.core.query import Path, Predicate
        from repro.core.strategies import plan_dispatch
        from repro.objectdb.ids import LOid
        from repro.objectdb.local_query import (
            UnsolvedItem,
            UnsolvedPredicateOnObject,
        )

        up = UnsolvedPredicateOnObject(
            original=Predicate.of("advisor.speciality", "=", "database"),
            relative_path=Path.parse("speciality"),
        )
        item = UnsolvedItem(
            loid=LOid("DB1", "t1"), class_name="Teacher",
            reached_via=Path.parse("advisor"), unsolved=(up,),
        )
        plan = plan_dispatch("DB1", [item, item], school)
        for request in plan.requests:
            assert len(request.loids) == len(set(request.loids))
            assert len(request.loids) == 1
