"""Tests for the adaptive strategy (analytic-model-driven selection)."""

import pytest

from helpers import context, make_workload
from repro.core.engine import GlobalQueryEngine
from repro.core.results import same_answers
from repro.core.strategies import AdaptiveStrategy, extract_params, resolve
from repro.errors import QueryError
from repro.sqlx import parse_query
from repro.workload.paper_example import Q1_TEXT, expected_q1_answers


class TestExtraction:
    def test_school_q1_params(self, school):
        params = extract_params(school, parse_query(Q1_TEXT))
        assert params.db_names == ("DB1", "DB2", "DB3")
        # Chain: Student, then branch classes.
        names_by_index = {0: "Student"}
        root = params.classes[0]
        assert root.per_db["DB1"].n_objects == 3
        assert root.per_db["DB2"].n_objects == 3
        assert root.per_db["DB3"].n_objects == 0  # no Student at DB3
        # Root-class predicates: none end on Student itself.
        assert root.n_predicates == 0

    def test_predicates_assigned_to_final_class(self, school):
        params = extract_params(school, parse_query(Q1_TEXT))
        # Teacher carries speciality; Department carries name; Address city.
        total = sum(c.n_predicates for c in params.classes)
        assert total == 3

    def test_null_ratio_sampled(self, school):
        query = parse_query(
            "Select X.name From Student X Where X.age > 25"
        )
        params = extract_params(school, query)
        root = params.classes[0]
        # DB1 defines age with no nulls; DB2 lacks it entirely.
        assert root.per_db["DB1"].n_local_pred_attrs == 1
        assert root.per_db["DB1"].r_missing == 0.0
        assert root.per_db["DB2"].n_local_pred_attrs == 0

    def test_invalid_query_rejected(self, school):
        from repro.core.query import Query

        with pytest.raises(QueryError):
            extract_params(school, Query.conjunctive("Ghost", ["x"]))


class TestAdaptiveExecution:
    def test_auto_answers_match_paper(self, school):
        engine = GlobalQueryEngine(school)
        outcome = engine.execute(Q1_TEXT, "AUTO")
        expected = expected_q1_answers()
        assert tuple(outcome.results.certain_rows()) == expected["certain"]
        assert tuple(outcome.results.maybe_rows()) == expected["maybe"]
        assert outcome.metrics.strategy.startswith("AUTO->")

    def test_choice_recorded(self, school):
        strategy = AdaptiveStrategy()
        strategy.execute(school, parse_query(Q1_TEXT), context())
        assert strategy.last_choice in ("CA", "BL", "PL")
        assert set(strategy.last_predictions) == {"CA", "BL", "PL"}

    def test_objectives(self, school):
        query = parse_query(Q1_TEXT)
        response = AdaptiveStrategy(objective="response").predict(
            school, query, context()
        )
        total = AdaptiveStrategy(objective="total").predict(
            school, query, context()
        )
        assert all(v > 0 for v in response.values())
        assert all(v > 0 for v in total.values())

    def test_bad_objective_rejected(self):
        with pytest.raises(QueryError):
            AdaptiveStrategy(objective="latency")

    def test_registry_lookup(self):
        assert resolve("auto").name == "AUTO"

    def test_auto_equivalent_on_generated(self):
        workload = make_workload(seed=404, scale=0.02)
        engine = GlobalQueryEngine(workload.system)
        baseline = engine.execute(workload.query, "CA")
        auto = engine.execute(workload.query, "AUTO")
        assert same_answers(baseline.results, auto.results)

    def test_choice_tracks_objective_ranking(self):
        workload = make_workload(seed=405, scale=0.02)
        strategy = AdaptiveStrategy(objective="response")
        strategy.execute(workload.system, workload.query, context())
        predictions = strategy.last_predictions
        assert strategy.last_choice == min(predictions, key=predictions.get)


class TestFaultAwarePrediction:
    def test_clean_prediction_unchanged_by_none_ctx(self, school):
        from repro.faults import FaultPlan

        strategy = AdaptiveStrategy()
        query = parse_query(Q1_TEXT)
        assert strategy.predict(school, query, context()) == strategy.predict(
            school, query, context(fault_plan=FaultPlan())
        )
        assert strategy.last_unreachable == ()

    def test_down_site_penalizes_ca(self, school):
        from repro.faults import FaultPlan

        strategy = AdaptiveStrategy()
        query = parse_query(Q1_TEXT)
        clean = strategy.predict(school, query, context())
        ctx = context(fault_plan=FaultPlan.single_site_loss("DB2"))
        faulted = strategy.predict(school, query, ctx)
        assert strategy.last_unreachable == ("DB2",)
        assert faulted["CA"] > clean["CA"]
        # Localized predictions are untouched.
        assert faulted["BL"] == clean["BL"]
        assert faulted["PL"] == clean["PL"]

    def test_predict_does_not_consume_negotiations(self, school):
        """Prediction must read the plan, never negotiate: availability
        bookkeeping belongs to the delegate's execution alone."""
        from repro.faults import FaultPlan

        ctx = context(fault_plan=FaultPlan.single_site_loss("DB1"))
        AdaptiveStrategy().predict(school, parse_query(Q1_TEXT), ctx)
        assert ctx.contacted == []
        assert ctx.skipped == []

    def test_fully_lossy_link_counts_as_unreachable(self, school):
        from repro.faults import FaultPlan

        # Two stacked 0.9-loss faults compose to 0.99: hopeless delivery.
        ctx = context(fault_plan=FaultPlan.from_spec(
            "link:*>DB3:loss0.9,link:GPS>DB3:loss0.9"
        ))
        strategy = AdaptiveStrategy()
        strategy.predict(school, parse_query(Q1_TEXT), ctx)
        assert "DB3" in strategy.last_unreachable

    def test_auto_event_records_unreachable(self, school):
        from repro.faults import FaultPlan

        engine = GlobalQueryEngine(school)
        report = engine.execute(
            Q1_TEXT, "AUTO",
            options=engine.options.with_(
                fault_plan=FaultPlan.single_site_loss("DB1")
            ),
        )
        events = {e.name: e.attr_dict() for e in report.metrics.events}
        assert events["auto.predict"]["unreachable"] == "DB1"

    def test_signature_variants_ranked_when_built(self, school):
        strategy = AdaptiveStrategy()
        query = parse_query(Q1_TEXT)
        assert set(strategy.predict(school, query, context())) == {
            "CA", "BL", "PL",
        }
        school.build_signatures()
        ranked = set(strategy.predict(school, query, context()))
        assert {"BL-S", "PL-S"} <= ranked
