"""ExecutionOptions and per-caller sessions.

Covers the options value object (immutability, ``with_`` validation,
policy normalization), the warning-free options path, the
no-strategy-mutation regression (options reach a shared Strategy
instance only through the execution context, never as state on the
instance), and :class:`EngineSession`:
per-session defaults, per-session cache accounting summing to the
federation-wide delta, and cross-session shared-hit attribution.
"""

from __future__ import annotations

import json
import warnings

import pytest

from helpers import make_workload
from repro.core.engine import GlobalQueryEngine
from repro.core.options import OPTION_FIELDS, ExecutionOptions
from repro.faults.plan import FaultPlan
from repro.faults.policy import resolve_policy
from repro.workload.paper_example import Q1_TEXT, build_school_federation


def _digest(report) -> str:
    return json.dumps(report.results.to_dicts(), sort_keys=True)


PLAN = "DB2@0:0.8,link:*>DB3:loss0.4"


class TestExecutionOptions:
    def test_defaults(self):
        options = ExecutionOptions()
        assert options.fault_plan is None
        assert options.fault_seed == 0
        assert options.batch_checks and options.failover
        assert not options.faults_active
        assert options.policy == resolve_policy(None)

    def test_policy_normalized_at_construction(self):
        options = ExecutionOptions(policy="degrade:timeout=0.5")
        assert options.policy.timeout_s == 0.5
        assert options == ExecutionOptions(policy="degrade:timeout=0.5")

    def test_with_overrides_and_preserves(self):
        base = ExecutionOptions(fault_seed=7)
        derived = base.with_(batch_checks=False)
        assert not derived.batch_checks
        assert derived.fault_seed == 7
        assert base.batch_checks  # the original is untouched

    def test_with_rejects_unknown_names(self):
        with pytest.raises(TypeError, match="unknown execution option"):
            ExecutionOptions().with_(bogus=True)

    def test_frozen(self):
        with pytest.raises(Exception):
            ExecutionOptions().batch_checks = False

    def test_faults_active_requires_active_plan(self):
        plan = FaultPlan.from_spec(PLAN)
        assert ExecutionOptions(fault_plan=plan).faults_active
        assert not ExecutionOptions(fault_plan=FaultPlan()).faults_active

    def test_describe_mentions_every_field(self):
        text = ExecutionOptions(
            fault_plan=FaultPlan.from_spec(PLAN), fault_seed=3
        ).describe()
        for token in ("faults(", "policy=", "fault_seed=3",
                      "batch_checks=True", "failover=True"):
            assert token in text

    def test_option_fields_match_dataclass(self):
        assert set(OPTION_FIELDS) == set(
            ExecutionOptions.__dataclass_fields__
        )


class TestLegacyKwargShim:
    """``options=`` is the only way to configure one execution, and it
    must stay warning-free."""

    def test_options_path_emits_no_warning(self, school):
        engine = GlobalQueryEngine(school)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            engine.execute(
                Q1_TEXT, "BL",
                options=engine.options.with_(batch_checks=False),
            )


class TestNoStrategyMutation:
    """Regression: execute() must never mutate a shared Strategy."""

    def test_batch_override_leaves_instance_alone_fault_free(self):
        workload = make_workload(103, n_dbs=3)
        engine = GlobalQueryEngine(workload.system)
        shared = engine.registry.create("BL")
        before = dict(vars(shared))
        unbatched = engine.execute(
            workload.query, shared,
            options=engine.options.with_(batch_checks=False),
        )
        assert vars(shared) == before, (
            "engine mutated the caller's Strategy instance"
        )
        # The override still took effect: unbatched sends more messages.
        batched = engine.execute(workload.query, shared)
        assert (unbatched.metrics.work.messages
                > batched.metrics.work.messages)

    def test_batch_override_leaves_instance_alone_under_faults(self, school):
        engine = GlobalQueryEngine(school)
        shared = engine.registry.create("BL")
        before = dict(vars(shared))
        faulted = engine.options.with_(
            fault_plan=FaultPlan.from_spec(PLAN), batch_checks=False
        )
        engine.execute(Q1_TEXT, shared, options=faulted)
        assert vars(shared) == before

    def test_default_strategy_not_mutated_by_session_override(self, school):
        engine = GlobalQueryEngine(school)
        before = dict(vars(engine.default_strategy))
        session = engine.session(
            options=engine.options.with_(batch_checks=False)
        )
        session.execute(Q1_TEXT)
        assert vars(engine.default_strategy) == before

    def test_auto_delegate_honors_override_without_mutation(self):
        workload = make_workload(103, n_dbs=3)
        engine = GlobalQueryEngine(workload.system)
        auto = engine.registry.create("AUTO")
        unbatched = engine.options.with_(batch_checks=False)
        report = engine.execute(workload.query, auto, options=unbatched)
        direct = engine.execute(
            workload.query, auto.last_choice, options=unbatched
        )
        batched = engine.execute(workload.query, auto.last_choice)
        assert auto.last_choice != "CA"  # the delegate dispatches checks
        assert report.metrics.work.messages == direct.metrics.work.messages
        assert report.metrics.work.messages > batched.metrics.work.messages


class TestEngineSession:
    def test_session_defaults_inherit_engine_live(self, school):
        engine = GlobalQueryEngine(school)
        session = engine.session()
        assert session.options == engine.options
        engine.options = engine.options.with_(batch_checks=False)
        assert not session.options.batch_checks  # inherits live

    def test_session_own_options_are_isolated(self, school):
        engine = GlobalQueryEngine(school)
        session = engine.session(
            options=engine.options.with_(batch_checks=False),
            fault_seed=21,
        )
        assert not session.options.batch_checks
        assert session.options.fault_seed == 21
        assert engine.options.batch_checks
        assert engine.options.fault_seed == 0

    def test_session_default_strategy(self, school):
        engine = GlobalQueryEngine(school)
        session = engine.session(strategy="PL")
        report = session.execute(Q1_TEXT)
        assert report.metrics.strategy == "PL"
        assert engine.default_strategy.name == "BL"

    def test_sessions_autoname_and_repr(self, school):
        engine = GlobalQueryEngine(school)
        first, second = engine.session(), engine.session()
        assert first.name != second.name
        assert first.name in repr(first)

    def test_session_answers_match_engine(self, school):
        engine = GlobalQueryEngine(school)
        session = engine.session()
        assert _digest(session.execute(Q1_TEXT)) == _digest(
            engine.execute(Q1_TEXT)
        )

    def test_session_compare_agreement(self, school):
        engine = GlobalQueryEngine(school)
        outcomes = engine.session().compare(
            Q1_TEXT, strategies=("CA", "BL", "PL")
        )
        assert set(outcomes) == {"CA", "BL", "PL"}

    def test_interleaved_session_deltas_sum_to_global(self, school):
        """Two interleaved workers' cache deltas == the CacheStats delta."""
        engine = GlobalQueryEngine(school)
        alpha, beta = engine.session("alpha"), engine.session("beta")
        before = engine.system.cache_stats()
        # Interleave: A, B, A, B, ...
        for _ in range(3):
            alpha.execute(Q1_TEXT)
            beta.execute(Q1_TEXT, "PL")
        global_delta = engine.system.cache_stats().delta(before)
        assert (alpha.cache.hits + beta.cache.hits) == global_delta.hits
        assert (alpha.cache.misses + beta.cache.misses) == (
            global_delta.misses
        )
        assert alpha.executions == 3 and beta.executions == 3
        # Both workers generated real traffic of both kinds.
        assert alpha.cache.lookups > 0 and beta.cache.lookups > 0

    def test_shared_hit_attribution_across_sessions(self, school):
        """A session reusing another's decomposition pays a shared hit."""
        engine = GlobalQueryEngine(school)
        payer, rider = engine.session("payer"), engine.session("rider")
        payer.execute(Q1_TEXT)
        assert payer.shared_hits == 0
        rider.execute(Q1_TEXT)
        assert rider.shared_hits == 1
        assert engine.system.shared_hits_of("rider") == 1
        assert engine.system.shared_hits_total == 1
        # Re-use by the owner itself is not "shared".
        payer.execute(Q1_TEXT)
        assert payer.shared_hits == 0

    def test_root_execute_attributes_to_main(self, school):
        engine = GlobalQueryEngine(school)
        engine.execute(Q1_TEXT)
        engine.execute(Q1_TEXT)
        session = engine.session("other")
        session.execute(Q1_TEXT)
        assert session.shared_hits == 1  # decompose entry paid by "main"
