"""Condition algebra, compound conditions, and incremental repair.

Covers the `repro.conditions` package three ways: unit tests of the
3VL algebra (atom status against live :class:`SystemState` views,
strong-Kleene connectives, attach/mechanism helpers, byte-exact
:class:`DegradationReason` renders); compound outage-AND-flux
conjunctions through the engine's flux demotion; and end-to-end
answer repair on the school federation — partial recovery that stays
maybe but remains repairable, chained repair converging on the
fault-free baseline, and early discharge of an unchecked copy from an
isomeric sibling's verdict without re-contacting the dead site.
"""

import types

import pytest

from helpers import context
from repro.conditions import (
    And,
    DegradationReason,
    FluxEpoch,
    NullAttr,
    Or,
    ReasonKind,
    RepairError,
    SiteDown,
    SystemState,
    UncheckedCopy,
    attach,
    condition_sites,
    mechanism,
    rank_mechanisms,
)
from repro.core.certification import SATISFIED
from repro.core.engine import GlobalQueryEngine, _demote_uncertified
from repro.core.options import ExecutionOptions
from repro.core.results import GlobalResult, ResultKind
from repro.core.strategies import DEFAULT_REGISTRY
from repro.core.tvl import TV
from repro.faults import FaultPlan, OutageWindow
from repro.objectdb.ids import GOid
from repro.resilience.failover import pending_skips_of
from repro.workload.paper_example import Q1_TEXT

DB2_DOWN = FaultPlan.single_site_loss("DB2")
DB3_DOWN = FaultPlan.single_site_loss("DB3")
DB2_DB3_DOWN = FaultPlan(outages=(
    OutageWindow("DB2", 0.0, 1e9),
    OutageWindow("DB3", 0.0, 1e9),
))


def goid(value):
    return GOid(value=value)


def maybe_row(value, *conditions):
    row = GlobalResult(goid=goid(value), kind=ResultKind.MAYBE)
    attach(row, *conditions)
    return row


class TestSystemState:
    def test_healed_view_marks_present_sites_dischargeable(self, school):
        state = SystemState(system=school, ctx=context())
        assert state.site_status("DB1") is TV.TRUE
        assert state.site_status("DB2") is TV.TRUE

    def test_excised_site_is_permanently_false(self, school):
        state = SystemState(system=school, ctx=context())
        assert state.site_status("DBX") is TV.FALSE

    def test_outage_blocks_without_refuting(self, school):
        ctx = context(fault_plan=DB2_DOWN)
        state = SystemState(system=school, ctx=ctx)
        assert state.site_status("DB2") is TV.UNKNOWN
        assert state.site_status("DB1") is TV.TRUE

    def test_flux_label_open_vs_closed(self, school):
        state = SystemState(
            system=school, ctx=context(), flux_labels=("w1",)
        )
        assert state.flux_status("w1") is TV.UNKNOWN
        assert state.flux_status("w2") is TV.TRUE

    def test_current_snapshots_epoch(self, school):
        ctx = context()
        state = SystemState.current(school, ctx)
        assert state.epoch == school.schema_epoch
        assert state.ctx is ctx


class TestAtoms:
    def test_null_attr_never_discharges(self, school):
        atom = NullAttr(site="DB1", goid=goid("gs2"), attr="city")
        healed = SystemState(system=school, ctx=context())
        assert atom.status(healed) is TV.FALSE

    def test_site_down_tracks_live_reachability(self, school):
        atom = SiteDown(site="DB2")
        healed = SystemState(system=school, ctx=context())
        blocked = SystemState(system=school, ctx=context(fault_plan=DB2_DOWN))
        assert atom.status(healed) is TV.TRUE
        assert atom.status(blocked) is TV.UNKNOWN
        assert SiteDown(site="DBX").status(healed) is TV.FALSE

    def test_unchecked_copy_follows_holder_site(self, school):
        atom = UncheckedCopy(site="DB2", goid=goid("gt1"))
        blocked = SystemState(system=school, ctx=context(fault_plan=DB2_DOWN))
        assert atom.status(blocked) is TV.UNKNOWN
        healed = SystemState(system=school, ctx=context())
        assert atom.status(healed) is TV.TRUE

    def test_flux_epoch_clears_when_window_closes(self, school):
        atom = FluxEpoch(epoch=2, event="drop:DB1.K1.a@2")
        open_ = SystemState(
            system=school, ctx=context(), flux_labels=("drop:DB1.K1.a@2",)
        )
        assert atom.status(open_) is TV.UNKNOWN
        healed = SystemState(system=school, ctx=context())
        assert atom.status(healed) is TV.TRUE

    def test_describe_renderings(self):
        assert str(NullAttr("DB1", goid("gs1"), "a.b = 'x'")) == (
            "null[DB1:gs1:a.b = 'x']"
        )
        assert str(NullAttr("", goid("gs1"), "p")) == "null[*:gs1:p]"
        assert str(SiteDown("DB2")) == "site-down[DB2]"
        assert str(UncheckedCopy("DB2", goid("gt1"))) == "unchecked[DB2:gt1]"
        assert str(FluxEpoch(3, "w")) == "flux[w@3]"


class TestConnectives:
    """Strong-Kleene over atoms with known statuses: NullAttr is FALSE,
    a reachable SiteDown is TRUE, an outaged one UNKNOWN."""

    @pytest.fixture()
    def state(self, school):
        return SystemState(system=school, ctx=context(fault_plan=DB2_DOWN))

    def test_and_truth_table(self, state):
        true = SiteDown("DB1")
        unknown = SiteDown("DB2")
        false = NullAttr("DB1", goid("g"), "p")
        assert And((true, true)).status(state) is TV.TRUE
        assert And((true, unknown)).status(state) is TV.UNKNOWN
        assert And((false, unknown)).status(state) is TV.FALSE
        assert And(()).status(state) is TV.TRUE

    def test_or_truth_table(self, state):
        true = SiteDown("DB1")
        unknown = SiteDown("DB2")
        false = NullAttr("DB1", goid("g"), "p")
        assert Or((false, unknown)).status(state) is TV.UNKNOWN
        assert Or((true, unknown)).status(state) is TV.TRUE
        assert Or((false, false)).status(state) is TV.FALSE
        assert Or(()).status(state) is TV.FALSE

    def test_atoms_flatten_nested_connectives(self):
        a = SiteDown("DB1")
        b = NullAttr("DB1", goid("g"), "p")
        c = FluxEpoch(1, "w")
        nested = And((Or((a, b)), c))
        assert list(nested.atoms()) == [a, b, c]

    def test_connective_describe(self):
        a, b = SiteDown("DB1"), SiteDown("DB2")
        assert str(And((a, b))) == "(site-down[DB1] & site-down[DB2])"
        assert str(Or((a, b))) == "(site-down[DB1] | site-down[DB2])"


class TestAttachAndRanking:
    def test_attach_dedupes_and_sorts(self):
        row = maybe_row("g")
        attach(row, SiteDown("DB2"), NullAttr("DB1", goid("g"), "p"))
        attach(row, SiteDown("DB2"), UncheckedCopy("DB2", goid("t")))
        assert [str(c) for c in row.conditions] == [
            "null[DB1:g:p]",
            "site-down[DB2]",
            "unchecked[DB2:t]",
        ]

    def test_condition_sites_names_repair_targets(self):
        conditions = (
            NullAttr("DB1", goid("g"), "p"),
            UncheckedCopy("DB3", goid("t")),
            SiteDown("DB2"),
            FluxEpoch(1, "w"),
        )
        assert condition_sites(conditions) == ("DB2", "DB3")

    def test_mechanism_classification(self):
        null = NullAttr("DB1", goid("g"), "p")
        assert mechanism(()) == "sampling"
        assert mechanism((null,)) == "sampling"
        assert mechanism((null, SiteDown("DB2"))) == "systematic"
        assert mechanism((FluxEpoch(1, "w"),)) == "systematic"

    def test_rank_mechanisms_counts_maybe_rows(self):
        results = types.SimpleNamespace(maybe=[
            maybe_row("a", NullAttr("DB1", goid("a"), "p")),
            maybe_row("b", SiteDown("DB2")),
            maybe_row("c"),
        ])
        assert rank_mechanisms(results) == (2, 1)


class TestDegradationReason:
    """The structured reasons must render the historical note strings
    byte for byte — committed bench baselines match on them."""

    def test_site_unavailable(self):
        reason = DegradationReason.site_unavailable("DB2")
        assert reason.kind is ReasonKind.SITE_UNAVAILABLE
        assert str(reason) == "uncertified: site DB2 unavailable"

    def test_outerjoin_incomplete_sorts_sites(self):
        reason = DegradationReason.outerjoin_incomplete(["DB3", "DB1"])
        assert str(reason) == (
            "uncertified: outerjoin incomplete (site DB1, DB3 unavailable)"
        )

    def test_schema_flux(self):
        reason = DegradationReason.schema_flux("drop:DB1.K1.a@2")
        assert str(reason) == (
            "uncertified: schema in flux (drop:DB1.K1.a@2)"
        )


class FluxStub:
    """Minimal stand-in for the evolution controller's flux view."""

    def __init__(self, label, attrs):
        self.uncertified_attrs = set(attrs)
        self.open_events = [
            (label, types.SimpleNamespace(touched_attrs=set(attrs)))
        ]


class TestCompoundConditions:
    """Outage AND open-window conjunctions through flux demotion."""

    LABEL = "drop:DB2.Teacher.speciality@1"

    def test_flux_atoms_join_site_blocked_maybes(self, school_engine):
        degraded = school_engine.execute(
            Q1_TEXT, "BL", options=ExecutionOptions(fault_plan=DB2_DOWN)
        )
        query = school_engine.parse(Q1_TEXT)
        flux = FluxStub(self.LABEL, {"speciality"})
        demoted, labels = _demote_uncertified(
            degraded.results, query, flux, epoch=3
        )
        assert demoted == 0 and labels == [self.LABEL]
        rows = {str(r.goid): r for r in degraded.results.maybe}
        # gs1 is blocked by the DB2 outage: its conjunction now also
        # requires the window to close.
        gs1 = [str(c) for c in rows["gs1"].conditions]
        assert "site-down[DB2]" in gs1
        assert f"flux[{self.LABEL}@3]" in gs1
        # gs2 is maybe on genuine nulls only — no flux atom.
        assert all(
            not str(c).startswith("flux[") for c in rows["gs2"].conditions
        )

    def test_flux_demotes_certain_rows_with_atoms(self, school_engine):
        baseline = school_engine.execute(Q1_TEXT, "BL")
        query = school_engine.parse(Q1_TEXT)
        certified = {str(r.goid) for r in baseline.results.certain}
        assert certified, "baseline must certify at least one row"
        flux = FluxStub(self.LABEL, {"speciality"})
        demoted, _ = _demote_uncertified(
            baseline.results, query, flux, epoch=2
        )
        assert demoted == len(certified)
        assert not baseline.results.certain
        rows = {str(r.goid): r for r in baseline.results.maybe}
        for value in certified:
            row = rows[value]
            assert (
                f"uncertified: schema in flux ({self.LABEL})" in row.notes
            )
            assert f"flux[{self.LABEL}@2]" in [
                str(c) for c in row.conditions
            ]

    def test_unreferenced_window_is_inert(self, school_engine):
        baseline = school_engine.execute(Q1_TEXT, "BL")
        query = school_engine.parse(Q1_TEXT)
        flux = FluxStub("drop:DB1.Student.sex@1", {"sex"})
        demoted, labels = _demote_uncertified(
            baseline.results, query, flux, epoch=2
        )
        assert (demoted, labels) == (0, [])
        assert baseline.results.certain


class TestAnswerRepair:
    def test_fault_free_report_is_a_noop_repair(self, school_engine):
        report = school_engine.execute(Q1_TEXT, "BL")
        repaired = school_engine.recertify(report)
        assert repaired.results.to_dicts() == report.results.to_dicts()
        assert repaired.repair_summary.messages == 0
        assert repaired.repair_summary.sites_contacted == ()

    def test_degraded_without_conditions_is_unrepairable(
        self, school_engine
    ):
        report = school_engine.execute(
            Q1_TEXT,
            "BL",
            options=ExecutionOptions(fault_plan=DB2_DOWN, conditions=False),
        )
        assert report.repair is None
        assert all(
            not row.conditions for row in report.results.all_results()
        )
        with pytest.raises(RepairError):
            school_engine.recertify(report)

    @pytest.mark.parametrize("strategy", DEFAULT_REGISTRY.names())
    def test_fault_free_without_conditions_attaches_none(
        self, school_engine, strategy
    ):
        """Regression: AUTO's delegate used to ignore conditions=False."""
        report = school_engine.execute(
            Q1_TEXT,
            strategy,
            options=school_engine.options.with_(conditions=False),
        )
        assert report.results.maybe
        assert all(
            not row.conditions for row in report.results.all_results()
        )

    def test_partial_recovery_stays_maybe_but_repairable(
        self, school_engine
    ):
        degraded = school_engine.execute(
            Q1_TEXT, "BL", options=ExecutionOptions(fault_plan=DB2_DB3_DOWN)
        )
        assert not degraded.results.certain
        assert degraded.repair is not None

        # DB2 heals, DB3 stays dark: repair ships DB2's evidence but
        # must leave DB3-blocked rows conditional — and repairable.
        partial = school_engine.recertify(
            degraded, options=ExecutionOptions(fault_plan=DB3_DOWN)
        )
        summary = partial.repair_summary
        assert summary.sites_contacted == ("DB2",)
        assert not summary.fully_repaired
        assert summary.outstanding > 0
        assert partial.repair is not None
        rows = {str(r.goid): [str(c) for c in r.conditions]
                for r in partial.results.maybe}
        # gs4 only surfaced once DB2 healed; its teacher copy at DB3 is
        # still unchecked, so it enters conditionally, not certified.
        assert "unchecked[DB3:gt4]" in rows["gs4"]
        assert "unchecked[DB3:gt2]" in rows["gs3"]

        # DB3 heals: the chained repair converges on the fault-free
        # baseline, monotonically.
        full = school_engine.recertify(partial)
        assert full.repair_summary.fully_repaired
        assert full.repair_summary.sites_contacted == ("DB3",)
        assert full.repair_summary.promoted >= 1
        baseline = school_engine.execute(Q1_TEXT, "BL")
        assert full.results.to_dicts() == baseline.results.to_dicts()
        certified = {r.goid for r in partial.results.certain}
        assert certified <= {r.goid for r in full.results.certain}

    def test_isomeric_verdict_discharges_without_contact(
        self, school, school_engine
    ):
        """A settled verdict from an isomeric sibling copy clears an
        ``unchecked`` atom with zero messages to the dead site."""
        degraded = school_engine.execute(
            Q1_TEXT, "BL", options=ExecutionOptions(fault_plan=DB2_DOWN)
        )
        state = degraded.repair
        assert state is not None and state.skipped_requests
        for src, request in state.skipped_requests:
            for skip in pending_skips_of(school, src, request):
                placements = school.catalog.table(
                    skip.global_class
                ).loids_of(skip.goid)
                for site in sorted(placements):
                    if site != "DB2":
                        state.verdicts.add(
                            placements[site], skip.predicate, SATISFIED
                        )

        repaired = school_engine.recertify(
            degraded, options=ExecutionOptions(fault_plan=DB2_DOWN)
        )
        summary = repaired.repair_summary
        assert summary.discharged >= 1
        assert summary.messages == 0
        assert summary.sites_contacted == ()
        rows = {str(r.goid): [str(c) for c in r.conditions]
                for r in repaired.results.maybe}
        # The copy-check condition cleared from the sibling's verdict;
        # the placement outage itself is still outstanding.
        assert "unchecked[DB2:gt1]" not in rows["gs1"]
        assert "site-down[DB2]" in rows["gs1"]

    def test_conditions_excluded_from_exports(self, school_engine):
        degraded = school_engine.execute(
            Q1_TEXT, "BL", options=ExecutionOptions(fault_plan=DB2_DOWN)
        )
        assert any(row.conditions for row in degraded.results.maybe)
        for record in degraded.results.to_dicts():
            assert "conditions" not in record
