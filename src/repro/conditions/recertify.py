"""Incremental re-certification: monotone answer repair.

A degraded :class:`~repro.core.report.ExecutionReport` carries (a)
per-row discharge conditions and (b) a *repair state* — the exact
evidence the strategy certified over, plus the work it had to skip
(unreached local queries, undispatched check requests, stalled chase
chains, unshipped CA exports).  Given a recovered federation, the
:class:`ReCertifier` replays only that skipped work:

1. contact the sites named in outstanding conditions — nobody else;
2. fold the new evidence into the *original* evidence (verdict merges
   are order-independent, VIOLATED is sticky);
3. re-run the pure certification step over the merged evidence;
4. re-apply the flux demotion rule against the *current* evolution
   state, never touching rows the original answer already certified.

Because certification is a deterministic function of its evidence, a
fully healed repair reproduces the fault-free baseline byte for byte —
without re-running the query at any site that already answered.  The
contract is monotone: a row never loses certainty across a repair
(:class:`RepairError` if it would), and partially healed repairs return
an updated repair state so recovery can proceed in as many increments
as the federation needs.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.conditions.algebra import (
    FluxEpoch,
    NullAttr,
    SiteDown,
    SystemState,
    UncheckedCopy,
    attach,
    rank_mechanisms,
)
from repro.conditions.reasons import DegradationReason
from repro.core.tvl import TV
from repro.errors import ReproError


class RepairError(ReproError):
    """The repair contract could not be honored (or nothing to repair)."""


@dataclass
class RepairSummary:
    """What one recertification pass did, for explain/CLI/benches."""

    strategy: str
    #: Atoms from the degraded answer no longer outstanding (cleared by
    #: new evidence, isomeric coverage, or a closed evolution window).
    discharged: int = 0
    #: Maybe rows eliminated by new definitive evidence (the fault-free
    #: baseline never had them).
    refuted: int = 0
    #: Site/flux atoms still blocking rows after this pass.
    outstanding: int = 0
    #: Rows promoted maybe -> certain.
    promoted: int = 0
    #: Rows dropped from the answer entirely (== refuted rows).
    dropped: int = 0
    #: Repair exchanges only (2 per request/reply pair) — the number the
    #: recertify-vs-reexecute bench compares against a full re-run.
    messages: int = 0
    sites_contacted: Tuple[str, ...] = ()
    #: True when no repair state and no outstanding atoms remain: the
    #: answer now equals the fault-free baseline.
    fully_repaired: bool = False

    def describe(self) -> str:
        sites = ",".join(self.sites_contacted) or "-"
        return (
            f"repair[{self.strategy}]: promoted={self.promoted}"
            f" dropped={self.dropped} discharged={self.discharged}"
            f" outstanding={self.outstanding} messages={self.messages}"
            f" sites={sites}"
            + (" FULLY-REPAIRED" if self.fully_repaired else "")
        )


@dataclass
class LocalizedRepairState:
    """Everything a localized (BL/PL) repair needs — and nothing more.

    ``local_results``/``verdicts`` are the evidence the degraded run
    certified over; the ``skipped_*`` fields are the exact work units
    the fault plan forced the run to drop.  Repair = redo the skipped
    units against the healed federation, merge, re-certify.
    """

    strategy: str
    query: object
    use_signatures: bool
    columnar: bool
    #: Every decomposed per-site local query (down sites included).
    local_queries: Dict[str, object]
    #: Per-site local results actually obtained (pruned sites hold
    #: synthesized empty sets — they never need re-contact).
    local_results: Dict[str, object]
    #: Queried sites the fault plan made unreachable.
    down_sites: Tuple[str, ...]
    #: Check requests never dispatched: ``(source_site, CheckRequest)``.
    skipped_requests: Tuple[Tuple[str, object], ...]
    #: Chase chains stalled at an unreachable assistant:
    #: ``(site, orig_loid, orig_pred, holder, holder_class, remaining)``.
    skipped_chase: Tuple[Tuple, ...]
    #: VerdictIndex snapshot (cloned — safe to merge into).
    verdicts: object


@dataclass
class CentralizedRepairState:
    """A CA repair ships only the exports the degraded run skipped."""

    query: object
    columnar: bool
    involved_classes: Tuple[str, ...]
    #: global class -> site -> exported objects (the partial
    #: materialization input the degraded run fused).
    exports_by_class: Dict[str, Dict[str, list]]
    #: Sites whose exports were never shipped.
    skipped_sites: Tuple[str, ...]


def _leaf_atoms(row) -> List:
    out = []
    for condition in row.conditions:
        out.extend(condition.atoms())
    return out


class ReCertifier:
    """Monotone, incremental repair of a degraded execution report.

    *ctx* carries the reachability view the repair runs under: a
    fault-free context (what the engine builds for a fully recovered
    federation) treats every present site as reachable; a faulted one
    yields partial repairs that leave still-blocked conditions (and an
    updated repair state) in place.
    """

    def __init__(self, system, ctx):
        self.system = system
        self.ctx = ctx
        self.state = SystemState.current(system, ctx)

    # -- entry point ---------------------------------------------------

    def repair(self, report):
        """Repair *report*; returns a new, never-demoted ExecutionReport."""
        from repro.core.report import ExecutionReport

        original = report.results
        repair_state = getattr(report, "repair", None)
        protect = {row.goid for row in original.certain}

        if isinstance(repair_state, LocalizedRepairState):
            query = repair_state.query
            repaired, messages, contacted, new_state = (
                self._repair_localized(repair_state)
            )
            self._demote_flux(repaired, query, protect)
        elif isinstance(repair_state, CentralizedRepairState):
            query = repair_state.query
            repaired, messages, contacted, new_state = (
                self._repair_centralized(repair_state)
            )
            self._demote_flux(repaired, query, protect)
        else:
            degraded = not report.availability.complete
            has_conditions = any(
                row.conditions for row in original.all_results()
            )
            if degraded and not has_conditions:
                raise RepairError(
                    "report carries no repair state and no conditions; "
                    "re-run the query with conditions enabled to make "
                    "the answer repairable"
                )
            repaired = self._copy_results(original)
            messages, contacted, new_state = 0, (), None
            self._promote_flux(repaired)

        # Monotone contract: no row the original answer certified may
        # lose certainty, whatever the merged evidence now says.
        repaired_certain = {row.goid for row in repaired.certain}
        missing = sorted(
            goid.value for goid in protect - repaired_certain
        )
        if missing:
            raise RepairError(
                "repair would demote certified row(s): "
                + ", ".join(missing)
            )

        summary = self._summarize(
            report, original, repaired, messages, contacted, new_state
        )
        return self._build_report(
            ExecutionReport, report, repaired, summary, new_state
        )

    # -- localized (BL/PL) repair --------------------------------------

    def _repair_localized(self, state: LocalizedRepairState):
        from repro.core.binding_resolution import (
            ResolutionStats,
            resolve_missing_bindings,
        )
        from repro.core.certification import (
            SATISFIED,
            VIOLATED,
            certify,
        )
        from repro.core.strategies.base import (
            chase_blocked,
            plan_dispatch,
            run_checks_paired,
        )
        from repro.objectdb.local_query import BlockedAt, CheckReport
        from repro.resilience.failover import (
            covered_by_verdicts,
            pending_skips_of,
        )

        system = self.system
        verdicts = state.verdicts.clone()
        local_results = dict(state.local_results)
        messages = 0
        contacted: List[str] = []
        reports: List = []
        still_down: List[str] = []
        remaining_requests: List[Tuple[str, object]] = []

        def run_request(request) -> None:
            nonlocal messages
            for _req, rep in run_checks_paired(
                [request], system, columnar=state.columnar
            ):
                reports.append(rep)
                verdicts.add_report(rep)
            messages += 2
            if request.db_name not in contacted:
                contacted.append(request.db_name)

        # 1. Healed queried sites answer their original local queries;
        #    their maybe rows' unsolved items are dispatched as usual.
        for site in state.down_sites:
            if self.state.site_status(site) is not TV.TRUE:
                still_down.append(site)
                continue
            local_query = state.local_queries.get(site)
            if local_query is None:
                still_down.append(site)
                continue
            result = system.db(site).execute_local(
                local_query, columnar=state.columnar
            )
            local_results[site] = result
            contacted.append(site)
            messages += 2
            items = [
                item
                for row in result.maybe_rows
                for item in row.unsolved_items
            ]
            plan = plan_dispatch(
                site, items, system, use_signatures=state.use_signatures
            )
            for loid, predicate, verdict in plan.signature_verdicts:
                verdicts.add(loid, predicate, verdict)
            for request in plan.requests:
                if self.state.site_status(request.db_name) is TV.TRUE:
                    run_request(request)
                else:
                    remaining_requests.append((site, request))

        # 2. Originally skipped check requests: an isomeric copy's
        #    definitive verdict (collected elsewhere, or just merged)
        #    discharges the whole request without any contact.
        for src, request in state.skipped_requests:
            skips = pending_skips_of(system, src, request)
            if skips and all(
                covered_by_verdicts(system, verdicts, skip)
                for skip in skips
            ):
                continue
            if self.state.site_status(request.db_name) is TV.TRUE:
                run_request(request)
            else:
                remaining_requests.append((src, request))

        # 3. Stalled chase chains re-enter the chase from the exact
        #    block they stopped at — settled pairs need nothing.
        synthetic: List = []
        seen = set()
        for entry in state.skipped_chase:
            _site, orig_loid, orig_pred, holder, holder_cls, rest = entry
            if verdicts.get(orig_loid, orig_pred) in (
                SATISFIED,
                VIOLATED,
            ):
                continue
            key = (orig_loid, orig_pred, holder, rest)
            if key in seen:
                continue
            seen.add(key)
            synthetic.append(
                BlockedAt(
                    checked=orig_loid,
                    predicate=orig_pred,
                    holder=holder,
                    holder_class=holder_cls,
                    remaining=rest,
                )
            )

        remaining_chase: List[Tuple] = []
        chase_input = list(reports)
        if synthetic:
            chase_input.append(
                CheckReport(
                    db_name=system.global_site,
                    class_name="",
                    blocked=tuple(synthetic),
                )
            )
        if chase_input:
            predicates = state.query.all_predicates()
            max_rounds = max(
                (len(p.path) for p in predicates), default=0
            )
            deferred: List[Tuple] = []
            skipped_entries: List[Tuple] = []
            rounds = chase_blocked(
                chase_input,
                system,
                verdicts,
                max_rounds,
                ctx=self.ctx,
                deferred_skips=deferred,
                columnar=state.columnar,
                skip_log=skipped_entries,
            )
            for chase in rounds:
                messages += 2 * len(chase.requests)
                for request in chase.requests:
                    if request.db_name not in contacted:
                        contacted.append(request.db_name)
            for entry in skipped_entries:
                site, orig_loid, orig_pred = entry[0], entry[1], entry[2]
                holder, holder_cls, rest = entry[4], entry[5], entry[6]
                if verdicts.get(orig_loid, orig_pred) in (
                    SATISFIED,
                    VIOLATED,
                ):
                    continue
                shaped = (
                    site, orig_loid, orig_pred, holder, holder_cls, rest,
                )
                if shaped not in remaining_chase:
                    remaining_chase.append(shaped)

        # 4. Certification is pure: rerunning it over the merged
        #    evidence yields exactly what a fault-free run would have.
        answer = certify(
            state.query,
            system.global_schema,
            system.catalog,
            local_results,
            verdicts,
        )
        res_stats = ResolutionStats()
        resolve_missing_bindings(
            system, state.query, answer, ctx=self.ctx, stats=res_stats
        )
        messages += 2 * len(res_stats.fetches_by_site)
        for fetch_db in sorted(res_stats.fetches_by_site):
            if fetch_db not in contacted:
                contacted.append(fetch_db)

        # 5. Whatever is still blocked gets re-annotated, and an updated
        #    repair state keeps the answer repairable incrementally.
        new_state: Optional[LocalizedRepairState] = None
        if still_down or remaining_requests or remaining_chase:
            from repro.core.strategies.localized import annotate_site_loss

            down = set()
            skipped_goids: Dict[object, set] = {}
            for src, request in remaining_requests:
                down.add(request.db_name)
                for skip in pending_skips_of(system, src, request):
                    if not covered_by_verdicts(system, verdicts, skip):
                        skipped_goids.setdefault(skip.goid, set()).add(
                            request.db_name
                        )
            for entry in remaining_chase:
                down.add(entry[0])
            annotate_site_loss(
                system,
                state.query,
                local_results,
                answer,
                down,
                skipped_goids,
                conditions=True,
                queried_down=tuple(still_down),
            )
            new_state = LocalizedRepairState(
                strategy=state.strategy,
                query=state.query,
                use_signatures=state.use_signatures,
                columnar=state.columnar,
                local_queries=state.local_queries,
                local_results=local_results,
                down_sites=tuple(still_down),
                skipped_requests=tuple(remaining_requests),
                skipped_chase=tuple(remaining_chase),
                verdicts=verdicts,
            )
        return answer, messages, tuple(contacted), new_state

    # -- centralized (CA) repair ---------------------------------------

    def _repair_centralized(self, state: CentralizedRepairState):
        from repro.core.decompose import attributes_needed
        from repro.core.strategies.centralized import (
            demote_outerjoin_incomplete,
            evaluate_global_extent,
        )
        from repro.integration.outerjoin import materialize

        system = self.system
        schema = system.global_schema
        exports = {
            cls: dict(by_site)
            for cls, by_site in state.exports_by_class.items()
        }
        messages = 0
        contacted: List[str] = []
        still_down: List[str] = []
        for site in state.skipped_sites:
            if self.state.site_status(site) is not TV.TRUE:
                still_down.append(site)
                continue
            db = system.db(site)
            shipped = False
            for global_class in state.involved_classes:
                local_class = schema.constituent_class(site, global_class)
                if local_class is None:
                    continue
                needed = attributes_needed(
                    state.query, schema, global_class
                )
                local_needed = tuple(
                    a
                    for a in needed
                    if db.schema.cls(local_class).has_attribute(a)
                )
                exports.setdefault(global_class, {})[site] = (
                    db.scan_for_export(local_class, local_needed)
                )
                shipped = True
            if shipped:
                contacted.append(site)
                messages += 2

        extent = materialize(
            state.involved_classes,
            schema,
            system.catalog,
            exports,
            columnar=state.columnar,
        )
        answer = evaluate_global_extent(state.query, extent)
        new_state: Optional[CentralizedRepairState] = None
        if still_down:
            demote_outerjoin_incomplete(answer, still_down)
            new_state = CentralizedRepairState(
                query=state.query,
                columnar=state.columnar,
                involved_classes=state.involved_classes,
                exports_by_class=exports,
                skipped_sites=tuple(still_down),
            )
        return answer, messages, tuple(contacted), new_state

    # -- flux handling -------------------------------------------------

    def _open_hit_labels(self, query) -> List[str]:
        evo = getattr(self.system, "evolution", None)
        if evo is None or query is None:
            return []
        flux = evo.in_flux_view()
        if not flux.uncertified_attrs:
            return []
        from repro.evolution.seeding import referenced_attributes

        referenced = referenced_attributes(query)
        return [
            label
            for label, event in flux.open_events
            if any(a in referenced for a in event.touched_attrs)
        ]

    def _demote_flux(self, results, query, protect) -> int:
        """Re-apply the straddle rule against the *current* flux view.

        Rows certified by this repair while a referenced window is still
        open cannot be trusted; rows the original answer certified are
        protected (their certification predates the window — repair
        never demotes).
        """
        hit = self._open_hit_labels(query)
        if not hit:
            return 0
        from repro.core.results import ResultKind

        epoch = getattr(self.system, "schema_epoch", 0)
        atoms = [
            FluxEpoch(epoch=epoch, event=label) for label in hit
        ]
        notes = tuple(
            str(DegradationReason.schema_flux(label)) for label in hit
        )
        kept = []
        demoted = 0
        for row in results.certain:
            if row.goid in protect:
                kept.append(row)
                continue
            row.kind = ResultKind.MAYBE
            row.notes = row.notes + tuple(
                n for n in notes if n not in row.notes
            )
            attach(row, *atoms)
            results.maybe.append(row)
            demoted += 1
        results.certain[:] = kept
        # Rows still blocked on a site also wait on the open window: a
        # later repair may promote them only once *both* clear.
        for row in results.maybe:
            if any(
                isinstance(atom, (SiteDown, UncheckedCopy))
                for atom in _leaf_atoms(row)
            ):
                attach(row, *atoms)
        return demoted

    def _promote_flux(self, results) -> int:
        """Discharge flux-only rows whose windows have since closed.

        This is the state-free repair path: no site evidence is missing
        (``unsolved`` is empty, every atom is a FluxEpoch), so a closed
        window alone re-certifies the row — no contact needed.
        """
        from repro.core.results import ResultKind

        kept = []
        promoted = 0
        for row in results.maybe:
            atoms = _leaf_atoms(row)
            if (
                row.unsolved
                or not atoms
                or not all(isinstance(a, FluxEpoch) for a in atoms)
                or not all(
                    a.status(self.state) is TV.TRUE for a in atoms
                )
            ):
                kept.append(row)
                continue
            flux_notes = {
                str(DegradationReason.schema_flux(a.event)) for a in atoms
            }
            row.notes = tuple(
                n for n in row.notes if n not in flux_notes
            )
            row.conditions = ()
            row.kind = ResultKind.CERTAIN
            results.certain.append(row)
            promoted += 1
        results.maybe[:] = kept
        return promoted

    # -- bookkeeping ---------------------------------------------------

    @staticmethod
    def _copy_results(original):
        from repro.core.results import GlobalResult, ResultSet

        out = ResultSet(targets=original.targets)
        for row in original.all_results():
            out.add(
                GlobalResult(
                    goid=row.goid,
                    kind=row.kind,
                    bindings=dict(row.bindings),
                    unsolved=row.unsolved,
                    notes=row.notes,
                    conditions=row.conditions,
                )
            )
        return out

    def _summarize(
        self, report, original, repaired, messages, contacted, new_state
    ) -> RepairSummary:
        original_maybe = {row.goid: row for row in original.maybe}
        repaired_maybe = {row.goid: row for row in repaired.maybe}
        repaired_certain = {row.goid for row in repaired.certain}
        promoted = sum(
            1 for goid in original_maybe if goid in repaired_certain
        )
        dropped = sum(
            1
            for goid in original_maybe
            if goid not in repaired_certain
            and goid not in repaired_maybe
        )
        discharged = 0
        for goid, row in original_maybe.items():
            old_atoms = {
                atom
                for atom in _leaf_atoms(row)
                if not isinstance(atom, NullAttr)
            }
            if not old_atoms:
                continue
            if goid in repaired_maybe:
                new_atoms = set(_leaf_atoms(repaired_maybe[goid]))
                discharged += len(old_atoms - new_atoms)
            else:
                discharged += len(old_atoms)
        outstanding = sum(
            1
            for row in repaired.maybe
            for atom in _leaf_atoms(row)
            if not isinstance(atom, NullAttr)
            and atom.status(self.state) is not TV.TRUE
        )
        return RepairSummary(
            strategy=report.metrics.strategy,
            discharged=discharged,
            refuted=dropped,
            outstanding=outstanding,
            promoted=promoted,
            dropped=dropped,
            messages=messages,
            sites_contacted=tuple(contacted),
            fully_repaired=new_state is None and outstanding == 0,
        )

    def _build_report(
        self, report_cls, report, repaired, summary, new_state
    ):
        from repro.obs.spans import TraceEvent

        sampling, systematic = rank_mechanisms(repaired)
        availability = dataclasses.replace(
            report.availability,
            fully_recovered=(
                report.availability.fully_recovered
                or summary.fully_repaired
            ),
            maybe_sampling=sampling,
            maybe_systematic=systematic,
        )
        metrics = copy.copy(report.metrics)
        metrics.work = dataclasses.replace(report.metrics.work)
        metrics.work.messages += summary.messages
        metrics.work.conditions_discharged += summary.discharged
        metrics.certain_results = len(repaired.certain)
        metrics.maybe_results = len(repaired.maybe)
        repaired.sort()
        new_report = report_cls(
            results=repaired,
            metrics=metrics,
            availability=availability,
            repair=new_state,
            query_text=report.query_text,
            repair_summary=summary,
        )
        new_report.record_event(TraceEvent.of(
            "repair.recertify",
            strategy=summary.strategy,
            promoted=summary.promoted,
            dropped=summary.dropped,
            discharged=summary.discharged,
            outstanding=summary.outstanding,
            messages=summary.messages,
            sites=",".join(summary.sites_contacted),
        ))
        return new_report
