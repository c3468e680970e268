"""CA — the centralized approach (phase order O -> I -> P).

Every object of the local root and branch classes is shipped to the
global processing site (projected on the LOid and the attributes the
query involves, step CA_C1; a site ships column slices of its cached
columnar views).  The site outerjoins the constituent extents
of each global class over GOid (phases O and I fused, step CA_G2) and
evaluates the predicates on the materialized global classes (phase P,
step CA_G3).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.conditions.algebra import NullAttr, SiteDown, attach
from repro.conditions.reasons import DegradationReason
from repro.core.decompose import attributes_needed
from repro.core.predicates import EvalMeter
from repro.core.query import Predicate, Query
from repro.core.results import GlobalResult, ResultKind, ResultSet
from repro.core.strategies.base import Strategy, StrategyResult, fault_wait_chain
from repro.core.system import DistributedSystem
from repro.faults.injector import ExecutionContext
from repro.integration.outerjoin import (
    GlobalExtent,
    IntegrationStats,
    materialize,
)
from repro.objectdb.columnar import (
    FALSE_CODE,
    TRUE_CODE,
    UNKNOWN_CODE,
    ColumnarRows,
    ExportSlice,
)
from repro.objectdb.values import NULL
from repro.obs.spans import TraceEvent
from repro.sim.metrics import ExecutionMetrics, WorkCounters
from repro.sim.taskgraph import PHASE_I, PHASE_P, PHASE_SCAN


def export_targets(
    system: DistributedSystem,
    db_name: str,
    query: Query,
    involved_classes: Sequence[str],
) -> List[Tuple[str, str, Tuple[str, ...]]]:
    """What step CA_C1 ships from one site.

    One ``(global class, local class, projected attributes)`` entry per
    involved class the site holds a constituent of: the LOid plus the
    attributes the query involves that the local class defines.
    """
    db = system.db(db_name)
    targets = []
    for global_class in involved_classes:
        local_class = system.global_schema.constituent_class(
            db_name, global_class
        )
        if local_class is None:
            continue
        needed = attributes_needed(query, system.global_schema, global_class)
        local_cls = db.schema.cls(local_class)
        targets.append((
            global_class,
            local_class,
            tuple(a for a in needed if local_cls.has_attribute(a)),
        ))
    return targets


def export_site(
    system: DistributedSystem,
    db_name: str,
    query: Query,
    involved_classes: Sequence[str],
) -> List[Tuple[str, int, ExportSlice]]:
    """Step CA_C1 at one site: retrieve and project its extents.

    One ``(global class, projected attribute count, slice)`` entry per
    :func:`export_targets` entry.
    """
    db = system.db(db_name)
    return [
        (global_class, len(attrs), db.scan_for_export(local_class, attrs))
        for global_class, local_class, attrs in export_targets(
            system, db_name, query, involved_classes
        )
    ]


def materialize_query(
    system: DistributedSystem,
    query: Query,
    stats: Optional[IntegrationStats] = None,
) -> GlobalExtent:
    """Steps CA_C1 and CA_G2 with every site reachable.

    The global extent a fault-free CA execution evaluates in CA_G3;
    the oracle and the hot-path bench hold it (and *stats*) to the
    per-object reference,
    :func:`repro.difftest.rowpath.materialize_query_rows`.
    """
    schema = system.global_schema
    involved = (query.range_class,) + query.branch_classes(schema.schema)
    exports: Dict[str, Dict[str, ExportSlice]] = {cls: {} for cls in involved}
    for db_name in system.databases:
        for global_class, _, shipped in export_site(
            system, db_name, query, involved
        ):
            exports[global_class][db_name] = shipped
    return materialize(involved, schema, system.catalog, exports, stats)


def evaluate_global_extent(
    query: Query,
    extent: GlobalExtent,
    meter: Optional[EvalMeter] = None,
    conditions: bool = True,
) -> ResultSet:
    """Step CA_G3: evaluate the query over a materialized global extent.

    Pure over its inputs, which is what makes CA repair cheap: the
    re-certifier re-materializes with the recovered exports merged in
    and calls this again — no site re-evaluates anything.  With
    *conditions*, maybe rows carry ``NullAttr`` atoms (site ``""``: the
    null was observed on the fused global object, not at one site).

    Runs on the shared columnar kernels: one uncached
    :class:`~repro.objectdb.columnar.ColumnarRows` view whose rows are
    the range class's objects in GOid order.  Rows, ``NullAttr`` atoms,
    *meter* charges and the exception raised (the first failing row and
    predicate, in GOid order) are exactly those of the per-object
    reference, :func:`repro.difftest.rowpath.evaluate_global_extent_rows`.
    """
    meter = meter if meter is not None else EvalMeter()
    results = ResultSet(targets=query.targets)
    ordered = sorted(
        extent.extent(query.range_class).items(),
        key=lambda item: item[0].value,
    )
    goids = [goid for goid, _ in ordered]
    goid_of = attrgetter("goid")
    view = ColumnarRows([obj for _, obj in ordered], extent.deref, goid_of)
    summary = view.dnf_summary(query.where)
    codes = summary.codes
    # Like the reference, walk the targets only on rows that are not
    # FALSE: a second view over just those rows.
    kept = [row for row, code in enumerate(codes) if code != FALSE_CODE]
    survivors = ColumnarRows(
        [view.objects[row] for row in kept], extent.deref, goid_of
    )
    targets = query.targets
    walks = [survivors.walk(target) for target in targets]
    _raise_first_error(query, view, summary, kept, walks)

    # The reference charges every (conjunct, predicate) occurrence on
    # every row, and the target walks on the kept rows.
    meter.comparisons += sum(summary.comparisons)
    meter.derefs += sum(summary.derefs) + sum(sum(w.derefs) for w in walks)

    distinct: List[Predicate] = []
    for conjunct in query.where:
        for predicate in conjunct:
            if predicate not in distinct:
                distinct.append(predicate)
    pcodes = [view.predicate_column(p).codes for p in distinct]
    members = [[distinct.index(p) for p in conj] for conj in query.where]
    # A maybe row's unsolved predicates depend only on its predicate
    # codes: derive them (and their NullAttr labels) once per pattern.
    unsolved_of: Dict[
        Tuple[int, ...], Tuple[Tuple[Predicate, ...], Tuple[str, ...]]
    ] = {}
    for index, row in enumerate(kept):
        code = codes[row]
        goid = goids[row]
        bindings = {
            target: NULL if w.miss[index] is not None else w.values[index]
            for target, w in zip(targets, walks)
        }
        if code == TRUE_CODE:
            results.add(GlobalResult(
                goid=goid, kind=ResultKind.CERTAIN, bindings=bindings
            ))
            continue
        pattern = tuple(column[row] for column in pcodes)
        found = unsolved_of.get(pattern)
        if found is None:
            found = _unsolved(pattern, members, distinct)
            unsolved_of[pattern] = found
        unsolved, labels = found
        result = GlobalResult(
            goid=goid,
            kind=ResultKind.MAYBE,
            bindings=bindings,
            unsolved=unsolved,
        )
        if conditions:
            attach(result, *(
                NullAttr(site="", goid=goid, attr=label) for label in labels
            ))
        results.add(result)
    return results


def _unsolved(
    pattern: Tuple[int, ...],
    members: List[List[int]],
    distinct: List[Predicate],
) -> Tuple[Tuple[Predicate, ...], Tuple[str, ...]]:
    """``DnfOutcome.unsolved`` of a row whose predicate codes are *pattern*.

    The UNKNOWN predicates of the UNKNOWN disjuncts, first occurrence
    first; *members* lists each disjunct's indexes into *distinct*.
    """
    picked: List[int] = []
    for conjunct in members:
        codes = [pattern[i] for i in conjunct]
        if min(codes, default=TRUE_CODE) == UNKNOWN_CODE:
            for i in conjunct:
                if pattern[i] == UNKNOWN_CODE and i not in picked:
                    picked.append(i)
    unsolved = tuple(distinct[i] for i in picked)
    return unsolved, tuple(str(p) for p in unsolved)


def _raise_first_error(query: Query, view, summary, kept, walks) -> None:
    """Raise what the per-object evaluator would raise first, if anything.

    It evaluates row by row in GOid order: every predicate of every
    conjunct, then — on a row that is not FALSE (``kept``; *walks* are
    indexed by position in it) — every target walk.
    """
    failing = set(summary.error_rows)
    for walk in walks:
        failing.update(kept[index] for index in walk.errors)
    if not failing:
        return
    row = min(failing)
    for conjunct in query.where:
        for predicate in conjunct:
            errors = view.predicate_column(predicate).errors
            if row in errors:
                raise errors[row]
    index = kept.index(row)
    for walk in walks:
        if index in walk.errors:
            raise walk.errors[index]


def demote_outerjoin_incomplete(
    results: ResultSet,
    skipped_sites: Iterable[str],
    conditions: bool = True,
) -> int:
    """Degraded-answer semantics of a partial CA materialization.

    CA fuses every shipped extent into one outerjoin, erasing per-site
    provenance: with any extent missing, a TRUE predicate can rest on an
    incomplete materialization, so no row can be soundly *certified* —
    every certain result demotes to maybe.  With *conditions*, a
    ``SiteDown`` atom per skipped site lands on **all** rows (existing
    maybes included: their missing values may equally stem from the
    unshipped extent), which is what lets repair later re-materialize
    from exactly the named sites.  Returns the number of demoted rows.
    """
    skipped = sorted(skipped_sites)
    note = str(DegradationReason.outerjoin_incomplete(skipped))
    demoted = results.certain
    results.certain = []
    for result in demoted:
        result.kind = ResultKind.MAYBE
        result.notes = result.notes + (note,)
        results.maybe.append(result)
    if conditions:
        atoms = [SiteDown(site=site) for site in skipped]
        for result in results.maybe:
            attach(result, *atoms)
    return len(demoted)


class CentralizedStrategy(Strategy):
    """The paper's algorithm CA."""

    name = "CA"

    def execute(
        self,
        system: DistributedSystem,
        query: Query,
        ctx: ExecutionContext,
    ) -> StrategyResult:
        query.validate(system.global_schema.schema)
        fed = system.simulator(ctx.plan)
        work = WorkCounters()
        cost = system.cost_model
        fault_events: List[TraceEvent] = []
        skipped_sites: List[str] = []

        involved_classes = (query.range_class,) + query.branch_classes(
            system.global_schema.schema
        )

        # --- step CA_C1: each site retrieves, projects and ships extents ---
        exports_by_class: Dict[str, Dict[str, ExportSlice]] = {
            cls: {} for cls in involved_classes
        }
        ship_nodes = []
        for db_name in system.databases:
            negotiation = ctx.contact(system.global_site, db_name)
            entry_deps = fault_wait_chain(fed, ctx, negotiation, fault_events)
            if not negotiation.ok:
                # The extent never ships: the fused outerjoin will run
                # over a partial materialization.
                skipped_sites.append(db_name)
                fault_events.append(
                    TraceEvent.of(
                        "fault.site_skipped",
                        site=db_name,
                        reason=negotiation.reason,
                        attempts=len(negotiation.attempts),
                    )
                )
                continue
            site_bytes = 0
            site_objects = 0
            shipped = export_site(system, db_name, query, involved_classes)
            for global_class, n_attrs, piece in shipped:
                exports_by_class[global_class][db_name] = piece
                site_bytes += len(piece) * cost.object_bytes(n_attrs)
                site_objects += len(piece)
            if not shipped:
                continue
            work.objects_scanned += site_objects
            work.objects_shipped += site_objects
            work.bytes_disk += site_bytes
            work.bytes_network += site_bytes
            work.messages += 1
            scan = fed.disk(
                db_name,
                nbytes=site_bytes,
                label=f"CA_C1 scan@{db_name}",
                phase=PHASE_SCAN,
                deps=entry_deps,
            )
            project = fed.cpu(
                db_name,
                comparisons=site_objects,
                label=f"CA_C1 project@{db_name}",
                phase=PHASE_SCAN,
                deps=[scan],
            )
            ship_nodes.append(
                fed.transfer(
                    db_name,
                    system.global_site,
                    nbytes=site_bytes,
                    label="CA_C1 ship",
                    deps=[project],
                )
            )

        # --- step CA_G2: outerjoin over GOid at the global site (O + I) ----
        stats = IntegrationStats()
        extent = materialize(
            involved_classes,
            system.global_schema,
            system.catalog,
            exports_by_class,
            stats,
        )
        work.comparisons += stats.comparisons
        integrate = fed.cpu(
            system.global_site,
            comparisons=stats.comparisons,
            label="CA_G2 outerjoin",
            phase=PHASE_I,
            deps=ship_nodes,
        )

        # --- step CA_G3: evaluate predicates on materialized classes (P) ---
        use_conditions = ctx.options.conditions
        meter = EvalMeter()
        results = evaluate_global_extent(
            query, extent, meter, conditions=use_conditions
        )
        work.comparisons += meter.comparisons
        fed.cpu(
            system.global_site,
            comparisons=meter.comparisons,
            label="CA_G3 evaluate",
            phase=PHASE_P,
            deps=[integrate],
        )

        # --- degraded-answer semantics under site loss ---------------------
        repair_state = None
        if skipped_sites:
            demoted = demote_outerjoin_incomplete(
                results, skipped_sites, conditions=use_conditions
            )
            fault_events.append(
                TraceEvent.of(
                    "fault.degraded",
                    strategy=self.name,
                    demoted=demoted,
                    sites_skipped=",".join(sorted(skipped_sites)),
                )
            )
            if use_conditions:
                from repro.conditions.recertify import (
                    CentralizedRepairState,
                )

                repair_state = CentralizedRepairState(
                    query=query,
                    involved_classes=involved_classes,
                    exports_by_class=exports_by_class,
                    skipped_sites=tuple(sorted(skipped_sites)),
                )
                fault_events.append(
                    TraceEvent.of(
                        "conditions.attached",
                        strategy=self.name,
                        sites=",".join(sorted(skipped_sites)),
                        rows=len(results.maybe),
                    )
                )

        work.retries = ctx.retries
        work.timeouts = ctx.timeouts
        work.messages_lost = ctx.messages_lost

        outcome_sim = fed.run()
        metrics = ExecutionMetrics.from_outcome(
            self.name,
            outcome_sim,
            work,
            certain_results=len(results.certain),
            maybe_results=len(results.maybe),
            events=[TraceEvent.of(
                "ca.integrate",
                classes=len(involved_classes),
                objects_shipped=work.objects_shipped,
                outerjoin_comparisons=stats.comparisons,
            )] + fault_events,
            fault_windows=ctx.plan.fault_windows(fed.sites),
        )
        return StrategyResult(
            results=results.sort(),
            metrics=metrics,
            availability=ctx.availability(),
            repair=repair_state,
        )
